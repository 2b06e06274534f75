#pragma once

// ServingRuntime: the concurrent multi-stream serving subsystem — N
// independent event streams (cameras) flow through per-stream E2SF/DSFA
// ingress stages into a bounded FrameQueue, and a pool of inference
// workers coalesces ready frames ACROSS streams into batched,
// planner-routed FunctionalNetwork::run_events calls (COO event input):
//
//   stream 0 --> StreamIngress ---.
//   stream 1 --> StreamIngress ---+--> FrameQueue --> ServeWorkerPool
//   stream N --> StreamIngress ---'     (bounded,      (BatchCollator +
//                                        block/drop)    net clone each)
//
// Determinism contract: with the drop policy disabled (kBlock), every
// (stream, seq) output is bitwise identical to per-stream serial batch-1
// execution of the same frames (run_serial, the dense reference:
// frames_to_event_steps + run_batched) — cross-stream batches give
// each lane private LIF state and per-sample arithmetic, and the planner
// routes are bitwise-neutral. Batch composition, worker count and thread
// interleaving affect only latency, never values. Under fault injection
// the contract narrows to the unaffected frames: a corrupt / stalled /
// crashed (stream, seq) is quarantined, retried, or dropped, but every
// frame that does complete is still bitwise identical to run_serial.
//
// Fault tolerance (this layer's contract): run() does not throw for
// worker-batch failures (supervised restart + retry + quarantine),
// ingress-thread failures (only that stream is marked failed; the rest
// run to completion), malformed frames (ingress validation quarantines
// them), or SLO-stale frames (shed). Per stream the report satisfies
//   enqueued == completed + dropped + shed + failed
// and ServeReport::accounting_ok() checks it — the hard invariant the
// fault-injection soak gates on.

#include <cstdint>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "events/event_stream.hpp"
#include "nn/engine.hpp"
#include "serve/degrade.hpp"
#include "serve/fault.hpp"
#include "serve/journal.hpp"
#include "serve/serve_stats.hpp"
#include "serve/stream_ingress.hpp"
#include "serve/wire_ingress.hpp"
#include "serve/worker_pool.hpp"

namespace evedge::serve {

/// Observability switches for one run: all off by default, in which
/// case the only cost left in the pipeline is the tracer's disabled
/// check (one relaxed load per instrumentation site) and a null-pointer
/// test per engine node.
struct ObsConfig {
  /// Enable the lock-free tracer for the run: serve_ingresses clears
  /// the rings, enables on entry, disables on exit, and — when
  /// trace_path is non-empty — exports the Chrome trace JSON there.
  bool trace = false;
  /// Also emit a per-node sub-span for every engine node execution
  /// (needs trace; implies the layer profiler is installed).
  bool trace_nodes = false;
  /// Publish live counters/gauges/histograms to the global
  /// MetricsRegistry during the run.
  bool metrics = false;
  /// Install a LayerProfiler per worker; snapshots land in
  /// ServeReport::layer_profiles.
  bool layer_profiles = false;
  /// Per-thread trace ring capacity installed at run start.
  std::size_t trace_ring_capacity = 1u << 16;
  /// When > 0 (and metrics is on): snapshot cadence of the Prometheus /
  /// JSON exposition files below.
  double snapshot_interval_ms = 0.0;
  std::string snapshot_prom_path{};
  std::string snapshot_json_path{};
  /// Chrome trace JSON export target ("" = keep events in the rings;
  /// collect via obs::Tracer::instance().collect()).
  std::string trace_path{};

  [[nodiscard]] bool any() const noexcept {
    return trace || trace_nodes || metrics || layer_profiles;
  }
};

struct ServeConfig {
  IngressConfig ingress{};
  WorkerConfig worker{};
  std::size_t queue_capacity = 32;
  OverflowPolicy overflow = OverflowPolicy::kBlock;
  int n_workers = 2;
  /// Per-frame deadline + graceful-degradation ladder (degrade.hpp).
  /// Defaults: no deadline, ladder off — serving behaves exactly like
  /// the fault-free PR 5 runtime.
  SloConfig slo{};
  /// Deterministic fault schedule (fault.hpp); empty = no injection.
  FaultPlan faults{};
  /// Kernel-level threads per worker, installed process-wide for the
  /// duration of run() via core::set_parallel_threads (0 = leave the
  /// ambient setting). Default 1: under concurrent serving the thread
  /// budget is spent on stream-level parallelism (workers), not on
  /// per-kernel fork-join whose spawn/join tax recurs every layer.
  int kernel_threads = 1;
  /// Record every (stream, seq) output for parity checks / consumers
  /// (costs one output-tensor copy per frame).
  bool capture_outputs = false;
  /// Crash-consistent fault journal: when non-empty, every fired fault,
  /// quarantine, rejected wire packet, and degradation transition is
  /// appended (fsync'd per line) to this file during the run. Empty =
  /// journaling off.
  std::string journal_path{};
  /// Always-on observability layer (tracing / metrics / layer profiles);
  /// everything defaults off.
  ObsConfig obs{};
};

class ServingRuntime {
 public:
  /// Builds the prototype network (weights deterministic in `seed`);
  /// workers clone it at run() time.
  ServingRuntime(nn::NetworkSpec spec, std::uint64_t seed,
                 ServeConfig config);

  /// Serves every stream to completion: one ingress thread per stream,
  /// config.n_workers inference workers. Returns the aggregate report
  /// (also retrievable via last_report()). Captured outputs, when
  /// enabled, are valid until the next run().
  ServeReport run(std::span<const events::EventStream> streams);

  /// Serves N wire sessions to completion: one WireStreamIngress per
  /// acceptor, each accepting (and re-accepting after disconnects) the
  /// receive side of a hardened wire session, sharing the same queue /
  /// worker / degradation machinery as run(). The report additionally
  /// carries the packet-partition lanes (rejected_packets etc.), and
  /// accounting_ok() checks both invariants.
  ServeReport run_wire(std::span<const TransportAcceptor> acceptors,
                       const WireIngressConfig& wire_config = {});

  /// Captured output of (stream, seq); nullptr when not captured.
  [[nodiscard]] const sparse::DenseTensor* output(int stream_id,
                                                  std::int64_t seq) const;

  [[nodiscard]] const ServeReport& last_report() const noexcept {
    return report_;
  }
  [[nodiscard]] const ServeConfig& config() const noexcept {
    return config_;
  }
  [[nodiscard]] const nn::NetworkSpec& spec() const noexcept {
    return spec_;
  }

  /// Per-stream serial reference: the same frames executed batch-1 in
  /// dispatch order, stream after stream, on a single network clone —
  /// the baseline concurrent serving is measured (and bit-checked)
  /// against. Runs with the ambient kernel-thread setting (callers pin
  /// core::set_parallel_threads to compare at equal budgets).
  struct SerialResult {
    /// outputs[stream][seq], matching StreamIngress::collect_frames.
    std::vector<std::vector<sparse::DenseTensor>> outputs;
    std::size_t frames = 0;
    double wall_ms = 0.0;

    [[nodiscard]] double frames_per_second() const noexcept {
      return wall_ms > 0.0
                 ? static_cast<double>(frames) / (wall_ms / 1e3)
                 : 0.0;
    }
  };
  /// `use_planner` mirrors WorkerConfig::use_planner (lazy warmup
  /// calibration on the first frame; that plan serves every frame).
  /// The dense reference the workers' run_events path must match: each
  /// frame runs as frames_to_event_steps + run_batched.
  [[nodiscard]] SerialResult run_serial(
      std::span<const std::vector<sparse::SparseFrame>> frames_per_stream,
      bool use_planner) const;

  /// Offline ingest of one stream (see StreamIngress::collect_frames).
  [[nodiscard]] static std::vector<sparse::SparseFrame> ingest(
      const events::EventStream& stream, const IngressConfig& config) {
    return StreamIngress::collect_frames(stream, config);
  }

 private:
  /// The shared serving body behind run() and run_wire(): drives the
  /// given ingresses (one thread each) against the queue and worker
  /// pool, runs the monitor/degradation machinery, and assembles
  /// report_. `injector` may be null (no stream/worker fault plan);
  /// `journal` may be null (journaling off).
  ServeReport serve_ingresses(std::span<IngressBase* const> ingresses,
                              FrameQueue& queue, FaultInjector* injector,
                              FaultJournal* journal);

  nn::NetworkSpec spec_;
  nn::FunctionalNetwork prototype_;
  ServeConfig config_;
  ServeReport report_;
  std::unordered_map<std::uint64_t, sparse::DenseTensor> captured_;
};

}  // namespace evedge::serve
