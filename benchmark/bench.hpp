#pragma once

// Shared pieces of evbench, the serving benchmark: the workload table,
// input synthesis, the serving configuration every workload uses, the
// benchmark's own span log, and small statistics helpers.
//
// The benchmark drives the library from outside: it calls public
// functions only and records its spans around those calls. Nothing
// here adds an instrumentation site to the library.

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "events/event_stream.hpp"
#include "nn/zoo.hpp"
#include "obs/trace.hpp"
#include "serve/serving_runtime.hpp"

namespace evbench {

namespace ev = evedge::events;
namespace enn = evedge::nn;
namespace es = evedge::sparse;
namespace esv = evedge::serve;

/// Run length the workload durations below are sized for (seconds of
/// timed serving per invocation); --seconds scales every stream by
/// seconds / kDefaultSeconds.
inline constexpr double kDefaultSeconds = 20.0;
/// Weight seed of every network: the model is fixed, only the inputs
/// follow --seed.
inline constexpr std::uint64_t kWeightSeed = 7;
/// Queue capacity of every workload (the paced validity guard fails a
/// phase whose queue reached it).
inline constexpr std::size_t kQueueCapacity = 64;

/// One camera mix the benchmark serves.
struct Workload {
  std::string_view name;
  enn::NetworkId network;
  int height = 0;
  int width = 0;
  int cameras = 0;
  bool bursty = false;     ///< indoor_flying1 hover-dash profile, else steady
  double stream_s = 0.0;   ///< stream length at kDefaultSeconds
  /// Consecutive windows the streams are cut into; reps cycle through
  /// them, so a long profile is covered while each rep stays short.
  int windows = 1;
  int latency_reps = 0;      ///< timed reps at 1x sensor pace (0 = none)
  /// Wall the open-loop phase serves whole passes for, at least one (a
  /// pass serves every window once), at kDefaultSeconds (0 = no phase).
  double throughput_s = 0.0;
  double parity_s = 0.0;     ///< stream prefix the parity run serves
};

/// nullptr when no workload has that name.
[[nodiscard]] const Workload* find_workload(std::string_view name);

[[nodiscard]] enn::NetworkSpec network_spec(const Workload& w);

/// Synthesizes every camera's stream on the calling thread; camera k
/// is seeded seed + k.
[[nodiscard]] std::vector<ev::EventStream> synthesize(const Workload& w,
                                                      double duration_s,
                                                      std::uint64_t seed);

/// The events of each stream in [from_s, to_s) after its first event.
[[nodiscard]] std::vector<ev::EventStream> slices(
    std::span<const ev::EventStream> streams, double from_s, double to_s);

/// The serving configuration shared by every workload: 2 workers,
/// kernel_threads 1, queue 64 (lossless kBlock), collator 8 / 3 ms, no
/// deadline, degradation ladder off. pace 0 = open loop.
[[nodiscard]] esv::ServeConfig serve_config(double pace);

// ---------------------------------------------------------------- metrics

struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// Nearest-rank quantile (q in [0, 1]); 0 for an empty sample.
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

// ------------------------------------------------------------------- heap

/// Bytes held through operator new, which this binary replaces to count
/// them (heap.cpp).
void reset_heap_peak() noexcept;  ///< peak := live
[[nodiscard]] double heap_live_mb() noexcept;
[[nodiscard]] double heap_peak_mb() noexcept;  ///< since the last reset

// ------------------------------------------------------------------ spans

/// One span the benchmark recorded around a library call. Times are on
/// the tracer's timeline (obs::now_ns), so these spans and the
/// runtime's own land in one Chrome trace.
struct BenchSpan {
  std::int64_t id = 0;
  std::int64_t parent = 0;  ///< 0 = root
  std::string name;
  std::uint64_t t0_ns = 0;
  std::uint64_t t1_ns = 0;
  std::int64_t stream = -1;
  std::int64_t seq = -1;
  std::string attrs;  ///< extra JSON members, e.g. "\"route\":\"csr\""
};

/// In-memory span log, written out once when the benchmark ends.
class SpanLog {
 public:
  /// Opens a span starting now; returns its id.
  std::int64_t open(std::string name, std::int64_t parent,
                    std::int64_t stream = -1, std::int64_t seq = -1);
  /// Closes span `id` now; returns its duration in ns.
  std::uint64_t close(std::int64_t id, std::string attrs = {});
  /// Adds an already-timed span; returns its id.
  std::int64_t add(std::string name, std::int64_t parent, std::uint64_t t0_ns,
                   std::uint64_t t1_ns, std::string attrs = {});

  [[nodiscard]] const std::vector<BenchSpan>& spans() const noexcept {
    return spans_;
  }

 private:
  std::vector<BenchSpan> spans_;
};

/// Writes the runtime's trace events and the benchmark's spans as one
/// Chrome trace (readable by evedge_trace). Returns false on I/O error.
bool write_trace(const std::string& path,
                 std::span<const evedge::obs::TraceEvent> runtime_events,
                 const SpanLog& log);

// ----------------------------------------------------------------- layers

/// Serial replay of one stream through the layers' public calls (E2SF
/// convert, DSFA push/take, frames_to_event_steps, clone, calibrate,
/// run_batched at N=1 and N=8), with a span around each call and one
/// per engine node. `expected` is the ingress's own frame list for the
/// stream; the replay throws when its merged frames differ. Returns
/// the core.* and nn.* per-layer metrics (nn.outside_nodes_ms comes
/// from the serving trace instead).
[[nodiscard]] Metrics replay_layers(const enn::NetworkSpec& spec,
                                    const ev::EventStream& stream,
                                    std::span<const es::SparseFrame> expected,
                                    const esv::ServeConfig& config,
                                    SpanLog& log);

/// serve.* hop metrics and nn.outside_nodes_ms from the runtime's own
/// spans (queue.wait, collate.wait, frame.inference, frame.capture) of
/// a traced run with layer profiles on.
[[nodiscard]] Metrics serving_span_metrics(
    std::span<const evedge::obs::TraceEvent> events,
    const esv::ServeReport& report);

}  // namespace evbench
