#pragma once

// Serving telemetry: per-stream latency/throughput/drop accounting and
// the aggregate report the ServingRuntime hands back after a run. The
// quantities mirror what a production inference server exports — tail
// latency percentiles per stream, aggregate frames/s, queue depth, drop
// and failure counters, SLO burn, degradation transitions — so the bench
// harness and tests read one structure.
//
// Each frame outcome (a completion with its latency, a shed frame, or a
// frame failed at a worker or at ingress) is recorded once, into the
// stream's StreamServeStats, by the runtime's one record function; the
// same call mirrors it into the metrics registry. The report, the
// Prometheus scrape, the burn rate and the latency trigger all read that
// record.
//
// Frame accounting is a hard contract: for every stream,
//
//   enqueued == completed + dropped + shed + failed
//
// where `enqueued` counts every merged frame the ingress dispatched,
// `dropped` the frames displaced by the drop-oldest policy, `shed` the
// frames discarded because their SLO deadline had already passed before
// inference, and `failed` the frames quarantined (corrupt at ingress or
// worker retry budget exhausted). ServeReport::accounting_ok() verifies
// it, and the fault-injection soak (bench_serve_soak, test_serve) gates
// on it.
//
// Streams ingested over the wire (wire_ingress) extend the contract
// with a packet-level partition feeding the frame ledger from below:
//
//   wire_packets_seen == wire_packets_accepted + rejected_packets
//                        + duplicate_packets
//
// where `seen` counts every framed data/end-of-stream packet plus every
// framing rejection on that stream's byte feed, `rejected_packets` the
// truncated / CRC-failed / malformed packets quarantined by the
// receive path, and `duplicate_packets` the retransmission overlap the
// ARQ layer absorbed. All four lanes are zero for in-process ingress.

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "obs/profile.hpp"

namespace evedge::serve {

/// Why a frame left the pipeline without producing a result. The first
/// group is detected by ingress validation (frame_fault_of), the second
/// by the serving back half.
enum class FrameFault : std::uint8_t {
  kNone = 0,
  kGeometryMismatch,       ///< frame extents differ from the stream sensor
  kOutOfBoundsCoordinate,  ///< COO entry outside [0,H) x [0,W)
  kNonFiniteValue,         ///< NaN/Inf stored value
  kBadTiming,              ///< t_end < t_start (non-monotonic bin clock)
  kDeadlineExceeded,       ///< SLO-stale: shed before inference
  kRetriesExhausted,       ///< worker retry budget spent
};

[[nodiscard]] const char* to_string(FrameFault fault) noexcept;

/// Shed faults count in the `shed` bucket; every other non-kNone fault
/// counts in `failed` (quarantine).
[[nodiscard]] constexpr bool is_shed_fault(FrameFault fault) noexcept {
  return fault == FrameFault::kDeadlineExceeded;
}

/// One quarantined frame: it was dispatched (counted in `enqueued`) but
/// never produced a result, and the reason is recorded instead of
/// killing the run.
struct QuarantinedFrame {
  int stream_id = -1;
  std::int64_t seq = -1;
  FrameFault fault = FrameFault::kNone;
  int attempts = 0;  ///< inference attempts consumed before quarantine
};

/// Called once per frame that leaves the pipeline without a result:
/// rejected at ingress admission, shed past its deadline, or out of
/// worker retries. Called from ingress and worker threads at once —
/// implementations must be thread-safe.
using FailureSink = std::function<void(const QuarantinedFrame&)>;

/// One step of the graceful-degradation ladder (see degrade.hpp).
struct DegradationTransition {
  double t_ms = 0.0;  ///< since run start
  int from = 0;
  int to = 0;
  std::size_t queue_depth = 0;  ///< depth sample that drove the step
  /// Rolling completion p99 at the transition (0 when the latency
  /// trigger is off) — tells a latency-driven step from a queue-driven
  /// one.
  double p99_ms = 0.0;
};

/// Injected-fault counters (fault.hpp); all zero when no FaultPlan is
/// installed.
struct FaultInjectionCounts {
  std::size_t worker_exceptions = 0;
  std::size_t latency_spikes = 0;
  std::size_t corrupt_frames = 0;
  std::size_t stream_stalls = 0;
  std::size_t stream_disconnects = 0;

  [[nodiscard]] std::size_t total() const noexcept {
    return worker_exceptions + latency_spikes + corrupt_frames +
           stream_stalls + stream_disconnects;
  }
};

/// Latency sample reservoir (microseconds), in arrival order.
/// Percentiles are computed on demand over a sorted copy; serving runs
/// are bounded (thousands of frames), so keeping every sample exact
/// beats a sketch here.
class LatencyReservoir {
 public:
  void add(double latency_us) { samples_us_.push_back(latency_us); }
  void merge(const LatencyReservoir& other);

  [[nodiscard]] std::size_t count() const noexcept {
    return samples_us_.size();
  }
  [[nodiscard]] double mean_us() const noexcept;
  [[nodiscard]] double max_us() const noexcept;
  /// The sample at index round(q·(n−1)) of the n samples sorted
  /// ascending — no interpolation; q is clamped to [0, 1]. 0 when empty.
  [[nodiscard]] double percentile_us(double q) const;
  /// The most recent `n` samples (all of them when n >= count()), in
  /// arrival order: a window whose percentile_us() applies the same
  /// rank rule to just those samples.
  [[nodiscard]] LatencyReservoir recent(std::size_t n) const;
  /// Fraction of samples <= `us` (the SLO on-time ratio); 0 when empty.
  [[nodiscard]] double fraction_below_us(double us) const noexcept;

 private:
  std::vector<double> samples_us_;
};

/// Per-stream serving statistics.
struct StreamServeStats {
  int stream_id = -1;
  std::size_t raw_frames = 0;   ///< E2SF bins pushed into DSFA
  std::size_t enqueued = 0;     ///< merged frames dispatched by ingress
  std::size_t dropped = 0;      ///< frames displaced by drop-oldest
  std::size_t shed = 0;         ///< SLO-stale frames shed before inference
  std::size_t failed = 0;       ///< quarantined (corrupt / retries spent)
  std::size_t completed = 0;    ///< frames through inference
  bool ingress_failed = false;  ///< the ingress thread died mid-stream
  std::string failure_reason;   ///< first ingress failure (empty otherwise)
  double mean_frame_density = 0.0;  ///< mean merged-frame spatial density
  LatencyReservoir latency;     ///< enqueue -> inference completion

  // SLO grading (both zero unless SloConfig::deadline_ms > 0 for the
  // run): every outcome except a drop-oldest displacement is graded
  // once, when it is recorded, so slo_good + slo_bad == completed + shed
  // + failed. Deliberately NOT part of accounting_ok(): they grade
  // outcomes the frame ledger already conserves.
  std::size_t slo_good = 0;  ///< completions within the deadline
  std::size_t slo_bad = 0;   ///< deadline misses + shed + failed

  /// SLO burn rate over the run so far: the bad fraction of graded
  /// outcomes divided by the error budget (1 - kSloBurnGoodTarget). 1.0
  /// consumes the budget exactly; above it the budget exhausts early.
  /// 0 when nothing was graded.
  [[nodiscard]] double burn_rate() const noexcept;

  // Wire-ingress packet lanes (all zero for in-process ingress; see the
  // packet-partition contract at the top of this header).
  std::size_t wire_packets_seen = 0;
  std::size_t wire_packets_accepted = 0;
  std::size_t rejected_packets = 0;   ///< truncated / CRC / malformed
  std::size_t duplicate_packets = 0;  ///< ARQ retransmission overlap
  std::size_t wire_resumes = 0;       ///< reconnect resume handshakes
  // Wire session-health lanes (observability only — deliberately NOT
  // part of accounting_ok(): they describe link quality, not frame
  // conservation). Retransmission pressure shows up receiver-side as
  // duplicate_packets (the overlap) and wire_rewinds (distinct go-back-N
  // rewinds observed as the data seq jumping backwards).
  std::size_t wire_heartbeats = 0;  ///< keepalives seen while peer idles
  std::size_t wire_rewinds = 0;     ///< sender rewinds observed (ARQ)
  std::size_t wire_resyncs = 0;     ///< framing resyncs (kBadMagic skips)
  std::size_t wire_reconnects = 0;  ///< transports re-accepted mid-stream

  /// The per-stream accounting invariants: the frame ledger, and — for
  /// wire streams — the packet partition beneath it.
  [[nodiscard]] bool accounting_ok() const noexcept {
    return enqueued == completed + dropped + shed + failed &&
           wire_packets_seen == wire_packets_accepted + rejected_packets +
                                    duplicate_packets;
  }
};

/// Per-worker serving statistics.
struct WorkerServeStats {
  int worker_id = -1;
  std::size_t batches = 0;         ///< batches completed
  std::size_t batch_attempts = 0;  ///< batches started (incl. failed ones)
  std::size_t samples = 0;
  double busy_ms = 0.0;          ///< wall time inside run_events
  /// Planner warmup calibrations: one on the first batch, and one more
  /// on the first batch after each restart().
  std::size_t calibrations = 0;
  /// Always 0: a worker keeps its warmup plan for its whole life. Kept
  /// because the benchmark still reports it as serve.recalibrations.
  std::size_t recalibrations = 0;
  std::size_t failures = 0;        ///< batches aborted by an exception
  std::size_t restarts = 0;        ///< fresh-clone restarts after a failure
  std::size_t frames_retried = 0;  ///< frames re-enqueued after a failure
  std::size_t frames_shed = 0;     ///< SLO-stale frames this worker shed
  std::size_t int8_batches = 0;    ///< batches served at the int8 rung
  int plan_sparse_nodes = 0;     ///< sparse-routed nodes of the live plan

  [[nodiscard]] double mean_batch() const noexcept {
    return batches > 0
               ? static_cast<double>(samples) / static_cast<double>(batches)
               : 0.0;
  }
};

/// Per-layer execution profile of one worker (ObsConfig::layer_profiles):
/// the LayerProfiler snapshot taken after the worker's thread joined.
struct WorkerLayerProfile {
  int worker_id = -1;
  std::vector<obs::NodeRouteProfile> nodes;
};

/// Aggregate report of one ServingRuntime::run().
struct ServeReport {
  double wall_ms = 0.0;          ///< ingress start -> last worker exit
  std::size_t frames_completed = 0;
  std::size_t frames_dropped = 0;
  std::size_t frames_shed = 0;
  std::size_t frames_failed = 0;
  std::size_t queue_peak_depth = 0;
  double queue_mean_depth = 0.0;
  /// Aggregate wire-ingress lanes (sums of the per-stream lanes).
  std::size_t rejected_packets = 0;
  std::size_t duplicate_packets = 0;
  std::size_t wire_resumes = 0;
  std::size_t wire_heartbeats = 0;
  std::size_t wire_rewinds = 0;
  std::size_t wire_resyncs = 0;
  std::size_t wire_reconnects = 0;
  std::vector<StreamServeStats> streams;
  std::vector<WorkerServeStats> workers;
  /// Per-worker per-layer execution profiles (empty unless
  /// ObsConfig::layer_profiles was on for the run).
  std::vector<WorkerLayerProfile> layer_profiles;
  /// Every quarantined frame — rejected at ingress, shed, or out of
  /// worker retries — in the order the runtime recorded them.
  std::vector<QuarantinedFrame> quarantined;
  /// Degradation-ladder activity (empty when SLO degradation is off).
  std::vector<DegradationTransition> degradation;
  std::array<double, 4> ms_at_degrade_level{};  ///< wall ms per level 0-3
  int max_degrade_level = 0;
  FaultInjectionCounts faults;
  /// Set during report assembly: false if any stream's residual went
  /// negative or the per-stream drop residuals disagree with the
  /// queue-level displacement counter (an accounting bug, not a fault).
  bool accounting_valid = true;

  /// The frame-accounting contract, over every stream.
  [[nodiscard]] bool accounting_ok() const noexcept {
    if (!accounting_valid) return false;
    for (const StreamServeStats& s : streams) {
      if (!s.accounting_ok()) return false;
    }
    return true;
  }

  /// Aggregate throughput in completed frames per second.
  [[nodiscard]] double frames_per_second() const noexcept {
    return wall_ms > 0.0
               ? static_cast<double>(frames_completed) / (wall_ms / 1e3)
               : 0.0;
  }
  /// Latency percentile pooled over every stream's reservoir.
  [[nodiscard]] double percentile_us(double q) const;
  /// Fraction of pooled completion latencies <= `us` (on-time ratio
  /// against a wall deadline; the paced closed-loop bench gates on it).
  [[nodiscard]] double fraction_below_us(double us) const;
  [[nodiscard]] std::size_t total_batches() const noexcept;
  [[nodiscard]] double mean_batch() const noexcept;

  /// Human-readable multi-line summary (bench/debug output).
  [[nodiscard]] std::string describe() const;
};

}  // namespace evedge::serve
