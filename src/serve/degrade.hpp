#pragma once

// SLO enforcement and graceful degradation for the serving runtime.
//
// SloConfig carries the per-frame deadline (frames older than it when a
// worker picks them up are shed before inference — serving stale
// results wastes the inference budget twice) and the overload-response
// ladder. A monitor thread samples queue fill every eval_interval_ms
// and, with hysteresis (enter_intervals consecutive high samples to
// escalate, exit_intervals consecutive low samples to recover), walks
// the DegradationState one rung at a time:
//
//   level 0  normal       configured policy, configured batch size
//   level 1  drop-oldest  queue switches to kDropOldest (freshest wins)
//   level 2  wide-batch   collator batches widen by batch_widen_factor
//   level 3  int8         workers serve on the uniform int8 QuantPlan
//
// Every rung trades a little fidelity or fairness for throughput; each
// transition is recorded (time, levels, driving queue depth), and the
// time spent at each level is accounted, so a run's degradation history
// is fully reconstructable from the ServeReport. De-escalation restores
// the previous rung's behavior exactly — back at level 0 the queue runs
// its configured policy and outputs are again bitwise identical to the
// serial reference.

#include <array>
#include <atomic>
#include <functional>
#include <vector>

#include "serve/frame_queue.hpp"
#include "serve/serve_stats.hpp"

namespace evedge::serve {

/// Degradation-ladder rungs (DegradationState levels).
inline constexpr int kDegradeNormal = 0;
inline constexpr int kDegradeDropOldest = 1;
inline constexpr int kDegradeWideBatch = 2;
inline constexpr int kDegradeInt8 = 3;

/// The latency trigger's window (SloConfig::latency_high_ms): the p99
/// over the run's last kSloLatencyWindow completions, across streams.
inline constexpr std::size_t kSloLatencyWindow = 128;
/// SLO burn rate (graded whenever SloConfig::deadline_ms > 0): every
/// frame outcome except a drop-oldest displacement is graded once —
/// good when it completed within the deadline, bad when it missed it,
/// was shed, or failed — and StreamServeStats::burn_rate() reads
///
///   slo_bad / (slo_good + slo_bad) / (1 - kSloBurnGoodTarget)
///
/// over the run so far (0 before any outcome is graded). It is exported
/// as the `evedge_slo_burn_rate{stream=...}` gauge, set from the same
/// method. 1.0 means the stream consumes its error budget exactly; above
/// it, the budget exhausts early.
inline constexpr double kSloBurnGoodTarget = 0.99;  ///< in-deadline target

struct SloConfig {
  /// Per-frame service deadline, measured from queue admission; frames
  /// older than this when collated are shed before inference. 0 = no
  /// deadline (nothing is ever shed).
  double deadline_ms = 0.0;
  /// Master switch for the degradation ladder (the monitor thread only
  /// runs when set).
  bool degrade = false;
  /// Queue-fill fractions driving the ladder: sustained fill >= high
  /// escalates, sustained fill <= low recovers.
  double high_watermark = 0.75;
  double low_watermark = 0.25;
  double eval_interval_ms = 2.0;  ///< monitor sampling period
  /// Hysteresis: consecutive high samples before escalating one rung,
  /// consecutive low samples before recovering one rung (recovery is
  /// deliberately slower — flapping costs more than staying degraded).
  int enter_intervals = 3;
  int exit_intervals = 8;
  int batch_widen_factor = 2;  ///< level-2 multiplier on max_batch
  bool allow_int8 = false;     ///< level 3 reachable at all
  /// Latency-driven trigger, armed when degrade is set and
  /// latency_high_ms > 0: a sustained p99 >= latency_high_ms over the
  /// run's last kSloLatencyWindow completions escalates exactly like a
  /// sustained high queue watermark — so a worker stall that inflates
  /// tail latency WITHOUT queue growth (e.g. every stream paced well
  /// below capacity) still walks the ladder. Inert below 4 completions.
  /// Recovery then additionally requires p99 <= latency_low_ms: a
  /// drained queue with a still-hot tail stays degraded.
  double latency_high_ms = 0.0;  ///< 0 = latency trigger off
  double latency_low_ms = 0.0;   ///< recovery bound (0 = high/2)

  /// Highest reachable ladder level under these knobs.
  [[nodiscard]] int max_level() const noexcept {
    return allow_int8 ? kDegradeInt8 : kDegradeWideBatch;
  }
};

/// The live ladder level, shared between the monitor thread (writer)
/// and the workers (readers). Relaxed atomics: the level is a hint that
/// may be observed a batch late, never a synchronization point.
class DegradationState {
 public:
  [[nodiscard]] int level() const noexcept {
    return level_.load(std::memory_order_relaxed);
  }
  void set_level(int level) noexcept {
    level_.store(level, std::memory_order_relaxed);
  }

 private:
  std::atomic<int> level_{kDegradeNormal};
};

/// Hysteresis ladder walker, driven by the runtime's monitor thread
/// (sample() and finish() are called from exactly one thread; the
/// accessors only after finish()). Owns the queue-policy side effect:
/// entering level >= 1 switches the queue to kDropOldest, returning to
/// level 0 restores the configured policy.
class DegradationController {
 public:
  /// `queue` and `state` must outlive the controller; the queue's
  /// current policy is captured as the level-0 baseline.
  DegradationController(const SloConfig& slo, FrameQueue& queue,
                        DegradationState& state);

  /// Observer invoked (on the monitor thread) for every transition —
  /// the fault journal hooks in here.
  void set_transition_hook(
      std::function<void(const DegradationTransition&)> hook) {
    on_transition_ = std::move(hook);
  }

  /// One monitor tick at `t_ms` since run start: samples queue fill
  /// and, with latency_high_ms > 0, the p99 of `recent_latency` (the
  /// caller's copy of the latest completions; the trigger is inert
  /// below 4 samples), updates the hysteresis counters, walks at most
  /// one rung.
  void sample(double t_ms, const LatencyReservoir& recent_latency = {});

  /// Closes the level-time accounting at end of run.
  void finish(double t_ms);

  [[nodiscard]] const std::vector<DegradationTransition>& transitions()
      const noexcept {
    return transitions_;
  }
  [[nodiscard]] const std::array<double, 4>& ms_at_level() const noexcept {
    return ms_at_level_;
  }
  [[nodiscard]] int max_level_reached() const noexcept {
    return max_level_reached_;
  }

 private:
  void move_to(double t_ms, int next, std::size_t depth, double p99_ms);

  SloConfig slo_;
  FrameQueue& queue_;
  DegradationState& state_;
  std::function<void(const DegradationTransition&)> on_transition_;
  OverflowPolicy base_policy_;
  int above_ = 0;  ///< consecutive samples at/above the high watermark
  int below_ = 0;  ///< consecutive samples at/below the low watermark
  double last_t_ms_ = 0.0;
  int max_level_reached_ = kDegradeNormal;
  std::vector<DegradationTransition> transitions_;
  std::array<double, 4> ms_at_level_{};
};

}  // namespace evedge::serve
