#include "serve/degrade.hpp"

#include <algorithm>
#include <stdexcept>

namespace evedge::serve {

DegradationController::DegradationController(const SloConfig& slo,
                                             FrameQueue& queue,
                                             DegradationState& state)
    : slo_(slo), queue_(queue), state_(state),
      base_policy_(queue.policy()) {
  if (slo_.high_watermark <= slo_.low_watermark) {
    throw std::invalid_argument(
        "DegradationController: high watermark must exceed low watermark");
  }
  if (slo_.enter_intervals < 1 || slo_.exit_intervals < 1) {
    throw std::invalid_argument(
        "DegradationController: hysteresis intervals must be >= 1");
  }
  if (slo_.batch_widen_factor < 1) {
    throw std::invalid_argument(
        "DegradationController: batch_widen_factor must be >= 1");
  }
}

void DegradationController::sample(double t_ms,
                                   const LatencyReservoir& recent_latency) {
  const std::size_t depth = queue_.depth();
  const double fill =
      static_cast<double>(depth) / static_cast<double>(queue_.capacity());
  // Latency trigger: active only with a positive threshold AND at
  // least a few samples in the window (a single slow warmup frame must
  // not trip the ladder).
  const bool latency_on =
      slo_.latency_high_ms > 0.0 && recent_latency.count() >= 4;
  const double p99_ms =
      latency_on ? recent_latency.percentile_us(0.99) / 1e3 : 0.0;
  const double latency_low = slo_.latency_low_ms > 0.0
                                 ? slo_.latency_low_ms
                                 : slo_.latency_high_ms / 2.0;

  const bool high =
      fill >= slo_.high_watermark ||
      (latency_on && p99_ms >= slo_.latency_high_ms);
  const bool low = fill <= slo_.low_watermark &&
                   (!latency_on || p99_ms <= latency_low);
  if (high) {
    ++above_;
    below_ = 0;
  } else if (low) {
    ++below_;
    above_ = 0;
  } else {
    // Between the thresholds: hold the level, reset both streaks (a
    // streak must be contiguous to count as "sustained").
    above_ = 0;
    below_ = 0;
  }

  const int level = state_.level();
  if (above_ >= slo_.enter_intervals && level < slo_.max_level()) {
    move_to(t_ms, level + 1, depth, p99_ms);
    above_ = 0;
  } else if (below_ >= slo_.exit_intervals && level > kDegradeNormal) {
    move_to(t_ms, level - 1, depth, p99_ms);
    below_ = 0;
  }
}

void DegradationController::finish(double t_ms) {
  const int level = std::clamp(state_.level(), 0, 3);
  ms_at_level_[static_cast<std::size_t>(level)] +=
      std::max(0.0, t_ms - last_t_ms_);
  last_t_ms_ = t_ms;
}

void DegradationController::move_to(double t_ms, int next,
                                    std::size_t depth, double p99_ms) {
  const int level = state_.level();
  ms_at_level_[static_cast<std::size_t>(std::clamp(level, 0, 3))] +=
      std::max(0.0, t_ms - last_t_ms_);
  last_t_ms_ = t_ms;
  transitions_.push_back(
      DegradationTransition{t_ms, level, next, depth, p99_ms});
  state_.set_level(next);
  if (on_transition_) on_transition_(transitions_.back());
  max_level_reached_ = std::max(max_level_reached_, next);
  // Queue-policy side effect of rung 1: kDropOldest while degraded at
  // all, the configured baseline back at level 0. set_policy wakes any
  // producer blocked under kBlock so backpressure releases immediately.
  if (next >= kDegradeDropOldest) {
    queue_.set_policy(OverflowPolicy::kDropOldest);
  } else if (next == kDegradeNormal) {
    queue_.set_policy(base_policy_);
  }
}

}  // namespace evedge::serve
