#include "serve/serve_stats.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "serve/degrade.hpp"

namespace evedge::serve {

const char* to_string(FrameFault fault) noexcept {
  switch (fault) {
    case FrameFault::kNone: return "none";
    case FrameFault::kGeometryMismatch: return "geometry-mismatch";
    case FrameFault::kOutOfBoundsCoordinate: return "out-of-bounds-coordinate";
    case FrameFault::kNonFiniteValue: return "non-finite-value";
    case FrameFault::kBadTiming: return "bad-timing";
    case FrameFault::kDeadlineExceeded: return "deadline-exceeded";
    case FrameFault::kRetriesExhausted: return "retries-exhausted";
  }
  return "unknown";
}

void LatencyReservoir::merge(const LatencyReservoir& other) {
  samples_us_.insert(samples_us_.end(), other.samples_us_.begin(),
                     other.samples_us_.end());
}

double LatencyReservoir::mean_us() const noexcept {
  if (samples_us_.empty()) return 0.0;
  double sum = 0.0;
  for (const double s : samples_us_) sum += s;
  return sum / static_cast<double>(samples_us_.size());
}

double LatencyReservoir::max_us() const noexcept {
  double best = 0.0;
  for (const double s : samples_us_) best = std::max(best, s);
  return best;
}

double LatencyReservoir::percentile_us(double q) const {
  if (samples_us_.empty()) return 0.0;
  std::vector<double> sorted = samples_us_;
  std::sort(sorted.begin(), sorted.end());
  const double clamped = std::clamp(q, 0.0, 1.0);
  const auto rank = static_cast<std::size_t>(
      clamped * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(rank, sorted.size() - 1)];
}

LatencyReservoir LatencyReservoir::recent(std::size_t n) const {
  LatencyReservoir window;
  const std::size_t keep = std::min(n, samples_us_.size());
  window.samples_us_.assign(
      samples_us_.end() - static_cast<std::ptrdiff_t>(keep),
      samples_us_.end());
  return window;
}

double LatencyReservoir::fraction_below_us(double us) const noexcept {
  if (samples_us_.empty()) return 0.0;
  std::size_t below = 0;
  for (const double s : samples_us_) {
    if (s <= us) ++below;
  }
  return static_cast<double>(below) /
         static_cast<double>(samples_us_.size());
}

double StreamServeStats::burn_rate() const noexcept {
  const std::size_t graded = slo_good + slo_bad;
  if (graded == 0) return 0.0;
  return static_cast<double>(slo_bad) / static_cast<double>(graded) /
         (1.0 - kSloBurnGoodTarget);
}

double ServeReport::percentile_us(double q) const {
  LatencyReservoir pooled;
  for (const StreamServeStats& s : streams) pooled.merge(s.latency);
  return pooled.percentile_us(q);
}

double ServeReport::fraction_below_us(double us) const {
  LatencyReservoir pooled;
  for (const StreamServeStats& s : streams) pooled.merge(s.latency);
  return pooled.fraction_below_us(us);
}

std::size_t ServeReport::total_batches() const noexcept {
  std::size_t n = 0;
  for (const WorkerServeStats& w : workers) n += w.batches;
  return n;
}

double ServeReport::mean_batch() const noexcept {
  std::size_t batches = 0;
  std::size_t samples = 0;
  for (const WorkerServeStats& w : workers) {
    batches += w.batches;
    samples += w.samples;
  }
  return batches > 0
             ? static_cast<double>(samples) / static_cast<double>(batches)
             : 0.0;
}

std::string ServeReport::describe() const {
  std::string out;
  char line[256];
  std::snprintf(line, sizeof(line),
                "serve: %zu frames in %.1f ms (%.1f frames/s), "
                "%zu dropped, %zu shed, %zu failed, %zu batches "
                "(mean %.2f), queue peak %zu, accounting %s\n",
                frames_completed, wall_ms, frames_per_second(),
                frames_dropped, frames_shed, frames_failed, total_batches(),
                mean_batch(), queue_peak_depth,
                accounting_ok() ? "ok" : "BROKEN");
  out += line;
  std::snprintf(line, sizeof(line),
                "latency pooled: p50 %.2f ms  p95 %.2f ms  p99 %.2f ms\n",
                percentile_us(0.50) / 1e3, percentile_us(0.95) / 1e3,
                percentile_us(0.99) / 1e3);
  out += line;
  if (rejected_packets + duplicate_packets + wire_resumes > 0) {
    std::snprintf(line, sizeof(line),
                  "wire: %zu rejected packets, %zu duplicates, "
                  "%zu resumes\n",
                  rejected_packets, duplicate_packets, wire_resumes);
    out += line;
  }
  if (wire_heartbeats + wire_rewinds + wire_resyncs + wire_reconnects >
      0) {
    std::snprintf(line, sizeof(line),
                  "wire health: %zu heartbeats, %zu rewinds seen, "
                  "%zu resyncs, %zu reconnects\n",
                  wire_heartbeats, wire_rewinds, wire_resyncs,
                  wire_reconnects);
    out += line;
  }
  if (faults.total() > 0) {
    std::snprintf(line, sizeof(line),
                  "faults injected: %zu worker-exc, %zu spikes, "
                  "%zu corrupt, %zu stalls, %zu disconnects\n",
                  faults.worker_exceptions, faults.latency_spikes,
                  faults.corrupt_frames, faults.stream_stalls,
                  faults.stream_disconnects);
    out += line;
  }
  if (!degradation.empty() || max_degrade_level > 0) {
    std::snprintf(line, sizeof(line),
                  "degradation: %zu transitions, max level %d, "
                  "ms/level [%.1f %.1f %.1f %.1f]\n",
                  degradation.size(), max_degrade_level,
                  ms_at_degrade_level[0], ms_at_degrade_level[1],
                  ms_at_degrade_level[2], ms_at_degrade_level[3]);
    out += line;
  }
  for (const StreamServeStats& s : streams) {
    std::snprintf(line, sizeof(line),
                  "  stream %d: %zu enq, %zu done, %zu drop, %zu shed, "
                  "%zu failed%s, p95 %.2f ms, density %.4f\n",
                  s.stream_id, s.enqueued, s.completed, s.dropped, s.shed,
                  s.failed, s.ingress_failed ? " [ingress failed]" : "",
                  s.latency.percentile_us(0.95) / 1e3,
                  s.mean_frame_density);
    out += line;
    if (s.slo_good + s.slo_bad > 0) {
      std::snprintf(line, sizeof(line),
                    "    slo: %zu good, %zu bad, burn rate %.2f\n",
                    s.slo_good, s.slo_bad, s.burn_rate());
      out += line;
    }
  }
  for (const WorkerServeStats& w : workers) {
    std::snprintf(line, sizeof(line),
                  "  worker %d: %zu batches, %zu samples (mean %.2f), "
                  "busy %.1f ms, %d sparse routes, "
                  "%zu failures, %zu restarts, %zu retried, %zu int8\n",
                  w.worker_id, w.batches, w.samples, w.mean_batch(),
                  w.busy_ms, w.plan_sparse_nodes,
                  w.failures, w.restarts, w.frames_retried, w.int8_batches);
    out += line;
  }
  return out;
}

}  // namespace evedge::serve
