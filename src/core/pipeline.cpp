#include "core/pipeline.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <stdexcept>

#include "core/batch_executor.hpp"

namespace evedge::core {

namespace {

struct LatencyAccumulator {
  std::vector<double> samples;
  double staleness_sum = 0.0;
  double density_sum = 0.0;

  void add_bucket(double completion_us, const sparse::SparseFrame& frame) {
    samples.push_back(completion_us - static_cast<double>(frame.t_end));
    staleness_sum += completion_us - static_cast<double>(frame.t_start);
    density_sum += frame.density();
  }
};

}  // namespace

PipelineStats simulate_pipeline(const events::EventStream& stream,
                                const nn::NetworkSpec& spec,
                                const sched::TaskMapping& mapping,
                                const hw::Platform& platform,
                                const ActivationDensityProfile& densities,
                                const PipelineConfig& config) {
  if (stream.empty()) {
    throw std::invalid_argument("simulate_pipeline: empty event stream");
  }
  if (config.frame_rate_hz <= 0.0) {
    throw std::invalid_argument("simulate_pipeline: bad frame rate");
  }

  // Grayscale frame clock spanning the stream (shared with the serving
  // ingress, so process() and serving frame identically).
  const events::FrameClock clock =
      events::FrameClock::spanning(stream, config.frame_rate_hz);

  const Event2SparseFrame e2sf(stream.geometry(), config.e2sf);
  const auto intervals = e2sf.convert_stream(stream, clock);
  std::vector<sparse::SparseFrame> frames;
  for (const auto& interval : intervals) {
    for (const sparse::SparseFrame& frame : interval) {
      frames.push_back(frame);
    }
  }
  return simulate_frame_pipeline(frames, spec, mapping, platform, densities,
                                 config);
}

PipelineStats simulate_frame_pipeline(
    const std::vector<sparse::SparseFrame>& input_frames,
    const nn::NetworkSpec& spec, const sched::TaskMapping& mapping,
    const hw::Platform& platform, const ActivationDensityProfile& densities,
    const PipelineConfig& config) {
  if (input_frames.empty()) {
    throw std::invalid_argument("simulate_frame_pipeline: no frames");
  }
  InferenceCostOptions cost_options;
  cost_options.use_sparse_routes = config.use_e2sf;
  cost_options.charge_encode_overhead = config.charge_encode_overhead;

  PipelineStats stats;
  LatencyAccumulator acc;
  double device_free_us = 0.0;
  double busy_energy_mj = 0.0;

  DynamicSparseFrameAggregator dsfa(config.dsfa);
  // Bounded FIFO for the non-DSFA variants (the DSFA variants bound
  // theirs inside the aggregator's inference queue). Real runtimes drop
  // stale inputs rather than letting the backlog grow without limit.
  std::deque<sparse::SparseFrame> plain_queue;
  const std::size_t plain_capacity = config.dsfa.inference_queue_capacity;

  const auto run_batch = [&](std::vector<sparse::SparseFrame>&& frames) {
    if (frames.empty()) return;
    if (config.executor != nullptr) {
      // Real batched execution of the dispatched merge batch; the
      // executor owns the bookkeeping (one wall-time definition:
      // run_events only) and the pipeline accumulates its deltas.
      const BatchExecutorStats before = config.executor->stats();
      (void)config.executor->execute(frames);
      const BatchExecutorStats& after = config.executor->stats();
      stats.functional_batches += after.batches - before.batches;
      stats.functional_samples += after.samples - before.samples;
      stats.functional_wall_ms += after.wall_ms - before.wall_ms;
    }
    double density = 0.0;
    double newest_arrival = 0.0;
    for (const sparse::SparseFrame& f : frames) {
      density += f.density();
      newest_arrival =
          std::max(newest_arrival, static_cast<double>(f.t_end));
    }
    density /= static_cast<double>(frames.size());
    cost_options.batch = static_cast<int>(frames.size());
    const InferenceCost cost = estimate_inference(
        spec, mapping, platform, densities, std::clamp(density, 0.0, 1.0),
        cost_options);
    const double start = std::max(device_free_us, newest_arrival);
    const double end = start + cost.latency_us;
    device_free_us = end;
    busy_energy_mj += cost.busy_energy_mj;
    stats.device_busy_us += cost.latency_us;
    ++stats.inferences;
    stats.mean_batch += static_cast<double>(frames.size());
    stats.buckets_completed += frames.size();
    for (const sparse::SparseFrame& f : frames) {
      stats.source_frames_completed +=
          static_cast<std::size_t>(f.merged_count);
      acc.add_bucket(end, f);
    }
  };

  // Runs DSFA-ready batches that the device can accept by time `now`
  // (or all of them when `flush` is set at end of stream).
  const auto service_dsfa = [&](double now_us, bool flush) {
    while (device_free_us <= now_us || flush) {
      auto batch = dsfa.take_ready_batch();
      if (!batch.has_value()) break;
      run_batch(std::move(batch->frames));
    }
  };

  // Runs plain-queue entries the device can accept by `now`.
  const auto service_plain = [&](double now_us, bool flush) {
    while (!plain_queue.empty() && (device_free_us <= now_us || flush)) {
      std::vector<sparse::SparseFrame> single;
      single.push_back(std::move(plain_queue.front()));
      plain_queue.pop_front();
      run_batch(std::move(single));
    }
  };

  for (const sparse::SparseFrame& frame : input_frames) {
    const double arrival = static_cast<double>(frame.t_end);
    ++stats.frames_generated;

    if (!config.use_dsfa) {
      service_plain(arrival, false);
      if (plain_queue.empty() && device_free_us <= arrival) {
        std::vector<sparse::SparseFrame> single{frame};
        run_batch(std::move(single));
      } else {
        if (plain_queue.size() >= plain_capacity) {
          plain_queue.pop_front();  // drop the stalest frame
          ++stats.frames_dropped;
        }
        plain_queue.push_back(frame);
      }
      continue;
    }

    // DSFA path: serve whatever the device finished first, then stage
    // the new frame (possibly triggering a buffer-overflow dispatch).
    service_dsfa(arrival, false);
    dsfa.push(frame);
    // Idle dispatch (paper: "if the hardware platform becomes
    // available before the event buffer reaches full capacity, we
    // dispatch the available merge buckets"). Under load the device is
    // busy here, so frames accumulate and merge instead.
    if (config.idle_dispatch && device_free_us <= arrival &&
        dsfa.buffered_frames() > 0) {
      dsfa.dispatch_available();
    }
    service_dsfa(arrival, false);
  }

  // End of stream: flush everything still staged or queued.
  if (config.use_dsfa) {
    dsfa.dispatch_available();
    service_dsfa(device_free_us, true);
    stats.dsfa = dsfa.stats();
    stats.frames_dropped += dsfa.stats().frames_discarded;
  } else {
    service_plain(device_free_us, true);
  }

  // --- Aggregate statistics.
  const double data_span_us =
      static_cast<double>(input_frames.back().t_end -
                          input_frames.front().t_start);
  stats.sim_span_us = std::max(device_free_us, data_span_us);
  stats.busy_energy_mj = busy_energy_mj;
  double idle_mj = 0.0;
  for (const hw::ProcessingElement& pe : platform.pes) {
    idle_mj += pe.idle_power_w * stats.sim_span_us / 1000.0;
  }
  stats.total_energy_mj = busy_energy_mj + idle_mj;

  if (!acc.samples.empty()) {
    std::sort(acc.samples.begin(), acc.samples.end());
    double sum = 0.0;
    for (double s : acc.samples) sum += s;
    const auto n = static_cast<double>(acc.samples.size());
    stats.mean_latency_us = sum / n;
    stats.max_latency_us = acc.samples.back();
    stats.p95_latency_us =
        acc.samples[static_cast<std::size_t>(0.95 * (n - 1))];
    stats.mean_staleness_us = acc.staleness_sum / n;
    stats.mean_input_density = acc.density_sum / n;
  }
  if (stats.inferences > 0) {
    stats.mean_batch /= static_cast<double>(stats.inferences);
  }
  if (stats.source_frames_completed > 0) {
    stats.mean_service_per_frame_us =
        stats.device_busy_us /
        static_cast<double>(stats.source_frames_completed);
  }
  return stats;
}

}  // namespace evedge::core
