// Serving-runtime test suite: FrameQueue policies, collator triggers,
// ingress determinism, the concurrent-vs-serial bitwise parity contract
// (drop policy disabled), drop accounting, the FunctionalNetwork clone
// contract under true thread concurrency (zoo-wide), planner drift
// re-calibration, and the hardened EVEDGE_THREADS handling — plus the
// fault-tolerance layer: deterministic fault injection, E2SF/ingress
// malformed-input validation, worker supervision (restart / retry /
// quarantine), SLO shedding, the graceful-degradation ladder, and the
// per-stream frame-accounting invariant
// (enqueued == completed + dropped + shed + failed).
//
// This suite is also the ThreadSanitizer CI target: every lock-guarded
// hand-off (queue, result sink, pool shutdown, requeue, mid-run policy
// switch, degradation monitor) is exercised under real producer/consumer
// threading here.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <optional>
#include <set>
#include <thread>
#include <vector>

#include "core/batch_executor.hpp"
#include "core/dsfa.hpp"
#include "core/e2sf.hpp"
#include "core/parallel.hpp"
#include "events/density_profile.hpp"
#include "events/event_synth.hpp"
#include "nn/engine.hpp"
#include "nn/zoo.hpp"
#include "quant/accuracy.hpp"
#include "serve/serving_runtime.hpp"
#include "sparse/tensor.hpp"

namespace ec = evedge::core;
namespace ee = evedge::events;
namespace en = evedge::nn;
namespace eq = evedge::quant;
namespace es = evedge::sparse;
namespace ev = evedge::serve;

namespace {

/// Event stream matched to a network-input geometry (serving tests run
/// the functional nets at test scale, so the sensor matches the input).
ee::EventStream matched_stream(int h, int w, double rate_scale,
                               ee::TimeUs duration, std::uint64_t seed) {
  ee::SynthConfig cfg;
  cfg.geometry = ee::SensorGeometry{w, h};
  cfg.seed = seed;
  cfg.blob_count = 3;
  ee::DensityProfile profile("test", 40.0 * rate_scale, {}, 10.0 * rate_scale,
                             0.4);
  return ee::PoissonEventSynthesizer(profile, cfg).generate(0, duration);
}

/// A ReadyFrame wrapping a synthetic sparse frame of roughly `fill`
/// site density at the given geometry.
ev::ReadyFrame synthetic_ready(int stream_id, std::int64_t seq, int h,
                               int w, double fill, std::uint64_t seed) {
  es::DenseTensor dense(es::TensorShape{1, 2, h, w});
  dense.fill_random(seed);
  const auto keep_every = fill > 0.0
                              ? static_cast<std::size_t>(1.0 / fill)
                              : dense.size();
  std::size_t i = 0;
  for (float& v : dense.data()) {
    if (i++ % keep_every != 0) v = 0.0f;
    v = v < 0.0f ? -v : v;  // event counts are non-negative
  }
  ev::ReadyFrame ready;
  ready.stream_id = stream_id;
  ready.seq = seq;
  ready.frame = es::SparseFrame::from_dense(dense);
  ready.enqueue_tp = std::chrono::steady_clock::now();
  return ready;
}

ev::IngressConfig test_ingress() {
  ev::IngressConfig config;
  config.frame_rate_hz = 30.0;
  config.dsfa.event_buffer_size = 6;
  config.dsfa.merge_bucket_capacity = 3;
  return config;
}

}  // namespace

// ------------------------------------------------------- EVEDGE_THREADS

TEST(ParallelThreads, ParseRejectsGarbage) {
  EXPECT_EQ(ec::parse_thread_override(nullptr), 0);
  EXPECT_EQ(ec::parse_thread_override(""), 0);
  EXPECT_EQ(ec::parse_thread_override("abc"), 0);
  EXPECT_EQ(ec::parse_thread_override("4abc"), 0);
  EXPECT_EQ(ec::parse_thread_override("0"), 0);
  EXPECT_EQ(ec::parse_thread_override("-3"), 0);
  EXPECT_EQ(ec::parse_thread_override("1e9"), 0);
  EXPECT_EQ(ec::parse_thread_override("99999999999999999999"), 0);
  EXPECT_EQ(ec::parse_thread_override("4.5"), 0);
  EXPECT_EQ(ec::parse_thread_override(" 4"), 4);  // strtol skips blanks
  EXPECT_EQ(ec::parse_thread_override("4"), 4);
  EXPECT_EQ(ec::parse_thread_override("1024"), 1024);
  EXPECT_EQ(ec::parse_thread_override("1025"), 0);  // above the cap
}

TEST(ParallelThreads, MalformedEnvFallsBackToHardware) {
  const unsigned hw = std::thread::hardware_concurrency();
  const int fallback = hw > 0 ? static_cast<int>(hw) : 1;
  for (const char* bad : {"junk", "0", "-2", "2x", ""}) {
    ASSERT_EQ(setenv("EVEDGE_THREADS", bad, 1), 0);
    EXPECT_EQ(ec::parallel_thread_count(), fallback) << "value: " << bad;
  }
  ASSERT_EQ(setenv("EVEDGE_THREADS", "3", 1), 0);
  EXPECT_EQ(ec::parallel_thread_count(), 3);
  ASSERT_EQ(unsetenv("EVEDGE_THREADS"), 0);
  EXPECT_EQ(ec::parallel_thread_count(), fallback);
}

TEST(ParallelThreads, ProgrammaticOverrideWinsOverEnv) {
  ASSERT_EQ(setenv("EVEDGE_THREADS", "3", 1), 0);
  const int previous = ec::set_parallel_threads(2);
  EXPECT_EQ(ec::parallel_thread_count(), 2);
  ec::set_parallel_threads(previous);
  EXPECT_EQ(ec::parallel_thread_count(), 3);
  ASSERT_EQ(unsetenv("EVEDGE_THREADS"), 0);
}

// ------------------------------------------------------ DSFA density signal

TEST(DsfaDensity, RecentDensityTracksPushedFrames) {
  ec::DsfaConfig config;
  config.density_ema_alpha = 0.5;
  config.event_buffer_size = 100;  // no dispatch interference
  ec::DynamicSparseFrameAggregator dsfa(config);
  EXPECT_EQ(dsfa.recent_density(), 0.0);
  EXPECT_EQ(dsfa.density_drift(0.5), 0.0);  // no signal yet

  const auto frame_of = [](double fill, std::uint64_t seed) {
    return synthetic_ready(0, 0, 24, 32, fill, seed).frame;
  };
  const es::SparseFrame sparse = frame_of(0.02, 1);
  dsfa.push(sparse);
  EXPECT_DOUBLE_EQ(dsfa.recent_density(), sparse.density());

  // A run of much denser frames pulls the EMA toward their density.
  const es::SparseFrame dense_frame = frame_of(0.5, 2);
  for (int i = 0; i < 8; ++i) dsfa.push(dense_frame);
  EXPECT_GT(dsfa.recent_density(), 0.9 * dense_frame.density());
  EXPECT_GT(dsfa.density_drift(sparse.density()), 2.0);
}

TEST(DsfaDensity, RejectsBadAlpha) {
  ec::DsfaConfig config;
  config.density_ema_alpha = 0.0;
  EXPECT_THROW(ec::DynamicSparseFrameAggregator{config},
               std::invalid_argument);
  config.density_ema_alpha = 1.5;
  EXPECT_THROW(ec::DynamicSparseFrameAggregator{config},
               std::invalid_argument);
}

// ------------------------------------------------------------- FrameQueue

TEST(FrameQueue, FifoOrderAndDrainAfterClose) {
  ev::FrameQueue queue(8, ev::OverflowPolicy::kBlock);
  for (int i = 0; i < 5; ++i) {
    EXPECT_FALSE(
        queue.push(synthetic_ready(0, i, 8, 8, 0.1, 7)).has_value());
  }
  queue.close();
  for (int i = 0; i < 5; ++i) {
    const auto frame = queue.pop();
    ASSERT_TRUE(frame.has_value());
    EXPECT_EQ(frame->seq, i);
  }
  EXPECT_FALSE(queue.pop().has_value());  // closed and drained
  EXPECT_EQ(queue.peak_depth(), 5u);
}

TEST(FrameQueue, DropOldestDisplacesAndCounts) {
  ev::FrameQueue queue(2, ev::OverflowPolicy::kDropOldest);
  EXPECT_FALSE(queue.push(synthetic_ready(0, 0, 8, 8, 0.1, 7)).has_value());
  EXPECT_FALSE(queue.push(synthetic_ready(0, 1, 8, 8, 0.1, 7)).has_value());
  const auto displaced = queue.push(synthetic_ready(0, 2, 8, 8, 0.1, 7));
  ASSERT_TRUE(displaced.has_value());
  EXPECT_EQ(displaced->seq, 0);  // oldest out
  EXPECT_EQ(queue.dropped(), 1u);
  const auto next = queue.pop();
  ASSERT_TRUE(next.has_value());
  EXPECT_EQ(next->seq, 1);
}

TEST(FrameQueue, BlockPolicyExertsBackpressure) {
  ev::FrameQueue queue(1, ev::OverflowPolicy::kBlock);
  EXPECT_FALSE(queue.push(synthetic_ready(0, 0, 8, 8, 0.1, 7)).has_value());

  std::atomic<bool> second_pushed{false};
  std::thread producer([&] {
    (void)queue.push(synthetic_ready(0, 1, 8, 8, 0.1, 7));
    second_pushed.store(true);
  });
  // The producer must be blocked while the queue is full.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(second_pushed.load());

  EXPECT_TRUE(queue.pop().has_value());  // frees the slot
  producer.join();
  EXPECT_TRUE(second_pushed.load());
  EXPECT_EQ(queue.dropped(), 0u);
}

TEST(FrameQueue, CloseReleasesBlockedProducer) {
  ev::FrameQueue queue(1, ev::OverflowPolicy::kBlock);
  EXPECT_FALSE(queue.push(synthetic_ready(0, 0, 8, 8, 0.1, 7)).has_value());
  std::optional<ev::ReadyFrame> rejected;
  std::thread producer([&] {
    rejected = queue.push(synthetic_ready(0, 1, 8, 8, 0.1, 7));
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  queue.close();
  producer.join();
  ASSERT_TRUE(rejected.has_value());  // returned unaccepted
  EXPECT_EQ(rejected->seq, 1);
}

// ----------------------------------------------------------- BatchCollator

TEST(BatchCollator, SizeTriggerFillsToMaxBatch) {
  ev::FrameQueue queue(16, ev::OverflowPolicy::kBlock);
  for (int i = 0; i < 7; ++i) {
    (void)queue.push(synthetic_ready(i % 3, i, 8, 8, 0.1, 7));
  }
  ev::BatchCollator collator({.max_batch = 4, .max_wait_us = 1e6});
  std::vector<ev::ReadyFrame> batch;
  ASSERT_TRUE(collator.collect(queue, batch));
  EXPECT_EQ(batch.size(), 4u);  // size-triggered, no deadline wait
  queue.close();
  ASSERT_TRUE(collator.collect(queue, batch));
  EXPECT_EQ(batch.size(), 3u);  // drains the remainder after close
  EXPECT_FALSE(collator.collect(queue, batch));
}

TEST(BatchCollator, DeadlineTriggerReturnsPartialBatch) {
  ev::FrameQueue queue(16, ev::OverflowPolicy::kBlock);
  (void)queue.push(synthetic_ready(0, 0, 8, 8, 0.1, 7));
  ev::BatchCollator collator({.max_batch = 8, .max_wait_us = 5e3});
  std::vector<ev::ReadyFrame> batch;
  const auto t0 = std::chrono::steady_clock::now();
  ASSERT_TRUE(collator.collect(queue, batch));
  const double waited_us =
      std::chrono::duration<double, std::micro>(
          std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_EQ(batch.size(), 1u);
  EXPECT_GE(waited_us, 4e3);  // held for the deadline before giving up
  queue.close();
}

// ----------------------------------------------------------- StreamIngress

TEST(StreamIngress, OfflineCollectIsDeterministicAndMatchesLiveRun) {
  const auto stream = matched_stream(32, 44, 1.0, 400'000, 11);
  const ev::IngressConfig config = test_ingress();
  const auto frames_a = ev::StreamIngress::collect_frames(stream, config);
  const auto frames_b = ev::StreamIngress::collect_frames(stream, config);
  ASSERT_FALSE(frames_a.empty());
  ASSERT_EQ(frames_a.size(), frames_b.size());
  for (std::size_t i = 0; i < frames_a.size(); ++i) {
    EXPECT_EQ(frames_a[i].nnz(), frames_b[i].nnz());
    EXPECT_EQ(frames_a[i].t_start, frames_b[i].t_start);
  }

  ev::FrameQueue queue(1024, ev::OverflowPolicy::kBlock);
  ev::StreamIngress ingress(0, stream, config, queue);
  ingress.run();
  EXPECT_EQ(ingress.stats().enqueued, frames_a.size());
  EXPECT_GT(ingress.stats().raw_frames, frames_a.size());  // DSFA merges
  EXPECT_GT(ingress.stats().last_ingress_density, 0.0);
  std::size_t drained = 0;
  queue.close();
  while (auto frame = queue.pop()) {
    EXPECT_EQ(frame->seq, static_cast<std::int64_t>(drained));
    EXPECT_EQ(frame->frame.nnz(), frames_a[drained].nnz());
    EXPECT_GT(frame->ingress_density, 0.0);
    ++drained;
  }
  EXPECT_EQ(drained, frames_a.size());
}

// ------------------------------------------- concurrent-vs-serial parity

namespace {

/// Runs the full parity contract on one network: concurrent serving
/// (block policy, capture on) must produce bitwise-identical outputs to
/// per-stream serial batch-1 execution, for every (stream, seq).
void expect_serving_parity(en::NetworkId id, bool planner) {
  const en::NetworkSpec spec =
      en::build_network(id, en::ZooConfig::test_scale());
  const auto shape =
      spec.graph.node(spec.graph.input_ids().front()).spec.out_shape;

  std::vector<ee::EventStream> streams;
  for (std::uint64_t s = 0; s < 3; ++s) {
    streams.push_back(matched_stream(shape.h, shape.w, 1.0 + 0.5 * s,
                                     300'000, 21 + s));
  }

  ev::ServeConfig config;
  config.ingress = test_ingress();
  config.n_workers = 2;
  config.capture_outputs = true;
  config.worker.use_planner = planner;
  config.worker.collator.max_batch = 4;
  ev::ServingRuntime runtime(spec, 7, config);

  const ev::ServeReport report = runtime.run(streams);
  EXPECT_EQ(report.frames_dropped, 0u);
  ASSERT_EQ(report.streams.size(), streams.size());

  std::vector<std::vector<es::SparseFrame>> frames;
  for (const ee::EventStream& stream : streams) {
    frames.push_back(ev::ServingRuntime::ingest(stream, config.ingress));
  }
  const auto serial = runtime.run_serial(frames, planner);

  std::size_t checked = 0;
  for (std::size_t s = 0; s < frames.size(); ++s) {
    ASSERT_EQ(report.streams[s].completed, frames[s].size());
    for (std::size_t i = 0; i < frames[s].size(); ++i) {
      const es::DenseTensor* served =
          runtime.output(static_cast<int>(s), static_cast<std::int64_t>(i));
      ASSERT_NE(served, nullptr) << "stream " << s << " seq " << i;
      EXPECT_EQ(es::max_abs_diff(*served, serial.outputs[s][i]), 0.0f)
          << spec.name << " stream " << s << " seq " << i;
      ++checked;
    }
  }
  EXPECT_GT(checked, 6u);  // the run must have actually served frames
}

}  // namespace

TEST(ServingParity, SpikingNetworkPlannerOn) {
  expect_serving_parity(en::NetworkId::kDotie, true);
}

TEST(ServingParity, SpikingNetworkPlannerOff) {
  expect_serving_parity(en::NetworkId::kDotie, false);
}

TEST(ServingParity, HybridNetwork) {
  expect_serving_parity(en::NetworkId::kSpikeFlowNet, true);
}

TEST(ServingParity, TwoInputNetwork) {
  expect_serving_parity(en::NetworkId::kFusionFlowNet, true);
}

TEST(ServingRuntime, RejectsEmptyStreamUpFront) {
  const en::NetworkSpec spec =
      en::build_network(en::NetworkId::kDotie, en::ZooConfig::test_scale());
  ev::ServeConfig config;
  config.ingress = test_ingress();
  ev::ServingRuntime runtime(spec, 7, config);
  // An empty stream must be rejected on the calling thread, not abort
  // the process from an ingress thread.
  std::vector<ee::EventStream> streams;
  streams.emplace_back(ee::SensorGeometry{44, 32});
  EXPECT_THROW((void)runtime.run(streams), std::invalid_argument);
  EXPECT_THROW((void)runtime.run({}), std::invalid_argument);
}

TEST(ServingRuntime, DropPolicyAccountsEveryFrame) {
  const en::NetworkSpec spec =
      en::build_network(en::NetworkId::kDotie, en::ZooConfig::test_scale());
  const auto shape =
      spec.graph.node(spec.graph.input_ids().front()).spec.out_shape;
  std::vector<ee::EventStream> streams;
  for (std::uint64_t s = 0; s < 4; ++s) {
    streams.push_back(matched_stream(shape.h, shape.w, 2.0, 400'000, 31 + s));
  }

  ev::ServeConfig config;
  config.ingress = test_ingress();
  config.n_workers = 1;
  config.queue_capacity = 2;  // tiny: ingress outruns the single worker
  config.overflow = ev::OverflowPolicy::kDropOldest;
  config.worker.use_planner = false;
  ev::ServingRuntime runtime(spec, 7, config);
  const ev::ServeReport report = runtime.run(streams);

  std::size_t enqueued = 0;
  for (const ev::StreamServeStats& s : report.streams) {
    EXPECT_EQ(s.enqueued, s.completed + s.dropped);
    enqueued += s.enqueued;
  }
  EXPECT_EQ(report.frames_completed + report.frames_dropped, enqueued);
  EXPECT_GT(report.frames_completed, 0u);
  EXPECT_GT(report.queue_peak_depth, 0u);
}

// ----------------------------------------------------- clone concurrency

TEST(CloneContract, CloneMatchesOriginalAndIsIndependent) {
  const en::NetworkSpec spec = en::build_network(
      en::NetworkId::kAdaptiveSpikeNet, en::ZooConfig::test_scale());
  en::FunctionalNetwork original(spec, 7);
  const auto samples = eq::make_validation_set(spec, 1, 99);
  const auto& steps = samples[0].event_steps;

  en::FunctionalNetwork copy = original.clone();
  const es::DenseTensor expected = original.run(steps);
  EXPECT_EQ(es::max_abs_diff(copy.run(steps), expected), 0.0f);

  // Mutating the original's weights must not leak into the clone.
  int node = -1;
  for (const en::LayerNode& n : original.spec().graph.nodes()) {
    if (en::is_weight_layer(n.spec.kind)) {
      node = n.id;
      break;
    }
  }
  ASSERT_GE(node, 0);
  for (float& w : original.weights(node).data()) w += 1.0f;
  EXPECT_NE(es::max_abs_diff(original.run(steps), expected), 0.0f);
  EXPECT_EQ(es::max_abs_diff(copy.run(steps), expected), 0.0f);
}

TEST(CloneContract, ConcurrentClonesBitMatchSerialAcrossZoo) {
  // The one-Workspace-per-worker contract the serve pool relies on: two
  // clones running the same net on separate threads produce bitwise the
  // serial batch-1 outputs, for every zoo network.
  for (const en::NetworkId id : en::table1_networks()) {
    const en::NetworkSpec spec =
        en::build_network(id, en::ZooConfig::test_scale());
    en::FunctionalNetwork prototype(spec, 7);
    const auto samples = eq::make_validation_set(spec, 2, 123);
    const auto image_of = [&](std::size_t i) {
      return samples[i].image.has_value() ? &samples[i].image.value()
                                          : nullptr;
    };

    std::vector<es::DenseTensor> serial;
    for (std::size_t i = 0; i < samples.size(); ++i) {
      serial.push_back(
          prototype.run(samples[i].event_steps, image_of(i)));
    }

    en::FunctionalNetwork worker_a = prototype.clone();
    en::FunctionalNetwork worker_b = prototype.clone();
    es::DenseTensor out_a;
    es::DenseTensor out_b;
    std::thread ta(
        [&] { out_a = worker_a.run(samples[0].event_steps, image_of(0)); });
    std::thread tb(
        [&] { out_b = worker_b.run(samples[1].event_steps, image_of(1)); });
    ta.join();
    tb.join();
    EXPECT_EQ(es::max_abs_diff(out_a, serial[0]), 0.0f) << spec.name;
    EXPECT_EQ(es::max_abs_diff(out_b, serial[1]), 0.0f) << spec.name;
  }
}

// ------------------------------------------------- planner drift refresh

TEST(DriftRecalibration, DensityShiftUpdatesWorkerRoutes) {
  // Mid scale with paper-band thresholds: the event-input layer routes
  // sparse at ~1% fill and must fall back to dense when the live density
  // jumps far out of the calibration band.
  const en::NetworkSpec spec = en::build_network(
      en::NetworkId::kDotie, en::ZooConfig{64, 88, 16, 5, 2.0f});
  const auto shape =
      spec.graph.node(spec.graph.input_ids().front()).spec.out_shape;
  en::FunctionalNetwork prototype(spec, 7);

  ev::WorkerConfig config;
  config.recalibration_band = 4.0;
  ev::ServeWorker worker(0, prototype, config);
  std::size_t sunk = 0;
  const ev::ResultSink sink =
      [&](const ev::ReadyFrame&, const es::DenseTensor&, int, double) {
        ++sunk;
      };

  // Warmup at ~1% fill: lazy calibration, no recalibration.
  std::vector<ev::ReadyFrame> sparse_batch;
  for (int i = 0; i < 2; ++i) {
    sparse_batch.push_back(
        synthetic_ready(0, i, shape.h, shape.w, 0.01, 41 + i));
  }
  worker.process_batch(sparse_batch, sink);
  ASSERT_NE(worker.plan(), nullptr);
  EXPECT_EQ(worker.stats().calibrations, 1u);
  EXPECT_EQ(worker.stats().recalibrations, 0u);
  const double sparse_probe = worker.stats().plan_probe_density;
  const int sparse_routes = worker.plan()->sparse_node_count();
  EXPECT_GT(sparse_routes, 0);  // the event layer routes sparse at 1%

  // Same regime again: still in band, no refresh.
  worker.process_batch(sparse_batch, sink);
  EXPECT_EQ(worker.stats().recalibrations, 0u);

  // Scene shift to ~60% fill: far outside the 4x band -> recalibrate,
  // and the dense regime must drop the sparse routes.
  std::vector<ev::ReadyFrame> dense_batch;
  for (int i = 0; i < 2; ++i) {
    dense_batch.push_back(
        synthetic_ready(0, 10 + i, shape.h, shape.w, 0.6, 51 + i));
  }
  worker.process_batch(dense_batch, sink);
  EXPECT_EQ(worker.stats().recalibrations, 1u);
  EXPECT_GT(worker.stats().plan_probe_density, 4.0 * sparse_probe);
  EXPECT_LT(worker.plan()->sparse_node_count(), sparse_routes);
  EXPECT_EQ(sunk, 6u);
}

// One empty batch recalibrates once: the zero-density plan it leaves is
// in band for further empty batches, so a quiet scene does not pay a
// dense calibration per batch — and events coming back leave that band.
TEST(DriftRecalibration, EmptyBatchesRecalibrateOnce) {
  const en::NetworkSpec spec = en::build_network(
      en::NetworkId::kDotie, en::ZooConfig{64, 88, 16, 5, 2.0f});
  const auto shape =
      spec.graph.node(spec.graph.input_ids().front()).spec.out_shape;
  en::FunctionalNetwork prototype(spec, 7);

  ev::WorkerConfig config;
  config.recalibration_band = 4.0;
  ev::ServeWorker worker(0, prototype, config);
  std::size_t sunk = 0;
  const ev::ResultSink sink =
      [&](const ev::ReadyFrame&, const es::DenseTensor&, int, double) {
        ++sunk;
      };

  const std::vector<ev::ReadyFrame> sparse_batch{
      synthetic_ready(0, 0, shape.h, shape.w, 0.01, 41)};
  worker.process_batch(sparse_batch, sink);
  EXPECT_EQ(worker.stats().calibrations, 1u);
  EXPECT_EQ(worker.stats().recalibrations, 0u);

  ev::ReadyFrame empty;
  empty.frame = es::SparseFrame::from_dense(
      es::DenseTensor(es::TensorShape{1, 2, shape.h, shape.w}));
  empty.enqueue_tp = std::chrono::steady_clock::now();
  const std::vector<ev::ReadyFrame> empty_batch{empty, empty};
  for (int i = 0; i < 5; ++i) worker.process_batch(empty_batch, sink);
  EXPECT_EQ(worker.stats().recalibrations, 1u);
  EXPECT_EQ(worker.stats().plan_probe_density, 0.0);

  worker.process_batch(sparse_batch, sink);
  EXPECT_EQ(worker.stats().recalibrations, 2u);
  EXPECT_EQ(sunk, 12u);
}

// ------------------------------------------------------------ serve stats

TEST(ServeStats, ReservoirPercentiles) {
  ev::LatencyReservoir reservoir;
  EXPECT_EQ(reservoir.percentile_us(0.95), 0.0);
  for (int i = 1; i <= 100; ++i) reservoir.add(static_cast<double>(i));
  EXPECT_DOUBLE_EQ(reservoir.percentile_us(0.0), 1.0);
  EXPECT_DOUBLE_EQ(reservoir.percentile_us(0.5), 51.0);
  EXPECT_DOUBLE_EQ(reservoir.percentile_us(1.0), 100.0);
  EXPECT_NEAR(reservoir.percentile_us(0.95), 95.0, 1.0);
  EXPECT_DOUBLE_EQ(reservoir.mean_us(), 50.5);
  EXPECT_DOUBLE_EQ(reservoir.max_us(), 100.0);
}

// ----------------------------------------------- FrameQueue edge cases

TEST(FrameQueue, PopUntilExpiredDeadlineIsNonBlocking) {
  ev::FrameQueue queue(4, ev::OverflowPolicy::kBlock);
  const auto past =
      std::chrono::steady_clock::now() - std::chrono::milliseconds(5);
  // Empty queue + already-expired deadline: give up immediately.
  EXPECT_FALSE(queue.pop_until(past).has_value());
  // A queued frame must still be delivered, expired deadline or not.
  (void)queue.push(synthetic_ready(0, 0, 8, 8, 0.1, 7));
  const auto frame = queue.pop_until(past);
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->seq, 0);
  queue.close();
}

TEST(FrameQueue, RequeueBypassesCapacityAndClosedFlag) {
  ev::FrameQueue queue(1, ev::OverflowPolicy::kBlock);
  EXPECT_FALSE(queue.push(synthetic_ready(0, 0, 8, 8, 0.1, 7)).has_value());
  queue.close();
  // The supervision path: a failed batch's frame goes back to the FRONT
  // even though the queue is full AND closed.
  ev::ReadyFrame retry = synthetic_ready(0, 5, 8, 8, 0.1, 7);
  retry.attempts = 1;
  queue.requeue(std::move(retry));
  EXPECT_EQ(queue.depth(), 2u);
  EXPECT_EQ(queue.requeued(), 1u);
  const auto first = queue.pop();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->seq, 5);  // requeued frame is at the head
  EXPECT_EQ(first->attempts, 1);
  const auto second = queue.pop();
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->seq, 0);
  EXPECT_FALSE(queue.pop().has_value());
}

TEST(FrameQueue, SwitchToDropOldestReleasesBlockedProducer) {
  ev::FrameQueue queue(1, ev::OverflowPolicy::kBlock);
  EXPECT_FALSE(queue.push(synthetic_ready(0, 0, 8, 8, 0.1, 7)).has_value());
  std::optional<ev::ReadyFrame> displaced;
  std::atomic<bool> done{false};
  std::thread producer([&] {
    displaced = queue.push(synthetic_ready(0, 1, 8, 8, 0.1, 7));
    done.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_FALSE(done.load());  // blocked under kBlock
  // The degradation ladder's rung-1 side effect: the switch must wake
  // the blocked producer, which then displaces the oldest frame.
  queue.set_policy(ev::OverflowPolicy::kDropOldest);
  producer.join();
  EXPECT_TRUE(done.load());
  EXPECT_EQ(queue.policy(), ev::OverflowPolicy::kDropOldest);
  ASSERT_TRUE(displaced.has_value());
  EXPECT_EQ(displaced->seq, 0);
  EXPECT_EQ(queue.dropped(), 1u);
  const auto frame = queue.pop();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->seq, 1);
  queue.close();
}

TEST(FrameQueue, CloseRacingManyBlockedProducersReturnsEveryFrame) {
  ev::FrameQueue queue(1, ev::OverflowPolicy::kBlock);
  EXPECT_FALSE(
      queue.push(synthetic_ready(9, 100, 8, 8, 0.1, 7)).has_value());
  constexpr int kProducers = 4;
  std::atomic<int> rejected{0};
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int i = 0; i < kProducers; ++i) {
    producers.emplace_back([&queue, &rejected, i] {
      // Whether this thread blocks first or observes the closed flag
      // straight away, the frame must come back to its producer.
      if (queue.push(synthetic_ready(i, 1, 8, 8, 0.1, 7)).has_value()) {
        rejected.fetch_add(1);
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  queue.close();
  for (std::thread& t : producers) t.join();
  EXPECT_EQ(rejected.load(), kProducers);
  EXPECT_EQ(queue.dropped(), 0u);
  EXPECT_TRUE(queue.pop().has_value());   // the one admitted frame
  EXPECT_FALSE(queue.pop().has_value());  // nothing leaked in
}

TEST(FrameQueue, DropAccountingBalancesUnderConcurrentProducers) {
  ev::FrameQueue queue(4, ev::OverflowPolicy::kDropOldest);
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 50;
  std::atomic<std::size_t> displaced{0};
  std::atomic<std::size_t> popped{0};
  std::thread consumer([&] {
    while (queue.pop().has_value()) popped.fetch_add(1);
  });
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&queue, &displaced, p] {
      for (int j = 0; j < kPerProducer; ++j) {
        if (queue.push(synthetic_ready(p, j, 8, 8, 0.1, 7)).has_value()) {
          displaced.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : producers) t.join();
  queue.close();
  consumer.join();
  // Conservation: every pushed frame was either served or handed back
  // to a producer as a displacement — and the queue's own counter must
  // agree with what the producers saw.
  EXPECT_EQ(popped.load() + displaced.load(),
            static_cast<std::size_t>(kProducers * kPerProducer));
  EXPECT_EQ(queue.dropped(), displaced.load());
}

// ------------------------------------------------- fault plan / injector

namespace {

bool specs_equal(const ev::FaultSpec& a, const ev::FaultSpec& b) {
  return a.type == b.type && a.stream_id == b.stream_id && a.seq == b.seq &&
         a.worker_id == b.worker_id && a.batch == b.batch &&
         a.delay_ms == b.delay_ms && a.corrupt == b.corrupt;
}

}  // namespace

TEST(FaultPlan, SeededIsReproducibleAndWellShaped) {
  ev::FaultPlanOptions opt;
  opt.streams = 4;
  opt.workers = 3;
  opt.frames_per_stream_hint = 20;
  opt.batches_per_worker_hint = 6;
  opt.worker_exceptions = 3;
  opt.latency_spikes = 2;
  opt.corrupt_frames = 4;
  opt.stalls = 2;
  opt.disconnects = 2;

  const ev::FaultPlan a = ev::FaultPlan::seeded(99, opt);
  const ev::FaultPlan b = ev::FaultPlan::seeded(99, opt);
  ASSERT_EQ(a.specs.size(), 13u);
  ASSERT_EQ(b.specs.size(), a.specs.size());
  for (std::size_t i = 0; i < a.specs.size(); ++i) {
    EXPECT_TRUE(specs_equal(a.specs[i], b.specs[i])) << "spec " << i;
  }

  std::set<int> disconnect_streams;
  for (const ev::FaultSpec& spec : a.specs) {
    switch (spec.type) {
      case ev::FaultType::kCorruptFrame:
      case ev::FaultType::kStreamStall:
        EXPECT_GE(spec.stream_id, 0);
        EXPECT_LT(spec.stream_id, opt.streams);
        EXPECT_GE(spec.seq, 0);
        EXPECT_LT(spec.seq, opt.frames_per_stream_hint);
        break;
      case ev::FaultType::kStreamDisconnect:
        disconnect_streams.insert(spec.stream_id);
        // Upper half of the seq space: frames flow before the cut.
        EXPECT_GE(spec.seq, opt.frames_per_stream_hint / 2);
        EXPECT_LT(spec.seq, opt.frames_per_stream_hint);
        break;
      case ev::FaultType::kWorkerException:
      case ev::FaultType::kLatencySpike:
        EXPECT_GE(spec.worker_id, 0);
        EXPECT_LT(spec.worker_id, opt.workers);
        EXPECT_GE(spec.batch, 0);
        EXPECT_LT(spec.batch, opt.batches_per_worker_hint);
        break;
    }
  }
  EXPECT_EQ(disconnect_streams.size(), 2u);  // distinct streams

  // A different seed draws a different schedule.
  const ev::FaultPlan c = ev::FaultPlan::seeded(100, opt);
  bool all_equal = c.specs.size() == a.specs.size();
  for (std::size_t i = 0; all_equal && i < a.specs.size(); ++i) {
    all_equal = specs_equal(a.specs[i], c.specs[i]);
  }
  EXPECT_FALSE(all_equal);
}

// ------------------------------------------- malformed-input validation

TEST(E2sfValidation, RejectsOutOfBoundsCoordinate) {
  const ee::SensorGeometry geom{16, 12};
  const ec::Event2SparseFrame converter(geom, ec::E2sfConfig{2});
  std::vector<ee::Event> events;
  events.push_back(ee::Event{3, 4, 100, ee::Polarity::kPositive});
  events.push_back(ee::Event{16, 0, 150, ee::Polarity::kNegative});  // x==W
  try {
    (void)converter.convert(events, 0, 1000);
    FAIL() << "expected MalformedEventError";
  } catch (const ec::MalformedEventError& e) {
    EXPECT_EQ(e.kind(), ec::MalformedEventError::Kind::kOutOfBounds);
    EXPECT_EQ(e.event_index(), 1u);
  }
}

TEST(E2sfValidation, RejectsNonMonotonicTimestamp) {
  const ee::SensorGeometry geom{16, 12};
  const ec::Event2SparseFrame converter(geom, ec::E2sfConfig{2});
  std::vector<ee::Event> events;
  events.push_back(ee::Event{1, 1, 400, ee::Polarity::kPositive});
  events.push_back(ee::Event{2, 2, 300, ee::Polarity::kPositive});  // back
  try {
    (void)converter.convert(events, 0, 1000);
    FAIL() << "expected MalformedEventError";
  } catch (const ec::MalformedEventError& e) {
    EXPECT_EQ(e.kind(),
              ec::MalformedEventError::Kind::kNonMonotonicTimestamp);
    EXPECT_EQ(e.event_index(), 1u);
  }
}

TEST(E2sfValidation, RejectsEventOutsideInterval) {
  const ee::SensorGeometry geom{16, 12};
  const ec::Event2SparseFrame converter(geom, ec::E2sfConfig{2});
  std::vector<ee::Event> events;
  events.push_back(ee::Event{1, 1, 100, ee::Polarity::kPositive});
  events.push_back(ee::Event{2, 2, 1000, ee::Polarity::kPositive});  // ==Tend
  try {
    (void)converter.convert(events, 0, 1000);
    FAIL() << "expected MalformedEventError";
  } catch (const ec::MalformedEventError& e) {
    EXPECT_EQ(e.kind(), ec::MalformedEventError::Kind::kOutsideInterval);
    EXPECT_EQ(e.event_index(), 1u);
  }
}

TEST(E2sfValidation, WellFormedWindowStillConverts) {
  const ee::SensorGeometry geom{16, 12};
  const ec::Event2SparseFrame converter(geom, ec::E2sfConfig{2});
  std::vector<ee::Event> events;
  events.push_back(ee::Event{3, 4, 100, ee::Polarity::kPositive});
  events.push_back(ee::Event{15, 11, 900, ee::Polarity::kNegative});
  const auto frames = converter.convert(events, 0, 1000);
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0].nnz() + frames[1].nnz(), 2);
}

TEST(IngressValidation, FrameFaultDetectionMatrix) {
  const auto base = [] { return synthetic_ready(0, 0, 8, 10, 0.2, 7).frame; };
  es::SparseFrame ok = base();
  EXPECT_EQ(ev::frame_fault_of(ok, 8, 10), ev::FrameFault::kNone);
  EXPECT_EQ(ev::frame_fault_of(ok, 16, 20),
            ev::FrameFault::kGeometryMismatch);

  ev::FaultSpec spec;
  spec.type = ev::FaultType::kCorruptFrame;

  es::SparseFrame oob = base();
  spec.corrupt = ev::CorruptKind::kOutOfBoundsCoordinate;
  ev::FaultInjector::corrupt(spec, oob);
  EXPECT_EQ(ev::frame_fault_of(oob, 8, 10),
            ev::FrameFault::kOutOfBoundsCoordinate);

  es::SparseFrame non_finite = base();
  spec.corrupt = ev::CorruptKind::kNonFiniteValue;
  ev::FaultInjector::corrupt(spec, non_finite);
  EXPECT_EQ(ev::frame_fault_of(non_finite, 8, 10),
            ev::FrameFault::kNonFiniteValue);

  es::SparseFrame bad_timing = base();
  bad_timing.t_start = 100;
  spec.corrupt = ev::CorruptKind::kBadTiming;
  ev::FaultInjector::corrupt(spec, bad_timing);
  EXPECT_EQ(ev::frame_fault_of(bad_timing, 8, 10),
            ev::FrameFault::kBadTiming);
}

// -------------------------------------------- fault-tolerant serving

TEST(FaultTolerance, CorruptFrameIsQuarantinedOthersServe) {
  const en::NetworkSpec spec =
      en::build_network(en::NetworkId::kDotie, en::ZooConfig::test_scale());
  const auto shape =
      spec.graph.node(spec.graph.input_ids().front()).spec.out_shape;
  std::vector<ee::EventStream> streams;
  for (std::uint64_t s = 0; s < 2; ++s) {
    streams.push_back(
        matched_stream(shape.h, shape.w, 1.0 + 0.5 * s, 400'000, 81 + s));
  }

  ev::ServeConfig config;
  config.ingress = test_ingress();
  config.n_workers = 2;
  config.capture_outputs = true;
  config.worker.use_planner = false;
  config.worker.collator.max_batch = 4;
  ev::FaultSpec corrupt;
  corrupt.type = ev::FaultType::kCorruptFrame;
  corrupt.stream_id = 0;
  corrupt.seq = 1;
  corrupt.corrupt = ev::CorruptKind::kOutOfBoundsCoordinate;
  config.faults.add(corrupt);
  ev::ServingRuntime runtime(spec, 7, config);
  const ev::ServeReport report = runtime.run(streams);

  EXPECT_TRUE(report.accounting_ok());
  EXPECT_EQ(report.faults.corrupt_frames, 1u);
  EXPECT_EQ(report.frames_failed, 1u);
  ASSERT_EQ(report.streams.size(), 2u);
  EXPECT_EQ(report.streams[0].failed, 1u);
  EXPECT_EQ(report.streams[1].failed, 0u);
  ASSERT_EQ(report.quarantined.size(), 1u);
  EXPECT_EQ(report.quarantined[0].stream_id, 0);
  EXPECT_EQ(report.quarantined[0].seq, 1);
  EXPECT_EQ(report.quarantined[0].fault,
            ev::FrameFault::kOutOfBoundsCoordinate);
  EXPECT_EQ(runtime.output(0, 1), nullptr);

  // Every unaffected (stream, seq) is still bitwise the serial result.
  std::vector<std::vector<es::SparseFrame>> frames;
  for (const ee::EventStream& stream : streams) {
    frames.push_back(ev::ServingRuntime::ingest(stream, config.ingress));
  }
  const auto serial = runtime.run_serial(frames, false);
  for (std::size_t s = 0; s < frames.size(); ++s) {
    const std::size_t expect_completed =
        frames[s].size() - (s == 0 ? 1 : 0);
    EXPECT_EQ(report.streams[s].completed, expect_completed);
    for (std::size_t i = 0; i < frames[s].size(); ++i) {
      if (s == 0 && i == 1) continue;  // the quarantined site
      const es::DenseTensor* served =
          runtime.output(static_cast<int>(s), static_cast<std::int64_t>(i));
      ASSERT_NE(served, nullptr) << "stream " << s << " seq " << i;
      EXPECT_EQ(es::max_abs_diff(*served, serial.outputs[s][i]), 0.0f)
          << "stream " << s << " seq " << i;
    }
  }
}

TEST(FaultTolerance, WorkerCrashRetriesToFullParity) {
  const en::NetworkSpec spec =
      en::build_network(en::NetworkId::kDotie, en::ZooConfig::test_scale());
  const auto shape =
      spec.graph.node(spec.graph.input_ids().front()).spec.out_shape;
  std::vector<ee::EventStream> streams;
  for (std::uint64_t s = 0; s < 2; ++s) {
    streams.push_back(
        matched_stream(shape.h, shape.w, 1.0 + 0.5 * s, 400'000, 91 + s));
  }

  ev::ServeConfig config;
  config.ingress = test_ingress();
  config.n_workers = 1;  // deterministic worker-site batch indices
  config.capture_outputs = true;
  config.worker.collator.max_batch = 4;
  config.worker.max_retries = 5;
  config.worker.retry_backoff_ms = 0.1;
  for (const std::int64_t batch : {std::int64_t{0}, std::int64_t{2}}) {
    ev::FaultSpec crash;
    crash.type = ev::FaultType::kWorkerException;
    crash.worker_id = 0;
    crash.batch = batch;
    config.faults.add(crash);
  }
  ev::ServingRuntime runtime(spec, 7, config);
  const ev::ServeReport report = runtime.run(streams);  // must not throw

  EXPECT_TRUE(report.accounting_ok());
  EXPECT_EQ(report.faults.worker_exceptions, 2u);
  EXPECT_EQ(report.frames_failed, 0u);
  EXPECT_EQ(report.frames_dropped, 0u);
  ASSERT_EQ(report.workers.size(), 1u);
  EXPECT_EQ(report.workers[0].failures, 2u);
  EXPECT_EQ(report.workers[0].restarts, 2u);
  EXPECT_GE(report.workers[0].frames_retried, 1u);

  // Every frame completed — and despite two restarts mid-run, every
  // output is still bitwise the serial result (restart clones carry
  // identical weights; planner routes are bitwise-neutral).
  std::vector<std::vector<es::SparseFrame>> frames;
  for (const ee::EventStream& stream : streams) {
    frames.push_back(ev::ServingRuntime::ingest(stream, config.ingress));
  }
  const auto serial = runtime.run_serial(frames, true);
  for (std::size_t s = 0; s < frames.size(); ++s) {
    ASSERT_EQ(report.streams[s].completed, frames[s].size());
    for (std::size_t i = 0; i < frames[s].size(); ++i) {
      const es::DenseTensor* served =
          runtime.output(static_cast<int>(s), static_cast<std::int64_t>(i));
      ASSERT_NE(served, nullptr) << "stream " << s << " seq " << i;
      EXPECT_EQ(es::max_abs_diff(*served, serial.outputs[s][i]), 0.0f)
          << "stream " << s << " seq " << i;
    }
  }
}

TEST(FaultTolerance, RetryBudgetExhaustionQuarantines) {
  const en::NetworkSpec spec =
      en::build_network(en::NetworkId::kDotie, en::ZooConfig::test_scale());
  const auto shape =
      spec.graph.node(spec.graph.input_ids().front()).spec.out_shape;
  std::vector<ee::EventStream> streams;
  streams.push_back(matched_stream(shape.h, shape.w, 1.5, 400'000, 101));

  ev::ServeConfig config;
  config.ingress = test_ingress();
  config.n_workers = 1;
  config.worker.use_planner = false;
  config.worker.collator.max_batch = 4;
  config.worker.max_retries = 0;  // first failure quarantines
  config.worker.retry_backoff_ms = 0.1;
  ev::FaultSpec crash;
  crash.type = ev::FaultType::kWorkerException;
  crash.worker_id = 0;
  crash.batch = 0;
  config.faults.add(crash);
  ev::ServingRuntime runtime(spec, 7, config);
  const ev::ServeReport report = runtime.run(streams);

  EXPECT_TRUE(report.accounting_ok());
  ASSERT_EQ(report.streams.size(), 1u);
  EXPECT_GE(report.streams[0].failed, 1u);
  EXPECT_EQ(report.streams[0].completed + report.streams[0].failed,
            report.streams[0].enqueued);
  EXPECT_GT(report.streams[0].completed, 0u);  // later batches survive
  ASSERT_GE(report.quarantined.size(), 1u);
  for (const ev::QuarantinedFrame& q : report.quarantined) {
    EXPECT_EQ(q.fault, ev::FrameFault::kRetriesExhausted);
    EXPECT_EQ(q.attempts, 1);
  }
  EXPECT_EQ(report.workers[0].restarts, 1u);
}

TEST(FaultTolerance, StreamDisconnectFailsOnlyThatStream) {
  const en::NetworkSpec spec =
      en::build_network(en::NetworkId::kDotie, en::ZooConfig::test_scale());
  const auto shape =
      spec.graph.node(spec.graph.input_ids().front()).spec.out_shape;
  std::vector<ee::EventStream> streams;
  for (std::uint64_t s = 0; s < 2; ++s) {
    streams.push_back(
        matched_stream(shape.h, shape.w, 1.0 + 0.5 * s, 400'000, 111 + s));
  }
  std::vector<std::vector<es::SparseFrame>> frames;
  const ev::IngressConfig ingress = test_ingress();
  for (const ee::EventStream& stream : streams) {
    frames.push_back(ev::ServingRuntime::ingest(stream, ingress));
  }
  ASSERT_GE(frames[0].size(), 4u);  // the disconnect site must exist

  ev::ServeConfig config;
  config.ingress = ingress;
  config.n_workers = 2;
  config.capture_outputs = true;
  config.worker.use_planner = false;
  ev::FaultSpec disconnect;
  disconnect.type = ev::FaultType::kStreamDisconnect;
  disconnect.stream_id = 0;
  disconnect.seq = 2;
  config.faults.add(disconnect);
  ev::ServingRuntime runtime(spec, 7, config);
  const ev::ServeReport report = runtime.run(streams);

  EXPECT_TRUE(report.accounting_ok());
  EXPECT_EQ(report.faults.stream_disconnects, 1u);
  ASSERT_EQ(report.streams.size(), 2u);
  EXPECT_TRUE(report.streams[0].ingress_failed);
  EXPECT_FALSE(report.streams[0].failure_reason.empty());
  EXPECT_EQ(report.streams[0].enqueued, 2u);  // seqs 0, 1 got through
  EXPECT_EQ(report.streams[0].completed, 2u);
  // The sibling stream is untouched and runs to completion.
  EXPECT_FALSE(report.streams[1].ingress_failed);
  EXPECT_EQ(report.streams[1].completed, frames[1].size());

  const auto serial = runtime.run_serial(frames, false);
  for (std::size_t s = 0; s < frames.size(); ++s) {
    const std::size_t served_count = report.streams[s].completed;
    for (std::size_t i = 0; i < served_count; ++i) {
      const es::DenseTensor* served =
          runtime.output(static_cast<int>(s), static_cast<std::int64_t>(i));
      ASSERT_NE(served, nullptr) << "stream " << s << " seq " << i;
      EXPECT_EQ(es::max_abs_diff(*served, serial.outputs[s][i]), 0.0f)
          << "stream " << s << " seq " << i;
    }
  }
}

// ------------------------------------------------------- SLO shedding

TEST(SloShedding, ExpiredDeadlineShedsBeforeInference) {
  const en::NetworkSpec spec =
      en::build_network(en::NetworkId::kDotie, en::ZooConfig::test_scale());
  const auto shape =
      spec.graph.node(spec.graph.input_ids().front()).spec.out_shape;
  std::vector<ee::EventStream> streams;
  for (std::uint64_t s = 0; s < 2; ++s) {
    streams.push_back(
        matched_stream(shape.h, shape.w, 1.0, 300'000, 121 + s));
  }

  ev::ServeConfig config;
  config.ingress = test_ingress();
  config.n_workers = 1;
  config.worker.use_planner = false;
  // A deadline far below any real queue-to-collation latency: every
  // frame is stale by the time a worker picks it up, so everything is
  // shed and nothing reaches inference.
  config.slo.deadline_ms = 1e-4;
  ev::ServingRuntime runtime(spec, 7, config);
  const ev::ServeReport report = runtime.run(streams);

  EXPECT_TRUE(report.accounting_ok());
  EXPECT_EQ(report.frames_completed, 0u);
  EXPECT_GT(report.frames_shed, 0u);
  std::size_t enqueued = 0;
  for (const ev::StreamServeStats& s : report.streams) {
    EXPECT_EQ(s.completed, 0u);
    EXPECT_EQ(s.shed, s.enqueued);
    enqueued += s.enqueued;
  }
  EXPECT_EQ(report.frames_shed, enqueued);
  std::size_t worker_shed = 0;
  for (const ev::WorkerServeStats& w : report.workers) {
    worker_shed += w.frames_shed;
  }
  EXPECT_EQ(worker_shed, report.frames_shed);
  EXPECT_EQ(report.quarantined.size(), report.frames_shed);
  for (const ev::QuarantinedFrame& q : report.quarantined) {
    EXPECT_EQ(q.fault, ev::FrameFault::kDeadlineExceeded);
  }
}

// ------------------------------------------------- degradation ladder

TEST(Degradation, HysteresisWalksLadderOneRungAtATime) {
  ev::FrameQueue queue(4, ev::OverflowPolicy::kBlock);
  ev::SloConfig slo;
  slo.degrade = true;
  slo.enter_intervals = 2;
  slo.exit_intervals = 2;
  slo.allow_int8 = true;
  ev::DegradationState state;
  ev::DegradationController controller(slo, queue, state);

  for (int i = 0; i < 4; ++i) {
    (void)queue.push(synthetic_ready(0, i, 8, 8, 0.1, 7));
  }
  controller.sample(1.0);  // 1 high sample: hysteresis holds
  EXPECT_EQ(state.level(), ev::kDegradeNormal);
  controller.sample(2.0);  // 2nd consecutive: escalate
  EXPECT_EQ(state.level(), ev::kDegradeDropOldest);
  EXPECT_EQ(queue.policy(), ev::OverflowPolicy::kDropOldest);
  controller.sample(3.0);
  controller.sample(4.0);
  EXPECT_EQ(state.level(), ev::kDegradeWideBatch);
  controller.sample(5.0);
  controller.sample(6.0);
  EXPECT_EQ(state.level(), ev::kDegradeInt8);
  controller.sample(7.0);
  controller.sample(8.0);
  EXPECT_EQ(state.level(), ev::kDegradeInt8);  // already at the top

  while (queue.pop_until(std::chrono::steady_clock::now()).has_value()) {
  }
  EXPECT_EQ(queue.depth(), 0u);
  controller.sample(9.0);
  controller.sample(10.0);
  EXPECT_EQ(state.level(), ev::kDegradeWideBatch);
  controller.sample(11.0);
  controller.sample(12.0);
  EXPECT_EQ(state.level(), ev::kDegradeDropOldest);
  controller.sample(13.0);
  controller.sample(14.0);
  EXPECT_EQ(state.level(), ev::kDegradeNormal);
  EXPECT_EQ(queue.policy(), ev::OverflowPolicy::kBlock);  // restored
  controller.finish(15.0);

  EXPECT_EQ(controller.transitions().size(), 6u);
  EXPECT_EQ(controller.max_level_reached(), ev::kDegradeInt8);
  const auto& ms = controller.ms_at_level();
  EXPECT_DOUBLE_EQ(ms[0] + ms[1] + ms[2] + ms[3], 15.0);
  EXPECT_DOUBLE_EQ(ms[3], 4.0);  // t=6 .. t=10 at the int8 rung
  queue.close();
}

TEST(Degradation, WideBatchRungWidensCollation) {
  const en::NetworkSpec spec =
      en::build_network(en::NetworkId::kDotie, en::ZooConfig::test_scale());
  const auto shape =
      spec.graph.node(spec.graph.input_ids().front()).spec.out_shape;
  en::FunctionalNetwork prototype(spec, 7);

  ev::WorkerConfig config;
  config.use_planner = false;
  config.collator.max_batch = 2;
  config.collator.max_wait_us = 1e5;
  ev::ServeWorker worker(0, prototype, config);

  ev::FrameQueue queue(16, ev::OverflowPolicy::kBlock);
  for (int i = 0; i < 4; ++i) {
    (void)queue.push(synthetic_ready(0, i, shape.h, shape.w, 0.05, 60 + i));
  }
  queue.close();

  ev::DegradationState state;
  state.set_level(ev::kDegradeWideBatch);
  std::size_t sunk = 0;
  ev::ServeHooks hooks;
  hooks.result = [&](const ev::ReadyFrame&, const es::DenseTensor&, int,
                     double) { ++sunk; };
  hooks.degrade = &state;
  hooks.slo.batch_widen_factor = 2;
  worker.serve(queue, hooks);

  EXPECT_EQ(sunk, 4u);
  // At rung 2 the 2-frame window widens 2x: one 4-frame batch instead
  // of two.
  EXPECT_EQ(worker.stats().batches, 1u);
  EXPECT_EQ(worker.stats().samples, 4u);
}

TEST(Degradation, Int8RungInstallsAndStepsBackBitwise) {
  const en::NetworkSpec spec =
      en::build_network(en::NetworkId::kDotie, en::ZooConfig::test_scale());
  const auto shape =
      spec.graph.node(spec.graph.input_ids().front()).spec.out_shape;
  en::FunctionalNetwork prototype(spec, 7);

  ev::WorkerConfig config;
  config.use_planner = false;
  config.collator.max_batch = 4;
  config.collator.max_wait_us = 1e5;
  const auto frames_of = [&] {
    std::vector<ev::ReadyFrame> frames;
    for (int i = 0; i < 3; ++i) {
      frames.push_back(
          synthetic_ready(0, i, shape.h, shape.w, 0.05, 70 + i));
    }
    return frames;
  };

  // FP32 reference outputs for the same 3-frame batch.
  ev::ServeWorker reference(1, prototype, config);
  std::vector<es::DenseTensor> want(3);
  reference.process_batch(
      frames_of(), [&](const ev::ReadyFrame& f, const es::DenseTensor& out,
                       int lane, double) {
        es::copy_sample(out, lane, want[static_cast<std::size_t>(f.seq)]);
      });

  ev::ServeWorker worker(0, prototype, config);
  ev::DegradationState state;
  std::vector<es::DenseTensor> got(3);
  ev::ServeHooks hooks;
  hooks.degrade = &state;
  hooks.slo.allow_int8 = true;
  hooks.result = [&](const ev::ReadyFrame& f, const es::DenseTensor& out,
                     int lane, double) {
    es::copy_sample(out, lane, got[static_cast<std::size_t>(f.seq)]);
  };

  // Rung 3: the worker lazily calibrates and installs the int8 plan.
  state.set_level(ev::kDegradeInt8);
  {
    ev::FrameQueue queue(8, ev::OverflowPolicy::kBlock);
    for (ev::ReadyFrame& f : frames_of()) (void)queue.push(std::move(f));
    queue.close();
    worker.serve(queue, hooks);
  }
  EXPECT_EQ(worker.stats().int8_batches, 1u);
  EXPECT_TRUE(worker.int8_active());

  // Back at level 0 the quant plan uninstalls and the SAME frames
  // produce bitwise the FP32 outputs again.
  state.set_level(ev::kDegradeNormal);
  {
    ev::FrameQueue queue(8, ev::OverflowPolicy::kBlock);
    for (ev::ReadyFrame& f : frames_of()) (void)queue.push(std::move(f));
    queue.close();
    worker.serve(queue, hooks);
  }
  EXPECT_FALSE(worker.int8_active());
  EXPECT_EQ(worker.stats().int8_batches, 1u);  // did not grow
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(es::max_abs_diff(got[i], want[i]), 0.0f) << "seq " << i;
  }
}

TEST(Degradation, RuntimeLadderAccountsTimePerLevel) {
  const en::NetworkSpec spec =
      en::build_network(en::NetworkId::kDotie, en::ZooConfig::test_scale());
  const auto shape =
      spec.graph.node(spec.graph.input_ids().front()).spec.out_shape;
  std::vector<ee::EventStream> streams;
  for (std::uint64_t s = 0; s < 3; ++s) {
    streams.push_back(
        matched_stream(shape.h, shape.w, 2.0, 400'000, 131 + s));
  }

  ev::ServeConfig config;
  config.ingress = test_ingress();
  config.n_workers = 1;
  config.queue_capacity = 4;  // small: the single worker backs it up
  config.worker.use_planner = false;
  config.slo.degrade = true;
  config.slo.eval_interval_ms = 0.5;
  config.slo.enter_intervals = 1;
  config.slo.exit_intervals = 2;
  config.slo.high_watermark = 0.5;
  config.slo.low_watermark = 0.25;
  ev::ServingRuntime runtime(spec, 7, config);
  const ev::ServeReport report = runtime.run(streams);

  EXPECT_TRUE(report.accounting_ok());
  const auto& ms = report.ms_at_degrade_level;
  // The ladder's time accounting must tile the whole run.
  EXPECT_NEAR(ms[0] + ms[1] + ms[2] + ms[3], report.wall_ms, 1e-3);
  if (!report.degradation.empty()) {
    EXPECT_GE(report.max_degrade_level, ev::kDegradeDropOldest);
    EXPECT_EQ(report.degradation.front().from, ev::kDegradeNormal);
    EXPECT_EQ(report.degradation.front().to, ev::kDegradeDropOldest);
  }
}

// --------------------------------------- all-fault soak + reproducibility

TEST(FaultTolerance, SoakAllFaultTypesIsReproducible) {
  const en::NetworkSpec spec =
      en::build_network(en::NetworkId::kDotie, en::ZooConfig::test_scale());
  const auto shape =
      spec.graph.node(spec.graph.input_ids().front()).spec.out_shape;
  std::vector<ee::EventStream> streams;
  for (std::uint64_t s = 0; s < 3; ++s) {
    streams.push_back(
        matched_stream(shape.h, shape.w, 1.0 + 0.5 * s, 400'000, 141 + s));
  }
  std::vector<std::vector<es::SparseFrame>> frames;
  const ev::IngressConfig ingress = test_ingress();
  for (const ee::EventStream& stream : streams) {
    frames.push_back(ev::ServingRuntime::ingest(stream, ingress));
  }
  ASSERT_GE(frames[2].size(), 4u);  // the disconnect site must exist

  ev::ServeConfig config;
  config.ingress = ingress;
  config.n_workers = 1;  // deterministic worker-site batch indices
  config.capture_outputs = true;
  config.worker.collator.max_batch = 4;
  config.worker.max_retries = 5;  // above the crash count: no quarantine
  config.worker.retry_backoff_ms = 0.1;
  // Every fault type at pinned sites (the seeded-plan soak lives in
  // bench_serve_soak; here the sites are exact so the expectations are).
  auto& plan = config.faults;
  {
    ev::FaultSpec f;
    f.type = ev::FaultType::kCorruptFrame;
    f.stream_id = 0;
    f.seq = 1;
    f.corrupt = ev::CorruptKind::kOutOfBoundsCoordinate;
    plan.add(f);
    f.stream_id = 1;
    f.seq = 2;
    f.corrupt = ev::CorruptKind::kNonFiniteValue;
    plan.add(f);
  }
  {
    ev::FaultSpec f;
    f.type = ev::FaultType::kStreamStall;
    f.stream_id = 2;
    f.seq = 0;
    f.delay_ms = 2.0;
    plan.add(f);
  }
  {
    ev::FaultSpec f;
    f.type = ev::FaultType::kStreamDisconnect;
    f.stream_id = 2;
    f.seq = 3;
    plan.add(f);
  }
  {
    ev::FaultSpec f;
    f.type = ev::FaultType::kLatencySpike;
    f.worker_id = 0;
    f.batch = 0;
    f.delay_ms = 1.0;
    plan.add(f);
  }
  {
    ev::FaultSpec f;
    f.type = ev::FaultType::kWorkerException;
    f.worker_id = 0;
    f.batch = 1;
    plan.add(f);
    f.batch = 3;
    plan.add(f);
  }

  ev::ServingRuntime runtime(spec, 7, config);
  const ev::ServeReport first = runtime.run(streams);  // must not throw

  EXPECT_TRUE(first.accounting_ok());
  EXPECT_EQ(first.faults.corrupt_frames, 2u);
  EXPECT_EQ(first.faults.stream_stalls, 1u);
  EXPECT_EQ(first.faults.stream_disconnects, 1u);
  EXPECT_EQ(first.faults.latency_spikes, 1u);
  EXPECT_EQ(first.faults.worker_exceptions, 2u);
  ASSERT_EQ(first.streams.size(), 3u);
  EXPECT_EQ(first.streams[0].failed, 1u);
  EXPECT_EQ(first.streams[1].failed, 1u);
  EXPECT_TRUE(first.streams[2].ingress_failed);
  EXPECT_EQ(first.streams[2].enqueued, 3u);
  EXPECT_EQ(first.frames_dropped, 0u);  // kBlock, no SLO

  // Every unaffected (stream, seq) output is bitwise the serial result.
  const auto serial = runtime.run_serial(frames, true);
  std::size_t checked = 0;
  for (std::size_t s = 0; s < frames.size(); ++s) {
    for (std::size_t i = 0; i < frames[s].size(); ++i) {
      const es::DenseTensor* served =
          runtime.output(static_cast<int>(s), static_cast<std::int64_t>(i));
      if (served == nullptr) continue;  // quarantined / after disconnect
      EXPECT_EQ(es::max_abs_diff(*served, serial.outputs[s][i]), 0.0f)
          << "stream " << s << " seq " << i;
      ++checked;
    }
  }
  EXPECT_EQ(checked, first.frames_completed);

  // Same plan, same streams: the second run reproduces the per-stream
  // accounting, the fault counters, and the quarantine set exactly.
  const ev::ServeReport second = runtime.run(streams);
  EXPECT_TRUE(second.accounting_ok());
  for (std::size_t s = 0; s < first.streams.size(); ++s) {
    EXPECT_EQ(second.streams[s].enqueued, first.streams[s].enqueued);
    EXPECT_EQ(second.streams[s].completed, first.streams[s].completed);
    EXPECT_EQ(second.streams[s].failed, first.streams[s].failed);
    EXPECT_EQ(second.streams[s].shed, first.streams[s].shed);
    EXPECT_EQ(second.streams[s].dropped, first.streams[s].dropped);
  }
  EXPECT_EQ(second.faults.total(), first.faults.total());
  ASSERT_EQ(second.quarantined.size(), first.quarantined.size());
  const auto sorted_sites = [](const ev::ServeReport& r) {
    std::vector<std::pair<int, std::int64_t>> sites;
    for (const ev::QuarantinedFrame& q : r.quarantined) {
      sites.emplace_back(q.stream_id, q.seq);
    }
    std::sort(sites.begin(), sites.end());
    return sites;
  };
  EXPECT_EQ(sorted_sites(second), sorted_sites(first));
}

// ------------------------------------- latency-driven degradation (PR 7)

TEST(Degradation, LatencySpikeEscalatesWithoutQueueGrowth) {
  // A worker stall that inflates tail latency while the queue stays
  // EMPTY (paced arrivals well below capacity) must still walk the
  // ladder: the rolling-p99 trigger fires where the fill watermark
  // cannot.
  ev::FrameQueue queue(16, ev::OverflowPolicy::kBlock);
  ev::DegradationState state;
  ev::SloConfig slo;
  slo.degrade = true;
  slo.enter_intervals = 3;
  slo.exit_intervals = 4;
  slo.latency_high_ms = 10.0;  // p99 >= 10 ms escalates
  ev::DegradationController controller(slo, queue, state);
  ev::RollingLatency probe(16);
  controller.set_latency_probe(&probe);
  std::size_t hook_fires = 0;
  controller.set_transition_hook(
      [&](const ev::DegradationTransition&) { ++hook_fires; });

  // Fewer than 4 samples: the trigger is inert no matter how slow.
  probe.add(500'000.0);
  probe.add(500'000.0);
  for (int i = 0; i < 6; ++i) controller.sample(i);
  EXPECT_EQ(state.level(), ev::kDegradeNormal);

  // A sustained 50 ms p99 with the queue empty escalates one rung per
  // enter_intervals streak.
  for (int i = 0; i < 8; ++i) probe.add(50'000.0);
  for (int i = 0; i < 3; ++i) controller.sample(10 + i);
  EXPECT_EQ(state.level(), ev::kDegradeDropOldest);
  ASSERT_EQ(controller.transitions().size(), 1u);
  EXPECT_EQ(controller.transitions()[0].queue_depth, 0u);  // no growth
  EXPECT_GE(controller.transitions()[0].p99_ms, slo.latency_high_ms);
  EXPECT_EQ(hook_fires, 1u);

  for (int i = 0; i < 3; ++i) controller.sample(20 + i);
  EXPECT_EQ(state.level(), ev::kDegradeWideBatch);

  // Recovery needs p99 back under latency_low (default high/2): refill
  // the forgetting window with fast completions and the ladder steps
  // down (queue fill was low the whole time).
  for (int i = 0; i < 16; ++i) probe.add(1'000.0);
  for (int i = 0; i < 4; ++i) controller.sample(30 + i);
  EXPECT_EQ(state.level(), ev::kDegradeDropOldest);
  for (int i = 0; i < 4; ++i) controller.sample(40 + i);
  EXPECT_EQ(state.level(), ev::kDegradeNormal);
  EXPECT_EQ(hook_fires, controller.transitions().size());
  controller.finish(50.0);
}

TEST(Degradation, HotTailBlocksRecoveryDespiteDrainedQueue) {
  // Queue drained but p99 still above latency_low: stay degraded.
  ev::FrameQueue queue(16, ev::OverflowPolicy::kBlock);
  ev::DegradationState state;
  ev::SloConfig slo;
  slo.degrade = true;
  slo.enter_intervals = 2;
  slo.exit_intervals = 2;
  slo.latency_high_ms = 10.0;
  slo.latency_low_ms = 4.0;
  ev::DegradationController controller(slo, queue, state);
  ev::RollingLatency probe(8);
  controller.set_latency_probe(&probe);

  for (int i = 0; i < 8; ++i) probe.add(20'000.0);
  for (int i = 0; i < 2; ++i) controller.sample(i);
  ASSERT_EQ(state.level(), ev::kDegradeDropOldest);

  // 6 ms p99: below high, above low -> neither streak accumulates.
  for (int i = 0; i < 8; ++i) probe.add(6'000.0);
  for (int i = 0; i < 10; ++i) controller.sample(10 + i);
  EXPECT_EQ(state.level(), ev::kDegradeDropOldest);

  // Under the recovery bound: de-escalates.
  for (int i = 0; i < 8; ++i) probe.add(2'000.0);
  for (int i = 0; i < 2; ++i) controller.sample(30 + i);
  EXPECT_EQ(state.level(), ev::kDegradeNormal);
  controller.finish(40.0);
}
