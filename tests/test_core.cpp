// Tests for the core Ev-Edge components: the Event2Sparse Frame converter
// (Eq. 1), the Dynamic Sparse Frame Aggregator (Fig. 6 semantics), the
// inference cost model, the pipeline simulator, end-to-end accuracy and
// the event-input adapter (pinned to an independent dense oracle).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>
#include <random>

#include "core/batch_executor.hpp"
#include "core/dsfa.hpp"
#include "core/e2e_accuracy.hpp"
#include "core/e2sf.hpp"
#include "core/inference_cost.hpp"
#include "core/pipeline.hpp"
#include "events/density_profile.hpp"
#include "events/event_synth.hpp"
#include "hw/profiler.hpp"
#include "nn/zoo.hpp"
#include "sched/mapping.hpp"

namespace ec = evedge::core;
namespace ee = evedge::events;
namespace eh = evedge::hw;
namespace en = evedge::nn;
namespace eq = evedge::quant;
namespace es = evedge::sparse;
namespace ss = evedge::sched;

namespace {

ee::EventStream make_stream(ee::SensorGeometry g, ee::TimeUs duration,
                            std::uint64_t seed = 42,
                            const char* profile = "indoor1") {
  ee::SynthConfig cfg;
  cfg.geometry = g;
  cfg.seed = seed;
  const auto p = std::string(profile) == "indoor2"
                     ? ee::DensityProfile::indoor_flying2()
                     : ee::DensityProfile::indoor_flying1();
  return ee::PoissonEventSynthesizer(p, cfg).generate(0, duration);
}

es::SparseFrame frame_at(ee::TimeUs t_start, ee::TimeUs t_end, int h, int w,
                         int nnz, std::uint64_t seed = 1) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int> row(0, h - 1);
  std::uniform_int_distribution<int> col(0, w - 1);
  es::SparseFrame f(h, w);
  for (int i = 0; i < nnz; ++i) {
    f.positive().accumulate(row(rng), col(rng), 1.0f);
  }
  f.t_start = t_start;
  f.t_end = t_end;
  f.source_events = nnz;
  return f;
}

}  // namespace

// ------------------------------------------------------------------- E2SF

TEST(E2sf, EveryEventLandsInExactlyOneBin) {
  const ee::SensorGeometry g{32, 24};
  const auto stream = make_stream(g, 500'000);
  const ec::Event2SparseFrame e2sf(g, ec::E2sfConfig{5});
  const auto frames = e2sf.convert(stream.slice(0, 100'000), 0, 100'000);
  ASSERT_EQ(frames.size(), 5u);
  std::int64_t binned = 0;
  double mass = 0.0;
  for (const auto& f : frames) {
    binned += f.source_events;
    mass += f.event_mass();
    EXPECT_NO_THROW(f.validate());
  }
  const auto window = stream.count_in(0, 100'000);
  EXPECT_EQ(static_cast<std::size_t>(binned), window);
  // Polarity counts are conserved: total mass == total events.
  EXPECT_NEAR(mass, static_cast<double>(window), 1e-6);
}

TEST(E2sf, BinIndexMatchesEquation1) {
  // biS = (1000 - 0) / 4 = 250; event at t=620 -> bin floor(620/250) = 2.
  const ee::SensorGeometry g{8, 8};
  ee::EventStream stream(g);
  stream.push_back({3, 4, 620, ee::Polarity::kPositive});
  const ec::Event2SparseFrame e2sf(g, ec::E2sfConfig{4});
  const auto frames = e2sf.convert(stream.events(), 0, 1000);
  EXPECT_EQ(frames[2].source_events, 1);
  EXPECT_FLOAT_EQ(frames[2].positive().at(4, 3), 1.0f);
  EXPECT_EQ(frames[0].source_events + frames[1].source_events +
                frames[3].source_events,
            0);
}

TEST(E2sf, PolaritiesAccumulateSeparately) {
  const ee::SensorGeometry g{4, 4};
  ee::EventStream stream(g);
  stream.push_back({1, 1, 10, ee::Polarity::kPositive});
  stream.push_back({1, 1, 20, ee::Polarity::kPositive});
  stream.push_back({1, 1, 30, ee::Polarity::kNegative});
  const ec::Event2SparseFrame e2sf(g, ec::E2sfConfig{1});
  const auto frames = e2sf.convert(stream.events(), 0, 100);
  EXPECT_FLOAT_EQ(frames[0].positive().at(1, 1), 2.0f);
  EXPECT_FLOAT_EQ(frames[0].negative().at(1, 1), 1.0f);
}

TEST(E2sf, BinTimestampsPartitionInterval) {
  const ee::SensorGeometry g{8, 8};
  const ec::Event2SparseFrame e2sf(g, ec::E2sfConfig{3});
  const auto frames = e2sf.convert({}, 1000, 2000);
  ASSERT_EQ(frames.size(), 3u);
  EXPECT_EQ(frames[0].t_start, 1000);
  EXPECT_EQ(frames[2].t_end, 2000);
  for (std::size_t i = 1; i < frames.size(); ++i) {
    EXPECT_EQ(frames[i].t_start, frames[i - 1].t_end);
  }
}

TEST(E2sf, MatchesDenseFrameConstruction) {
  // The sparse path must encode exactly what the dense path encodes.
  const ee::SensorGeometry g{16, 12};
  const auto stream = make_stream(g, 200'000, 9);
  const ec::Event2SparseFrame e2sf(g, ec::E2sfConfig{4});
  const auto window = stream.slice(0, 150'000);
  const auto sparse_frames = e2sf.convert(window, 0, 150'000);
  const auto dense_frames = ec::dense_event_frames(g, window, 0, 150'000, 4);
  ASSERT_EQ(sparse_frames.size(), dense_frames.size());
  for (std::size_t i = 0; i < sparse_frames.size(); ++i) {
    EXPECT_FLOAT_EQ(
        es::max_abs_diff(sparse_frames[i].to_dense(), dense_frames[i]),
        0.0f);
  }
}

TEST(E2sf, RejectsEventsOutsideInterval) {
  const ee::SensorGeometry g{4, 4};
  ee::EventStream stream(g);
  stream.push_back({0, 0, 5000, ee::Polarity::kPositive});
  const ec::Event2SparseFrame e2sf(g, ec::E2sfConfig{2});
  EXPECT_THROW((void)e2sf.convert(stream.events(), 0, 1000),
               std::invalid_argument);
}

TEST(E2sf, StaticAccumulationByCount) {
  const ee::SensorGeometry g{16, 12};
  const auto stream = make_stream(g, 300'000, 11);
  const auto frames = ec::accumulate_by_count(stream, 100);
  std::int64_t total = 0;
  for (const auto& f : frames) total += f.source_events;
  EXPECT_EQ(static_cast<std::size_t>(total), stream.size());
  // All but the last frame hold exactly 100 events.
  for (std::size_t i = 0; i + 1 < frames.size(); ++i) {
    EXPECT_EQ(frames[i].source_events, 100);
  }
}

TEST(E2sf, StaticAccumulationByTime) {
  const ee::SensorGeometry g{16, 12};
  const auto stream = make_stream(g, 300'000, 13);
  const auto frames = ec::accumulate_by_time(stream, 50'000);
  std::int64_t total = 0;
  for (const auto& f : frames) {
    total += f.source_events;
    EXPECT_EQ(f.t_end - f.t_start, 50'000);
  }
  EXPECT_EQ(static_cast<std::size_t>(total), stream.size());
}

// ------------------------------------------------------------------- DSFA

TEST(Dsfa, NoFrameLostOrDuplicated) {
  ec::DsfaConfig cfg;
  cfg.event_buffer_size = 6;
  cfg.merge_bucket_capacity = 3;
  cfg.max_time_delay_us = 1e9;   // never close on time
  cfg.max_density_change = 1e9;  // never close on density
  cfg.inference_queue_capacity = 100;
  ec::DynamicSparseFrameAggregator dsfa(cfg);
  std::int64_t pushed_events = 0;
  for (int i = 0; i < 12; ++i) {
    auto f = frame_at(i * 1000, (i + 1) * 1000, 16, 16, 10 + i,
                      static_cast<std::uint64_t>(i));
    pushed_events += f.source_events;
    dsfa.push(std::move(f));
  }
  dsfa.dispatch_available();
  std::int64_t dispatched_events = 0;
  while (auto batch = dsfa.take_ready_batch()) {
    for (const auto& f : batch->frames) dispatched_events += f.source_events;
  }
  EXPECT_EQ(dispatched_events, pushed_events);
  EXPECT_EQ(dsfa.stats().frames_in, 12u);
  EXPECT_EQ(dsfa.stats().frames_discarded, 0u);
}

TEST(Dsfa, RespectsBucketCapacity) {
  ec::DsfaConfig cfg;
  cfg.event_buffer_size = 100;
  cfg.merge_bucket_capacity = 2;
  cfg.max_time_delay_us = 1e9;
  cfg.max_density_change = 1e9;
  ec::DynamicSparseFrameAggregator dsfa(cfg);
  for (int i = 0; i < 6; ++i) {
    dsfa.push(frame_at(i * 1000, (i + 1) * 1000, 8, 8, 8,
                       static_cast<std::uint64_t>(i)));
  }
  dsfa.dispatch_available();
  const auto batch = dsfa.take_ready_batch();
  ASSERT_TRUE(batch.has_value());
  // 6 frames at capacity 2 -> 3 merged buckets.
  EXPECT_EQ(batch->size(), 3u);
  EXPECT_EQ(dsfa.stats().capacity_closures, 3u);
}

TEST(Dsfa, TimeThresholdClosesBucket) {
  ec::DsfaConfig cfg;
  cfg.event_buffer_size = 100;
  cfg.merge_bucket_capacity = 10;
  cfg.max_time_delay_us = 500.0;  // MtTh
  cfg.max_density_change = 1e9;
  ec::DynamicSparseFrameAggregator dsfa(cfg);
  dsfa.push(frame_at(0, 100, 8, 8, 8, 1));
  dsfa.push(frame_at(10'000, 10'100, 8, 8, 8, 2));  // delay >> MtTh
  dsfa.dispatch_available();
  const auto batch = dsfa.take_ready_batch();
  ASSERT_TRUE(batch.has_value());
  EXPECT_EQ(batch->size(), 2u);  // not merged
  EXPECT_EQ(dsfa.stats().time_threshold_closures, 1u);
}

TEST(Dsfa, DensityThresholdClosesBucket) {
  ec::DsfaConfig cfg;
  cfg.event_buffer_size = 100;
  cfg.merge_bucket_capacity = 10;
  cfg.max_time_delay_us = 1e9;
  cfg.max_density_change = 0.5;  // MdTh: 50% relative change
  ec::DynamicSparseFrameAggregator dsfa(cfg);
  dsfa.push(frame_at(0, 100, 16, 16, 10, 1));
  dsfa.push(frame_at(100, 200, 16, 16, 200, 2));  // ~20x denser
  dsfa.dispatch_available();
  const auto batch = dsfa.take_ready_batch();
  ASSERT_TRUE(batch.has_value());
  EXPECT_EQ(batch->size(), 2u);
  EXPECT_EQ(dsfa.stats().density_threshold_closures, 1u);
}

TEST(Dsfa, CBatchNeverMerges) {
  ec::DsfaConfig cfg;
  cfg.event_buffer_size = 4;
  cfg.merge_bucket_capacity = 4;
  cfg.merge_mode = es::MergeMode::kBatch;
  ec::DynamicSparseFrameAggregator dsfa(cfg);
  for (int i = 0; i < 4; ++i) {
    dsfa.push(frame_at(i * 100, (i + 1) * 100, 8, 8, 6,
                       static_cast<std::uint64_t>(i)));
  }
  const auto batch = dsfa.take_ready_batch();
  ASSERT_TRUE(batch.has_value());
  EXPECT_EQ(batch->size(), 4u);  // one bucket per frame
  for (const auto& f : batch->frames) {
    EXPECT_EQ(f.source_events, 6);
  }
}

TEST(Dsfa, BufferOverflowTriggersDispatch) {
  ec::DsfaConfig cfg;
  cfg.event_buffer_size = 3;
  cfg.merge_bucket_capacity = 2;
  cfg.max_time_delay_us = 1e9;
  cfg.max_density_change = 1e9;
  ec::DynamicSparseFrameAggregator dsfa(cfg);
  dsfa.push(frame_at(0, 100, 8, 8, 5, 1));
  dsfa.push(frame_at(100, 200, 8, 8, 5, 2));
  EXPECT_FALSE(dsfa.take_ready_batch().has_value());  // 2 < EBufsize
  dsfa.push(frame_at(200, 300, 8, 8, 5, 3));          // hits EBufsize
  const auto batch = dsfa.take_ready_batch();
  ASSERT_TRUE(batch.has_value());
  EXPECT_EQ(dsfa.buffered_frames(), 0u);
}

TEST(Dsfa, InferenceQueueDiscardsOldest) {
  ec::DsfaConfig cfg;
  cfg.event_buffer_size = 1;  // dispatch on every push
  cfg.merge_bucket_capacity = 1;
  cfg.inference_queue_capacity = 2;
  ec::DynamicSparseFrameAggregator dsfa(cfg);
  for (int i = 0; i < 5; ++i) {
    dsfa.push(frame_at(i * 100, (i + 1) * 100, 8, 8, 4,
                       static_cast<std::uint64_t>(i)));
  }
  EXPECT_GT(dsfa.stats().frames_discarded, 0u);
  // The two newest batches remain.
  auto first = dsfa.take_ready_batch();
  auto second = dsfa.take_ready_batch();
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(second.has_value());
  EXPECT_FALSE(dsfa.take_ready_batch().has_value());
  EXPECT_GT(second->frames.front().t_start, first->frames.front().t_start);
}

TEST(Dsfa, MergePreservesEventMassUnderCAdd) {
  ec::DsfaConfig cfg;
  cfg.event_buffer_size = 4;
  cfg.merge_bucket_capacity = 4;
  cfg.merge_mode = es::MergeMode::kAdd;
  cfg.max_time_delay_us = 1e9;
  cfg.max_density_change = 1e9;
  ec::DynamicSparseFrameAggregator dsfa(cfg);
  double mass_in = 0.0;
  for (int i = 0; i < 4; ++i) {
    auto f = frame_at(i * 100, (i + 1) * 100, 8, 8, 7,
                      static_cast<std::uint64_t>(i));
    mass_in += f.event_mass();
    dsfa.push(std::move(f));
  }
  const auto batch = dsfa.take_ready_batch();
  ASSERT_TRUE(batch.has_value());
  double mass_out = 0.0;
  for (const auto& f : batch->frames) mass_out += f.event_mass();
  EXPECT_NEAR(mass_out, mass_in, 1e-6);
}

// --------------------------------------------------------- inference cost

namespace {

struct CostFixture {
  eh::Platform platform = eh::xavier_agx();
  en::NetworkSpec spec =
      en::build_network(en::NetworkId::kSpikeFlowNet,
                        en::ZooConfig::test_scale());
  ec::ActivationDensityProfile densities =
      ec::measure_activation_densities(spec, 7);
  ss::TaskMapping gpu_mapping = ss::uniform_candidate(
      {spec}, platform.first_pe(eh::PeKind::kGpu),
      eq::Precision::kFp32).tasks.front();
};

}  // namespace

TEST(InferenceCost, MeasuredDensitiesAreSane) {
  CostFixture f;
  for (const auto& node : f.spec.graph.nodes()) {
    const double d = f.densities.density[static_cast<std::size_t>(node.id)];
    EXPECT_GE(d, 0.0);
    EXPECT_LE(d, 1.0);
  }
  // Spiking encoder outputs must be sparse (high activation sparsity).
  int spiking_checked = 0;
  for (const auto& node : f.spec.graph.nodes()) {
    if (en::domain_of(node.spec.kind) == en::Domain::kSnn) {
      EXPECT_LT(f.densities.density[static_cast<std::size_t>(node.id)], 0.6);
      ++spiking_checked;
    }
  }
  EXPECT_EQ(spiking_checked, 4);
}

namespace {

/// Full-scale cost fixture with a synthetic density profile: at realistic
/// layer sizes the sparse-route economics are visible (at tiny test scale
/// every layer is launch-overhead bound and dense always wins — itself a
/// property the model should exhibit).
struct FullScaleCostFixture {
  eh::Platform platform = eh::xavier_agx();
  en::NetworkSpec spec = en::build_network(en::NetworkId::kSpikeFlowNet,
                                           en::ZooConfig::full_scale());
  ec::ActivationDensityProfile densities;
  ss::TaskMapping gpu_mapping;

  FullScaleCostFixture() {
    densities.measured_input_density = 0.1;
    densities.density.assign(spec.graph.size(), 0.5);
    // Spiking nodes sparse (high activation sparsity), per measurement.
    for (const auto& node : spec.graph.nodes()) {
      if (en::domain_of(node.spec.kind) == en::Domain::kSnn) {
        densities.density[static_cast<std::size_t>(node.id)] = 0.15;
      }
    }
    gpu_mapping = ss::uniform_candidate(
                      {spec}, platform.first_pe(eh::PeKind::kGpu),
                      eq::Precision::kFp32)
                      .tasks.front();
  }
};

}  // namespace

TEST(InferenceCost, SparseRoutesHelpAtLowDensity) {
  FullScaleCostFixture f;
  ec::InferenceCostOptions dense_opts;
  ec::InferenceCostOptions sparse_opts;
  sparse_opts.use_sparse_routes = true;
  const auto dense = ec::estimate_inference(
      f.spec, f.gpu_mapping, f.platform, f.densities, 0.02, dense_opts);
  const auto sparse = ec::estimate_inference(
      f.spec, f.gpu_mapping, f.platform, f.densities, 0.02, sparse_opts);
  EXPECT_LT(sparse.latency_us, dense.latency_us);
}

TEST(InferenceCost, EncodeOverheadErasesSparseGains) {
  // The paper's motivation for E2SF: dense->sparse encoding overheads
  // outweigh the sparse-kernel benefit.
  FullScaleCostFixture f;
  ec::InferenceCostOptions sparse_opts;
  sparse_opts.use_sparse_routes = true;
  ec::InferenceCostOptions encode_opts = sparse_opts;
  encode_opts.charge_encode_overhead = true;
  const auto direct = ec::estimate_inference(
      f.spec, f.gpu_mapping, f.platform, f.densities, 0.05, sparse_opts);
  const auto encoded = ec::estimate_inference(
      f.spec, f.gpu_mapping, f.platform, f.densities, 0.05, encode_opts);
  EXPECT_GT(encoded.latency_us, direct.latency_us);
}

TEST(InferenceCost, BatchingAmortizes) {
  CostFixture f;
  ec::InferenceCostOptions opts;
  opts.use_sparse_routes = true;
  const auto single = ec::estimate_inference(
      f.spec, f.gpu_mapping, f.platform, f.densities, 0.05, opts);
  opts.batch = 4;
  const auto batched = ec::estimate_inference(
      f.spec, f.gpu_mapping, f.platform, f.densities, 0.05, opts);
  EXPECT_LT(batched.latency_us, 4.0 * single.latency_us);
  EXPECT_GT(batched.latency_us, single.latency_us);
}

TEST(InferenceCost, MovingAnnConvsToCpuPaysTransfersAndSlowCompute) {
  // Full-scale descriptors: at realistic layer sizes dense GEMMs on the
  // CPU are far slower than on the GPU and the cross-PE edges add
  // transfer time. (At toy test scale the GPU launch overhead dominates
  // and this premise does not hold — which is itself a property the
  // latency model should exhibit, hence the full-scale spec here.)
  const eh::Platform platform = eh::xavier_agx();
  const auto spec = en::build_network(en::NetworkId::kSpikeFlowNet,
                                      en::ZooConfig::full_scale());
  ec::ActivationDensityProfile densities;
  densities.density.assign(spec.graph.size(), 0.5);
  densities.measured_input_density = 0.5;
  const auto gpu_mapping =
      ss::uniform_candidate({spec}, platform.first_pe(eh::PeKind::kGpu),
                            eq::Precision::kFp32)
          .tasks.front();
  auto split = gpu_mapping;
  int moved = 0;
  for (const auto& node : spec.graph.nodes()) {
    if (node.spec.kind == en::LayerKind::kConv && moved < 2) {
      split.nodes[static_cast<std::size_t>(node.id)].pe =
          platform.first_pe(eh::PeKind::kCpu);
      ++moved;
    }
  }
  ASSERT_EQ(moved, 2);
  ec::InferenceCostOptions opts;
  const auto gpu_only = ec::estimate_inference(spec, gpu_mapping, platform,
                                               densities, 0.5, opts);
  const auto crossed =
      ec::estimate_inference(spec, split, platform, densities, 0.5, opts);
  EXPECT_GT(crossed.latency_us, gpu_only.latency_us);
}

TEST(InferenceCost, SpikingLayersCheaperOnCpu) {
  // The paper's observation that motivates heterogeneous mapping: LIF
  // layers utilize the GPU poorly; pinning them to the CPU wins even
  // after paying the transfers.
  CostFixture f;
  auto split = f.gpu_mapping;
  for (const auto& node : f.spec.graph.nodes()) {
    if (en::domain_of(node.spec.kind) == en::Domain::kSnn) {
      split.nodes[static_cast<std::size_t>(node.id)].pe =
          f.platform.first_pe(eh::PeKind::kCpu);
    }
  }
  ec::InferenceCostOptions opts;
  const auto gpu_only = ec::estimate_inference(
      f.spec, f.gpu_mapping, f.platform, f.densities, 0.1, opts);
  const auto snn_on_cpu = ec::estimate_inference(
      f.spec, split, f.platform, f.densities, 0.1, opts);
  EXPECT_LT(snn_on_cpu.latency_us, gpu_only.latency_us);
}

// --------------------------------------------------------------- pipeline

namespace {

ec::PipelineConfig baseline_config() {
  ec::PipelineConfig cfg;
  cfg.use_e2sf = false;
  cfg.use_dsfa = false;
  cfg.frame_rate_hz = 30.0;
  return cfg;
}

}  // namespace

TEST(Pipeline, DsfaReducesInferencesAndLatencyUnderBursts) {
  CostFixture f;
  const auto stream = make_stream(ee::SensorGeometry{44, 32}, 3'000'000, 3,
                                  "indoor2");
  auto base_cfg = baseline_config();
  base_cfg.use_e2sf = true;       // isolate the DSFA effect
  base_cfg.frame_rate_hz = 240.0;  // bin arrivals outpace the device
  const auto base = ec::simulate_pipeline(stream, f.spec, f.gpu_mapping,
                                          f.platform, f.densities, base_cfg);
  auto dsfa_cfg = base_cfg;
  dsfa_cfg.use_dsfa = true;
  const auto dsfa = ec::simulate_pipeline(stream, f.spec, f.gpu_mapping,
                                          f.platform, f.densities, dsfa_cfg);
  EXPECT_LT(dsfa.inferences, base.inferences);
  EXPECT_LT(dsfa.mean_latency_us, base.mean_latency_us);
  EXPECT_GT(dsfa.dsfa.buckets_dispatched, 0u);
  EXPECT_GT(dsfa.mean_batch, 1.0);
}

TEST(Pipeline, DsfaHarmlessWhenHardwareKeepsUp) {
  // At low frame rates the device is always idle; idle dispatch sends
  // every frame straight through and DSFA must not hurt latency.
  CostFixture f;
  const auto stream = make_stream(ee::SensorGeometry{44, 32}, 2'000'000, 3);
  auto base_cfg = baseline_config();
  base_cfg.use_e2sf = true;
  base_cfg.frame_rate_hz = 20.0;
  const auto base = ec::simulate_pipeline(stream, f.spec, f.gpu_mapping,
                                          f.platform, f.densities, base_cfg);
  auto dsfa_cfg = base_cfg;
  dsfa_cfg.use_dsfa = true;
  const auto dsfa = ec::simulate_pipeline(stream, f.spec, f.gpu_mapping,
                                          f.platform, f.densities, dsfa_cfg);
  EXPECT_LE(dsfa.mean_latency_us, base.mean_latency_us * 1.10);
}

TEST(Pipeline, E2sfBeatsDenseBaseline) {
  // Full-scale spec so the sparse routes actually engage (tiny layers
  // are launch-bound and run dense regardless); the stream still supplies
  // realistic timing/density, which is all the pipeline reads from it.
  FullScaleCostFixture f;
  const auto stream = make_stream(ee::SensorGeometry{44, 32}, 2'000'000, 5);
  const auto dense = ec::simulate_pipeline(stream, f.spec, f.gpu_mapping,
                                           f.platform, f.densities,
                                           baseline_config());
  auto e2sf_cfg = baseline_config();
  e2sf_cfg.use_e2sf = true;
  const auto sparse = ec::simulate_pipeline(stream, f.spec, f.gpu_mapping,
                                            f.platform, f.densities,
                                            e2sf_cfg);
  EXPECT_LT(sparse.mean_service_per_frame_us,
            dense.mean_service_per_frame_us);
  EXPECT_LT(sparse.total_energy_mj, dense.total_energy_mj);
}

TEST(Pipeline, FrameAccounting) {
  CostFixture f;
  const auto stream = make_stream(ee::SensorGeometry{44, 32}, 1'000'000, 7);
  const auto stats = ec::simulate_pipeline(stream, f.spec, f.gpu_mapping,
                                           f.platform, f.densities,
                                           baseline_config());
  // 30 fps over 1 s, 5 bins per interval.
  EXPECT_GT(stats.frames_generated, 100u);
  EXPECT_EQ(stats.inferences, stats.frames_generated);
  EXPECT_GT(stats.mean_input_density, 0.0);
  EXPECT_GT(stats.sim_span_us, 0.0);
}

TEST(Pipeline, IdleDispatchImprovesLatency) {
  CostFixture f;
  const auto stream = make_stream(ee::SensorGeometry{44, 32}, 3'000'000, 9,
                                  "indoor2");
  auto cfg = baseline_config();
  cfg.use_e2sf = true;
  cfg.use_dsfa = true;
  cfg.idle_dispatch = true;
  const auto with_idle = ec::simulate_pipeline(
      stream, f.spec, f.gpu_mapping, f.platform, f.densities, cfg);
  cfg.idle_dispatch = false;
  const auto without_idle = ec::simulate_pipeline(
      stream, f.spec, f.gpu_mapping, f.platform, f.densities, cfg);
  EXPECT_LE(with_idle.mean_latency_us,
            without_idle.mean_latency_us * 1.001);
}

// --------------------------------------------------------- e2e accuracy

TEST(E2eAccuracy, NoOptimizationsMeansNoDegradation) {
  const auto spec = en::build_network(en::NetworkId::kSpikeFlowNet,
                                      en::ZooConfig::test_scale());
  const auto stream = make_stream(
      ee::SensorGeometry{spec.graph.node(0).spec.out_shape.w,
                         spec.graph.node(0).spec.out_shape.h},
      400'000, 15);
  ec::E2eAccuracyConfig cfg;
  cfg.apply_dsfa = false;  // no merging, no quantization
  cfg.max_intervals = 2;
  const auto result = ec::evaluate_e2e_accuracy(spec, stream, cfg);
  EXPECT_DOUBLE_EQ(result.measured_degradation, 0.0);
  EXPECT_DOUBLE_EQ(result.evedge_metric, result.baseline_metric);
}

TEST(E2eAccuracy, DsfaMergingDegradesSlightly) {
  const auto spec = en::build_network(en::NetworkId::kSpikeFlowNet,
                                      en::ZooConfig::test_scale());
  const auto stream = make_stream(
      ee::SensorGeometry{spec.graph.node(0).spec.out_shape.w,
                         spec.graph.node(0).spec.out_shape.h},
      400'000, 17);
  ec::E2eAccuracyConfig cfg;
  cfg.apply_dsfa = true;
  cfg.dsfa.merge_bucket_capacity = 3;
  cfg.dsfa.max_time_delay_us = 1e9;
  cfg.dsfa.max_density_change = 1e9;
  cfg.max_intervals = 2;
  const auto result = ec::evaluate_e2e_accuracy(spec, stream, cfg);
  EXPECT_GT(result.measured_degradation, 0.0);
  EXPECT_GT(result.evedge_metric, result.baseline_metric);  // AEE: worse
  // ... but by a modest amount (Table 2's story).
  EXPECT_LT(result.measured_degradation, 1.0);
}

TEST(E2eAccuracy, Int8EngineCrossCheckTracksFakeQuant) {
  const auto spec = en::build_network(en::NetworkId::kSpikeFlowNet,
                                      en::ZooConfig::test_scale());
  const auto stream = make_stream(
      ee::SensorGeometry{spec.graph.node(0).spec.out_shape.w,
                         spec.graph.node(0).spec.out_shape.h},
      400'000, 21);
  ec::E2eAccuracyConfig cfg;
  cfg.apply_dsfa = false;  // isolate the quantization effect
  cfg.max_intervals = 2;
  cfg.precisions =
      evedge::quant::uniform_assignment(spec, evedge::quant::Precision::kInt8);
  cfg.int8_engine_cross_check = true;
  const auto result = ec::evaluate_e2e_accuracy(spec, stream, cfg);
  ASSERT_TRUE(result.has_int8_cross_check);
  // Both substrates degrade (quantization is real) by a modest amount,
  // and the real engine's story matches the modelled one to first order.
  EXPECT_GT(result.measured_degradation, 0.0);
  EXPECT_GT(result.measured_degradation_int8, 0.0);
  EXPECT_LT(result.measured_degradation_int8, 1.0);
  EXPECT_LT(std::abs(result.measured_degradation_int8 -
                     result.measured_degradation),
            0.25);
  // Direction of the anchored metric shift agrees.
  EXPECT_GT(result.evedge_metric_int8, result.baseline_metric);
}

TEST(E2eAccuracy, ReslotPreservesMassUnderCAdd) {
  const ee::SensorGeometry g{24, 18};
  const auto stream = make_stream(g, 400'000, 19);
  const ec::Event2SparseFrame e2sf(g, ec::E2sfConfig{5});
  const auto bins = e2sf.convert(stream.slice(0, 100'000), 0, 100'000);
  ec::DsfaConfig cfg;
  cfg.merge_bucket_capacity = 3;
  cfg.max_time_delay_us = 1e9;
  cfg.max_density_change = 1e9;
  const auto slots = ec::reslot_merged_frames(bins, cfg);
  ASSERT_EQ(slots.size(), bins.size());
  double mass_in = 0.0;
  double mass_out = 0.0;
  for (const auto& b : bins) mass_in += b.event_mass();
  for (const auto& s : slots) mass_out += s.event_mass();
  EXPECT_NEAR(mass_out, mass_in, 1e-6);
}

TEST(E2eAccuracy, CBatchReslotIsIdentity) {
  const ee::SensorGeometry g{24, 18};
  const auto stream = make_stream(g, 400'000, 23);
  const ec::Event2SparseFrame e2sf(g, ec::E2sfConfig{5});
  const auto bins = e2sf.convert(stream.slice(0, 100'000), 0, 100'000);
  ec::DsfaConfig cfg;
  cfg.merge_mode = es::MergeMode::kBatch;
  const auto slots = ec::reslot_merged_frames(bins, cfg);
  ASSERT_EQ(slots.size(), bins.size());
  for (std::size_t i = 0; i < bins.size(); ++i) {
    EXPECT_FLOAT_EQ(
        es::max_abs_diff(slots[i].to_dense(), bins[i].to_dense()), 0.0f);
  }
}

// --------------------------------------------------------- batch executor

// ---------------------------------------------------- event-input adapter

namespace {

/// The dense scatter the adapter replaced, kept verbatim as its oracle:
/// one COO channel downsampled by `factor`, center-aligned, cropped, and
/// accumulated with += into a zeroed plane.
void reference_scatter(const es::CooChannel& ch, int factor, int off_y,
                       int off_x, int dst_h, int dst_w, float* plane) {
  for (const es::CooEntry& e : ch.entries()) {
    const int ty = e.row / factor + off_y;
    const int tx = e.col / factor + off_x;
    if (ty < 0 || ty >= dst_h || tx < 0 || tx >= dst_w) continue;
    plane[static_cast<std::size_t>(ty) * static_cast<std::size_t>(dst_w) +
          static_cast<std::size_t>(tx)] += e.value;
  }
}

/// The oracle's [1, C, H, W] rendering of one frame: every bin slot gets
/// the positive channel in 2b and the negative one in 2b + 1.
es::DenseTensor reference_adapt(const es::SparseFrame& frame,
                                const es::TensorShape& shape) {
  const int h = shape.h;
  const int w = shape.w;
  const int factor =
      std::max(1, std::max((frame.height() + h - 1) / h,
                           (frame.width() + w - 1) / w));
  const int off_y = (h - (frame.height() + factor - 1) / factor) / 2;
  const int off_x = (w - (frame.width() + factor - 1) / factor) / 2;
  es::DenseTensor out(es::TensorShape{1, shape.c, h, w});
  std::fill(out.data().begin(), out.data().end(), 0.0f);
  for (int b = 0; b < std::max(1, shape.c / 2); ++b) {
    reference_scatter(frame.positive(), factor, off_y, off_x, h, w,
                      out.raw() + out.offset(0, 2 * b, 0, 0));
    if (2 * b + 1 < shape.c) {
      reference_scatter(frame.negative(), factor, off_y, off_x, h, w,
                        out.raw() + out.offset(0, 2 * b + 1, 0, 0));
    }
  }
  return out;
}

es::CooChannel channel_of(int h, int w, std::vector<es::CooEntry> entries) {
  return es::CooChannel::from_entries(h, w, std::move(entries));
}

[[nodiscard]] bool same_bytes(const float* a, const float* b,
                              std::size_t n) {
  return std::memcmp(a, b, n * sizeof(float)) == 0;
}

/// Checks the COO adapter (densified) and frames_to_event_steps against
/// the oracle, byte for byte, for one frame at one input shape.
void expect_adapter_matches_oracle(const es::SparseFrame& frame,
                                   const es::TensorShape& shape,
                                   const char* what) {
  const es::DenseTensor want = reference_adapt(frame, shape);

  const es::SparseSample sample = ec::frame_to_event_sample(frame, shape);
  ASSERT_EQ(static_cast<int>(sample.size()), shape.c) << what;
  es::DenseTensor got(es::TensorShape{1, shape.c, shape.h, shape.w});
  for (const es::CooChannel& ch : sample) {
    ASSERT_EQ(ch.height(), shape.h) << what;
    ASSERT_EQ(ch.width(), shape.w) << what;
    EXPECT_NO_THROW(ch.validate()) << what;  // sorted, unique, no zeros
  }
  es::channels_into_slice(sample, got, 0);
  EXPECT_TRUE(same_bytes(got.raw(), want.raw(), want.size())) << what;

  constexpr int kTimesteps = 3;
  std::vector<es::DenseTensor> steps;
  ec::frames_to_event_steps({frame, frame}, shape, kTimesteps, steps);
  ASSERT_EQ(steps.size(), static_cast<std::size_t>(kTimesteps)) << what;
  for (const es::DenseTensor& step : steps) {
    ASSERT_EQ(step.shape().n, 2) << what;
    for (int n = 0; n < 2; ++n) {
      EXPECT_TRUE(same_bytes(step.raw() + step.offset(n, 0, 0, 0),
                             want.raw(), want.size()))
          << what << " lane " << n;
    }
  }
}

}  // namespace

// Sensor == input extent: factor 1, no offset, entries pass through.
TEST(EventAdapter, SensorAtInputExtentPassesThrough) {
  const es::TensorShape shape{1, 2, 12, 16};
  es::SparseFrame frame(12, 16);
  frame.positive() = channel_of(12, 16, {{0, 0, 1.0f}, {3, 7, 2.5f},
                                         {11, 15, 0.1f}});
  frame.negative() = channel_of(12, 16, {{0, 1, 3.0f}, {5, 5, 0.3f}});
  expect_adapter_matches_oracle(frame, shape, "factor 1");
  const es::SparseSample sample = ec::frame_to_event_sample(frame, shape);
  EXPECT_EQ(sample[0].entries(), frame.positive().entries());
  EXPECT_EQ(sample[1].entries(), frame.negative().entries());
}

// Factors 2 and 3: non-integer values colliding on one target site
// accumulate in source order (float addition is not associative, so
// only that order reproduces the oracle's bytes), across source rows.
TEST(EventAdapter, CollisionsAccumulateInSourceOrder) {
  const es::TensorShape shape{1, 2, 12, 16};
  for (const int factor : {2, 3}) {
    const int h = 12 * factor;
    const int w = 16 * factor;
    es::SparseFrame frame(h, w);
    std::vector<es::CooEntry> pos;
    std::vector<es::CooEntry> neg;
    // Target (2, 3): 0.1 + 0.2 + 0.3 (+ 0.7) from three source rows.
    const int y0 = 2 * factor;
    const int x0 = 3 * factor;
    pos.push_back({y0, x0, 0.1f});
    pos.push_back({y0, x0 + 1, 0.7f});
    pos.push_back({y0 + 1, x0, 0.2f});
    pos.push_back({y0 + factor - 1, x0 + factor - 1, 0.3f});
    // A neighbouring target in between, so the runs interleave by row.
    pos.push_back({y0, x0 + factor, 0.9f});
    pos.push_back({y0 + 1, x0 + factor + 1, 0.05f});
    neg.push_back({0, 0, 0.3f});
    neg.push_back({factor - 1, 1, 0.2f});
    neg.push_back({factor - 1, factor - 1, 0.1f});
    frame.positive() = channel_of(h, w, pos);
    frame.negative() = channel_of(h, w, neg);
    expect_adapter_matches_oracle(
        frame, shape, factor == 2 ? "factor 2" : "factor 3");
    const es::SparseSample sample = ec::frame_to_event_sample(frame, shape);
    EXPECT_EQ(sample[0].nnz(), 2u);  // two target sites
    EXPECT_EQ(sample[1].nnz(), 1u);
  }
}

// A colliding pair that cancels to 0 leaves no stored entry (the oracle
// reads +0 there); a partial cancellation followed by more mass keeps
// the remainder.
TEST(EventAdapter, CancellingCollisionsDropOut) {
  const es::TensorShape shape{1, 2, 12, 16};
  es::SparseFrame frame(24, 32);
  frame.positive() = channel_of(24, 32, {{4, 4, 1.5f}, {5, 5, -1.5f},
                                         {8, 8, 1.0f}, {8, 9, -1.0f},
                                         {9, 8, 0.5f}});
  frame.negative() = channel_of(24, 32, {{0, 0, 0.25f}, {1, 1, -0.25f}});
  expect_adapter_matches_oracle(frame, shape, "cancel");
  const es::SparseSample sample = ec::frame_to_event_sample(frame, shape);
  ASSERT_EQ(sample[0].nnz(), 1u);
  EXPECT_EQ(sample[0].entries().front(), (es::CooEntry{4, 4, 0.5f}));
  EXPECT_EQ(sample[1].nnz(), 0u);
}

// A sensor smaller than the input is center-aligned without scaling;
// odd extents and a non-square factor-4 sensor crop and offset like the
// oracle.
TEST(EventAdapter, SmallerAndOddSensorsCenterAlign) {
  const es::TensorShape shape{1, 2, 12, 16};
  es::SparseFrame small(6, 9);
  small.positive() = channel_of(6, 9, {{0, 0, 1.0f}, {5, 8, 2.0f}});
  small.negative() = channel_of(6, 9, {{2, 4, 0.3f}});
  expect_adapter_matches_oracle(small, shape, "smaller sensor");
  const es::SparseSample sample = ec::frame_to_event_sample(small, shape);
  EXPECT_EQ(sample[0].entries().front(), (es::CooEntry{3, 3, 1.0f}));

  std::mt19937_64 rng(77);
  std::uniform_int_distribution<int> row(0, 36);
  std::uniform_int_distribution<int> col(0, 52);
  std::uniform_real_distribution<float> value(-1.0f, 2.0f);
  es::SparseFrame odd(37, 53);
  for (int i = 0; i < 600; ++i) {
    es::CooChannel& ch = i % 3 == 0 ? odd.negative() : odd.positive();
    ch.accumulate(row(rng), col(rng), value(rng));
  }
  expect_adapter_matches_oracle(odd, shape, "37x53 random");
}

// Stacked-bin ANN input (C = 2 x bins): every bin slot carries the
// frame; an odd channel count leaves the trailing channel empty.
TEST(EventAdapter, StackedBinsFillEverySlot) {
  es::SparseFrame frame(24, 32);
  frame.positive() = channel_of(24, 32, {{1, 1, 0.1f}, {0, 0, 0.2f},
                                         {23, 31, 4.0f}});
  frame.negative() = channel_of(24, 32, {{10, 10, 1.0f}});
  expect_adapter_matches_oracle(frame, es::TensorShape{1, 10, 12, 16},
                                "10 channels");
  expect_adapter_matches_oracle(frame, es::TensorShape{1, 5, 12, 16},
                                "5 channels");
  const es::SparseSample sample =
      ec::frame_to_event_sample(frame, es::TensorShape{1, 5, 12, 16});
  EXPECT_EQ(sample[4].nnz(), 0u);
  EXPECT_EQ(sample[3].entries(), sample[1].entries());
}

TEST(EventAdapter, EmptyFrameGivesEmptyChannels) {
  const es::SparseFrame empty(24, 32);
  expect_adapter_matches_oracle(empty, es::TensorShape{1, 2, 12, 16},
                                "empty");
  for (const es::CooChannel& ch :
       ec::frame_to_event_sample(empty, es::TensorShape{1, 2, 12, 16})) {
    EXPECT_EQ(ch.nnz(), 0u);
  }
}

TEST(BatchExecutor, RunsDispatchedBatchesOnTheBatchedEngine) {
  CostFixture f;
  en::FunctionalNetwork net(f.spec, 7);
  ec::BatchExecutor executor(net);

  // Frames at a larger sensor geometry than the network input: the
  // executor downsamples and center-aligns them.
  const auto stream = make_stream(ee::SensorGeometry{88, 64}, 600'000, 3);
  const ec::Event2SparseFrame e2sf(stream.geometry(), ec::E2sfConfig{});
  const auto clock = ee::FrameClock::uniform(stream.t_begin(), 100'000, 6);
  const auto intervals = e2sf.convert_stream(stream, clock);
  std::vector<es::SparseFrame> frames;
  for (const auto& interval : intervals) {
    for (const auto& frame : interval) frames.push_back(frame);
  }
  ASSERT_GE(frames.size(), 3u);

  const std::vector<es::SparseFrame> batch(frames.begin(),
                                           frames.begin() + 3);
  const auto& out = executor.execute(batch);
  EXPECT_EQ(out.shape().n, 3);
  for (float v : out.data()) {
    EXPECT_TRUE(std::isfinite(v));
  }
  EXPECT_EQ(executor.stats().batches, 1u);
  EXPECT_EQ(executor.stats().samples, 3u);
  EXPECT_GT(executor.stats().wall_ms, 0.0);
  EXPECT_THROW((void)executor.execute({}), std::invalid_argument);
}

TEST(Pipeline, ExecutorRoutesEveryDispatchedBatch) {
  CostFixture f;
  en::FunctionalNetwork net(f.spec, 7);
  ec::BatchExecutor executor(net);
  const auto stream = make_stream(ee::SensorGeometry{44, 32}, 1'000'000, 3);

  auto cfg = baseline_config();
  cfg.use_e2sf = true;
  cfg.use_dsfa = true;
  cfg.executor = &executor;
  const auto stats = ec::simulate_pipeline(stream, f.spec, f.gpu_mapping,
                                           f.platform, f.densities, cfg);
  EXPECT_EQ(stats.functional_batches, stats.inferences);
  EXPECT_EQ(stats.functional_samples, stats.buckets_completed);
  EXPECT_EQ(executor.stats().batches, stats.functional_batches);
  EXPECT_GT(stats.functional_wall_ms, 0.0);

  // Without an executor the functional counters stay zero.
  cfg.executor = nullptr;
  const auto plain = ec::simulate_pipeline(stream, f.spec, f.gpu_mapping,
                                           f.platform, f.densities, cfg);
  EXPECT_EQ(plain.functional_batches, 0u);
  EXPECT_EQ(plain.functional_wall_ms, 0.0);
}
