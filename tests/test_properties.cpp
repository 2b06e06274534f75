// Property-based test sweeps across modules: algebraic invariants that
// must hold for whole parameter families, checked with parameterized
// gtest suites (TEST_P) and seeded random inputs.

#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <tuple>

#include "core/dsfa.hpp"
#include "core/e2sf.hpp"
#include "events/dvs_sensor.hpp"
#include "events/event_synth.hpp"
#include "events/scene.hpp"
#include "hw/latency_model.hpp"
#include "hw/profiler.hpp"
#include "nn/engine.hpp"
#include "nn/kernels.hpp"
#include "nn/zoo.hpp"
#include "quant/quantizer.hpp"
#include "sched/scheduler.hpp"

namespace ec = evedge::core;
namespace ee = evedge::events;
namespace eh = evedge::hw;
namespace en = evedge::nn;
namespace eq = evedge::quant;
namespace es = evedge::sparse;
namespace ss = evedge::sched;

// ------------------------------------------------------ events properties

class DvsThresholdSweep : public ::testing::TestWithParam<double> {};

TEST_P(DvsThresholdSweep, LowerThresholdNeverProducesFewerEvents) {
  const double theta = GetParam();
  const ee::MovingBarScene scene(ee::MovingBarScene::Params{
      ee::SensorGeometry{32, 24}, 150.0, 3, 0.1, 0.9});
  const auto coarse = ee::simulate_dvs(scene, 0, 100'000, 2000.0,
                                       ee::DvsConfig{theta * 2.0, 0.0});
  const auto fine = ee::simulate_dvs(scene, 0, 100'000, 2000.0,
                                     ee::DvsConfig{theta, 0.0});
  EXPECT_GE(fine.size(), coarse.size());
}

INSTANTIATE_TEST_SUITE_P(Thresholds, DvsThresholdSweep,
                         ::testing::Values(0.1, 0.2, 0.35, 0.5));

class SlicePartitionSweep : public ::testing::TestWithParam<int> {};

TEST_P(SlicePartitionSweep, SlicesPartitionTheStream) {
  const int pieces = GetParam();
  ee::SynthConfig cfg;
  cfg.geometry = ee::SensorGeometry{32, 24};
  cfg.seed = 31;
  const auto stream =
      ee::PoissonEventSynthesizer(ee::DensityProfile::outdoor_day1(), cfg)
          .generate(0, 400'000);
  const ee::TimeUs span = 400'000;
  std::size_t total = 0;
  for (int i = 0; i < pieces; ++i) {
    const ee::TimeUs t0 = span * i / pieces;
    const ee::TimeUs t1 = span * (i + 1) / pieces;
    total += stream.count_in(t0, t1);
  }
  EXPECT_EQ(total, stream.size());
}

INSTANTIATE_TEST_SUITE_P(Pieces, SlicePartitionSweep,
                         ::testing::Values(1, 2, 3, 7, 16));

TEST(SynthScaling, EventCountScalesWithPixelCount) {
  // Rates are per pixel: a 4x-larger array must produce ~4x the events.
  const auto make = [](int w, int h) {
    ee::SynthConfig cfg;
    cfg.geometry = ee::SensorGeometry{w, h};
    cfg.seed = 7;
    return ee::PoissonEventSynthesizer(
               ee::DensityProfile::dense_town10(), cfg)
        .generate(0, 1'000'000)
        .size();
  };
  const double small = static_cast<double>(make(32, 24));
  const double large = static_cast<double>(make(64, 48));
  EXPECT_NEAR(large / small, 4.0, 0.5);
}

// ------------------------------------------------------ sparse properties

class MergeAssociativity : public ::testing::TestWithParam<int> {};

TEST_P(MergeAssociativity, AddMergeIsAssociative) {
  std::mt19937_64 rng(static_cast<std::uint64_t>(GetParam()));
  std::uniform_int_distribution<int> coord(0, 11);
  const auto frame = [&rng, &coord](std::uint64_t) {
    es::SparseFrame f(12, 12);
    for (int i = 0; i < 15; ++i) {
      f.positive().accumulate(coord(rng), coord(rng), 1.0f);
    }
    f.t_end = 10;
    return f;
  };
  const auto a = frame(1);
  const auto b = frame(2);
  const auto c = frame(3);
  const auto left = es::merge_frames(
      {es::merge_frames({a, b}, es::MergeMode::kAdd), c},
      es::MergeMode::kAdd);
  const auto right = es::merge_frames({a, b, c}, es::MergeMode::kAdd);
  EXPECT_FLOAT_EQ(es::max_abs_diff(left.to_dense(), right.to_dense()),
                  0.0f);
  EXPECT_EQ(left.merged_count, right.merged_count);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MergeAssociativity,
                         ::testing::Values(1, 2, 3, 4, 5));

TEST(SparseProperties, DensityChangeTriangleBound) {
  // density_change(a, c) <= d(a,b)*s + d(b,c) style sanity: at minimum,
  // it is symmetric in magnitude ordering and zero on identity.
  es::SparseFrame a(10, 10);
  a.positive().accumulate(1, 1, 1.0f);
  es::SparseFrame b = a;
  b.positive().accumulate(2, 2, 1.0f);
  EXPECT_NEAR(es::density_change(a, a), 0.0, 1e-12);
  EXPECT_GT(es::density_change(b, a), 0.0);
}

// ---------------------------------------------------------- nn properties

class ConvShapeSweep
    : public ::testing::TestWithParam<std::tuple<int, int, int, int>> {};

TEST_P(ConvShapeSweep, OutputShapeMatchesFormulaAndKernelRuns) {
  const auto [extent, kernel, stride, padding] = GetParam();
  if (extent + 2 * padding < kernel) GTEST_SKIP();
  const es::Conv2dSpec spec{2, 3, kernel, stride, padding};
  es::DenseTensor in(es::TensorShape{1, 2, extent, extent});
  in.fill_random(5);
  es::DenseTensor w(es::TensorShape{3, 2, kernel, kernel});
  w.fill_random(6);
  const auto out = en::conv2d(in, w, {}, spec);
  EXPECT_EQ(out.shape().h,
            (extent + 2 * padding - kernel) / stride + 1);
  EXPECT_EQ(out.shape().w, out.shape().h);
}

INSTANTIATE_TEST_SUITE_P(
    Geometry, ConvShapeSweep,
    ::testing::Combine(::testing::Values(8, 13), ::testing::Values(1, 3, 5),
                       ::testing::Values(1, 2), ::testing::Values(0, 1, 2)));

TEST(LifProperties, FiringRateMonotoneInInputMagnitude) {
  double previous_rate = -1.0;
  for (const float scale : {0.2f, 0.5f, 1.0f, 2.0f}) {
    en::LifState lif(es::TensorShape{1, 1, 8, 8}, en::LifParams{0.9f, 1.0f});
    es::DenseTensor in(es::TensorShape{1, 1, 8, 8});
    in.fill_random(9, scale);
    for (float& v : in.data()) v = std::abs(v);
    for (int t = 0; t < 6; ++t) (void)lif.step(in);
    EXPECT_GE(lif.mean_firing_rate(), previous_rate);
    previous_rate = lif.mean_firing_rate();
  }
}

TEST(ZooProperties, ScaleChangesShapesNotStructure) {
  for (const auto id : en::table1_networks()) {
    const auto small = en::build_network(id, en::ZooConfig::test_scale());
    const auto full = en::build_network(id, en::ZooConfig::full_scale());
    ASSERT_EQ(small.graph.size(), full.graph.size()) << small.name;
    for (std::size_t i = 0; i < small.graph.size(); ++i) {
      const auto& a = small.graph.nodes()[i];
      const auto& b = full.graph.nodes()[i];
      EXPECT_EQ(a.spec.kind, b.spec.kind);
      EXPECT_EQ(a.parents, b.parents);
    }
    EXPECT_LT(small.graph.total_macs(), full.graph.total_macs());
  }
}

// ------------------------------------------------------- quant properties

class FakeQuantIdempotence : public ::testing::TestWithParam<eq::Precision> {
};

TEST_P(FakeQuantIdempotence, QuantizingTwiceEqualsOnce) {
  std::vector<float> values;
  std::mt19937_64 rng(13);
  std::uniform_real_distribution<float> dist(-3.0f, 3.0f);
  for (int i = 0; i < 200; ++i) values.push_back(dist(rng));
  auto once = values;
  eq::fake_quantize(once, GetParam());
  auto twice = once;
  eq::fake_quantize(twice, GetParam());
  EXPECT_EQ(once, twice);
}

INSTANTIATE_TEST_SUITE_P(Precisions, FakeQuantIdempotence,
                         ::testing::Values(eq::Precision::kFp32,
                                           eq::Precision::kFp16,
                                           eq::Precision::kInt8));

TEST(QuantProperties, QuantizationPreservesSign) {
  std::vector<float> values{-2.0f, -0.3f, 0.0f, 0.7f, 1.9f};
  for (const auto p : eq::kAllPrecisions) {
    auto q = values;
    eq::fake_quantize(q, p);
    for (std::size_t i = 0; i < values.size(); ++i) {
      EXPECT_GE(q[i] * values[i], 0.0f)
          << eq::to_string(p) << " flipped a sign";
    }
  }
}

// ---------------------------------------------------------- hw properties

class SparseLatencySweep : public ::testing::TestWithParam<double> {};

TEST_P(SparseLatencySweep, SparseLatencyMonotoneInDensity) {
  const auto platform = eh::xavier_agx();
  const auto& gpu = platform.pe(platform.first_pe(eh::PeKind::kGpu));
  eh::LayerWorkload w;
  w.macs = 200'000'000;
  w.input_elements = 200'000;
  w.output_elements = 200'000;
  w.input_density = GetParam();
  const double here =
      eh::layer_latency_us(gpu, eq::Precision::kFp32, w, eh::Route::kSparse);
  w.input_density = std::min(1.0, GetParam() * 2.0);
  const double denser =
      eh::layer_latency_us(gpu, eq::Precision::kFp32, w, eh::Route::kSparse);
  EXPECT_GE(denser, here);
}

INSTANTIATE_TEST_SUITE_P(Densities, SparseLatencySweep,
                         ::testing::Values(0.01, 0.05, 0.2, 0.5));

TEST(HwProperties, SparseAwareProfileNeverSlower) {
  // best_route picks min(dense, sparse): a sparse-aware profile entry can
  // only be <= the dense-only entry.
  const auto platform = eh::xavier_agx();
  const auto spec = en::build_network(en::NetworkId::kSpikeFlowNet,
                                      en::ZooConfig::full_scale());
  std::vector<double> densities(spec.graph.size(), 0.1);
  const auto dense_profile = eh::profile_task(spec, platform);
  const auto sparse_profile = eh::profile_task(spec, platform, &densities);
  for (std::size_t n = 0; n < spec.graph.size(); ++n) {
    for (const auto& pe : platform.pes) {
      for (const auto p : eq::kAllPrecisions) {
        const double d = dense_profile.nodes[n].time(pe.id, p);
        const double s = sparse_profile.nodes[n].time(pe.id, p);
        if (std::isinf(d)) {
          EXPECT_TRUE(std::isinf(s));
        } else {
          EXPECT_LE(s, d + 1e-9);
        }
      }
    }
  }
}

TEST(HwProperties, TransferCostSymmetricInEndpoints) {
  const auto platform = eh::xavier_agx();
  EXPECT_DOUBLE_EQ(eh::transfer_time_us(platform, 0, 1, 123456.0),
                   eh::transfer_time_us(platform, 1, 0, 123456.0));
}

// --------------------------------------------------------- sched properties

TEST(SchedProperties, AddingATaskNeverReducesMakespan) {
  const auto platform = eh::xavier_agx();
  std::vector<en::NetworkSpec> one{en::build_network(
      en::NetworkId::kDotie, en::ZooConfig::test_scale())};
  std::vector<en::NetworkSpec> two = one;
  two.push_back(
      en::build_network(en::NetworkId::kEvFlowNet, en::ZooConfig::test_scale()));
  const auto p1 = eh::profile_tasks(one, platform);
  const auto p2 = eh::profile_tasks(two, platform);
  const int gpu = platform.first_pe(eh::PeKind::kGpu);
  const auto c1 = ss::uniform_candidate(one, gpu, eq::Precision::kFp32);
  const auto c2 = ss::uniform_candidate(two, gpu, eq::Precision::kFp32);
  const auto r1 = ss::schedule(one, p1, c1, platform);
  const auto r2 = ss::schedule(two, p2, c2, platform);
  EXPECT_GE(r2.makespan_us, r1.makespan_us - 1e-9);
}

TEST(SchedProperties, CommOpsMatchCrossPeEdges) {
  const auto platform = eh::xavier_agx();
  std::vector<en::NetworkSpec> specs{en::build_network(
      en::NetworkId::kHidalgoDepth, en::ZooConfig::test_scale())};
  const auto profiles = eh::profile_tasks(specs, platform);
  auto candidate = ss::uniform_candidate(
      specs, platform.first_pe(eh::PeKind::kGpu), eq::Precision::kFp32);
  // Move every third mappable node to the CPU and count crossing edges.
  int moved = 0;
  for (auto& node : candidate.tasks[0].nodes) {
    if (node.pe >= 0 && (moved++ % 3 == 0)) {
      node.pe = platform.first_pe(eh::PeKind::kCpu);
    }
  }
  std::size_t crossing = 0;
  for (const auto& node : specs[0].graph.nodes()) {
    const auto& a = candidate.tasks[0].nodes[static_cast<std::size_t>(
        node.id)];
    if (a.pe < 0) continue;
    for (const int parent : node.parents) {
      const auto& pa = candidate.tasks[0].nodes[static_cast<std::size_t>(
          parent)];
      if (pa.pe >= 0 && pa.pe != a.pe) ++crossing;
    }
  }
  const auto result = ss::schedule(specs, profiles, candidate, platform);
  std::size_t comm = 0;
  for (const auto& op : result.ops) {
    if (op.is_comm) ++comm;
  }
  EXPECT_EQ(comm, crossing);
}

// ---------------------------------------------------------- core properties

class E2sfBinSweep : public ::testing::TestWithParam<int> {};

TEST_P(E2sfBinSweep, EventConservationForAnyBinCount) {
  const int n_bins = GetParam();
  ee::SynthConfig cfg;
  cfg.geometry = ee::SensorGeometry{32, 24};
  cfg.seed = 17;
  const auto stream =
      ee::PoissonEventSynthesizer(ee::DensityProfile::indoor_flying1(), cfg)
          .generate(0, 200'000);
  const ec::Event2SparseFrame e2sf(stream.geometry(),
                                   ec::E2sfConfig{n_bins});
  const auto frames = e2sf.convert(stream.slice(0, 200'000), 0, 200'000);
  ASSERT_EQ(frames.size(), static_cast<std::size_t>(n_bins));
  std::int64_t total = 0;
  for (const auto& f : frames) total += f.source_events;
  EXPECT_EQ(static_cast<std::size_t>(total), stream.size());
}

INSTANTIATE_TEST_SUITE_P(Bins, E2sfBinSweep,
                         ::testing::Values(1, 2, 5, 10, 32));

class DsfaModeSweep : public ::testing::TestWithParam<es::MergeMode> {};

TEST_P(DsfaModeSweep, NoSourceFrameVanishesBeforeQueueOverflow) {
  ec::DsfaConfig cfg;
  cfg.merge_mode = GetParam();
  cfg.event_buffer_size = 4;
  cfg.merge_bucket_capacity = 2;
  cfg.inference_queue_capacity = 64;
  cfg.max_time_delay_us = 1e9;
  cfg.max_density_change = 1e9;
  ec::DynamicSparseFrameAggregator dsfa(cfg);
  std::mt19937_64 rng(3);
  std::uniform_int_distribution<int> coord(0, 9);
  for (int i = 0; i < 17; ++i) {
    es::SparseFrame f(10, 10);
    for (int k = 0; k < 6; ++k) {
      f.positive().accumulate(coord(rng), coord(rng), 1.0f);
    }
    f.t_start = i * 100;
    f.t_end = i * 100 + 100;
    f.merged_count = 1;
    dsfa.push(std::move(f));
  }
  dsfa.dispatch_available();
  std::int64_t sources = 0;
  while (auto batch = dsfa.take_ready_batch()) {
    for (const auto& f : batch->frames) sources += f.merged_count;
  }
  EXPECT_EQ(sources, 17);
  EXPECT_EQ(dsfa.stats().frames_discarded, 0u);
}

INSTANTIATE_TEST_SUITE_P(Modes, DsfaModeSweep,
                         ::testing::Values(es::MergeMode::kAdd,
                                           es::MergeMode::kAverage,
                                           es::MergeMode::kBatch));
