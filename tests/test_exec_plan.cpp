// Density-adaptive execution planner + route-dispatched engine tests:
// zoo-wide bitwise parity of planner-routed run()/run_batched() against
// dense execution, CSR chain boundary accounting, density telemetry
// agreement (hook, firing rate, thread counts), plan validation
// atomicity, int8 composition, the per-node
// observer contract, the multi-sample run_batched contract and the COO
// event input (run_events) against the dense steps it replaces.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "core/batch_executor.hpp"
#include "nn/engine.hpp"
#include "nn/exec_plan.hpp"
#include "nn/kernels.hpp"
#include "nn/zoo.hpp"
#include "quant/accuracy.hpp"
#include "quant/calibrate.hpp"
#include "quant/quantizer.hpp"
#include "sparse/reference.hpp"
#include "sparse/sparse_frame.hpp"
#include "sparse/sparse_ops.hpp"

namespace en = evedge::nn;
namespace es = evedge::sparse;
namespace eq = evedge::quant;
namespace ec = evedge::core;

namespace {

struct Probe {
  std::vector<es::DenseTensor> steps;
  es::DenseTensor image;
  bool has_image = false;

  [[nodiscard]] const es::DenseTensor* image_ptr() const {
    return has_image ? &image : nullptr;
  }
};

/// Sparse event-like inputs matching the network's representation.
[[nodiscard]] Probe make_probe(const en::NetworkSpec& spec,
                               std::uint64_t seed, double fill = 0.02) {
  auto samples = eq::make_validation_set(spec, 1, seed, fill);
  Probe probe;
  probe.steps = std::move(samples[0].event_steps);
  if (samples[0].image.has_value()) {
    probe.image = std::move(*samples[0].image);
    probe.has_image = true;
  }
  return probe;
}

/// A small all-conv chain: sparse input -> three zero-bias convs (the
/// middle one strided), the canonical CSR-chain shape.
[[nodiscard]] en::NetworkSpec chain_spec() {
  en::NetworkSpec net;
  net.name = "chain3";
  net.n_bins = 1;
  net.timesteps = 1;
  en::NetworkGraph& g = net.graph;
  const int in = g.add_input("events", en::TensorShape{1, 2, 32, 44});
  en::LayerSpec c1;
  c1.name = "c1";
  c1.kind = en::LayerKind::kConv;
  c1.conv = es::Conv2dSpec{2, 8, 3, 1, 1};
  const int n1 = g.add_layer(c1, {in});
  en::LayerSpec c2 = c1;
  c2.name = "c2";
  c2.conv = es::Conv2dSpec{8, 8, 3, 2, 1};
  const int n2 = g.add_layer(c2, {n1});
  en::LayerSpec c3 = c1;
  c3.name = "c3";
  c3.conv = es::Conv2dSpec{8, 8, 3, 1, 1};
  const int n3 = g.add_layer(c3, {n2});
  en::LayerSpec out;
  out.name = "out";
  out.kind = en::LayerKind::kOutput;
  g.add_layer(out, {n3});
  g.validate();
  return net;
}

[[nodiscard]] en::ExecutionPlan all_csr_plan(const en::NetworkSpec& spec,
                                             std::vector<int> nodes) {
  en::ExecutionPlan plan;
  plan.route.assign(spec.graph.size(), en::Route::kDense);
  plan.output_density.assign(spec.graph.size(), 1.0);
  for (const int id : nodes) {
    plan.route[static_cast<std::size_t>(id)] = en::Route::kCsr;
  }
  return plan;
}

/// A three-deep spiking chain (middle conv strided): spikes flow between
/// sparse-routed layers in COO form, with LIF state carried across
/// timesteps.
[[nodiscard]] en::NetworkSpec spiking_chain_spec() {
  en::NetworkSpec net;
  net.name = "schain3";
  net.n_bins = 1;
  net.timesteps = 3;
  en::NetworkGraph& g = net.graph;
  const int in = g.add_input("events", en::TensorShape{1, 2, 32, 44});
  en::LayerSpec s1;
  s1.name = "s1";
  s1.kind = en::LayerKind::kSpikingConv;
  s1.conv = es::Conv2dSpec{2, 8, 3, 1, 1};
  const int n1 = g.add_layer(s1, {in});
  en::LayerSpec s2 = s1;
  s2.name = "s2";
  s2.conv = es::Conv2dSpec{8, 8, 3, 2, 1};
  const int n2 = g.add_layer(s2, {n1});
  en::LayerSpec s3 = s1;
  s3.name = "s3";
  s3.conv = es::Conv2dSpec{8, 8, 3, 1, 1};
  const int n3 = g.add_layer(s3, {n2});
  en::LayerSpec out;
  out.name = "out";
  out.kind = en::LayerKind::kOutput;
  g.add_layer(out, {n3});
  g.validate();
  return net;
}

}  // namespace

// ------------------------------------------------- zoo-wide bitwise parity

class PlannerParity : public ::testing::TestWithParam<en::NetworkId> {};

// Planner-routed run() must be bitwise identical to all-dense execution
// for every zoo network (kCsr preserves dense numerics exactly on the
// engine's zero-bias layers).
TEST_P(PlannerParity, RunMatchesDenseBitwise) {
  const auto spec = en::build_network(GetParam(), en::ZooConfig::test_scale());
  en::FunctionalNetwork net(spec, 7);
  const auto probe = make_probe(spec, 11);

  const auto dense_out = net.run(probe.steps, probe.image_ptr());
  const auto plan =
      en::ExecutionPlanner::calibrate(net, probe.steps, probe.image_ptr());
  net.set_execution_plan(&plan);
  const auto routed_out = net.run(probe.steps, probe.image_ptr());

  ASSERT_EQ(routed_out.shape(), dense_out.shape());
  EXPECT_EQ(es::max_abs_diff(routed_out, dense_out), 0.0f) << spec.name;
  net.set_execution_plan(nullptr);
}

// Batched planner-routed execution matches per-sample dense execution
// bitwise (the batched sparse kernels are bitwise batch-1 consistent).
TEST_P(PlannerParity, BatchedRunMatchesDenseBitwise) {
  const auto spec = en::build_network(GetParam(), en::ZooConfig::test_scale());
  en::FunctionalNetwork net(spec, 7);
  constexpr int kBatch = 3;

  // One shared grayscale image across the batch (run_batched tiles it).
  std::vector<Probe> probes;
  std::vector<es::DenseTensor> expected;
  for (int n = 0; n < kBatch; ++n) {
    probes.push_back(make_probe(spec, 20 + static_cast<std::uint64_t>(n)));
    expected.push_back(net.run(probes.back().steps, probes[0].image_ptr()));
  }

  std::vector<es::DenseTensor> batched_steps;
  for (int t = 0; t < spec.timesteps; ++t) {
    const auto& s = probes[0].steps[static_cast<std::size_t>(t)].shape();
    es::DenseTensor step(es::TensorShape{kBatch, s.c, s.h, s.w});
    for (int n = 0; n < kBatch; ++n) {
      const auto& src =
          probes[static_cast<std::size_t>(n)].steps[static_cast<std::size_t>(t)];
      std::copy(src.raw(), src.raw() + src.size(),
                step.raw() + static_cast<std::size_t>(n) * step.stride_n());
    }
    batched_steps.push_back(std::move(step));
  }

  const auto plan = en::ExecutionPlanner::calibrate(net, probes[0].steps,
                                                    probes[0].image_ptr());
  net.set_execution_plan(&plan);
  const auto out = net.run_batched(batched_steps, probes[0].image_ptr());
  ASSERT_EQ(out.shape().n, kBatch);
  for (int n = 0; n < kBatch; ++n) {
    const auto& ref = expected[static_cast<std::size_t>(n)];
    for (std::size_t i = 0; i < ref.size(); ++i) {
      ASSERT_EQ(out.data()[static_cast<std::size_t>(n) * out.stride_n() + i],
                ref.data()[i])
          << spec.name << " sample " << n << " element " << i;
    }
  }
  net.set_execution_plan(nullptr);
}

INSTANTIATE_TEST_SUITE_P(
    Zoo, PlannerParity,
    ::testing::Values(en::NetworkId::kSpikeFlowNet,
                      en::NetworkId::kFusionFlowNet,
                      en::NetworkId::kAdaptiveSpikeNet, en::NetworkId::kHalsie,
                      en::NetworkId::kHidalgoDepth, en::NetworkId::kDotie,
                      en::NetworkId::kEvFlowNet),
    [](const ::testing::TestParamInfo<en::NetworkId>& param_info) {
      auto name = en::to_string(param_info.param);
      for (char& ch : name) {
        if (ch == '-') ch = '_';
      }
      return name;
    });

// The planner actually routes layers sparse on the spiking networks (the
// whole point) and leaves the dense-activation ANN image branches alone.
TEST(ExecutionPlanner, RoutesSparseLayersOnSpikingNets) {
  for (const auto id :
       {en::NetworkId::kDotie, en::NetworkId::kSpikeFlowNet,
        en::NetworkId::kAdaptiveSpikeNet}) {
    const auto spec = en::build_network(id, en::ZooConfig::test_scale());
    en::FunctionalNetwork net(spec, 7);
    const auto probe = make_probe(spec, 31, 0.01);
    const auto plan =
        en::ExecutionPlanner::calibrate(net, probe.steps, probe.image_ptr());
    EXPECT_GT(plan.sparse_node_count(), 0) << en::to_string(id);
    // And the engine reports sparse work when running it.
    net.set_execution_plan(&plan);
    (void)net.run(probe.steps, probe.image_ptr());
    EXPECT_GT(net.last_exec_stats().sparse_node_runs, 0u) << en::to_string(id);
    EXPECT_GT(net.last_exec_stats().dense_macs_avoided,
              net.last_exec_stats().sparse_macs)
        << en::to_string(id);
    net.set_execution_plan(nullptr);
  }
}

// ------------------------------------------------------- fused CSR chains

// Consecutive kCsr layers exchange the COO carrier directly: one
// sparsify at the chain head, one densify at the output boundary, no
// conversions in between — and the result still bit-matches dense.
TEST(ExecutionPlan, CsrChainCrossesBoundariesOnlyAtEnds) {
  const auto spec = chain_spec();
  en::FunctionalNetwork net(spec, 5);
  const auto probe = make_probe(spec, 41, 0.02);
  const auto dense_out = net.run(probe.steps);

  const auto plan = all_csr_plan(spec, {1, 2, 3});
  net.set_execution_plan(&plan);
  const auto routed_out = net.run(probe.steps);
  EXPECT_EQ(es::max_abs_diff(routed_out, dense_out), 0.0f);

  const en::ExecStats& stats = net.last_exec_stats();
  EXPECT_EQ(stats.sparse_node_runs, 3u);
  EXPECT_EQ(stats.sparsify_boundaries, 1u);  // event input only
  EXPECT_EQ(stats.densify_boundaries, 1u);   // output node only
  net.set_execution_plan(nullptr);
}

// --------------------------------------------------- density telemetry

// Planner density estimates must agree with densities computed directly
// from the activations, and with the LIF firing rate on spiking nodes —
// at any thread count.
TEST(ExecutionPlanner, DensityTelemetryMatchesDirectMeasurement) {
  const auto spec = en::build_network(en::NetworkId::kSpikeFlowNet,
                                      en::ZooConfig::test_scale());
  en::FunctionalNetwork net(spec, 7);
  const auto probe = make_probe(spec, 71, 0.02);

  // Direct measurement: mean per-node density over timesteps via a hook.
  std::vector<double> acc(spec.graph.size(), 0.0);
  std::vector<int> hits(spec.graph.size(), 0);
  net.set_activation_hook([&](int id, es::DenseTensor& t) {
    acc[static_cast<std::size_t>(id)] += t.density();
    ++hits[static_cast<std::size_t>(id)];
  });
  (void)net.run(probe.steps);
  net.set_activation_hook(nullptr);

  const auto plan = en::ExecutionPlanner::calibrate(net, probe.steps);
  ASSERT_EQ(plan.output_density.size(), spec.graph.size());
  for (const auto& node : spec.graph.nodes()) {
    const auto idx = static_cast<std::size_t>(node.id);
    if (hits[idx] > 0) {
      EXPECT_NEAR(plan.output_density[idx], acc[idx] / hits[idx], 1e-12)
          << node.spec.name;
    }
    if (node.spec.kind == en::LayerKind::kSpikingConv) {
      // calibrate()'s last probe run left the firing counters in place.
      EXPECT_NEAR(plan.output_density[idx], net.mean_firing_rate(node.id),
                  1e-9)
          << node.spec.name;
    }
  }
  // The event-input density is the probe's own fill.
  double input_acc = 0.0;
  for (const auto& step : probe.steps) input_acc += step.density();
  EXPECT_NEAR(plan.probe_input_density,
              input_acc / static_cast<double>(probe.steps.size()), 1e-12);

  // Thread-count invariance: the engine is bitwise thread-invariant, so
  // the telemetry must be too.
  const char* saved = std::getenv("EVEDGE_THREADS");
  const std::string saved_value = saved != nullptr ? saved : "";
  ASSERT_EQ(setenv("EVEDGE_THREADS", "1", 1), 0);
  const auto plan1 = en::ExecutionPlanner::calibrate(net, probe.steps);
  ASSERT_EQ(setenv("EVEDGE_THREADS", "3", 1), 0);
  const auto plan3 = en::ExecutionPlanner::calibrate(net, probe.steps);
  if (saved != nullptr) {
    setenv("EVEDGE_THREADS", saved_value.c_str(), 1);
  } else {
    unsetenv("EVEDGE_THREADS");
  }
  EXPECT_EQ(plan1.output_density, plan3.output_density);
  EXPECT_EQ(plan1.route, plan3.route);
}

// ---------------------------------------------------- plan validation

TEST(ExecutionPlan, SetPlanValidatesAtomically) {
  const auto spec = en::build_network(en::NetworkId::kSpikeFlowNet,
                                      en::ZooConfig::test_scale());
  en::FunctionalNetwork net(spec, 7);
  const auto probe = make_probe(spec, 81);
  const auto before = net.run(probe.steps);

  // Route on a non-conv node (the output) is rejected.
  en::ExecutionPlan bad = all_csr_plan(spec, {});
  bad.route.back() = en::Route::kCsr;
  EXPECT_THROW(net.set_execution_plan(&bad), std::invalid_argument);

  // Sparse route on a node with non-zero bias is rejected.
  en::ExecutionPlan biased = all_csr_plan(spec, {1});
  net.bias(1).assign(net.bias(1).size(), 0.25f);
  EXPECT_THROW(net.set_execution_plan(&biased), std::invalid_argument);
  net.bias(1).assign(net.bias(1).size(), 0.0f);

  // Size mismatch is rejected.
  en::ExecutionPlan short_plan;
  short_plan.route.assign(2, en::Route::kDense);
  EXPECT_THROW(net.set_execution_plan(&short_plan), std::invalid_argument);

  // All rejections left dense execution fully intact.
  const auto after = net.run(probe.steps);
  EXPECT_EQ(es::max_abs_diff(before, after), 0.0f);
  EXPECT_EQ(net.execution_plan(), nullptr);
}

// An installed activation hook forces dense execution (hooks observe and
// mutate dense activations), without uninstalling the plan.
TEST(ExecutionPlan, ActivationHookForcesDenseExecution) {
  const auto spec = chain_spec();
  en::FunctionalNetwork net(spec, 5);
  const auto probe = make_probe(spec, 91, 0.02);
  const auto plan = all_csr_plan(spec, {1, 2, 3});
  net.set_execution_plan(&plan);

  int hook_calls = 0;
  net.set_activation_hook(
      [&hook_calls](int, es::DenseTensor&) { ++hook_calls; });
  (void)net.run(probe.steps);
  EXPECT_GT(hook_calls, 0);
  EXPECT_EQ(net.last_exec_stats().sparse_node_runs, 0u);
  net.set_activation_hook(nullptr);

  (void)net.run(probe.steps);
  EXPECT_EQ(net.last_exec_stats().sparse_node_runs, 3u);
  net.set_execution_plan(nullptr);
}

// ----------------------------------------------------- int8 composition

// Sparse routes compose with the quant plan: planner-routed int8
// execution bit-matches dense int8 execution and stays within one
// quantization step of the fake-quant reference.
TEST(ExecutionPlan, ComposesWithQuantPlan) {
  const auto spec = en::build_network(en::NetworkId::kSpikeFlowNet,
                                      en::ZooConfig::test_scale());
  const auto calib = eq::make_validation_set(spec, 2, 9, 0.02);
  const auto eval = eq::make_validation_set(spec, 1, 99, 0.02);
  en::FunctionalNetwork net(spec, 7);
  const auto table = eq::calibrate_activations(net, calib);
  const auto int8 = eq::uniform_assignment(spec, eq::Precision::kInt8);
  const auto real = eq::build_quant_plan(net, int8, table);
  const auto simulated =
      eq::build_quant_plan(net, int8, table, /*simulate=*/true);

  net.set_quant_plan(&real);
  const auto dense_int8 = net.run(eval[0].event_steps);
  net.set_quant_plan(&simulated);
  const auto reference = net.run(eval[0].event_steps);

  // The planner calibrates on an FP32 warmup, then routes compose with
  // the real int8 plan.
  net.set_quant_plan(nullptr);
  const auto plan = en::ExecutionPlanner::calibrate(net, eval[0].event_steps);
  EXPECT_GT(plan.sparse_node_count(), 0);
  net.set_execution_plan(&plan);
  EXPECT_NE(net.execution_plan(), nullptr);
  net.set_quant_plan(&real);
  const auto routed_int8 = net.run(eval[0].event_steps);

  ASSERT_EQ(routed_int8.shape(), dense_int8.shape());
  EXPECT_EQ(es::max_abs_diff(routed_int8, dense_int8), 0.0f);
  const double step = eq::output_quant_step(reference);
  EXPECT_LE(es::max_abs_diff(routed_int8, reference), step + 1e-6);
  // Sparse int8 kernels genuinely executed.
  (void)net.run(eval[0].event_steps);
  EXPECT_GT(net.last_exec_stats().sparse_node_runs, 0u);
  net.set_execution_plan(nullptr);
  EXPECT_EQ(net.execution_plan(), nullptr);
  net.set_quant_plan(nullptr);
}

// ----------------------------------------------- batch executor planner

TEST(BatchExecutor, PlannerPathMatchesDenseExecution) {
  const auto spec = en::build_network(en::NetworkId::kDotie,
                                      en::ZooConfig::test_scale());
  const auto& shape = spec.graph.node(0).spec.out_shape;

  // Two merged frames with a few events each.
  std::vector<es::SparseFrame> frames;
  for (int n = 0; n < 2; ++n) {
    es::SparseFrame frame(shape.h, shape.w);
    for (int i = 0; i < 40; ++i) {
      es::CooChannel& ch = i % 2 == 0 ? frame.positive() : frame.negative();
      ch.accumulate((i * 7 + n) % shape.h, (i * 13 + 3 * n) % shape.w, 1.0f);
    }
    frames.push_back(std::move(frame));
  }

  en::FunctionalNetwork dense_net(spec, 7);
  ec::BatchExecutor dense_exec(dense_net);
  const auto dense_out = dense_exec.execute(frames);

  en::FunctionalNetwork planned_net(spec, 7);
  es::DenseTensor planned_out;
  {
    ec::BatchExecutor planned_exec(planned_net);
    planned_exec.enable_execution_planner();
    planned_out = planned_exec.execute(frames);
    EXPECT_NE(planned_exec.execution_plan(), nullptr);
    EXPECT_GT(planned_exec.execution_plan()->sparse_node_count(), 0);
    // Plan uninstalls with the executor.
  }
  EXPECT_EQ(planned_net.execution_plan(), nullptr);
  EXPECT_EQ(es::max_abs_diff(planned_out, dense_out), 0.0f);
}

// ------------------------------------- timestep-invariant caching

// The constant-image subgraph (e.g. HALSIE's image encoder) computes the
// same values every timestep: the engine runs it once per inference and
// reuses the cached activations, bitwise identically — and an installed
// hook (which must observe every node at every timestep) disables the
// cache.
TEST(Engine, TimeInvariantImageBranchIsCachedAcrossTimesteps) {
  const auto spec =
      en::build_network(en::NetworkId::kHalsie, en::ZooConfig::test_scale());
  ASSERT_GT(spec.timesteps, 1);
  en::FunctionalNetwork net(spec, 7);
  const auto probe = make_probe(spec, 101);

  const auto cached = net.run(probe.steps, probe.image_ptr());
  const std::size_t cached_execs = net.last_exec_stats().node_executions;

  // A no-op hook forces the uncached schedule: every node, every step.
  net.set_activation_hook([](int, es::DenseTensor&) {});
  const auto uncached = net.run(probe.steps, probe.image_ptr());
  const std::size_t full_execs = net.last_exec_stats().node_executions;
  net.set_activation_hook(nullptr);

  EXPECT_EQ(full_execs,
            spec.graph.size() * static_cast<std::size_t>(spec.timesteps));
  EXPECT_LT(cached_execs, full_execs);
  EXPECT_EQ(es::max_abs_diff(cached, uncached), 0.0f);
}

// Event-driven single-input networks have nothing to cache.
TEST(Engine, NoInvariantCachingWithoutConstantInputs) {
  const auto spec = en::build_network(en::NetworkId::kSpikeFlowNet,
                                      en::ZooConfig::test_scale());
  en::FunctionalNetwork net(spec, 7);
  const auto probe = make_probe(spec, 103);
  (void)net.run(probe.steps);
  EXPECT_EQ(net.last_exec_stats().node_executions,
            spec.graph.size() * static_cast<std::size_t>(spec.timesteps));
}

// ------------------------------------------- chain boundary primitives

TEST(SparseBoundaries, SliceRoundTripAndReluAndDensity) {
  es::DenseTensor batch(es::TensorShape{2, 3, 6, 7});
  batch.fill_random(23);
  std::size_t i = 0;
  for (float& v : batch.data()) {
    if (i++ % 5 != 0) v = 0.0f;
  }
  for (int n = 0; n < 2; ++n) {
    es::DenseTensor lane;
    es::copy_sample(batch, n, lane);
    auto sample = es::dense_to_channels(lane);
    ASSERT_EQ(sample.size(), 3u);
    // Density telemetry agrees with the dense slice.
    double slice_density = 0.0;
    for (int c = 0; c < 3; ++c) {
      for (int y = 0; y < 6; ++y) {
        for (int x = 0; x < 7; ++x) {
          if (batch.at(n, c, y, x) != 0.0f) slice_density += 1.0;
        }
      }
    }
    slice_density /= 3.0 * 6.0 * 7.0;
    EXPECT_NEAR(es::sample_density(sample), slice_density, 1e-12);
    // Round trip into a fresh tensor slice reproduces the original.
    es::DenseTensor back(es::TensorShape{2, 3, 6, 7}, 42.0f);
    es::channels_into_slice(sample, back, n);
    for (int c = 0; c < 3; ++c) {
      for (int y = 0; y < 6; ++y) {
        for (int x = 0; x < 7; ++x) {
          EXPECT_EQ(back.at(n, c, y, x), batch.at(n, c, y, x));
        }
      }
    }
    // Sparse ReLU == dense ReLU.
    es::relu_sample_inplace(sample);
    for (const auto& ch : sample) {
      for (const auto& e : ch.entries()) {
        EXPECT_GT(e.value, 0.0f);
      }
      EXPECT_NO_THROW(ch.validate());
    }
  }
  es::DenseTensor lane;
  es::copy_sample(batch, 0, lane);
  const auto sample = es::dense_to_channels(lane);
  es::DenseTensor wrong(es::TensorShape{2, 3, 5, 7});
  EXPECT_THROW(es::channels_into_slice(sample, wrong, 0),
               std::invalid_argument);
}

// Pre-packed weights produce bitwise-identical kernel output and reject
// mismatched packings.
TEST(SparseBoundaries, PrePackedWeightsMatchAndValidate) {
  const es::Conv2dSpec spec{3, 10, 3, 1, 1};
  es::DenseTensor in(es::TensorShape{1, 3, 20, 24});
  in.fill_random(29);
  std::size_t i = 0;
  for (float& v : in.data()) {
    if (i++ % 20 != 0) v = 0.0f;
  }
  es::DenseTensor w(es::TensorShape{10, 3, 3, 3});
  w.fill_random(31, 0.4f);
  const auto channels = es::dense_to_channels(in);

  std::vector<float> packed;
  es::pack_conv_weights(w, packed);
  es::Workspace ws;
  const auto plain = es::sparse_conv2d_csr(channels, w, {}, spec, nullptr,
                                           &ws);
  const auto prepacked =
      es::sparse_conv2d_csr(channels, w, {}, spec, nullptr, &ws, packed);
  ASSERT_EQ(plain.size(), prepacked.size());
  for (std::size_t c = 0; c < plain.size(); ++c) {
    EXPECT_EQ(plain[c].entries(), prepacked[c].entries());
  }
  std::vector<float> wrong(packed.begin(), packed.end() - 1);
  EXPECT_THROW((void)es::sparse_conv2d_csr(channels, w, {}, spec, nullptr,
                                           &ws, wrong),
               std::invalid_argument);
}

// ------------------------------------------- sparse spike emission

// Spiking layers whose consumers run sparse emit spikes directly as COO:
// the only sparsify boundary left in an all-sparse spiking chain is the
// event input itself (one per timestep), with output unchanged.
TEST(Engine, SpikingChainEmitsSparseSpikes) {
  const auto spec = spiking_chain_spec();
  en::FunctionalNetwork net(spec, 5);
  const auto probe = make_probe(spec, 241, 0.05);
  const auto dense_out = net.run(probe.steps);

  const auto plan = all_csr_plan(spec, {1, 2, 3});
  net.set_execution_plan(&plan);
  const auto routed_out = net.run(probe.steps);
  const en::ExecStats& stats = net.last_exec_stats();
  net.set_execution_plan(nullptr);

  EXPECT_EQ(es::max_abs_diff(routed_out, dense_out), 0.0f);
  const auto steps = static_cast<std::size_t>(spec.timesteps);
  // s1/s2 emit COO to their sparse consumers; the tail s3 sees a dense
  // consumer (the output node) and keeps dense spikes — so the chain
  // crosses the representation boundary only at the event input.
  EXPECT_EQ(stats.sparsify_boundaries, steps);
  EXPECT_EQ(stats.densify_boundaries, 0u);
}

// ------------------------------------------- per-node observer contract

namespace {

/// Counts on_node calls and the ones reporting the single-piece
/// (tile, tile_count) == (0, 1) execution.
class CallCounter final : public en::ExecObserver {
 public:
  void on_node(int, en::Route, int, std::uint64_t, std::uint64_t, int tile,
               int tile_count) noexcept override {
    ++calls;
    if (tile == 0 && tile_count == 1) ++single_piece;
  }
  std::size_t calls = 0;
  std::size_t single_piece = 0;
};

}  // namespace

// The observer fires exactly once per node execution, always as (0, 1),
// on a calibrated DAVIS-scale Adaptive-SpikeNet (256x352, base 16,
// thresholds in the 0.5-5% firing band) whose plan routes the long
// spiking encoder chain sparse — and the routed output stays bitwise
// equal to dense execution.
TEST(ExecObserver, OneCallPerNodeExecutionAtDavisScale) {
  const auto spec = en::build_network(en::NetworkId::kAdaptiveSpikeNet,
                                      en::ZooConfig{256, 352, 16, 5, 2.0f});
  en::FunctionalNetwork net(spec, 7);
  const auto samples = eq::make_validation_set(spec, 1, 42, 0.01);
  const auto& steps = samples[0].event_steps;
  const auto dense_out = net.run(steps);

  const auto plan = en::ExecutionPlanner::calibrate(net, steps);
  ASSERT_GT(plan.sparse_node_count(), 1);
  CallCounter counter;
  net.set_execution_plan(&plan);
  net.set_exec_observer(&counter);
  const auto routed_out = net.run(steps);
  const en::ExecStats stats = net.last_exec_stats();
  net.set_exec_observer(nullptr);
  net.set_execution_plan(nullptr);

  EXPECT_GT(stats.sparse_node_runs, 0u);
  EXPECT_EQ(counter.calls, stats.node_executions);
  EXPECT_EQ(counter.single_piece, counter.calls);
  ASSERT_EQ(routed_out.shape(), dense_out.shape());
  EXPECT_EQ(es::max_abs_diff(routed_out, dense_out), 0.0f);
}

// ------------------------------------------- multi-sample contract

namespace {

void add_stats(en::ExecStats& sum, const en::ExecStats& s) {
  sum.node_executions += s.node_executions;
  sum.sparse_node_runs += s.sparse_node_runs;
  sum.sparsify_boundaries += s.sparsify_boundaries;
  sum.densify_boundaries += s.densify_boundaries;
  sum.sparse_macs += s.sparse_macs;
  sum.dense_macs_avoided += s.dense_macs_avoided;
}

/// Stacks the [1, ...] tensors of `lanes` into one [N, ...] tensor.
[[nodiscard]] es::DenseTensor stack_lanes(
    const std::vector<const es::DenseTensor*>& lanes) {
  const es::TensorShape& s = lanes.front()->shape();
  es::DenseTensor out(es::TensorShape{static_cast<int>(lanes.size()), s.c,
                                      s.h, s.w});
  for (std::size_t n = 0; n < lanes.size(); ++n) {
    std::copy(lanes[n]->raw(), lanes[n]->raw() + lanes[n]->size(),
              out.raw() + n * out.stride_n());
  }
  return out;
}

}  // namespace

// run_batched runs its samples one after another through run()'s batch-1
// path. Across consecutive calls of different N, over frames of different
// densities (one lane empty), lane n is bitwise run() on sample n, the
// call's stats are the field-wise sum of its per-frame stats, and the
// observer fires once per counted node execution. Fusion-FlowNet takes
// one image per lane ([N, ...]).
TEST(Engine, MultiSampleCallsSumPerFrameRuns) {
  const std::pair<en::NetworkId, en::ZooConfig> cases[] = {
      {en::NetworkId::kAdaptiveSpikeNet, en::ZooConfig{64, 88, 16, 5, 2.0f}},
      {en::NetworkId::kFusionFlowNet, en::ZooConfig::test_scale()},
  };
  for (const auto& [id, scale] : cases) {
    const auto spec = en::build_network(id, scale);
    en::FunctionalNetwork net(spec, 7);
    const Probe calib = make_probe(spec, 300, 0.02);
    const auto plan =
        en::ExecutionPlanner::calibrate(net, calib.steps, calib.image_ptr());
    ASSERT_GT(plan.sparse_node_count(), 0) << spec.name;
    net.set_execution_plan(&plan);
    CallCounter counter;
    net.set_exec_observer(&counter);

    std::uint64_t seed = 400;
    for (const int batch : {8, 3, 1, 5}) {
      std::vector<Probe> probes;
      for (int n = 0; n < batch; ++n) {
        probes.push_back(make_probe(spec, seed++, 0.003 + 0.01 * n));
      }
      if (batch > 1) {
        for (es::DenseTensor& step : probes[1].steps) {
          std::fill(step.data().begin(), step.data().end(), 0.0f);
        }
      }
      std::vector<es::DenseTensor> steps;
      for (int t = 0; t < spec.timesteps; ++t) {
        std::vector<const es::DenseTensor*> lanes;
        for (const Probe& p : probes) {
          lanes.push_back(&p.steps[static_cast<std::size_t>(t)]);
        }
        steps.push_back(stack_lanes(lanes));
      }
      es::DenseTensor image;
      if (calib.has_image) {
        std::vector<const es::DenseTensor*> lanes;
        for (const Probe& p : probes) lanes.push_back(&p.image);
        image = stack_lanes(lanes);
      }

      counter.calls = 0;
      const auto out =
          net.run_batched(steps, calib.has_image ? &image : nullptr);
      const en::ExecStats stats = net.last_exec_stats();
      EXPECT_EQ(counter.calls, stats.node_executions) << spec.name;

      en::ExecStats sum;
      ASSERT_EQ(out.shape().n, batch);
      for (int n = 0; n < batch; ++n) {
        const Probe& p = probes[static_cast<std::size_t>(n)];
        const auto ref = net.run(p.steps, p.image_ptr());
        add_stats(sum, net.last_exec_stats());
        ASSERT_EQ(ref.size(), out.stride_n());
        for (std::size_t i = 0; i < ref.size(); ++i) {
          ASSERT_EQ(
              out.data()[static_cast<std::size_t>(n) * out.stride_n() + i],
              ref.data()[i])
              << spec.name << " N=" << batch << " lane " << n
              << " element " << i;
        }
      }
      EXPECT_EQ(stats.node_executions, sum.node_executions) << spec.name;
      EXPECT_EQ(stats.sparse_node_runs, sum.sparse_node_runs) << spec.name;
      EXPECT_EQ(stats.sparsify_boundaries, sum.sparsify_boundaries)
          << spec.name;
      EXPECT_EQ(stats.densify_boundaries, sum.densify_boundaries)
          << spec.name;
      EXPECT_EQ(stats.sparse_macs, sum.sparse_macs) << spec.name;
      EXPECT_EQ(stats.dense_macs_avoided, sum.dense_macs_avoided)
          << spec.name;
    }
    net.set_exec_observer(nullptr);
    net.set_execution_plan(nullptr);
  }
}

// ---------------------------------------- COO event input (run_events)

namespace {

/// A merged frame at twice the event input's extent (so the adapter
/// downsamples by 2 and collides entries) holding `events` random
/// non-integer entries, alternating polarity.
[[nodiscard]] es::SparseFrame sensor_frame(const es::TensorShape& in,
                                           int events, std::uint64_t seed) {
  const int h = 2 * in.h;
  const int w = 2 * in.w;
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int> row(0, h - 1);
  std::uniform_int_distribution<int> col(0, w - 1);
  std::uniform_real_distribution<float> value(0.25f, 2.0f);
  es::SparseFrame frame(h, w);
  for (int i = 0; i < events; ++i) {
    es::CooChannel& ch = i % 2 == 0 ? frame.positive() : frame.negative();
    ch.accumulate(row(rng), col(rng), value(rng));
  }
  return frame;
}

/// One empty frame, one with a single event, and one filling about 2%
/// of each event-input channel.
[[nodiscard]] std::vector<es::SparseFrame> parity_frames(
    const es::TensorShape& in) {
  return {es::SparseFrame(2 * in.h, 2 * in.w), sensor_frame(in, 1, 5),
          sensor_frame(in, 2 * in.h * in.w / 50, 6)};
}

/// Counts on_node calls, in total and per node.
class NodeCounter final : public en::ExecObserver {
 public:
  explicit NodeCounter(std::size_t nodes) : per_node(nodes, 0) {}
  void on_node(int node_id, en::Route, int, std::uint64_t, std::uint64_t,
               int, int) noexcept override {
    ++calls;
    ++per_node[static_cast<std::size_t>(node_id)];
  }
  std::size_t calls = 0;
  std::vector<std::size_t> per_node;
};

[[nodiscard]] bool same_bytes(const es::DenseTensor& a,
                              const es::DenseTensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.raw(), b.raw(), a.size() * sizeof(float)) == 0;
}

/// The event inputs of one parity batch: dense steps for run_batched,
/// COO samples for run_events, and the images to run them with — a
/// shared [1, ...] one and a per-lane [N, ...] one for two-input nets,
/// a single nullptr otherwise.
struct EventBatch {
  std::vector<es::SparseFrame> frames;
  std::vector<es::DenseTensor> steps;
  std::vector<es::SparseSample> samples;
  std::vector<es::DenseTensor> images;
  bool two_input = false;

  EventBatch(const en::NetworkSpec& spec, const es::TensorShape& in)
      : frames(parity_frames(in)),
        two_input(spec.graph.input_ids().size() > 1) {
    ec::frames_to_event_steps(frames, in, spec.timesteps, steps);
    for (const es::SparseFrame& f : frames) {
      samples.push_back(ec::frame_to_event_sample(f, in));
    }
    if (!two_input) {
      images.emplace_back();
      return;
    }
    images.push_back(ec::make_reference_image(spec));
    const es::TensorShape& is = images.front().shape();
    es::DenseTensor per_lane(es::TensorShape{
        static_cast<int>(frames.size()), is.c, is.h, is.w});
    per_lane.fill_random(33, 0.5f);
    for (float& v : per_lane.data()) v = std::abs(v);
    images.push_back(std::move(per_lane));
  }
  [[nodiscard]] const es::DenseTensor* image(std::size_t i) const {
    return two_input ? &images[i] : nullptr;
  }
};

}  // namespace

class EventInputParity : public ::testing::TestWithParam<en::NetworkId> {};

// run_events over COO samples equals run_batched over the dense steps of
// the same frames, byte for byte, whatever the engine is configured
// with: no plan, a calibrated plan, a real int8 plan (dense and with
// sparse routes), a simulate-mode plan, or a mutating activation hook
// (which must see the same activations the same number of times).
TEST_P(EventInputParity, RunEventsMatchesDenseStepsBytewise) {
  const auto spec = en::build_network(GetParam(), en::ZooConfig::test_scale());
  en::FunctionalNetwork net(spec, 7);
  const es::TensorShape in =
      spec.graph.node(spec.graph.input_ids().front()).spec.out_shape;
  const EventBatch batch(spec, in);

  std::vector<es::DenseTensor> probe;
  ec::frames_to_event_steps({batch.frames.back()}, in, spec.timesteps, probe);
  const auto plan =
      en::ExecutionPlanner::calibrate(net, probe, batch.image(0));
  const auto table =
      eq::calibrate_activations(net, eq::make_validation_set(spec, 2, 9, 0.02));
  const auto int8 = eq::uniform_assignment(spec, eq::Precision::kInt8);
  eq::QuantPlanOptions every_layer;
  every_layer.quantize_input_layer = true;
  const auto real = eq::build_quant_plan(
      net, int8, table, /*simulate=*/false, eq::WeightGranularity::kPerChannel,
      every_layer);
  const auto simulated = eq::build_quant_plan(
      net, int8, table, /*simulate=*/true, eq::WeightGranularity::kPerChannel,
      every_layer);

  struct Mode {
    const char* name;
    const en::ExecutionPlan* plan;
    const eq::QuantPlan* quant;
    bool hook;
  };
  const Mode modes[] = {
      {"no plan", nullptr, nullptr, false},
      {"calibrated plan", &plan, nullptr, false},
      {"int8", nullptr, &real, false},
      {"int8 + routes", &plan, &real, false},
      {"simulate", &plan, &simulated, false},
      {"hook", &plan, nullptr, true},
  };
  for (const Mode& mode : modes) {
    net.set_execution_plan(mode.plan);
    net.set_quant_plan(mode.quant);
    std::size_t hook_calls = 0;
    if (mode.hook) {
      net.set_activation_hook([&hook_calls](int, es::DenseTensor& a) {
        ++hook_calls;
        for (float& v : a.data()) v = std::min(v, 1.5f);
      });
    }
    for (std::size_t i = 0; i < batch.images.size(); ++i) {
      hook_calls = 0;
      const auto want = net.run_batched(batch.steps, batch.image(i));
      const std::size_t want_hook_calls = hook_calls;
      hook_calls = 0;
      const auto got = net.run_events(batch.samples, batch.image(i));
      EXPECT_TRUE(same_bytes(got, want))
          << spec.name << " / " << mode.name << " / image " << i;
      EXPECT_EQ(hook_calls, want_hook_calls) << spec.name << " / "
                                             << mode.name;
    }
    net.set_activation_hook(nullptr);
  }
  net.set_execution_plan(nullptr);
  net.set_quant_plan(nullptr);
}

// The COO path's telemetry: the event input executes once per sample
// (the invariant cache skips it after t == 0) and never sparsifies; a
// spiking layer fed by it still steps LIF every timestep but runs its
// conv once per sample; the observer sees exactly node_executions calls.
TEST_P(EventInputParity, StatsCountTheInputAndKeptCurrentOncePerSample) {
  const auto spec = en::build_network(GetParam(), en::ZooConfig::test_scale());
  en::FunctionalNetwork net(spec, 7);
  const int event_input = spec.graph.input_ids().front();
  const es::TensorShape in = spec.graph.node(event_input).spec.out_shape;
  const EventBatch batch(spec, in);
  const std::size_t lanes = batch.frames.size();
  const auto steps = static_cast<std::size_t>(spec.timesteps);

  std::vector<es::DenseTensor> probe;
  ec::frames_to_event_steps({batch.frames.back()}, in, spec.timesteps, probe);
  const auto plan =
      en::ExecutionPlanner::calibrate(net, probe, batch.image(0));
  const en::ExecutionPlan* const plans[] = {nullptr, &plan};
  for (const en::ExecutionPlan* installed : plans) {
    net.set_execution_plan(installed);
    (void)net.run_batched(batch.steps, batch.image(0));
    const en::ExecStats dense = net.last_exec_stats();
    NodeCounter counter(spec.graph.size());
    net.set_exec_observer(&counter);
    (void)net.run_events(batch.samples, batch.image(0));
    net.set_exec_observer(nullptr);
    const en::ExecStats coo = net.last_exec_stats();

    EXPECT_EQ(counter.calls, coo.node_executions) << spec.name;
    EXPECT_EQ(counter.per_node[static_cast<std::size_t>(event_input)], lanes)
        << spec.name;
    bool sparse_consumer = false;
    std::size_t kept_sparse = 0;
    for (const en::LayerNode& node : spec.graph.nodes()) {
      if (node.parents.size() != 1 || node.parents.front() != event_input) {
        continue;
      }
      const bool routed =
          installed != nullptr &&
          installed->route[static_cast<std::size_t>(node.id)] !=
              en::Route::kDense;
      sparse_consumer = sparse_consumer || routed;
      if (en::domain_of(node.spec.kind) == en::Domain::kSnn) {
        EXPECT_EQ(counter.per_node[static_cast<std::size_t>(node.id)],
                  lanes * steps)
            << spec.name << " " << node.spec.name;
        if (routed) ++kept_sparse;
      }
    }
    EXPECT_EQ(coo.node_executions, dense.node_executions - lanes * (steps - 1))
        << spec.name;
    EXPECT_EQ(coo.sparsify_boundaries,
              dense.sparsify_boundaries - (sparse_consumer ? lanes * steps : 0))
        << spec.name;
    EXPECT_EQ(coo.sparse_node_runs,
              dense.sparse_node_runs - lanes * (steps - 1) * kept_sparse)
        << spec.name;
    if (installed == nullptr) {
      // All dense: the carrier densifies once per sample.
      EXPECT_EQ(coo.densify_boundaries, dense.densify_boundaries + lanes)
          << spec.name;
    }
  }
  net.set_execution_plan(nullptr);
}

INSTANTIATE_TEST_SUITE_P(
    Zoo, EventInputParity,
    ::testing::Values(en::NetworkId::kSpikeFlowNet,
                      en::NetworkId::kFusionFlowNet,
                      en::NetworkId::kAdaptiveSpikeNet, en::NetworkId::kHalsie,
                      en::NetworkId::kHidalgoDepth, en::NetworkId::kDotie,
                      en::NetworkId::kEvFlowNet),
    [](const ::testing::TestParamInfo<en::NetworkId>& param_info) {
      auto name = en::to_string(param_info.param);
      for (char& ch : name) {
        if (ch == '-') ch = '_';
      }
      return name;
    });

// Samples built by hand are checked before the run: a wrong channel
// count, a wrong extent, an invalid channel or an empty call throws.
TEST(RunEvents, RejectsMalformedSamples) {
  const auto spec =
      en::build_network(en::NetworkId::kDotie, en::ZooConfig::test_scale());
  en::FunctionalNetwork net(spec, 7);
  const es::TensorShape in =
      spec.graph.node(spec.graph.input_ids().front()).spec.out_shape;
  const es::SparseSample good =
      ec::frame_to_event_sample(sensor_frame(in, 40, 3), in);
  EXPECT_NO_THROW((void)net.run_events(std::vector<es::SparseSample>{good}));

  const auto rejects = [&net](es::SparseSample bad) {
    const std::vector<es::SparseSample> events = {std::move(bad)};
    EXPECT_THROW((void)net.run_events(events), std::invalid_argument);
  };
  es::SparseSample extra = good;
  extra.push_back(es::CooChannel(in.h, in.w));
  rejects(extra);
  rejects(es::SparseSample{good.front()});
  es::SparseSample taller = good;
  taller[1] = es::CooChannel(in.h + 1, in.w);
  rejects(taller);
  es::SparseSample unsorted = good;
  unsorted[0] = es::CooChannel::from_sorted_entries(
      in.h, in.w, {{5, 5, 1.0f}, {2, 2, 1.0f}});
  rejects(unsorted);
  es::SparseSample outside = good;
  outside[0] = es::CooChannel::from_sorted_entries(in.h, in.w,
                                                   {{in.h, 0, 1.0f}});
  rejects(outside);
  es::SparseSample stored_zero = good;
  stored_zero[1] =
      es::CooChannel::from_sorted_entries(in.h, in.w, {{0, 0, 0.0f}});
  rejects(stored_zero);
  EXPECT_THROW((void)net.run_events({}), std::invalid_argument);
}

// ------------------------------------- seeded spiking differential suite
//
// Random single spiking layers and two-layer chains: kernel 1-7, stride
// 1-2, padding 0..k-1 (shape-valid draws only), Cin 1-40, Cout from
// {1, 2, 3-31, 32, 33, 34-140} so both sides of the 32-channel
// scatter/gather split are drawn, shared and per-channel LIF, soft and
// hard reset, 1-4 timesteps, 1-2 samples, over empty, single-event,
// ~2% and ~20% dense inputs. Every spiking node is routed kCsr, so
// narrow layers take the site-major scatter and wide ones the gather
// reduction's row sink.

namespace {

constexpr int kDiffCases = 200;
/// Dense MACs one layer may cost per timestep; draws above it are
/// redrawn, which keeps the suite quick under the sanitizers.
constexpr std::size_t kDiffMacBudget = 150'000;

struct DiffCase {
  en::NetworkSpec spec;
  std::vector<int> spiking;  ///< node ids of the spiking layers
  int batch = 1;
  std::vector<int> fills;    ///< per lane: 0 empty, 1 one event, 2 ~2%, 3 ~20%
};

[[nodiscard]] int draw_out_channels(std::mt19937_64& rng) {
  switch (std::uniform_int_distribution<int>(0, 5)(rng)) {
    case 0: return 1;
    case 1: return 2;
    case 2: return std::uniform_int_distribution<int>(3, 31)(rng);
    case 3: return 32;
    case 4: return 33;
    default: return std::uniform_int_distribution<int>(34, 140)(rng);
  }
}

/// One random case, or nothing when the draw is shape-invalid or over
/// the MAC budget.
[[nodiscard]] std::optional<DiffCase> draw_case(std::mt19937_64& rng) {
  const auto uni = [&rng](int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(rng);
  };
  DiffCase dc;
  en::NetworkSpec& net = dc.spec;
  net.name = "spiking-diff";
  net.timesteps = uni(1, 4);
  net.n_bins = net.timesteps;
  en::NetworkGraph& g = net.graph;
  int h = uni(1, 16);
  int w = uni(1, 16);
  int cin = uni(1, 40);
  int prev = g.add_input("events", en::TensorShape{1, cin, h, w});
  const int layers = uni(1, 2);
  for (int l = 0; l < layers; ++l) {
    const int k = uni(1, 7);
    const int stride = uni(1, 2);
    const int pad = uni(0, k - 1);
    if (h + 2 * pad < k || w + 2 * pad < k) return std::nullopt;
    const int cout = draw_out_channels(rng);
    const int oh = es::conv_out_extent(h, k, stride, pad);
    const int ow = es::conv_out_extent(w, k, stride, pad);
    if (static_cast<std::size_t>(oh) * static_cast<std::size_t>(ow) *
            static_cast<std::size_t>(cout * cin * k * k) >
        kDiffMacBudget) {
      return std::nullopt;
    }
    en::LayerSpec ls;
    ls.name = "s" + std::to_string(l);
    ls.kind = uni(0, 1) == 0 ? en::LayerKind::kSpikingConv
                             : en::LayerKind::kAdaptiveSpikingConv;
    ls.conv = es::Conv2dSpec{cin, cout, k, stride, pad};
    ls.lif = en::LifParams{
        std::uniform_real_distribution<float>(0.5f, 1.0f)(rng),
        std::uniform_real_distribution<float>(0.05f, 0.8f)(rng),
        uni(0, 1) == 0};
    prev = g.add_layer(ls, {prev});
    dc.spiking.push_back(prev);
    h = oh;
    w = ow;
    cin = cout;
  }
  en::LayerSpec out;
  out.name = "out";
  out.kind = en::LayerKind::kOutput;
  g.add_layer(out, {prev});
  g.validate();
  dc.batch = uni(1, 2);
  for (int n = 0; n < dc.batch; ++n) dc.fills.push_back(uni(0, 3));
  return dc;
}

/// A COO event sample of shape `in`: no entry, one entry, or entries at
/// about 2% / 20% of the sites, with non-zero values of either sign.
[[nodiscard]] es::SparseSample draw_sample(const es::TensorShape& in,
                                           int fill, std::mt19937_64& rng) {
  std::uniform_real_distribution<float> magnitude(0.25f, 2.0f);
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  const double keep = fill == 2 ? 0.02 : 0.2;
  const int one_c = std::uniform_int_distribution<int>(0, in.c - 1)(rng);
  const int one_y = std::uniform_int_distribution<int>(0, in.h - 1)(rng);
  const int one_x = std::uniform_int_distribution<int>(0, in.w - 1)(rng);
  es::SparseSample sample;
  for (int c = 0; c < in.c; ++c) {
    std::vector<es::CooEntry> entries;
    for (int y = 0; y < in.h; ++y) {
      for (int x = 0; x < in.w; ++x) {
        const bool take = fill == 1 ? (c == one_c && y == one_y && x == one_x)
                                    : fill >= 2 && coin(rng) < keep;
        if (!take) continue;
        const float v = magnitude(rng);
        entries.push_back(es::CooEntry{y, x, coin(rng) < 0.5 ? v : -v});
      }
    }
    sample.push_back(
        es::CooChannel::from_sorted_entries(in.h, in.w, std::move(entries)));
  }
  return sample;
}

/// The [N, C, H, W] dense step holding `samples` as its lanes.
[[nodiscard]] es::DenseTensor dense_step(
    const std::vector<es::SparseSample>& samples, const es::TensorShape& in) {
  es::DenseTensor step(es::TensorShape{static_cast<int>(samples.size()), in.c,
                                       in.h, in.w});
  for (std::size_t n = 0; n < samples.size(); ++n) {
    es::channels_into_slice(samples[n], step, static_cast<int>(n));
  }
  return step;
}

}  // namespace

// Planned run_events and planned run_batched are byte-equal to
// unplanned run_batched, in FP32 and with a real int8 plan (its sparse
// int8 kernels against its dense ones).
TEST(SpikingDifferential, PlannedRunsMatchDenseBytewise) {
  std::mt19937_64 rng(20240521);
  int drawn = 0;
  int narrow = 0;
  int wide = 0;
  int spiking_outputs = 0;
  while (drawn < kDiffCases) {
    const std::optional<DiffCase> dc = draw_case(rng);
    if (!dc) continue;
    ++drawn;
    const en::NetworkSpec& spec = dc->spec;
    for (const int id : dc->spiking) {
      (en::scatter_current_route(spec.graph.node(id).spec.conv) ? narrow
                                                                : wide)++;
    }
    const es::TensorShape in =
        spec.graph.node(spec.graph.input_ids().front()).spec.out_shape;
    std::vector<es::SparseSample> samples;
    for (const int fill : dc->fills) samples.push_back(draw_sample(in, fill, rng));
    // Constant steps (what run_events presents) and steps drawn afresh
    // at every timestep.
    const std::vector<es::DenseTensor> same(
        static_cast<std::size_t>(spec.timesteps), dense_step(samples, in));
    std::vector<es::DenseTensor> varying;
    for (int t = 0; t < spec.timesteps; ++t) {
      std::vector<es::SparseSample> lanes;
      for (const int fill : dc->fills) lanes.push_back(draw_sample(in, fill, rng));
      varying.push_back(dense_step(lanes, in));
    }
    const std::string where = "case " + std::to_string(drawn);

    en::FunctionalNetwork net(spec, static_cast<std::uint64_t>(drawn));
    const es::DenseTensor want_same = net.run_batched(same);
    const es::DenseTensor want_varying = net.run_batched(varying);
    if (want_same.count_nonzero() > 0) ++spiking_outputs;
    const en::ExecutionPlan plan = all_csr_plan(spec, dc->spiking);
    net.set_execution_plan(&plan);
    EXPECT_TRUE(same_bytes(net.run_events(samples), want_same)) << where;
    EXPECT_TRUE(same_bytes(net.run_batched(varying), want_varying)) << where;
    EXPECT_TRUE(same_bytes(net.run_batched(same), want_same)) << where;

    net.set_execution_plan(nullptr);
    eq::ValidationSample calib;
    calib.event_steps.assign(
        static_cast<std::size_t>(spec.timesteps),
        dense_step({draw_sample(in, 3, rng)}, in));
    const auto table = eq::calibrate_activations(net, {&calib, 1});
    eq::QuantPlanOptions all_layers;
    all_layers.quantize_input_layer = true;
    const eq::QuantPlan int8 = eq::build_quant_plan(
        net, eq::uniform_assignment(spec, eq::Precision::kInt8), table,
        /*simulate=*/false, eq::WeightGranularity::kPerChannel, all_layers);
    net.set_quant_plan(&int8);
    const es::DenseTensor int8_dense = net.run_batched(same);
    net.set_execution_plan(&plan);
    EXPECT_TRUE(same_bytes(net.run_events(samples), int8_dense)) << where;
    net.set_execution_plan(nullptr);
    net.set_quant_plan(nullptr);
  }
  // Both sides of the split were drawn, many times, and most cases
  // spike at their output.
  EXPECT_GT(narrow, 50);
  EXPECT_GT(wide, 30);
  EXPECT_GT(spiking_outputs, kDiffCases / 4);
}

// The site-major current kernels at the suite's layer shapes: the
// scatter (sparse_conv2d_rows) and the gather row sink
// (sparse_conv2d_csr_rows) both write exactly the dense conv's output
// transposed into rows. Spikes threshold the
// current, so a one-ulp change in summation order rarely shows at a
// network's output; this pins it at the current itself.
TEST(SpikingDifferential, SiteMajorCurrentsMatchDenseConv) {
  std::mt19937_64 rng(4242);
  int drawn = 0;
  while (drawn < kDiffCases) {
    const std::optional<DiffCase> dc = draw_case(rng);
    if (!dc) continue;
    ++drawn;
    for (const int id : dc->spiking) {
      const en::LayerSpec& ls = dc->spec.graph.node(id).spec;
      const es::SparseSample input =
          draw_sample(ls.in_shape, dc->fills.front(), rng);
      es::DenseTensor weights(es::TensorShape{
          ls.conv.out_channels, ls.conv.in_channels, ls.conv.kernel,
          ls.conv.kernel});
      weights.fill_random(rng(), 0.5f);
      std::vector<float> packed;
      es::pack_conv_weights(weights, packed);
      es::DenseTensor want;
      es::to_site_major(
          en::conv2d(dense_step({input}, ls.in_shape), weights, {}, ls.conv),
          want);
      const std::string where =
          "case " + std::to_string(drawn) + " " + ls.name;
      es::DenseTensor rows;
      es::sparse_conv2d_rows(input, weights, {}, ls.conv, packed, rows);
      EXPECT_TRUE(same_bytes(rows, want)) << where << " scatter";
      es::sparse_conv2d_csr_rows(input, weights, {}, ls.conv, rows, nullptr,
                                 nullptr, packed);
      EXPECT_TRUE(same_bytes(rows, want)) << where << " gather";
    }
  }
}

// LifState's site-major step — through every entry point — against the
// channel-major oracle (reference::lif_step) at the suite's layer
// shapes: spikes and membranes byte-equal, equal firing rates.
TEST(SpikingDifferential, LifStateMatchesChannelMajorOracle) {
  std::mt19937_64 rng(777);
  int drawn = 0;
  while (drawn < kDiffCases) {
    const std::optional<DiffCase> dc = draw_case(rng);
    if (!dc) continue;
    ++drawn;
    for (const int id : dc->spiking) {
      const en::LayerSpec& ls = dc->spec.graph.node(id).spec;
      const es::TensorShape shape{dc->batch, ls.out_shape.c, ls.out_shape.h,
                                  ls.out_shape.w};
      const auto channels = static_cast<std::size_t>(shape.c);
      std::vector<float> leak(channels, ls.lif.leak);
      std::vector<float> vth(channels, ls.lif.v_threshold);
      std::vector<float> per_leak;
      std::vector<float> per_vth;
      if (ls.kind == en::LayerKind::kAdaptiveSpikingConv) {
        for (std::size_t c = 0; c < channels; ++c) {
          leak[c] = std::uniform_real_distribution<float>(0.5f, 1.0f)(rng);
          vth[c] = std::uniform_real_distribution<float>(0.05f, 0.8f)(rng);
        }
        per_leak = leak;
        per_vth = vth;
      }
      en::LifState nchw(shape, ls.lif, per_leak, per_vth);
      en::LifState nchw_coo = nchw;
      en::LifState sites = nchw;
      en::LifState sites_coo = nchw;
      es::DenseTensor oracle_membrane(shape);
      std::uint64_t oracle_spikes = 0;
      const std::string where =
          "case " + std::to_string(drawn) + " " + ls.name;
      for (int t = 0; t < dc->spec.timesteps; ++t) {
        es::DenseTensor current(shape);
        current.fill_random(rng(), 1.0f);
        // Zero runs as a sparse conv leaves them (untouched sites).
        for (float& v : current.data()) {
          if (std::uniform_int_distribution<int>(0, 2)(rng) == 0) v = 0.0f;
        }
        es::DenseTensor rows;
        es::to_site_major(current, rows);
        const es::DenseTensor want = es::reference::lif_step(
            oracle_membrane, current, leak, vth, ls.lif.soft_reset,
            oracle_spikes);
        es::DenseTensor want_membrane;
        es::to_site_major(oracle_membrane, want_membrane);

        EXPECT_TRUE(same_bytes(nchw.step(current), want)) << where;
        es::DenseTensor got;
        sites.step_sites(rows, got);
        EXPECT_TRUE(same_bytes(got, want)) << where;
        en::SpikeCoo coo;
        en::SpikeCoo coo_sites;
        nchw_coo.step_sparse(current, coo);
        sites_coo.step_sites(rows, coo_sites);
        EXPECT_EQ(coo, coo_sites) << where;
        es::DenseTensor from_coo(shape);
        for (int n = 0; n < shape.n; ++n) {
          es::SparseSample lane;
          for (auto& entries : coo[static_cast<std::size_t>(n)]) {
            lane.push_back(es::CooChannel::from_sorted_entries(
                shape.h, shape.w, entries));
            EXPECT_NO_THROW(lane.back().validate()) << where;
          }
          es::channels_into_slice(lane, from_coo, n);
        }
        EXPECT_TRUE(same_bytes(from_coo, want)) << where;
        for (const en::LifState* lif : {&nchw, &nchw_coo, &sites, &sites_coo}) {
          EXPECT_TRUE(same_bytes(lif->membrane(), want_membrane)) << where;
        }
      }
      const double rate =
          static_cast<double>(oracle_spikes) /
          (static_cast<double>(shape.element_count()) * dc->spec.timesteps);
      for (const en::LifState* lif : {&nchw, &nchw_coo, &sites, &sites_coo}) {
        EXPECT_EQ(lif->mean_firing_rate(), rate) << where;
      }
    }
  }
}

// Weight rows are packed when a plan is installed. Editing weights
// through the non-const accessor afterwards repacks them before the
// next run, so every sparse form — a kConv's COO gather, a wide spiking
// layer's gather rows, a narrow one's scatter — still matches dense
// execution byte for byte.
TEST(ExecutionPlan, WeightEditAfterInstallRepacks) {
  en::NetworkSpec spec;
  spec.name = "repack";
  spec.timesteps = 3;
  spec.n_bins = 3;
  en::NetworkGraph& g = spec.graph;
  const int in = g.add_input("events", en::TensorShape{1, 2, 24, 28});
  en::LayerSpec conv;
  conv.name = "conv";
  conv.kind = en::LayerKind::kConv;
  conv.conv = es::Conv2dSpec{2, 40, 3, 1, 1};
  const int n1 = g.add_layer(conv, {in});
  en::LayerSpec wide;
  wide.name = "wide";
  wide.kind = en::LayerKind::kAdaptiveSpikingConv;
  wide.conv = es::Conv2dSpec{40, 48, 3, 2, 1};
  wide.lif = en::LifParams{0.9f, 0.3f, true};
  const int n2 = g.add_layer(wide, {n1});
  en::LayerSpec narrow = wide;
  narrow.name = "narrow";
  narrow.kind = en::LayerKind::kSpikingConv;
  narrow.conv = es::Conv2dSpec{48, 8, 3, 1, 1};
  const int n3 = g.add_layer(narrow, {n2});
  en::LayerSpec out;
  out.name = "out";
  out.kind = en::LayerKind::kOutput;
  g.add_layer(out, {n3});
  g.validate();

  std::mt19937_64 rng(5);
  const es::TensorShape in_shape = g.node(in).spec.out_shape;
  const std::vector<es::DenseTensor> steps(
      3, dense_step({draw_sample(in_shape, 3, rng)}, in_shape));
  en::FunctionalNetwork net(spec, 11);
  const en::ExecutionPlan plan = all_csr_plan(spec, {n1, n2, n3});
  net.set_execution_plan(&plan);
  const es::DenseTensor before = net.run(steps);

  for (const int id : {n1, n2, n3}) {
    for (float& w : net.weights(id).data()) w *= -1.5f;
  }
  const es::DenseTensor routed = net.run(steps);
  net.set_execution_plan(nullptr);
  const es::DenseTensor dense = net.run(steps);
  EXPECT_GT(dense.count_nonzero(), 0u);
  EXPECT_FALSE(same_bytes(dense, before));
  EXPECT_TRUE(same_bytes(routed, dense));
}
