// Tests for the real INT8 execution subsystem: kernel-level parity with
// the fake-quant float reference, dense/sparse int8 agreement, the
// engine's per-layer precision plan (mixed FP32/INT8 routing, batched
// bitwise parity) and the zoo-wide one-quantization-step contract.

#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <string>
#include <vector>

#include "nn/engine.hpp"
#include "nn/kernels.hpp"
#include "nn/zoo.hpp"
#include "quant/calibrate.hpp"
#include "quant/int8_kernels.hpp"
#include "quant/quantizer.hpp"
#include "sparse/sparse_ops.hpp"

namespace eq = evedge::quant;
namespace en = evedge::nn;
namespace es = evedge::sparse;

namespace {

es::DenseTensor random_tensor(const es::TensorShape& shape,
                              std::uint64_t seed, float range = 1.0f) {
  es::DenseTensor t(shape);
  t.fill_random(seed, range);
  return t;
}

/// Keeps roughly `density` of the elements (deterministic mask).
es::DenseTensor sparsify(es::DenseTensor t, double density) {
  const auto keep_every =
      density > 0.0 ? static_cast<std::size_t>(1.0 / density) : t.size();
  std::size_t i = 0;
  for (float& v : t.data()) {
    if (i++ % keep_every != 0) v = 0.0f;
  }
  return t;
}

/// The float fake-quant reference of one int8 conv: quantize the input
/// on the shared grid, convolve with the per-channel fake weights.
es::DenseTensor reference_conv(const es::DenseTensor& input,
                               const eq::Int8ConvWeights& w,
                               std::span<const float> bias,
                               eq::Int8Scale input_scale) {
  es::DenseTensor q;
  eq::quantize_activations_reference(input, input_scale, q);
  return en::conv2d(q, w.fake, bias, w.spec);
}

}  // namespace

// ------------------------------------------------------- weight quantizer

TEST(Int8Weights, PerChannelScalesMatchChannelRanges) {
  const es::Conv2dSpec spec{3, 4, 3, 1, 1};
  auto weights = random_tensor({4, 3, 3, 3}, 11, 0.5f);
  const auto q = eq::quantize_conv_weights(weights, spec);
  ASSERT_EQ(q.scale.size(), 4u);
  for (int oc = 0; oc < 4; ++oc) {
    const float* row = weights.raw() + oc * weights.stride_n();
    const float range = eq::max_abs(
        std::span<const float>(row, weights.stride_n()));
    EXPECT_FLOAT_EQ(q.scale[static_cast<std::size_t>(oc)], range / 127.0f);
  }
  // Canonical int8, widened (padded-stride) and packed layouts agree;
  // padding lanes are exact zeros.
  const std::size_t patch = q.patch;
  ASSERT_GE(q.padded_patch, patch);
  EXPECT_EQ(q.padded_patch % 8, 0u);
  for (std::size_t oc = 0; oc < 4; ++oc) {
    for (std::size_t r = 0; r < patch; ++r) {
      EXPECT_EQ(q.q[oc * patch + r], q.wide[oc * q.padded_patch + r]);
      EXPECT_EQ(q.wide[oc * q.padded_patch + r], q.packed[r * 4 + oc]);
    }
    for (std::size_t r = patch; r < q.padded_patch; ++r) {
      EXPECT_EQ(q.wide[oc * q.padded_patch + r], 0);
    }
  }
}

TEST(Int8Weights, PerTensorFakeMatchesFakeQuantize) {
  const es::Conv2dSpec spec{2, 3, 3, 1, 1};
  auto weights = random_tensor({3, 2, 3, 3}, 13, 0.3f);
  const auto q = eq::quantize_conv_weights(
      weights, spec, eq::WeightGranularity::kPerTensor);
  auto expected = weights;
  eq::fake_quantize(expected, eq::Precision::kInt8);
  EXPECT_EQ(es::max_abs_diff(q.fake, expected), 0.0f);
}

TEST(Int8Weights, RejectsShapeMismatchAndOversizedPatch) {
  const es::Conv2dSpec spec{2, 3, 3, 1, 1};
  EXPECT_THROW((void)eq::quantize_conv_weights(
                   random_tensor({3, 2, 5, 5}, 1), spec),
               std::invalid_argument);
  // patch = 14795 * 9 = 133155 >= 2^31 / 127^2: int32 accumulation
  // could overflow, so preparation must refuse.
  const es::Conv2dSpec big{14795, 1, 3, 1, 1};
  EXPECT_THROW((void)eq::quantize_conv_weights(
                   random_tensor({1, 14795, 3, 3}, 2, 0.01f), big),
               std::invalid_argument);
}

// ------------------------------------------------------ dense kernel parity

TEST(Int8Kernels, ConvMatchesFakeQuantReferenceAcrossShapes) {
  struct Case {
    es::TensorShape in;
    es::Conv2dSpec spec;
  };
  const Case cases[] = {
      {{2, 3, 16, 20}, {3, 8, 3, 1, 1}},
      {{1, 4, 17, 13}, {4, 6, 3, 2, 1}},
      {{1, 8, 12, 12}, {8, 5, 1, 1, 0}},   // oc not a multiple of 4
      {{2, 2, 20, 24}, {2, 16, 5, 2, 2}},
  };
  es::Workspace ws;
  int c = 0;
  for (const Case& tc : cases) {
    const auto input = random_tensor(tc.in, 100 + c, 2.0f);
    const auto weights = random_tensor(
        {tc.spec.out_channels, tc.spec.in_channels, tc.spec.kernel,
         tc.spec.kernel},
        200 + c, 0.4f);
    std::vector<float> bias(static_cast<std::size_t>(tc.spec.out_channels));
    for (std::size_t i = 0; i < bias.size(); ++i) {
      bias[i] = 0.01f * static_cast<float>(i) - 0.05f;
    }
    const auto q = eq::quantize_conv_weights(weights, tc.spec);
    const auto s_x = eq::Int8Scale::for_range(eq::max_abs(input.data()));

    const auto got = eq::int8_conv2d(input, q, bias, s_x, &ws);
    const auto want = reference_conv(input, q, bias, s_x);
    ASSERT_EQ(got.shape(), want.shape()) << "case " << c;
    // Integer accumulation is exact; the float reference only differs by
    // accumulation rounding — far below one quantization step.
    const double step = eq::output_quant_step(want);
    EXPECT_LE(es::max_abs_diff(got, want), 0.05 * step) << "case " << c;
    ++c;
  }
}

TEST(Int8Kernels, TransposedConvMatchesFakeQuantReference) {
  const es::Conv2dSpec spec{4, 3, 4, 2, 1};
  const auto input = random_tensor({2, 4, 9, 11}, 31, 1.5f);
  const auto weights = random_tensor({3, 4, 4, 4}, 32, 0.3f);
  const std::vector<float> bias{0.1f, -0.2f, 0.05f};
  const auto q = eq::quantize_conv_weights(weights, spec);
  const auto s_x = eq::Int8Scale::for_range(eq::max_abs(input.data()));

  const auto got = eq::int8_transposed_conv2d(input, q, bias, s_x);
  es::DenseTensor qin;
  eq::quantize_activations_reference(input, s_x, qin);
  const auto want = en::transposed_conv2d(qin, q.fake, bias, spec);
  ASSERT_EQ(got.shape(), want.shape());
  EXPECT_LE(es::max_abs_diff(got, want),
            0.05 * eq::output_quant_step(want) + 1e-6);
}

TEST(Int8Kernels, FullyConnectedMatchesFakeQuantReference) {
  const auto input = random_tensor({2, 6, 4, 5}, 41, 1.0f);
  const auto weights = random_tensor({10, 120, 1, 1}, 42, 0.2f);
  const es::Conv2dSpec spec{120, 10, 1, 1, 0};
  const std::vector<float> bias(10, 0.02f);
  const auto q = eq::quantize_conv_weights(weights, spec);
  const auto s_x = eq::Int8Scale::for_range(eq::max_abs(input.data()));

  const auto got = eq::int8_fully_connected(input, q, bias, s_x);
  es::DenseTensor qin;
  eq::quantize_activations_reference(input, s_x, qin);
  const auto want = en::fully_connected(qin, q.fake, bias);
  ASSERT_EQ(got.shape(), want.shape());
  EXPECT_LE(es::max_abs_diff(got, want),
            0.05 * eq::output_quant_step(want) + 1e-6);
}

// ----------------------------------------------------- sparse kernel parity

TEST(Int8Kernels, SparseCsrBitMatchesDenseInt8AtActiveSites) {
  // A strided narrow layer, and a stride-1 biased layer wider than the
  // reduction's 256-channel stack accumulator row.
  struct Case {
    es::Conv2dSpec spec;
    es::TensorShape in_shape;
    double density;
    float bias;
  };
  for (const Case& c : {Case{{2, 8, 3, 2, 1}, {1, 2, 26, 34}, 0.03, 0.0f},
                        Case{{3, 300, 3, 1, 1}, {1, 3, 24, 30}, 0.05,
                             0.125f}}) {
    SCOPED_TRACE(std::to_string(c.spec.out_channels) + " channels");
    const auto dense_in = sparsify(random_tensor(c.in_shape, 61), c.density);
    const auto channels = es::dense_to_channels(dense_in);
    const auto weights =
        random_tensor({c.spec.out_channels, c.spec.in_channels, 3, 3}, 62,
                      0.25f);
    const std::vector<float> bias(
        c.bias != 0.0f ? static_cast<std::size_t>(c.spec.out_channels) : 0,
        c.bias);
    const auto q = eq::quantize_conv_weights(weights, c.spec);
    const auto s_x = eq::Int8Scale::for_range(eq::max_abs(dense_in.data()));

    es::Workspace ws;
    es::ConvWork work;
    const auto got =
        eq::int8_sparse_conv2d_csr(channels, q, bias, s_x, &work, &ws);
    const auto dense_out = eq::int8_conv2d(dense_in, q, bias, s_x, &ws);
    ASSERT_EQ(got.size(), static_cast<std::size_t>(c.spec.out_channels));
    std::size_t checked = 0;
    for (std::size_t oc = 0; oc < got.size(); ++oc) {
      // CSR output channels are sorted (chainable into the float kernels).
      EXPECT_NO_THROW((void)got[oc].row_ptr());
      for (const es::CooEntry& e : got[oc].entries()) {
        // Same exact integer sum, same float requantization: bitwise
        // equal.
        EXPECT_EQ(e.value,
                  dense_out.at(0, static_cast<int>(oc), e.row, e.col));
        ++checked;
      }
    }
    EXPECT_GT(checked, 0u);
    EXPECT_GT(work.sparse_macs, 0u);
    EXPECT_LT(work.sparse_macs, work.dense_macs);
  }
}

TEST(Int8Kernels, GatherScratchRestoredBetweenSparseCalls) {
  const es::Conv2dSpec spec{2, 4, 3, 1, 1};
  const auto a = es::dense_to_channels(
      sparsify(random_tensor({1, 2, 18, 18}, 71), 0.04));
  const auto b = es::dense_to_channels(
      sparsify(random_tensor({1, 2, 18, 18}, 72), 0.04));
  const auto weights = random_tensor({4, 2, 3, 3}, 73, 0.3f);
  const auto q = eq::quantize_conv_weights(weights, spec);
  const auto s_x = eq::Int8Scale{0.05f};

  es::Workspace ws;
  const auto b_fresh = eq::int8_sparse_conv2d_csr(b, q, {}, s_x, nullptr,
                                                  &ws);
  (void)eq::int8_sparse_conv2d_csr(a, q, {}, s_x, nullptr, &ws);
  const auto b_again = eq::int8_sparse_conv2d_csr(b, q, {}, s_x, nullptr,
                                                  &ws);
  EXPECT_EQ(es::max_abs_diff(es::channels_to_dense(b_fresh),
                             es::channels_to_dense(b_again)),
            0.0f);
}

// --------------------------------------------------------- engine plan

namespace {

eq::PrecisionMap alternating_int8(const en::NetworkSpec& spec) {
  eq::PrecisionMap map;
  int i = 0;
  for (const auto& node : spec.graph.nodes()) {
    if (en::is_weight_layer(node.spec.kind) && (i++ % 2 == 0)) {
      map[node.id] = eq::Precision::kInt8;
    }
  }
  return map;
}

}  // namespace

TEST(Int8Engine, MixedPrecisionRoutesPerLayer) {
  const auto spec =
      en::build_network(en::NetworkId::kEvFlowNet, en::ZooConfig::test_scale());
  const auto calib = eq::make_validation_set(spec, 2, 7);
  const auto eval = eq::make_validation_set(spec, 1, 77);

  en::FunctionalNetwork net(spec, 5);
  const auto table = eq::calibrate_activations(net, calib);
  const auto mixed = eq::build_quant_plan(net, alternating_int8(spec), table);
  const auto full = eq::build_quant_plan(
      net, eq::uniform_assignment(spec, eq::Precision::kInt8), table);

  const auto out_fp32 = net.run(eval[0].event_steps);
  net.set_quant_plan(&mixed);
  const auto out_mixed = net.run(eval[0].event_steps);
  net.set_quant_plan(&full);
  const auto out_full = net.run(eval[0].event_steps);
  net.set_quant_plan(nullptr);
  // Quantizing some layers moves the output; quantizing all moves it
  // further / differently — per-layer routing is real.
  EXPECT_GT(es::max_abs_diff(out_mixed, out_fp32), 0.0f);
  EXPECT_GT(es::max_abs_diff(out_full, out_mixed), 0.0f);
}

TEST(Int8Engine, RealMatchesReferenceWithinOneStepAcrossZoo) {
  std::vector<en::NetworkId> ids = en::table1_networks();
  ids.push_back(en::NetworkId::kEvFlowNet);
  for (const auto id : ids) {
    const auto spec = en::build_network(id, en::ZooConfig::test_scale());
    const auto calib = eq::make_validation_set(spec, 2, 9);
    const auto eval = eq::make_validation_set(spec, 1, 99);
    // Opt out of the input-layer FP32 guard: this is a kernel-parity
    // contract over EVERY layer, not a deployment-policy test (and
    // DOTIE's only layer is the guarded one).
    en::FunctionalNetwork net(spec, 7);
    const auto table = eq::calibrate_activations(net, calib);
    const auto int8 = eq::uniform_assignment(spec, eq::Precision::kInt8);
    const eq::QuantPlanOptions options{.quantize_input_layer = true};
    const auto real_plan = eq::build_quant_plan(
        net, int8, table, /*simulate=*/false,
        eq::WeightGranularity::kPerChannel, options);
    const auto simulated_plan = eq::build_quant_plan(
        net, int8, table, /*simulate=*/true,
        eq::WeightGranularity::kPerChannel, options);

    const auto* image =
        eval[0].image.has_value() ? &eval[0].image.value() : nullptr;
    net.set_quant_plan(&real_plan);
    const auto real = net.run(eval[0].event_steps, image);
    net.set_quant_plan(&simulated_plan);
    const auto reference = net.run(eval[0].event_steps, image);
    net.set_quant_plan(nullptr);
    ASSERT_EQ(real.shape(), reference.shape()) << spec.name;
    const double step = eq::output_quant_step(reference);
    EXPECT_LE(es::max_abs_diff(real, reference), step + 1e-6) << spec.name;
    // And quantization is actually happening (int8 output differs from
    // FP32 — random-weight activations never land exactly on the grid).
    const auto fp32 = net.run(eval[0].event_steps, image);
    EXPECT_GT(es::max_abs_diff(real, fp32), 0.0f) << spec.name;
  }
}

TEST(Int8Engine, BatchedRunBitMatchesPerSample) {
  const auto spec =
      en::build_network(en::NetworkId::kEvFlowNet, en::ZooConfig::test_scale());
  const auto calib = eq::make_validation_set(spec, 2, 11);
  en::FunctionalNetwork net(spec, 3);
  const auto plan = eq::build_quant_plan(
      net, eq::uniform_assignment(spec, eq::Precision::kInt8),
      eq::calibrate_activations(net, calib));
  net.set_quant_plan(&plan);

  constexpr int kBatch = 3;
  const auto samples = eq::make_validation_set(spec, kBatch, 111);
  // Stack the per-sample steps into [N, C, H, W] batch tensors.
  std::vector<es::DenseTensor> batched_steps;
  for (int t = 0; t < spec.timesteps; ++t) {
    const es::TensorShape s = samples[0].event_steps[0].shape();
    es::DenseTensor step(es::TensorShape{kBatch, s.c, s.h, s.w});
    for (int n = 0; n < kBatch; ++n) {
      const auto& src = samples[static_cast<std::size_t>(n)]
                            .event_steps[static_cast<std::size_t>(t)];
      std::copy(src.raw(), src.raw() + src.size(),
                step.raw() + static_cast<std::size_t>(n) * step.stride_n());
    }
    batched_steps.push_back(std::move(step));
  }

  const auto batched = net.run_batched(batched_steps);
  ASSERT_EQ(batched.shape().n, kBatch);
  for (int n = 0; n < kBatch; ++n) {
    const auto single =
        net.run(samples[static_cast<std::size_t>(n)].event_steps);
    const float* b = batched.raw() +
                     static_cast<std::size_t>(n) * batched.stride_n();
    const float* s = single.raw();
    for (std::size_t i = 0; i < single.size(); ++i) {
      ASSERT_EQ(b[i], s[i]) << "sample " << n << " element " << i;
    }
  }
}

TEST(Int8Engine, WorkspaceStopsGrowingOnceWarm) {
  const auto spec =
      en::build_network(en::NetworkId::kEvFlowNet, en::ZooConfig::test_scale());
  const auto calib = eq::make_validation_set(spec, 2, 13);
  en::FunctionalNetwork net(spec, 3);
  const auto plan = eq::build_quant_plan(
      net, eq::uniform_assignment(spec, eq::Precision::kInt8),
      eq::calibrate_activations(net, calib));
  net.set_quant_plan(&plan);
  const auto eval = eq::make_validation_set(spec, 1, 131);
  (void)net.run(eval[0].event_steps);
  const std::size_t warm = net.workspace().retained_bytes();
  EXPECT_GT(warm, 0u);
  for (int i = 0; i < 3; ++i) (void)net.run(eval[0].event_steps);
  EXPECT_EQ(net.workspace().retained_bytes(), warm);
}

TEST(Int8Kernels, PadFreeConvIsThreadCountInvariant) {
  // padding = 0 makes every row's last pixel take the interior chunked
  // copy, and Cin*k*k = 72 (multiple of 8 before overrun room) is the
  // layout where a chunk overrun would cross into the next worker's
  // first column row — the regression this pins is that results are
  // identical for any worker count.
  const es::Conv2dSpec spec{8, 12, 3, 1, 0};
  const auto input = random_tensor({1, 8, 40, 52}, 81, 1.0f);
  const auto weights = random_tensor({12, 8, 3, 3}, 82, 0.3f);
  const auto q = eq::quantize_conv_weights(weights, spec);
  const auto s_x = eq::Int8Scale::for_range(eq::max_abs(input.data()));

  setenv("EVEDGE_THREADS", "1", 1);
  const auto serial = eq::int8_conv2d(input, q, {}, s_x);
  setenv("EVEDGE_THREADS", "4", 1);
  const auto threaded = eq::int8_conv2d(input, q, {}, s_x);
  unsetenv("EVEDGE_THREADS");
  EXPECT_EQ(es::max_abs_diff(serial, threaded), 0.0f);

  const auto want = reference_conv(input, q, {}, s_x);
  EXPECT_LE(es::max_abs_diff(serial, want),
            0.05 * eq::output_quant_step(want) + 1e-6);
}

TEST(Int8Engine, RejectedPlanLeavesExecutionModeIntact) {
  const auto spec =
      en::build_network(en::NetworkId::kDotie, en::ZooConfig::test_scale());
  const auto calib = eq::make_validation_set(spec, 2, 19);
  const auto eval = eq::make_validation_set(spec, 1, 191);
  en::FunctionalNetwork net(spec, 1);
  const auto table = eq::calibrate_activations(net, calib);
  const auto before = net.run(eval[0].event_steps);

  // A plan whose first entry is valid but whose second is not must be
  // rejected atomically — no half-installed int8 routing. (DOTIE's only
  // layer reads the 2-channel input, so opt out of the FP32 guard to
  // get a non-empty plan.)
  eq::QuantPlan plan = eq::build_quant_plan(
      net, eq::uniform_assignment(spec, eq::Precision::kInt8), table,
      /*simulate=*/false, eq::WeightGranularity::kPerChannel,
      eq::QuantPlanOptions{.quantize_input_layer = true});
  ASSERT_FALSE(plan.nodes.empty());
  eq::NodeQuantPlan bad;
  bad.node_id = spec.graph.input_ids().front();
  plan.nodes.push_back(std::move(bad));
  EXPECT_THROW(net.set_quant_plan(&plan), std::invalid_argument);

  const auto after = net.run(eval[0].event_steps);
  EXPECT_EQ(es::max_abs_diff(before, after), 0.0f);
}

TEST(Int8Engine, BuildQuantPlanRejectsUncalibratedTable) {
  const auto spec =
      en::build_network(en::NetworkId::kDotie, en::ZooConfig::test_scale());
  en::FunctionalNetwork net(spec, 1);
  const eq::CalibrationTable empty;
  EXPECT_THROW(
      (void)eq::build_quant_plan(
          net, eq::uniform_assignment(spec, eq::Precision::kInt8), empty,
          /*simulate=*/false, eq::WeightGranularity::kPerChannel,
          eq::QuantPlanOptions{.quantize_input_layer = true}),
      std::invalid_argument);
}

// The default plan keeps sensor-facing narrow input layers FP32 (the
// 2-channel DAVIS conv is im2col-bound in int8 — ROADMAP); the opt-out
// flag restores unguarded behavior.
TEST(Int8Engine, BuildQuantPlanKeepsNarrowInputLayerFp32ByDefault) {
  const auto spec = en::build_network(en::NetworkId::kSpikeFlowNet,
                                      en::ZooConfig::test_scale());
  en::FunctionalNetwork net(spec, 1);
  const auto calib = eq::make_validation_set(spec, 2, 23);
  const auto table = eq::calibrate_activations(net, calib);
  const auto precisions =
      eq::uniform_assignment(spec, eq::Precision::kInt8);

  // The first weight layer (enc1) reads the 2-channel event input.
  int first_layer = -1;
  for (const auto& node : spec.graph.nodes()) {
    if (en::is_weight_layer(node.spec.kind)) {
      first_layer = node.id;
      break;
    }
  }
  ASSERT_GE(first_layer, 0);

  const auto guarded = eq::build_quant_plan(net, precisions, table);
  const auto unguarded = eq::build_quant_plan(
      net, precisions, table, /*simulate=*/false,
      eq::WeightGranularity::kPerChannel,
      eq::QuantPlanOptions{.quantize_input_layer = true});
  const auto has_node = [](const eq::QuantPlan& plan, int id) {
    for (const auto& nq : plan.nodes) {
      if (nq.node_id == id) return true;
    }
    return false;
  };
  EXPECT_FALSE(has_node(guarded, first_layer));
  EXPECT_TRUE(has_node(unguarded, first_layer));
  // Everything deeper quantizes either way.
  EXPECT_EQ(guarded.nodes.size() + 1, unguarded.nodes.size());
}

TEST(Int8Engine, SetQuantPlanRejectsNonWeightNodes) {
  const auto spec =
      en::build_network(en::NetworkId::kDotie, en::ZooConfig::test_scale());
  en::FunctionalNetwork net(spec, 1);
  eq::QuantPlan plan;
  eq::NodeQuantPlan bad;
  bad.node_id = spec.graph.input_ids().front();  // input: no weights
  plan.nodes.push_back(std::move(bad));
  EXPECT_THROW(net.set_quant_plan(&plan), std::invalid_argument);
  // And the rejected plan leaves the engine runnable in FP32.
  const auto eval = eq::make_validation_set(spec, 1, 5);
  EXPECT_NO_THROW((void)net.run(eval[0].event_steps));
}

TEST(Int8Engine, CalibrationRecordsInputAndActivationRanges) {
  const auto spec =
      en::build_network(en::NetworkId::kEvFlowNet, en::ZooConfig::test_scale());
  en::FunctionalNetwork net(spec, 1);
  const auto samples = eq::make_validation_set(spec, 2, 17);
  const auto table = eq::calibrate_activations(net, samples);
  EXPECT_GT(table.range_of(spec.graph.input_ids().front()), 0.0f);
  int covered = 0;
  for (const auto& node : spec.graph.nodes()) {
    if (en::is_weight_layer(node.spec.kind) &&
        table.range_of(node.id) > 0.0f) {
      ++covered;
    }
  }
  EXPECT_GT(covered, 0);
  EXPECT_FLOAT_EQ(table.range_of(-99), 0.0f);
}
