// Tests for the nn substrate: dense kernels (including cross-validation
// against the sparse kernels), LIF dynamics, graph construction, the
// network zoo (Table 1 layer counts) and the functional engine.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <random>
#include <set>
#include <stdexcept>
#include <tuple>

#include "nn/engine.hpp"
#include "nn/graph.hpp"
#include "nn/kernels.hpp"
#include "nn/lif.hpp"
#include "nn/zoo.hpp"
#include "sparse/reference.hpp"
#include "sparse/sparse_ops.hpp"

namespace en = evedge::nn;
namespace es = evedge::sparse;

// ----------------------------------------------------------- dense kernels

TEST(Kernels, ConvIdentityKernelPreservesInput) {
  es::DenseTensor in(es::TensorShape{1, 1, 5, 5});
  in.fill_random(1);
  es::DenseTensor w(es::TensorShape{1, 1, 1, 1});
  w.at(0, 0, 0, 0) = 1.0f;
  const auto out = en::conv2d(in, w, {}, es::Conv2dSpec{1, 1, 1, 1, 0});
  EXPECT_FLOAT_EQ(es::max_abs_diff(out, in), 0.0f);
}

TEST(Kernels, ConvAveragingKernel) {
  es::DenseTensor in(es::TensorShape{1, 1, 3, 3}, 1.0f);
  es::DenseTensor w(es::TensorShape{1, 1, 3, 3}, 1.0f / 9.0f);
  const auto out = en::conv2d(in, w, {}, es::Conv2dSpec{1, 1, 3, 1, 1});
  // Center pixel sees all nine ones.
  EXPECT_NEAR(out.at(0, 0, 1, 1), 1.0f, 1e-6f);
  // Corner sees four.
  EXPECT_NEAR(out.at(0, 0, 0, 0), 4.0f / 9.0f, 1e-6f);
}

TEST(Kernels, ConvBiasApplied) {
  es::DenseTensor in(es::TensorShape{1, 1, 2, 2});
  es::DenseTensor w(es::TensorShape{2, 1, 1, 1});
  const std::vector<float> bias{0.5f, -1.5f};
  const auto out = en::conv2d(in, w, bias, es::Conv2dSpec{1, 2, 1, 1, 0});
  EXPECT_FLOAT_EQ(out.at(0, 0, 0, 0), 0.5f);
  EXPECT_FLOAT_EQ(out.at(0, 1, 1, 1), -1.5f);
}

TEST(Kernels, SparseConvMatchesDenseConv) {
  // The core E2SF claim depends on this equivalence.
  std::mt19937_64 rng(17);
  std::uniform_int_distribution<int> coord(0, 11);
  for (const auto& [k, s, p] :
       {std::tuple{3, 1, 1}, std::tuple{3, 2, 1}, std::tuple{5, 1, 2}}) {
    const es::Conv2dSpec spec{2, 6, k, s, p};
    es::DenseTensor w(es::TensorShape{6, 2, k, k});
    w.fill_random(23);
    const std::vector<float> bias{0.1f, -0.2f, 0.3f, 0.0f, 0.7f, -0.4f};

    es::DenseTensor dense_in(es::TensorShape{1, 2, 12, 12});
    std::vector<es::CooEntry> pos, neg;
    for (int i = 0; i < 25; ++i) {
      const int y = coord(rng);
      const int x = coord(rng);
      dense_in.at(0, 0, y, x) += 1.0f;
      pos.push_back({y, x, 1.0f});
    }
    for (int i = 0; i < 15; ++i) {
      const int y = coord(rng);
      const int x = coord(rng);
      dense_in.at(0, 1, y, x) += 1.0f;
      neg.push_back({y, x, 1.0f});
    }
    std::vector<es::CooChannel> sparse_in{
        es::CooChannel::from_entries(12, 12, pos),
        es::CooChannel::from_entries(12, 12, neg)};

    const auto y_dense = en::conv2d(dense_in, w, bias, spec);
    const auto y_sparse = es::sparse_conv2d(sparse_in, w, bias, spec);
    EXPECT_LT(es::max_abs_diff(y_dense, y_sparse), 1e-4f)
        << "k=" << k << " s=" << s << " p=" << p;
  }
}

TEST(Kernels, TransposedConvUpsamples) {
  es::DenseTensor in(es::TensorShape{1, 1, 4, 4}, 1.0f);
  es::DenseTensor w(es::TensorShape{1, 1, 4, 4}, 0.25f);
  const auto out =
      en::transposed_conv2d(in, w, {}, es::Conv2dSpec{1, 1, 4, 2, 1});
  EXPECT_EQ(out.shape().h, 8);
  EXPECT_EQ(out.shape().w, 8);
}

TEST(Kernels, TransposedConvAdjointOfConv) {
  // <conv(x), y> == <x, tconv(y)> for matching geometry (adjoint
  // property of correlation/convolution pairs with shared weights).
  const es::Conv2dSpec spec{1, 1, 3, 1, 1};
  es::DenseTensor w(es::TensorShape{1, 1, 3, 3});
  w.fill_random(37);
  es::DenseTensor x(es::TensorShape{1, 1, 6, 6});
  x.fill_random(38);
  es::DenseTensor y(es::TensorShape{1, 1, 6, 6});
  y.fill_random(39);

  const auto cx = en::conv2d(x, w, {}, spec);
  // conv2d computes cross-correlation, whose adjoint is the transposed-
  // conv scatter with the *same* (unflipped) weights.
  const auto ty = en::transposed_conv2d(y, w, {}, spec);
  double lhs = 0.0;
  double rhs = 0.0;
  for (std::size_t i = 0; i < cx.size(); ++i) {
    lhs += static_cast<double>(cx.data()[i]) *
           static_cast<double>(y.data()[i]);
  }
  for (std::size_t i = 0; i < x.size(); ++i) {
    rhs += static_cast<double>(x.data()[i]) *
           static_cast<double>(ty.data()[i]);
  }
  EXPECT_NEAR(lhs, rhs, 1e-3);
}

namespace {

// Byte-for-byte equality of two tensors (shape and every float's bits).
::testing::AssertionResult bitwise_equal(const es::DenseTensor& a,
                                         const es::DenseTensor& b) {
  if (!(a.shape() == b.shape())) {
    return ::testing::AssertionFailure() << "shape differs";
  }
  if (std::memcmp(a.raw(), b.raw(), a.size() * sizeof(float)) != 0) {
    return ::testing::AssertionFailure()
           << "bytes differ, max |diff| " << es::max_abs_diff(a, b);
  }
  return ::testing::AssertionSuccess();
}

}  // namespace

// The phase-split GEMM transposed conv against the seed scatter, memcmp
// over random specs (k 1-5, s 1-3, p < k, channels 1-24, N 1-2, extents
// down to 1x1, 0/45/90% zero inputs, zero and non-zero biases) and over
// SpikeFlowNet's four decoder shapes at benchmark scale. Biases are never
// -0.0f: that is the one documented case where the two may differ.
TEST(Kernels, TransposedConvMatchesSeedScatterBitwise) {
  std::mt19937_64 rng(2024);
  const auto pick = [&](int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(rng);
  };
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  const double zero_fracs[] = {0.0, 0.45, 0.9};
  int checked = 0;
  for (int trial = 0; checked < 320; ++trial) {
    const int k = pick(1, 5);
    const int s = pick(1, 3);
    const int p = pick(0, k - 1);
    const es::Conv2dSpec spec{pick(1, 24), pick(1, 24), k, s, p};
    const es::TensorShape shape{pick(1, 2), spec.in_channels, pick(1, 9),
                                pick(1, 9)};
    if ((shape.h - 1) * s - 2 * p + k <= 0 ||
        (shape.w - 1) * s - 2 * p + k <= 0) {
      continue;  // no output pixel
    }
    es::DenseTensor input(shape);
    input.fill_random(static_cast<std::uint64_t>(trial) + 1);
    const double zeros = zero_fracs[checked % 3];
    for (float& v : input.data()) {
      if (coin(rng) < zeros) v = 0.0f;
    }
    es::DenseTensor w(
        es::TensorShape{spec.out_channels, spec.in_channels, k, k});
    w.fill_random(static_cast<std::uint64_t>(trial) + 7, 0.5f);
    std::vector<float> bias;
    if (checked % 2 == 1) {
      bias.resize(static_cast<std::size_t>(spec.out_channels));
      for (float& b : bias) b = static_cast<float>(coin(rng) - 0.5);
    } else if (checked % 4 == 2) {
      bias.assign(static_cast<std::size_t>(spec.out_channels), 0.0f);
    }
    EXPECT_TRUE(bitwise_equal(en::transposed_conv2d(input, w, bias, spec),
                              es::reference::transposed_conv2d(input, w, bias,
                                                               spec)))
        << "k" << k << " s" << s << " p" << p << " " << spec.in_channels
        << "x" << shape.h << "x" << shape.w << " -> " << spec.out_channels
        << " N" << shape.n;
    ++checked;
  }

  // dec4..dec1 of the benchmark's SpikeFlowNet (base 16, 96x128 input).
  for (const auto& [cin, h, w_in, cout] :
       {std::tuple{128, 6, 8, 64}, std::tuple{128, 12, 16, 32},
        std::tuple{64, 24, 32, 16}, std::tuple{32, 48, 64, 16}}) {
    const es::Conv2dSpec spec{cin, cout, 4, 2, 1};
    es::DenseTensor input(es::TensorShape{1, cin, h, w_in});
    input.fill_random(static_cast<std::uint64_t>(cin + h));
    for (float& v : input.data()) v = std::max(v, 0.0f);  // post-ReLU
    es::DenseTensor w(es::TensorShape{cout, cin, 4, 4});
    w.fill_random(static_cast<std::uint64_t>(cout + w_in), 0.2f);
    std::vector<float> bias(static_cast<std::size_t>(cout));
    for (std::size_t i = 0; i < bias.size(); ++i) {
      bias[i] = 0.01f * static_cast<float>(i);
    }
    EXPECT_TRUE(bitwise_equal(
        en::transposed_conv2d(input, w, bias, spec),
        es::reference::transposed_conv2d(input, w, bias, spec)))
        << cin << "x" << h << "x" << w_in << " -> " << cout;
  }
}

TEST(Kernels, TransposedConvIntoReusesOutAndRejectsAliasing) {
  const es::Conv2dSpec spec{3, 4, 4, 2, 1};
  es::DenseTensor input(es::TensorShape{1, 3, 5, 7});
  input.fill_random(3);
  es::DenseTensor w(es::TensorShape{4, 3, 4, 4});
  w.fill_random(4, 0.5f);
  es::Workspace ws;
  es::DenseTensor out;
  en::transposed_conv2d_into(input, w, {}, spec, out, &ws);
  const float* buffer = out.raw();
  en::transposed_conv2d_into(input, w, {}, spec, out, &ws);
  EXPECT_EQ(out.raw(), buffer);
  EXPECT_TRUE(bitwise_equal(out, en::transposed_conv2d(input, w, {}, spec)));
  EXPECT_THROW(en::transposed_conv2d_into(input, w, {}, spec, input, &ws),
               std::invalid_argument);
}

TEST(Kernels, PoolingReducesAndPreservesExtrema) {
  es::DenseTensor in(es::TensorShape{1, 1, 4, 4});
  in.fill_random(41);
  const auto mp = en::max_pool(in, 2);
  const auto ap = en::avg_pool(in, 2);
  EXPECT_EQ(mp.shape().h, 2);
  EXPECT_EQ(ap.shape().w, 2);
  float max_in = -1e30f;
  for (float v : in.data()) max_in = std::max(max_in, v);
  float max_mp = -1e30f;
  for (float v : mp.data()) max_mp = std::max(max_mp, v);
  EXPECT_FLOAT_EQ(max_mp, max_in);
  // Average pool preserves the mean.
  double mean_in = 0.0;
  for (float v : in.data()) mean_in += v;
  double mean_ap = 0.0;
  for (float v : ap.data()) mean_ap += v;
  EXPECT_NEAR(mean_in / 16.0, mean_ap / 4.0, 1e-5);
}

TEST(Kernels, ReluClampsNegatives) {
  es::DenseTensor t(es::TensorShape{1, 1, 1, 4});
  t.at(0, 0, 0, 0) = -1.0f;
  t.at(0, 0, 0, 1) = 2.0f;
  t.at(0, 0, 0, 2) = -0.5f;
  t.at(0, 0, 0, 3) = 0.0f;
  en::relu_inplace(t);
  EXPECT_FLOAT_EQ(t.at(0, 0, 0, 0), 0.0f);
  EXPECT_FLOAT_EQ(t.at(0, 0, 0, 1), 2.0f);
  EXPECT_FLOAT_EQ(t.at(0, 0, 0, 2), 0.0f);
}

TEST(Kernels, ConcatAndCrop) {
  es::DenseTensor a(es::TensorShape{1, 2, 4, 4}, 1.0f);
  es::DenseTensor b(es::TensorShape{1, 3, 4, 4}, 2.0f);
  const auto c = en::concat_channels(a, b);
  EXPECT_EQ(c.shape().c, 5);
  EXPECT_FLOAT_EQ(c.at(0, 0, 0, 0), 1.0f);
  EXPECT_FLOAT_EQ(c.at(0, 4, 3, 3), 2.0f);
  const auto cropped = en::center_crop(c, 2, 2);
  EXPECT_EQ(cropped.shape().h, 2);
  EXPECT_THROW((void)en::center_crop(c, 10, 2), std::invalid_argument);
}

TEST(Kernels, UpsampleNearestReplicates) {
  es::DenseTensor in(es::TensorShape{1, 1, 2, 2});
  in.at(0, 0, 0, 0) = 1.0f;
  in.at(0, 0, 0, 1) = 2.0f;
  in.at(0, 0, 1, 0) = 3.0f;
  in.at(0, 0, 1, 1) = 4.0f;
  const auto up = en::upsample_nearest(in, 2);
  EXPECT_FLOAT_EQ(up.at(0, 0, 0, 0), 1.0f);
  EXPECT_FLOAT_EQ(up.at(0, 0, 1, 1), 1.0f);
  EXPECT_FLOAT_EQ(up.at(0, 0, 0, 2), 2.0f);
  EXPECT_FLOAT_EQ(up.at(0, 0, 3, 3), 4.0f);
}

TEST(Kernels, FullyConnectedMatchesManual) {
  es::DenseTensor in(es::TensorShape{1, 1, 1, 3});
  in.at(0, 0, 0, 0) = 1.0f;
  in.at(0, 0, 0, 1) = 2.0f;
  in.at(0, 0, 0, 2) = 3.0f;
  es::DenseTensor w(es::TensorShape{2, 3, 1, 1});
  // out0 = 1*1 + 2*2 + 3*3 = 14; out1 = -1 -2 -3 = -6
  w.at(0, 0, 0, 0) = 1.0f;
  w.at(0, 1, 0, 0) = 2.0f;
  w.at(0, 2, 0, 0) = 3.0f;
  w.at(1, 0, 0, 0) = -1.0f;
  w.at(1, 1, 0, 0) = -1.0f;
  w.at(1, 2, 0, 0) = -1.0f;
  const auto out = en::fully_connected(in, w, {});
  EXPECT_FLOAT_EQ(out.at(0, 0, 0, 0), 14.0f);
  EXPECT_FLOAT_EQ(out.at(0, 1, 0, 0), -6.0f);
}

// ------------------------------------------------------------------- LIF

TEST(Lif, NoSpikeBelowThreshold) {
  en::LifState lif(es::TensorShape{1, 1, 1, 1}, en::LifParams{0.9f, 1.0f});
  es::DenseTensor in(es::TensorShape{1, 1, 1, 1});
  in.at(0, 0, 0, 0) = 0.3f;
  const auto s1 = lif.step(in);
  EXPECT_FLOAT_EQ(s1.at(0, 0, 0, 0), 0.0f);
}

TEST(Lif, IntegrationReachesThreshold) {
  // 0.3 per step with leak 1.0 crosses vth=1.0 on the fourth step.
  en::LifState lif(es::TensorShape{1, 1, 1, 1}, en::LifParams{1.0f, 1.0f});
  es::DenseTensor in(es::TensorShape{1, 1, 1, 1});
  in.at(0, 0, 0, 0) = 0.3f;
  int spike_step = -1;
  for (int t = 0; t < 6; ++t) {
    const auto s = lif.step(in);
    if (s.at(0, 0, 0, 0) > 0.0f && spike_step < 0) spike_step = t;
  }
  EXPECT_EQ(spike_step, 3);
}

TEST(Lif, SoftResetKeepsResidual) {
  en::LifState lif(es::TensorShape{1, 1, 1, 1},
                   en::LifParams{1.0f, 1.0f, true});
  es::DenseTensor in(es::TensorShape{1, 1, 1, 1});
  in.at(0, 0, 0, 0) = 1.25f;
  (void)lif.step(in);
  EXPECT_NEAR(lif.membrane().at(0, 0, 0, 0), 0.25f, 1e-6f);
}

TEST(Lif, HardResetZeroes) {
  en::LifState lif(es::TensorShape{1, 1, 1, 1},
                   en::LifParams{1.0f, 1.0f, false});
  es::DenseTensor in(es::TensorShape{1, 1, 1, 1});
  in.at(0, 0, 0, 0) = 1.25f;
  (void)lif.step(in);
  EXPECT_FLOAT_EQ(lif.membrane().at(0, 0, 0, 0), 0.0f);
}

TEST(Lif, LeakDecaysMembrane) {
  en::LifState lif(es::TensorShape{1, 1, 1, 1}, en::LifParams{0.5f, 10.0f});
  es::DenseTensor in(es::TensorShape{1, 1, 1, 1});
  in.at(0, 0, 0, 0) = 1.0f;
  (void)lif.step(in);  // U = 1
  in.at(0, 0, 0, 0) = 0.0f;
  (void)lif.step(in);  // U = 0.5
  EXPECT_NEAR(lif.membrane().at(0, 0, 0, 0), 0.5f, 1e-6f);
}

TEST(Lif, FiringRateAccounting) {
  en::LifState lif(es::TensorShape{1, 1, 2, 2}, en::LifParams{1.0f, 0.5f});
  es::DenseTensor in(es::TensorShape{1, 1, 2, 2}, 1.0f);
  (void)lif.step(in);  // all 4 sites fire
  EXPECT_NEAR(lif.mean_firing_rate(), 1.0, 1e-9);
  lif.reset();
  EXPECT_NEAR(lif.mean_firing_rate(), 0.0, 1e-9);
}

// step_sparse advances the membrane in place with step()'s arithmetic:
// same spikes (as row-major COO), same membrane, same firing counters.
TEST(Lif, SparseStepMatchesDenseStep) {
  const es::TensorShape shape{2, 3, 5, 7};
  for (const bool soft : {true, false}) {
    const en::LifParams params{0.9f, 0.6f, soft};
    en::LifState dense(shape, params, {0.8f, 0.9f, 1.0f}, {0.5f, 0.6f, 0.7f});
    en::LifState sparse = dense;
    en::SpikeCoo spikes;
    for (int t = 0; t < 4; ++t) {
      es::DenseTensor current(shape);
      current.fill_random(100 + static_cast<std::uint64_t>(t), 0.5f);
      const es::DenseTensor want = dense.step(current);
      sparse.step_sparse(current, spikes);
      es::DenseTensor got(shape);
      ASSERT_EQ(spikes.size(), 2u);
      for (int n = 0; n < shape.n; ++n) {
        ASSERT_EQ(spikes[static_cast<std::size_t>(n)].size(), 3u);
        for (int c = 0; c < shape.c; ++c) {
          const auto& entries =
              spikes[static_cast<std::size_t>(n)][static_cast<std::size_t>(c)];
          EXPECT_TRUE(std::is_sorted(
              entries.begin(), entries.end(),
              [](const es::CooEntry& a, const es::CooEntry& b) {
                return std::tie(a.row, a.col) < std::tie(b.row, b.col);
              }));
          for (const es::CooEntry& e : entries) {
            EXPECT_EQ(e.value, 1.0f);
            got.at(n, c, e.row, e.col) = e.value;
          }
        }
      }
      EXPECT_EQ(es::max_abs_diff(got, want), 0.0f) << "t=" << t;
      EXPECT_EQ(es::max_abs_diff(sparse.membrane(), dense.membrane()), 0.0f)
          << "t=" << t;
    }
    EXPECT_GT(dense.mean_firing_rate(), 0.0);
    EXPECT_EQ(sparse.mean_firing_rate(), dense.mean_firing_rate());
  }
}

TEST(Lif, PerChannelParamsValidated) {
  EXPECT_THROW(en::LifState(es::TensorShape{1, 2, 1, 1},
                            en::LifParams{0.9f, 1.0f}, {0.5f}),
               std::invalid_argument);
  EXPECT_THROW(en::LifState(es::TensorShape{1, 2, 1, 1},
                            en::LifParams{0.9f, 1.0f}, {0.5f, 1.5f}),
               std::invalid_argument);
}

// ------------------------------------------------------------------ graph

TEST(Graph, ShapeInferenceThroughEncoder) {
  en::NetworkGraph g;
  const int in = g.add_input("in", es::TensorShape{1, 2, 32, 44});
  en::LayerSpec c;
  c.name = "conv";
  c.kind = en::LayerKind::kConv;
  c.conv = es::Conv2dSpec{2, 8, 3, 2, 1};
  const int l1 = g.add_layer(c, {in});
  EXPECT_EQ(g.node(l1).spec.out_shape.c, 8);
  EXPECT_EQ(g.node(l1).spec.out_shape.h, 16);
  EXPECT_EQ(g.node(l1).spec.out_shape.w, 22);
}

TEST(Graph, RejectsChannelMismatch) {
  en::NetworkGraph g;
  const int in = g.add_input("in", es::TensorShape{1, 2, 16, 16});
  en::LayerSpec c;
  c.kind = en::LayerKind::kConv;
  c.conv = es::Conv2dSpec{4, 8, 3, 1, 1};  // expects 4 channels, input has 2
  EXPECT_THROW(g.add_layer(c, {in}), std::invalid_argument);
}

TEST(Graph, RejectsBadParents) {
  en::NetworkGraph g;
  const int in = g.add_input("in", es::TensorShape{1, 2, 16, 16});
  en::LayerSpec c;
  c.kind = en::LayerKind::kConcat;
  EXPECT_THROW(g.add_layer(c, {in}), std::invalid_argument);  // needs 2
  EXPECT_THROW(g.add_layer(c, {in, 99}), std::invalid_argument);
}

TEST(Graph, MacsMatchHandComputation) {
  en::NetworkGraph g;
  const int in = g.add_input("in", es::TensorShape{1, 2, 16, 16});
  en::LayerSpec c;
  c.kind = en::LayerKind::kConv;
  c.conv = es::Conv2dSpec{2, 4, 3, 1, 1};
  const int l = g.add_layer(c, {in});
  // 16*16 outputs * 4 out_c * 2 in_c * 9 taps
  EXPECT_EQ(g.node(l).spec.macs(), 16u * 16u * 4u * 2u * 9u);
}

// -------------------------------------------------------------------- zoo

// GoogleTest has no printer for ZooCase, so each case's listed name ends in
// the case's raw bytes. Every byte is therefore set: `pad` fills the gap
// after the 1-byte id, and `type` holds the characters themselves rather
// than a string address, so the names are the same on every run.
struct ZooCase {
  en::NetworkId id;
  std::uint8_t pad[3]{};
  int layers;
  int snn;
  int ann;
  char type[8];
};

class ZooTable1 : public ::testing::TestWithParam<ZooCase> {};

TEST_P(ZooTable1, LayerCountsMatchPaper) {
  const ZooCase& c = GetParam();
  const auto net = en::build_network(c.id, en::ZooConfig::test_scale());
  EXPECT_EQ(net.weight_layer_count(), c.layers) << net.name;
  EXPECT_EQ(net.snn_layer_count(), c.snn) << net.name;
  EXPECT_EQ(net.ann_layer_count(), c.ann) << net.name;
  EXPECT_EQ(net.type_string(), c.type) << net.name;
  EXPECT_NO_THROW(net.graph.validate());
}

INSTANTIATE_TEST_SUITE_P(
    Table1, ZooTable1,
    ::testing::Values(
        ZooCase{.id = en::NetworkId::kSpikeFlowNet,
                .layers = 12, .snn = 4, .ann = 8, .type = "SNN-ANN"},
        ZooCase{.id = en::NetworkId::kFusionFlowNet,
                .layers = 29, .snn = 10, .ann = 19, .type = "SNN-ANN"},
        ZooCase{.id = en::NetworkId::kAdaptiveSpikeNet,
                .layers = 8, .snn = 8, .ann = 0, .type = "SNN"},
        ZooCase{.id = en::NetworkId::kHalsie,
                .layers = 16, .snn = 3, .ann = 13, .type = "SNN-ANN"},
        ZooCase{.id = en::NetworkId::kHidalgoDepth,
                .layers = 15, .snn = 0, .ann = 15, .type = "ANN"},
        ZooCase{.id = en::NetworkId::kDotie,
                .layers = 1, .snn = 1, .ann = 0, .type = "SNN"},
        ZooCase{.id = en::NetworkId::kEvFlowNet,
                .layers = 14, .snn = 0, .ann = 14, .type = "ANN"}),
    [](const ::testing::TestParamInfo<ZooCase>& param_info) {
      auto name = en::to_string(param_info.param.id);
      for (char& ch : name) {
        if (ch == '-') ch = '_';
      }
      return name;
    });

TEST(Zoo, FullScaleMacsAreRealistic) {
  // Full-scale descriptors must land in the 0.1-100 GMAC/inference range
  // typical for these architectures.
  for (const auto id : en::table1_networks()) {
    const auto net = en::build_network(id, en::ZooConfig::full_scale());
    const double gmacs =
        static_cast<double>(net.graph.total_macs()) / 1e9 *
        net.timesteps;
    EXPECT_GT(gmacs, 0.0005) << net.name;
    EXPECT_LT(gmacs, 200.0) << net.name;
  }
}

TEST(Zoo, MultiTaskConfigsMatchPaper) {
  EXPECT_EQ(en::multi_task_all_ann().networks.size(), 2u);
  EXPECT_EQ(en::multi_task_all_snn().networks.size(), 2u);
  EXPECT_EQ(en::multi_task_mixed().networks.size(), 4u);
  // all-ANN must contain only ANN networks, all-SNN only SNNs.
  for (const auto id : en::multi_task_all_ann().networks) {
    const auto net = en::build_network(id, en::ZooConfig::test_scale());
    EXPECT_EQ(net.snn_layer_count(), 0) << net.name;
  }
  for (const auto id : en::multi_task_all_snn().networks) {
    const auto net = en::build_network(id, en::ZooConfig::test_scale());
    EXPECT_EQ(net.ann_layer_count(), 0) << net.name;
  }
}

// ----------------------------------------------------------------- engine

namespace {

std::vector<es::DenseTensor> synthetic_steps(const en::NetworkSpec& net,
                                             std::uint64_t seed) {
  const auto in_shape =
      net.graph.node(net.graph.input_ids().front()).spec.out_shape;
  std::vector<es::DenseTensor> steps;
  std::mt19937_64 rng(seed);
  for (int t = 0; t < net.timesteps; ++t) {
    es::DenseTensor frame(in_shape);
    // Sparse spike-like input: ~10% of sites get small counts.
    std::uniform_real_distribution<float> unit(0.0f, 1.0f);
    for (float& v : frame.data()) {
      const float u = unit(rng);
      if (u > 0.9f) v = std::floor(u * 30.0f) - 26.0f;  // 1..3
    }
    steps.push_back(std::move(frame));
  }
  return steps;
}

es::DenseTensor synthetic_image(const en::NetworkSpec& net) {
  const auto ids = net.graph.input_ids();
  const auto shape = net.graph.node(ids.back()).spec.out_shape;
  es::DenseTensor img(shape);
  img.fill_random(1234, 0.5f);
  for (float& v : img.data()) v = std::abs(v);
  return img;
}

}  // namespace

class EngineRuns : public ::testing::TestWithParam<en::NetworkId> {};

TEST_P(EngineRuns, ProducesFiniteOutputOfExpectedShape) {
  const auto net_spec =
      en::build_network(GetParam(), en::ZooConfig::test_scale());
  en::FunctionalNetwork net(net_spec, 7);
  const auto steps = synthetic_steps(net_spec, 11);
  const bool needs_image = net_spec.graph.input_ids().size() > 1;
  const auto image = synthetic_image(net_spec);
  const auto out = net.run(steps, needs_image ? &image : nullptr);

  EXPECT_EQ(out.shape().n, 1);
  switch (net_spec.task) {
    case en::TaskKind::kOpticalFlow:
      EXPECT_EQ(out.shape().c, 2);
      break;
    case en::TaskKind::kSegmentation:
      EXPECT_EQ(out.shape().c, 6);
      break;
    case en::TaskKind::kDepth:
    case en::TaskKind::kTracking:
      EXPECT_EQ(out.shape().c, 1);
      break;
  }
  for (float v : out.data()) {
    EXPECT_TRUE(std::isfinite(v));
  }
}

TEST_P(EngineRuns, DeterministicAcrossRuns) {
  const auto net_spec =
      en::build_network(GetParam(), en::ZooConfig::test_scale());
  en::FunctionalNetwork a(net_spec, 7);
  en::FunctionalNetwork b(net_spec, 7);
  const auto steps = synthetic_steps(net_spec, 11);
  const bool needs_image = net_spec.graph.input_ids().size() > 1;
  const auto image = synthetic_image(net_spec);
  const auto oa = a.run(steps, needs_image ? &image : nullptr);
  const auto ob = b.run(steps, needs_image ? &image : nullptr);
  EXPECT_FLOAT_EQ(es::max_abs_diff(oa, ob), 0.0f);
}

INSTANTIATE_TEST_SUITE_P(
    Zoo, EngineRuns,
    ::testing::Values(en::NetworkId::kSpikeFlowNet,
                      en::NetworkId::kFusionFlowNet,
                      en::NetworkId::kAdaptiveSpikeNet,
                      en::NetworkId::kHalsie, en::NetworkId::kHidalgoDepth,
                      en::NetworkId::kDotie, en::NetworkId::kEvFlowNet),
    [](const ::testing::TestParamInfo<en::NetworkId>& param_info) {
      auto name = en::to_string(param_info.param);
      for (char& ch : name) {
        if (ch == '-') ch = '_';
      }
      return name;
    });

TEST(Engine, SpikingLayersActuallySpike) {
  // If SNN layers are silent the accuracy experiments degenerate; pin
  // a healthy firing regime on the hybrid and pure-SNN networks.
  for (const auto id :
       {en::NetworkId::kSpikeFlowNet, en::NetworkId::kAdaptiveSpikeNet}) {
    const auto net_spec = en::build_network(id, en::ZooConfig::test_scale());
    en::FunctionalNetwork net(net_spec, 7);
    const auto steps = synthetic_steps(net_spec, 13);
    (void)net.run(steps);
    EXPECT_GT(net.network_firing_rate(), 0.001)
        << en::to_string(id) << " is silent";
    EXPECT_LT(net.network_firing_rate(), 0.9)
        << en::to_string(id) << " saturates";
  }
}

TEST(Engine, OutputRespondsToInput) {
  const auto net_spec =
      en::build_network(en::NetworkId::kEvFlowNet, en::ZooConfig::test_scale());
  en::FunctionalNetwork net(net_spec, 7);
  const auto steps_a = synthetic_steps(net_spec, 1);
  const auto steps_b = synthetic_steps(net_spec, 2);
  const auto oa = net.run(steps_a);
  const auto ob = net.run(steps_b);
  EXPECT_GT(es::max_abs_diff(oa, ob), 0.0f);
}

TEST(Engine, ActivationHookObservesEveryComputeNode) {
  const auto net_spec =
      en::build_network(en::NetworkId::kSpikeFlowNet,
                        en::ZooConfig::test_scale());
  en::FunctionalNetwork net(net_spec, 7);
  std::set<int> seen;
  net.set_activation_hook(
      [&seen](int id, es::DenseTensor&) { seen.insert(id); });
  const auto steps = synthetic_steps(net_spec, 11);
  (void)net.run(steps);
  int compute_nodes = 0;
  for (const auto& n : net_spec.graph.nodes()) {
    if (n.spec.kind != en::LayerKind::kInput &&
        n.spec.kind != en::LayerKind::kOutput) {
      ++compute_nodes;
    }
  }
  EXPECT_EQ(static_cast<int>(seen.size()), compute_nodes);
}

TEST(Engine, HookCanPerturbOutputs) {
  const auto net_spec = en::build_network(en::NetworkId::kHidalgoDepth,
                                          en::ZooConfig::test_scale());
  en::FunctionalNetwork net(net_spec, 7);
  const auto steps = synthetic_steps(net_spec, 11);
  const auto clean = net.run(steps);
  net.set_activation_hook([](int, es::DenseTensor& t) {
    for (float& v : t.data()) v *= 1.01f;
  });
  const auto perturbed = net.run(steps);
  EXPECT_GT(es::max_abs_diff(clean, perturbed), 0.0f);
}

TEST(Engine, MissingImageInputThrows) {
  const auto net_spec =
      en::build_network(en::NetworkId::kHalsie, en::ZooConfig::test_scale());
  en::FunctionalNetwork net(net_spec, 7);
  const auto steps = synthetic_steps(net_spec, 11);
  EXPECT_THROW((void)net.run(steps), std::invalid_argument);
}

TEST(Engine, WrongTimestepCountThrows) {
  const auto net_spec =
      en::build_network(en::NetworkId::kDotie, en::ZooConfig::test_scale());
  en::FunctionalNetwork net(net_spec, 7);
  std::vector<es::DenseTensor> too_few;
  EXPECT_THROW((void)net.run(too_few), std::invalid_argument);
}

// ------------------------------------------ batched engine + workspace

namespace {

/// Stacks per-sample timestep tensors [1, C, H, W] into batched steps
/// [N, C, H, W].
std::vector<es::DenseTensor> stack_steps(
    const std::vector<std::vector<es::DenseTensor>>& per_sample) {
  const auto& first = per_sample.front();
  std::vector<es::DenseTensor> batched;
  for (std::size_t t = 0; t < first.size(); ++t) {
    const auto& s = first[t].shape();
    es::DenseTensor step(es::TensorShape{
        static_cast<int>(per_sample.size()), s.c, s.h, s.w});
    for (std::size_t n = 0; n < per_sample.size(); ++n) {
      const auto& src = per_sample[n][t];
      std::copy(src.data().begin(), src.data().end(),
                step.raw() + n * step.stride_n());
    }
    batched.push_back(std::move(step));
  }
  return batched;
}

}  // namespace

// run_batched over a stacked batch must be bitwise identical to run()
// over each sample alone — for every zoo network, spiking state included.
TEST_P(EngineRuns, BatchedRunBitMatchesPerSample) {
  const auto net_spec =
      en::build_network(GetParam(), en::ZooConfig::test_scale());
  en::FunctionalNetwork net(net_spec, 7);
  const bool needs_image = net_spec.graph.input_ids().size() > 1;
  const auto image = synthetic_image(net_spec);

  constexpr int kBatch = 3;
  std::vector<std::vector<es::DenseTensor>> per_sample;
  std::vector<es::DenseTensor> expected;
  for (int n = 0; n < kBatch; ++n) {
    per_sample.push_back(
        synthetic_steps(net_spec, 11 + static_cast<std::uint64_t>(n)));
    expected.push_back(net.run(per_sample.back(),
                               needs_image ? &image : nullptr));
  }

  const auto batched_steps = stack_steps(per_sample);
  const auto out =
      net.run_batched(batched_steps, needs_image ? &image : nullptr);
  ASSERT_EQ(out.shape().n, kBatch);
  for (int n = 0; n < kBatch; ++n) {
    const auto& ref = expected[static_cast<std::size_t>(n)];
    ASSERT_EQ(out.stride_n(), ref.stride_n());
    for (std::size_t i = 0; i < ref.size(); ++i) {
      ASSERT_EQ(out.data()[n * out.stride_n() + i], ref.data()[i])
          << "sample " << n << " element " << i;
    }
  }

  // Batch-1 still works after a batched run (LIF state re-shapes back).
  const auto again = net.run(per_sample.front(),
                             needs_image ? &image : nullptr);
  EXPECT_FLOAT_EQ(es::max_abs_diff(again, expected.front()), 0.0f);
}

// Repeated run() calls on one network reuse the workspace and value
// buffers and keep producing identical results; the arena stops growing
// once warm.
TEST(Engine, WorkspaceReuseAcrossRepeatedRuns) {
  const auto net_spec = en::build_network(en::NetworkId::kSpikeFlowNet,
                                          en::ZooConfig::test_scale());
  en::FunctionalNetwork net(net_spec, 7);
  const auto steps = synthetic_steps(net_spec, 11);
  const auto first = net.run(steps);
  const std::size_t warm_bytes = net.workspace().retained_bytes();
  for (int i = 0; i < 3; ++i) {
    const auto again = net.run(steps);
    EXPECT_FLOAT_EQ(es::max_abs_diff(again, first), 0.0f);
  }
  EXPECT_EQ(net.workspace().retained_bytes(), warm_bytes);
}

TEST(Kernels, Conv2dIntoMatchesConv2dAndReusesBuffer) {
  const es::Conv2dSpec spec{3, 8, 3, 1, 1};
  es::DenseTensor in(es::TensorShape{2, 3, 16, 20});
  in.fill_random(61);
  es::DenseTensor w(es::TensorShape{8, 3, 3, 3});
  w.fill_random(62, 0.3f);
  const std::vector<float> bias{0.1f, -0.1f, 0.2f, -0.2f,
                                0.3f, -0.3f, 0.4f, -0.4f};

  const auto expected = en::conv2d(in, w, bias, spec);
  es::Workspace ws;
  es::DenseTensor out;
  en::conv2d_into(in, w, bias, spec, out, &ws);
  EXPECT_FLOAT_EQ(es::max_abs_diff(out, expected), 0.0f);
  const float* buffer = out.raw();
  en::conv2d_into(in, w, bias, spec, out, &ws);  // same shape: no realloc
  EXPECT_EQ(out.raw(), buffer);
  EXPECT_FLOAT_EQ(es::max_abs_diff(out, expected), 0.0f);
  EXPECT_THROW(en::conv2d_into(in, w, bias, spec, in, &ws),
               std::invalid_argument);
}
