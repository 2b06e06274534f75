// Unit and property tests for the sparse substrate: dense tensors, COO
// channels, sparse frames and the sparse convolution kernels (validated
// against the dense reference in evedge::nn via test_nn.cpp; here we pin
// the algebraic invariants).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <random>
#include <string>
#include <tuple>
#include <utility>

#include "core/parallel.hpp"
#include "nn/kernels.hpp"
#include "quant/int8_kernels.hpp"
#include "sparse/coo.hpp"
#include "sparse/reference.hpp"
#include "sparse/sparse_frame.hpp"
#include "sparse/sparse_ops.hpp"
#include "sparse/tensor.hpp"

namespace eq = evedge::quant;
namespace es = evedge::sparse;

// ----------------------------------------------------------- DenseTensor

TEST(DenseTensor, ShapeAndIndexing) {
  es::DenseTensor t(es::TensorShape{2, 3, 4, 5}, 1.5f);
  EXPECT_EQ(t.size(), 120u);
  EXPECT_FLOAT_EQ(t.at(1, 2, 3, 4), 1.5f);
  t.at(1, 2, 3, 4) = -2.0f;
  EXPECT_FLOAT_EQ(t.at(1, 2, 3, 4), -2.0f);
  EXPECT_THROW((void)t.at(2, 0, 0, 0), std::out_of_range);
  EXPECT_THROW((void)t.at(0, 3, 0, 0), std::out_of_range);
}

TEST(DenseTensor, RejectsBadShape) {
  EXPECT_THROW(es::DenseTensor(es::TensorShape{0, 1, 1, 1}),
               std::invalid_argument);
  EXPECT_THROW(es::DenseTensor(es::TensorShape{1, -2, 1, 1}),
               std::invalid_argument);
}

TEST(DenseTensor, DensityCountsNonzeros) {
  es::DenseTensor t(es::TensorShape{1, 1, 2, 2});
  EXPECT_DOUBLE_EQ(t.density(), 0.0);
  t.at(0, 0, 0, 0) = 3.0f;
  t.at(0, 0, 1, 1) = -1.0f;
  EXPECT_DOUBLE_EQ(t.density(), 0.5);
}

TEST(DenseTensor, RandomFillDeterministic) {
  es::DenseTensor a(es::TensorShape{1, 2, 3, 3});
  es::DenseTensor b(es::TensorShape{1, 2, 3, 3});
  a.fill_random(99);
  b.fill_random(99);
  EXPECT_FLOAT_EQ(es::max_abs_diff(a, b), 0.0f);
  b.fill_random(100);
  EXPECT_GT(es::max_abs_diff(a, b), 0.0f);
}

TEST(DenseTensor, ErrorMetrics) {
  es::DenseTensor a(es::TensorShape{1, 1, 1, 4});
  es::DenseTensor b(es::TensorShape{1, 1, 1, 4});
  for (int i = 0; i < 4; ++i) {
    a.at(0, 0, 0, i) = static_cast<float>(i);
    b.at(0, 0, 0, i) = static_cast<float>(i) + 1.0f;
  }
  EXPECT_FLOAT_EQ(es::max_abs_diff(a, b), 1.0f);
  EXPECT_DOUBLE_EQ(es::mean_abs_diff(a, b), 1.0);
}

// ------------------------------------------------------------ CooChannel

TEST(CooChannel, FromEntriesSortsAndAccumulates) {
  auto ch = es::CooChannel::from_entries(
      4, 4,
      {{3, 3, 1.0f}, {0, 1, 2.0f}, {3, 3, 2.0f}, {1, 0, -1.0f}});
  EXPECT_EQ(ch.nnz(), 3u);
  EXPECT_FLOAT_EQ(ch.at(3, 3), 3.0f);
  EXPECT_FLOAT_EQ(ch.at(0, 1), 2.0f);
  EXPECT_FLOAT_EQ(ch.at(1, 0), -1.0f);
  EXPECT_FLOAT_EQ(ch.at(2, 2), 0.0f);
  EXPECT_NO_THROW(ch.validate());
}

TEST(CooChannel, CancellingEntriesVanish) {
  auto ch = es::CooChannel::from_entries(2, 2,
                                         {{0, 0, 1.0f}, {0, 0, -1.0f}});
  EXPECT_EQ(ch.nnz(), 0u);
}

TEST(CooChannel, AccumulateInsertsAndErases) {
  es::CooChannel ch(4, 4);
  ch.accumulate(1, 1, 2.0f);
  ch.accumulate(1, 1, 3.0f);
  EXPECT_FLOAT_EQ(ch.at(1, 1), 5.0f);
  ch.accumulate(1, 1, -5.0f);
  EXPECT_EQ(ch.nnz(), 0u);
  EXPECT_THROW(ch.accumulate(4, 0, 1.0f), std::out_of_range);
}

TEST(CooChannel, AddIsUnionWithSum) {
  auto a = es::CooChannel::from_entries(3, 3, {{0, 0, 1.0f}, {1, 1, 2.0f}});
  auto b = es::CooChannel::from_entries(3, 3, {{1, 1, 3.0f}, {2, 2, 4.0f}});
  auto c = es::add(a, b);
  EXPECT_EQ(c.nnz(), 3u);
  EXPECT_FLOAT_EQ(c.at(0, 0), 1.0f);
  EXPECT_FLOAT_EQ(c.at(1, 1), 5.0f);
  EXPECT_FLOAT_EQ(c.at(2, 2), 4.0f);
  EXPECT_NO_THROW(c.validate());
}

TEST(CooChannel, AddValueSumIsLinear) {
  std::mt19937_64 rng(4);
  std::uniform_int_distribution<int> coord(0, 15);
  std::uniform_real_distribution<float> val(-2.0f, 2.0f);
  std::vector<es::CooEntry> ea, eb;
  for (int i = 0; i < 60; ++i) {
    ea.push_back({coord(rng), coord(rng), val(rng)});
    eb.push_back({coord(rng), coord(rng), val(rng)});
  }
  auto a = es::CooChannel::from_entries(16, 16, ea);
  auto b = es::CooChannel::from_entries(16, 16, eb);
  auto c = es::add(a, b, 2.0f);
  EXPECT_NEAR(c.value_sum(), a.value_sum() + 2.0 * b.value_sum(), 1e-4);
}

TEST(CooChannel, ScaleMultipliesValues) {
  auto a = es::CooChannel::from_entries(2, 2, {{0, 0, 2.0f}, {1, 1, -4.0f}});
  auto s = es::scale(a, 0.5f);
  EXPECT_FLOAT_EQ(s.at(0, 0), 1.0f);
  EXPECT_FLOAT_EQ(s.at(1, 1), -2.0f);
  auto z = es::scale(a, 0.0f);
  EXPECT_EQ(z.nnz(), 0u);
}

// ----------------------------------------------------------- SparseFrame

namespace {

es::SparseFrame make_frame(int h, int w, std::uint64_t seed, int nnz) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int> row(0, h - 1);
  std::uniform_int_distribution<int> col(0, w - 1);
  es::SparseFrame f(h, w);
  for (int i = 0; i < nnz; ++i) {
    if (i % 2 == 0) {
      f.positive().accumulate(row(rng), col(rng), 1.0f);
    } else {
      f.negative().accumulate(row(rng), col(rng), 1.0f);
    }
  }
  f.t_start = 0;
  f.t_end = 1000;
  f.source_events = nnz;
  return f;
}

}  // namespace

TEST(SparseFrame, DenseRoundTrip) {
  const auto f = make_frame(12, 10, 3, 40);
  const auto dense = f.to_dense();
  const auto back = es::SparseFrame::from_dense(dense);
  EXPECT_EQ(back.nnz(), f.nnz());
  EXPECT_FLOAT_EQ(es::max_abs_diff(back.to_dense(), dense), 0.0f);
}

TEST(SparseFrame, MergeAddConservesEventMass) {
  const auto a = make_frame(8, 8, 1, 20);
  const auto b = make_frame(8, 8, 2, 30);
  const auto merged = es::merge_frames({a, b}, es::MergeMode::kAdd);
  EXPECT_NEAR(merged.event_mass(), a.event_mass() + b.event_mass(), 1e-5);
  EXPECT_EQ(merged.source_events, a.source_events + b.source_events);
}

TEST(SparseFrame, MergeAverageHalvesTwoEqualFrames) {
  const auto a = make_frame(8, 8, 5, 24);
  const auto merged = es::merge_frames({a, a}, es::MergeMode::kAverage);
  EXPECT_NEAR(merged.event_mass(), a.event_mass(), 1e-5);
  EXPECT_EQ(merged.nnz(), a.nnz());
}

TEST(SparseFrame, MergeSpansUnionOfTimeRanges) {
  auto a = make_frame(8, 8, 1, 10);
  a.t_start = 100;
  a.t_end = 200;
  auto b = make_frame(8, 8, 2, 10);
  b.t_start = 250;
  b.t_end = 300;
  const auto merged = es::merge_frames({a, b}, es::MergeMode::kAdd);
  EXPECT_EQ(merged.t_start, 100);
  EXPECT_EQ(merged.t_end, 300);
}

TEST(SparseFrame, MergeRejectsBatchModeAndEmpty) {
  EXPECT_THROW((void)es::merge_frames({}, es::MergeMode::kAdd),
               std::invalid_argument);
  const auto a = make_frame(4, 4, 1, 4);
  EXPECT_THROW((void)es::merge_frames({a}, es::MergeMode::kBatch),
               std::invalid_argument);
}

TEST(SparseFrame, BatchToDenseStacksFrames) {
  const auto a = make_frame(6, 6, 1, 12);
  const auto b = make_frame(6, 6, 2, 15);
  const auto batch = es::batch_to_dense({a, b});
  EXPECT_EQ(batch.shape().n, 2);
  EXPECT_EQ(batch.shape().c, 2);
  // slice 0 equals a, slice 1 equals b
  const auto da = a.to_dense();
  const auto db = b.to_dense();
  float diff = 0.0f;
  for (int c = 0; c < 2; ++c) {
    for (int y = 0; y < 6; ++y) {
      for (int x = 0; x < 6; ++x) {
        diff = std::max(diff,
                        std::abs(batch.at(0, c, y, x) - da.at(0, c, y, x)));
        diff = std::max(diff,
                        std::abs(batch.at(1, c, y, x) - db.at(0, c, y, x)));
      }
    }
  }
  EXPECT_FLOAT_EQ(diff, 0.0f);
}

TEST(SparseFrame, DensityChangeIsRelative) {
  const auto a = make_frame(10, 10, 1, 10);
  auto b = make_frame(10, 10, 2, 10);
  EXPECT_NEAR(es::density_change(a, a), 0.0, 1e-12);
  EXPECT_GE(es::density_change(b, a), 0.0);
}

// ------------------------------------------------------------ sparse ops

TEST(SparseOps, ConvOutExtent) {
  EXPECT_EQ(es::conv_out_extent(346, 3, 2, 1), 173);
  EXPECT_EQ(es::conv_out_extent(8, 3, 1, 1), 8);
  EXPECT_THROW((void)es::conv_out_extent(2, 5, 1, 0), std::invalid_argument);
}

TEST(SparseOps, SparseConvCostProportionalToNnz) {
  const es::Conv2dSpec spec{2, 8, 3, 1, 1};
  es::DenseTensor w(es::TensorShape{8, 2, 3, 3});
  w.fill_random(7);
  const auto sparse_in = make_frame(16, 16, 9, 8);
  const auto denser_in = make_frame(16, 16, 10, 64);

  es::ConvWork work_sparse, work_dense;
  std::vector<es::CooChannel> ch1{sparse_in.positive(), sparse_in.negative()};
  std::vector<es::CooChannel> ch2{denser_in.positive(),
                                  denser_in.negative()};
  (void)es::sparse_conv2d(ch1, w, {}, spec, &work_sparse);
  (void)es::sparse_conv2d(ch2, w, {}, spec, &work_dense);
  EXPECT_LT(work_sparse.sparse_macs, work_dense.sparse_macs);
  EXPECT_EQ(work_sparse.dense_macs, work_dense.dense_macs);
  // Sparse cost bounded by nnz * Cout * k * k.
  EXPECT_LE(work_sparse.sparse_macs, work_sparse.nnz_in * 8u * 9u);
}

TEST(SparseOps, EmptyInputGivesBiasOnlyOutput) {
  const es::Conv2dSpec spec{2, 4, 3, 1, 1};
  es::DenseTensor w(es::TensorShape{4, 2, 3, 3});
  w.fill_random(3);
  const std::vector<float> bias{1.0f, 2.0f, 3.0f, 4.0f};
  std::vector<es::CooChannel> empty{es::CooChannel(8, 8),
                                    es::CooChannel(8, 8)};
  const auto out = es::sparse_conv2d(empty, w, bias, spec);
  for (int c = 0; c < 4; ++c) {
    EXPECT_FLOAT_EQ(out.at(0, c, 4, 4), bias[static_cast<std::size_t>(c)]);
  }
}

TEST(SparseOps, DenseChannelRoundTrip) {
  es::DenseTensor t(es::TensorShape{1, 3, 6, 5});
  t.fill_random(21);
  // Sparsify: zero out most entries.
  int k = 0;
  for (float& v : t.data()) {
    if (k++ % 4 != 0) v = 0.0f;
  }
  std::size_t scanned = 0;
  const auto channels = es::dense_to_channels(t, &scanned);
  EXPECT_EQ(scanned, t.size());
  const auto back = es::channels_to_dense(channels);
  EXPECT_FLOAT_EQ(es::max_abs_diff(back, t), 0.0f);
}

// Property sweep: sparse conv linearity in the input (conv(a+b) =
// conv(a) + conv(b) for bias-free convs) across kernel/stride configs.
class SparseConvProperty
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(SparseConvProperty, LinearInInput) {
  const auto [kernel, stride, padding] = GetParam();
  const es::Conv2dSpec spec{2, 3, kernel, stride, padding};
  es::DenseTensor w(es::TensorShape{3, 2, kernel, kernel});
  w.fill_random(31);
  const auto fa = make_frame(14, 14, 41, 12);
  const auto fb = make_frame(14, 14, 42, 18);
  std::vector<es::CooChannel> a{fa.positive(), fa.negative()};
  std::vector<es::CooChannel> b{fb.positive(), fb.negative()};
  std::vector<es::CooChannel> sum{es::add(fa.positive(), fb.positive()),
                                  es::add(fa.negative(), fb.negative())};
  const auto ya = es::sparse_conv2d(a, w, {}, spec);
  const auto yb = es::sparse_conv2d(b, w, {}, spec);
  const auto ysum = es::sparse_conv2d(sum, w, {}, spec);
  es::DenseTensor yab = ya;
  for (std::size_t i = 0; i < yab.size(); ++i) {
    yab.data()[i] += yb.data()[i];
  }
  EXPECT_LT(es::max_abs_diff(ysum, yab), 1e-4f);
}

INSTANTIATE_TEST_SUITE_P(
    Kernels, SparseConvProperty,
    ::testing::Values(std::make_tuple(1, 1, 0), std::make_tuple(3, 1, 1),
                      std::make_tuple(3, 2, 1), std::make_tuple(5, 1, 2),
                      std::make_tuple(5, 2, 2), std::make_tuple(7, 4, 3)));

// ---------------------------------------------------- CSR row index

TEST(CooChannel, RowPtrDelimitsRows) {
  auto ch = es::CooChannel::from_entries(
      5, 6, {{0, 2, 1.0f}, {0, 4, 2.0f}, {2, 1, 3.0f}, {4, 5, 4.0f}});
  const auto& ptr = ch.row_ptr();
  ASSERT_EQ(ptr.size(), 6u);
  EXPECT_EQ(ptr[0], 0);
  EXPECT_EQ(ptr[1], 2);  // row 0 holds two entries
  EXPECT_EQ(ptr[2], 2);  // row 1 empty
  EXPECT_EQ(ptr[3], 3);  // row 2 holds one
  EXPECT_EQ(ptr[5], 4);  // total nnz
  const auto row0 = ch.row_span(0);
  ASSERT_EQ(row0.size(), 2u);
  EXPECT_EQ(row0[0].col, 2);
  EXPECT_EQ(row0[1].col, 4);
  EXPECT_TRUE(ch.row_span(1).empty());
  EXPECT_THROW((void)ch.row_span(5), std::out_of_range);
}

TEST(CooChannel, RowPtrInvalidatedByMutation) {
  auto ch = es::CooChannel::from_entries(4, 4, {{1, 1, 1.0f}});
  EXPECT_EQ(ch.row_span(2).size(), 0u);
  ch.accumulate(2, 3, 5.0f);
  const auto row2 = ch.row_span(2);
  ASSERT_EQ(row2.size(), 1u);
  EXPECT_FLOAT_EQ(row2[0].value, 5.0f);
}

TEST(CooChannel, FromSortedEntriesAdoptsVerbatim) {
  std::vector<es::CooEntry> entries{{0, 1, 1.0f}, {2, 0, -2.0f}};
  auto ch = es::CooChannel::from_sorted_entries(4, 4, entries);
  EXPECT_EQ(ch.nnz(), 2u);
  EXPECT_FLOAT_EQ(ch.at(2, 0), -2.0f);
  EXPECT_NO_THROW(ch.validate());
}

// ------------------------------------------- randomized parity suite

namespace {

// Random sparse channels at roughly `density` over an h x w extent.
std::vector<es::CooChannel> random_parity_channels(int channels, int h, int w,
                                                   double density,
                                                   std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<float> val(-2.0f, 2.0f);
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  std::vector<es::CooChannel> out;
  for (int c = 0; c < channels; ++c) {
    std::vector<es::CooEntry> entries;
    for (int y = 0; y < h; ++y) {
      for (int x = 0; x < w; ++x) {
        if (coin(rng) < density) entries.push_back({y, x, val(rng)});
      }
    }
    out.push_back(es::CooChannel::from_entries(h, w, std::move(entries)));
  }
  return out;
}

// True when two dense tensors have the same shape and the same bytes.
bool same_bytes(const es::DenseTensor& a, const es::DenseTensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.raw(), b.raw(), a.size() * sizeof(float)) == 0;
}

// Channel-wise bitwise equality of two sparse samples.
void expect_samples_bitwise_equal(const es::SparseSample& a,
                                  const es::SparseSample& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t c = 0; c < a.size(); ++c) {
    EXPECT_EQ(a[c].entries(), b[c].entries()) << "channel " << c;
  }
}

}  // namespace

// (kernel, stride, padding, density-mille) sweeps pinning the fast
// kernels against the seed reference implementations.
class KernelParity
    : public ::testing::TestWithParam<std::tuple<int, int, int, int>> {};

TEST_P(KernelParity, SparseConvMatchesReference) {
  const auto [kernel, stride, padding, dmille] = GetParam();
  const double density = dmille / 1000.0;
  const es::Conv2dSpec spec{3, 5, kernel, stride, padding};
  if (18 + 2 * padding < kernel) GTEST_SKIP();
  const auto input = random_parity_channels(3, 18, 22, density, 1234);
  es::DenseTensor w(es::TensorShape{5, 3, kernel, kernel});
  w.fill_random(7, 0.5f);
  const std::vector<float> bias{0.1f, -0.2f, 0.3f, -0.4f, 0.5f};

  es::ConvWork work_fast, work_ref;
  const auto fast = es::sparse_conv2d(input, w, bias, spec, &work_fast);
  const auto ref =
      es::reference::sparse_conv2d(input, w, bias, spec, &work_ref);
  EXPECT_LT(es::max_abs_diff(fast, ref), 1e-4f);
  EXPECT_EQ(work_fast.sparse_macs, work_ref.sparse_macs);
  EXPECT_EQ(work_fast.dense_macs, work_ref.dense_macs);
  EXPECT_EQ(work_fast.nnz_in, work_ref.nnz_in);
}

TEST_P(KernelParity, DenseConvBothPathsMatchReference) {
  const auto [kernel, stride, padding, dmille] = GetParam();
  const double density = dmille / 1000.0;
  const es::Conv2dSpec spec{3, 4, kernel, stride, padding};
  if (18 + 2 * padding < kernel) GTEST_SKIP();
  es::DenseTensor input(es::TensorShape{2, 3, 18, 22});
  input.fill_random(55);
  // Sparsify to the requested density so zero-skip paths are exercised.
  std::mt19937_64 rng(56);
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  for (float& v : input.data()) {
    if (coin(rng) >= density) v = 0.0f;
  }
  es::DenseTensor w(es::TensorShape{4, 3, kernel, kernel});
  w.fill_random(57, 0.5f);
  const std::vector<float> bias{0.5f, -0.5f, 0.25f, -0.25f};

  const auto ref = es::reference::conv2d(input, w, bias, spec);
  const auto direct = evedge::nn::conv2d_direct(input, w, bias, spec);
  const auto gemm = evedge::nn::conv2d_gemm(input, w, bias, spec);
  EXPECT_LT(es::max_abs_diff(direct, ref), 1e-4f);
  EXPECT_LT(es::max_abs_diff(gemm, ref), 1e-4f);
  EXPECT_LT(es::max_abs_diff(evedge::nn::conv2d(input, w, bias, spec), ref),
            1e-4f);
  // Both paths sum (ic, ky, kx) ascending from the bias: same bytes.
  EXPECT_TRUE(same_bytes(gemm, direct));
}

// The GEMM path's row tiles at shapes that span several of them (the
// column tile holds 2^16 floats): bytewise equal to the direct path.
TEST(DenseConvTiles, GemmMatchesDirectBitwiseAcrossRowTiles) {
  for (const es::TensorShape& shape :
       {es::TensorShape{1, 16, 96, 128}, es::TensorShape{1, 2, 260, 346}}) {
    const es::Conv2dSpec spec{shape.c, 16, 3, 1, 1};
    ASSERT_TRUE(evedge::nn::conv2d_uses_gemm(shape, spec));
    es::DenseTensor input(shape);
    input.fill_random(61);
    es::DenseTensor w(es::TensorShape{16, shape.c, 3, 3});
    w.fill_random(62, 0.3f);
    std::vector<float> bias(16);
    for (std::size_t i = 0; i < bias.size(); ++i) {
      bias[i] = 0.05f * static_cast<float>(i) - 0.4f;
    }
    es::Workspace ws;
    const auto gemm = evedge::nn::conv2d_gemm(input, w, bias, spec, &ws);
    EXPECT_TRUE(
        same_bytes(gemm, evedge::nn::conv2d_direct(input, w, bias, spec)))
        << shape.c << "x" << shape.h << "x" << shape.w;
    // A reused workspace gives the same bytes again.
    EXPECT_TRUE(same_bytes(gemm,
                           evedge::nn::conv2d_gemm(input, w, bias, spec, &ws)));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, KernelParity,
    ::testing::Values(std::make_tuple(1, 1, 0, 50),
                      std::make_tuple(3, 1, 1, 10),
                      std::make_tuple(3, 1, 1, 200),
                      std::make_tuple(3, 2, 1, 50),
                      std::make_tuple(5, 1, 2, 50),
                      std::make_tuple(5, 2, 2, 100),
                      std::make_tuple(7, 1, 3, 30),
                      std::make_tuple(7, 4, 3, 50)));

// ------------------------------------------ ConvWork MAC accounting

TEST(ConvWork, StrideOneCsrMacInvariants) {
  const es::Conv2dSpec spec{2, 8, 3, 1, 1};
  const auto input = random_parity_channels(2, 16, 16, 0.1, 99);
  es::DenseTensor w(es::TensorShape{8, 2, 3, 3});
  w.fill_random(98, 0.5f);
  es::ConvWork work;
  (void)es::sparse_conv2d_csr(input, w, {}, spec, &work);
  std::size_t nnz = 0;
  for (const auto& ch : input) nnz += ch.nnz();
  EXPECT_EQ(work.nnz_in, nnz);
  // Every stored non-zero reaches at most k*k output sites, each MAC
  // replicated across the 8 output channels.
  EXPECT_LE(work.sparse_macs, nnz * 9u * 8u);
  // dense_macs is the full H*W*Cout*Cin*k*k loop nest.
  EXPECT_EQ(work.dense_macs, 16u * 16u * 8u * 2u * 9u);
  EXPECT_LE(work.sparse_macs, work.dense_macs);
  // sparse_macs must count at least the self-tap of every non-zero.
  EXPECT_GE(work.sparse_macs, nnz * 8u);
  // Exactly the seed scatter's count: one MAC per in-bounds tap and
  // output channel.
  es::ConvWork ref;
  (void)es::reference::sparse_conv2d(input, w, {}, spec, &ref);
  EXPECT_EQ(work.sparse_macs, ref.sparse_macs);
}

TEST(ConvWork, SparseConvMacInvariants) {
  const es::Conv2dSpec spec{2, 4, 3, 2, 1};
  const auto input = random_parity_channels(2, 16, 16, 0.1, 101);
  es::DenseTensor w(es::TensorShape{4, 2, 3, 3});
  w.fill_random(102, 0.5f);
  es::ConvWork work;
  (void)es::sparse_conv2d(input, w, {}, spec, &work);
  std::size_t nnz = 0;
  for (const auto& ch : input) nnz += ch.nnz();
  EXPECT_EQ(work.nnz_in, nnz);
  EXPECT_LE(work.sparse_macs, nnz * 9u * 4u);
  EXPECT_GT(work.sparse_macs, 0u);
  // Accumulating across calls adds, never resets.
  es::ConvWork twice = work;
  (void)es::sparse_conv2d(input, w, {}, spec, &twice);
  EXPECT_EQ(twice.sparse_macs, 2 * work.sparse_macs);
  EXPECT_EQ(twice.dense_macs, 2 * work.dense_macs);
}

// ------------------------------------------------------- parallel_for

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  for (const int threads : {1, 2, 3, 8}) {
    std::vector<int> hits(257, 0);
    evedge::core::parallel_for(
        0, 257, [&](int i) { ++hits[static_cast<std::size_t>(i)]; }, threads);
    for (int h : hits) EXPECT_EQ(h, 1);
  }
}

TEST(ParallelFor, DeterministicAcrossThreadCounts) {
  // Kernels parallelize over disjoint output slices; emulate that shape
  // and require bitwise-identical results for any worker count.
  const int n = 1000;
  std::vector<double> serial(static_cast<std::size_t>(n));
  evedge::core::parallel_for(
      0, n,
      [&](int i) {
        serial[static_cast<std::size_t>(i)] = std::sqrt(i * 1.000001);
      },
      1);
  for (const int threads : {2, 5, 16}) {
    std::vector<double> parallel(static_cast<std::size_t>(n));
    evedge::core::parallel_for(
        0, n,
        [&](int i) {
          parallel[static_cast<std::size_t>(i)] = std::sqrt(i * 1.000001);
        },
        threads);
    EXPECT_EQ(parallel, serial);
  }
}

TEST(ParallelFor, EmptyAndSingleRanges) {
  int count = 0;
  evedge::core::parallel_for(3, 3, [&](int) { ++count; });
  EXPECT_EQ(count, 0);
  evedge::core::parallel_for(5, 6, [&](int i) { count += i; });
  EXPECT_EQ(count, 5);
}

// Threaded conv must equal single-threaded conv bit-for-bit.
// parallel_thread_count() re-reads EVEDGE_THREADS on every call, so the
// worker count genuinely varies between these runs.
TEST(ParallelFor, ConvResultsThreadCountInvariant) {
  const es::Conv2dSpec spec{3, 8, 3, 1, 1};
  es::DenseTensor input(es::TensorShape{1, 3, 32, 32});
  input.fill_random(5);
  es::DenseTensor w(es::TensorShape{8, 3, 3, 3});
  w.fill_random(6, 0.4f);
  // A decoder-style transposed conv: 4 phases of 16 rows each.
  const es::Conv2dSpec tspec{8, 6, 4, 2, 1};
  es::DenseTensor tinput(es::TensorShape{1, 8, 16, 16});
  tinput.fill_random(7);
  es::DenseTensor tw(es::TensorShape{6, 8, 4, 4});
  tw.fill_random(8, 0.4f);
  const std::vector<float> tbias{0.1f, -0.2f, 0.3f, -0.4f, 0.5f, -0.6f};
  // The gather kernels (COO sink, row sink, int8) on Adaptive-SpikeNet's
  // res1 plane: 128 channels on 16x22, fewer 64-site ranges than 7
  // workers, and 300 channels, past the stack accumulator row.
  struct Gather {
    es::Conv2dSpec spec;
    es::DenseTensor w;
    std::vector<float> packed;
    eq::Int8ConvWeights q;
    es::SparseSample csr;
    es::DenseTensor rows;
    es::SparseSample int8;
  };
  const auto ginput = random_parity_channels(128, 16, 22, 0.04, 9);
  const eq::Int8Scale s_x = eq::Int8Scale::for_range(2.0f);
  std::vector<Gather> gathers;
  for (const int out_channels : {128, 300}) {
    Gather g;
    g.spec = es::Conv2dSpec{128, out_channels, 3, 1, 1};
    g.w = es::DenseTensor(es::TensorShape{out_channels, 128, 3, 3});
    g.w.fill_random(10 + static_cast<std::uint64_t>(out_channels), 0.2f);
    es::pack_conv_weights(g.w, g.packed);
    g.q = eq::quantize_conv_weights(g.w, g.spec);
    gathers.push_back(std::move(g));
  }
  const auto run_gathers = [&](const Gather& g, es::SparseSample& csr,
                               es::DenseTensor& rows, es::SparseSample& int8) {
    csr = es::sparse_conv2d_csr(ginput, g.w, {}, g.spec, nullptr, nullptr,
                                g.packed);
    es::sparse_conv2d_csr_rows(ginput, g.w, {}, g.spec, rows, nullptr,
                               nullptr, g.packed);
    int8 = eq::int8_sparse_conv2d_csr(ginput, g.q, {}, s_x);
  };
  const char* saved = std::getenv("EVEDGE_THREADS");
  const std::string saved_value = saved != nullptr ? saved : "";
  ASSERT_EQ(setenv("EVEDGE_THREADS", "1", 1), 0);
  const auto serial = evedge::nn::conv2d_gemm(input, w, {}, spec);
  const auto tserial = evedge::nn::transposed_conv2d(tinput, tw, tbias, tspec);
  for (Gather& g : gathers) run_gathers(g, g.csr, g.rows, g.int8);
  for (const char* threads : {"2", "3", "7"}) {
    ASSERT_EQ(setenv("EVEDGE_THREADS", threads, 1), 0);
    EXPECT_EQ(evedge::core::parallel_thread_count(), std::atoi(threads));
    const auto parallel = evedge::nn::conv2d_gemm(input, w, {}, spec);
    EXPECT_TRUE(same_bytes(parallel, serial))
        << "conv2d_gemm diverged at EVEDGE_THREADS=" << threads;
    EXPECT_TRUE(same_bytes(
        evedge::nn::transposed_conv2d(tinput, tw, tbias, tspec), tserial))
        << "transposed_conv2d diverged at EVEDGE_THREADS=" << threads;
    for (const Gather& g : gathers) {
      SCOPED_TRACE("gather to " + std::to_string(g.spec.out_channels) +
                   " channels at EVEDGE_THREADS=" + threads);
      es::SparseSample csr;
      es::DenseTensor rows;
      es::SparseSample int8;
      run_gathers(g, csr, rows, int8);
      expect_samples_bitwise_equal(csr, g.csr);
      EXPECT_TRUE(same_bytes(rows, g.rows));
      expect_samples_bitwise_equal(int8, g.int8);
    }
  }
  if (saved != nullptr) {
    setenv("EVEDGE_THREADS", saved_value.c_str(), 1);
  } else {
    unsetenv("EVEDGE_THREADS");
  }
}

// A throw inside a parallel_for body must propagate to the caller (not
// std::terminate) and every thread must be joined first.
TEST(ParallelFor, PropagatesBodyExceptions) {
  EXPECT_THROW(
      evedge::core::parallel_for(
          0, 64,
          [](int i) {
            if (i == 37) throw std::runtime_error("boom");
          },
          4),
      std::runtime_error);
}

// ----------------------------- CSR-output and batched kernel parity

// (kernel, stride, padding, density-mille) sweep: the CSR-output strided
// conv must match the seed reference scatter (<= 1e-4) and be bitwise
// identical to the fast dense scatter at every stored site.
class CsrParity
    : public ::testing::TestWithParam<std::tuple<int, int, int, int>> {};

TEST_P(CsrParity, CsrMatchesReferenceAndScatter) {
  const auto [kernel, stride, padding, dmille] = GetParam();
  const double density = dmille / 1000.0;
  const es::Conv2dSpec spec{3, 5, kernel, stride, padding};
  if (18 + 2 * padding < kernel) GTEST_SKIP();
  const auto input = random_parity_channels(3, 18, 22, density, 4321);
  es::DenseTensor w(es::TensorShape{5, 3, kernel, kernel});
  w.fill_random(9, 0.5f);

  es::ConvWork work_csr, work_ref;
  const auto csr = es::sparse_conv2d_csr(input, w, {}, spec, &work_csr);
  for (const es::CooChannel& ch : csr) {
    EXPECT_NO_THROW(ch.validate());
  }
  const auto csr_dense = es::channels_to_dense(csr);
  EXPECT_LT(es::max_abs_diff(
                csr_dense, es::reference::sparse_conv2d(input, w, {}, spec,
                                                        &work_ref)),
            1e-4f);
  // Same tap visit order as the fast scatter: bitwise equal, not just
  // close.
  EXPECT_EQ(es::max_abs_diff(csr_dense,
                             es::sparse_conv2d(input, w, {}, spec)),
            0.0f);
  EXPECT_EQ(work_csr.dense_macs, work_ref.dense_macs);
  EXPECT_EQ(work_csr.nnz_in, work_ref.nnz_in);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CsrParity,
    ::testing::Values(std::make_tuple(1, 1, 0, 50),
                      std::make_tuple(3, 1, 1, 10),
                      std::make_tuple(3, 2, 1, 50),
                      std::make_tuple(3, 2, 0, 200),
                      std::make_tuple(3, 3, 1, 100),
                      std::make_tuple(5, 2, 2, 100),
                      std::make_tuple(7, 4, 3, 50)));

// Bias semantics: the CSR variant adds bias at active sites only, and
// matches the dense scatter exactly there; sites it leaves implicit hold
// exactly the bias value in the dense output.
TEST(SparseCsr, BiasAppliesAtActiveSitesOnly) {
  const es::Conv2dSpec spec{2, 3, 3, 2, 1};
  const auto input = random_parity_channels(2, 18, 22, 0.05, 99);
  es::DenseTensor w(es::TensorShape{3, 2, 3, 3});
  w.fill_random(11, 0.5f);
  const std::vector<float> bias{0.25f, -0.5f, 1.0f};

  const auto csr = es::sparse_conv2d_csr(input, w, bias, spec);
  const auto dense = es::sparse_conv2d(input, w, bias, spec);
  const auto no_bias = es::sparse_conv2d_csr(input, w, {}, spec);
  for (std::size_t c = 0; c < csr.size(); ++c) {
    for (const es::CooEntry& e : csr[c].entries()) {
      EXPECT_EQ(e.value, dense.at(0, static_cast<int>(c), e.row, e.col));
    }
    // Every reached site appears in the no-bias active set, so anything
    // absent from it must carry the pure bias value in the dense output.
    for (int y = 0; y < no_bias[c].height(); ++y) {
      for (int x = 0; x < no_bias[c].width(); ++x) {
        const bool reached =
            std::any_of(no_bias[c].entries().begin(),
                        no_bias[c].entries().end(),
                        [&](const es::CooEntry& e) {
                          return e.row == y && e.col == x;
                        });
        if (!reached && csr[c].at(y, x) == 0.0f) {
          EXPECT_EQ(dense.at(0, static_cast<int>(c), y, x), bias[c]);
        }
      }
    }
  }
}

// ----------------------------------------------------- Workspace arena

TEST(Workspace, ReuseIsStableAndStopsGrowing) {
  const es::Conv2dSpec spec{2, 8, 3, 1, 1};
  const auto input = random_parity_channels(2, 30, 34, 0.05, 777);
  es::DenseTensor w(es::TensorShape{8, 2, 3, 3});
  w.fill_random(51, 0.5f);

  es::Workspace ws;
  const auto first = es::sparse_conv2d_csr(input, w, {}, spec, nullptr, &ws);
  const std::size_t warm_bytes = ws.retained_bytes();
  EXPECT_GT(warm_bytes, 0u);
  for (int i = 0; i < 3; ++i) {
    const auto again =
        es::sparse_conv2d_csr(input, w, {}, spec, nullptr, &ws);
    expect_samples_bitwise_equal(first, again);
  }
  // Steady state: repeated identical calls allocate no new scratch.
  EXPECT_EQ(ws.retained_bytes(), warm_bytes);

  ws.clear();
  EXPECT_EQ(ws.retained_bytes(), 0u);
  const auto after_clear =
      es::sparse_conv2d_csr(input, w, {}, spec, nullptr, &ws);
  expect_samples_bitwise_equal(first, after_clear);
}
