// INT8 engine benchmark: times the real int8 kernels against FP32 on
// identical inputs at DAVIS346-scale shapes — dense im2col+GEMM convs
// across the encoder pyramid (against the fixed seed conv,
// sparse::reference::conv2d), the sparse gather kernels at event
// densities and the fully connected head (against the FP32 fast
// paths) — and writes
// BENCH_quant.json (gated by scripts/check_bench_regression.py like the
// kernel bench). The parity column is the max abs difference between the
// int8 kernel's dequantized output and the float fake-quant reference of
// the same quantization decisions; the bench exits non-zero when any
// record's parity exceeds one quantization step of its output (the
// subsystem's precision contract), so CI gets a numerical smoke test of
// the int8 backend for free.
//
// Usage: bench_quant [output.json]

#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/parallel.hpp"
#include "nn/kernels.hpp"
#include "quant/int8_kernels.hpp"
#include "quant/quantizer.hpp"
#include "sparse/reference.hpp"
#include "sparse/sparse_ops.hpp"
#include "sparse/tensor.hpp"

namespace eq = evedge::quant;
namespace en = evedge::nn;
namespace es = evedge::sparse;
using evedge::bench::time_best_ms;

namespace {

struct Result {
  std::string kernel;
  std::string shape;
  double density = 1.0;
  double ref_ms = 0.0;   ///< FP32 reference (seed kernel for dense rows)
  double fast_ms = 0.0;  ///< INT8 path
  double max_abs_diff = 0.0;  ///< int8 vs fake-quant float reference
  double step = 0.0;          ///< one quantization step of the output

  [[nodiscard]] double speedup() const {
    return fast_ms > 0.0 ? ref_ms / fast_ms : 0.0;
  }
};

es::DenseTensor random_tensor(const es::TensorShape& shape,
                              std::uint64_t seed, float range = 1.0f) {
  es::DenseTensor t(shape);
  t.fill_random(seed, range);
  return t;
}

es::DenseTensor sparsify(es::DenseTensor t, double density) {
  const auto keep_every =
      density > 0.0 ? static_cast<std::size_t>(1.0 / density) : t.size();
  std::size_t i = 0;
  for (float& v : t.data()) {
    if (i++ % keep_every != 0) v = 0.0f;
  }
  return t;
}

/// Dense conv: the fixed seed kernel sparse::reference::conv2d vs
/// int8_conv2d. The ratio's denominator is a kernel that never changes
/// (as in bench_kernels), so a faster FP32 conv2d cannot read as an
/// int8 regression.
Result bench_dense(const std::string& label, const es::TensorShape& in,
                   int out_channels, int kernel, int stride, int padding,
                   int ref_reps, int reps) {
  const es::Conv2dSpec spec{in.c, out_channels, kernel, stride, padding};
  const auto input = random_tensor(in, 11, 1.5f);
  const auto weights = random_tensor(
      {out_channels, in.c, kernel, kernel}, 12, 0.2f);
  const std::vector<float> bias(static_cast<std::size_t>(out_channels),
                                0.05f);
  const auto q = eq::quantize_conv_weights(weights, spec);
  const auto s_x = eq::Int8Scale::for_range(eq::max_abs(input.data()));
  es::Workspace ws_f;
  es::Workspace ws_i;

  Result r;
  r.kernel = "int8_conv2d_gemm";
  r.shape = label;
  r.ref_ms = time_best_ms(
      [&] { (void)es::reference::conv2d(input, weights, bias, spec); },
      ref_reps);
  r.fast_ms = time_best_ms(
      [&] { (void)eq::int8_conv2d(input, q, bias, s_x, &ws_i); }, reps);

  es::DenseTensor qin;
  eq::quantize_activations_reference(input, s_x, qin);
  const auto reference = en::conv2d(qin, q.fake, bias, spec, &ws_f);
  r.max_abs_diff = es::max_abs_diff(
      eq::int8_conv2d(input, q, bias, s_x, &ws_i), reference);
  r.step = eq::output_quant_step(reference);
  return r;
}

/// CSR sparse conv: FP32 vs int8.
Result bench_sparse_csr(const std::string& label, int h, int w,
                        int in_channels, int out_channels, int kernel,
                        int stride, int padding, double density, int reps) {
  const es::Conv2dSpec spec{in_channels, out_channels, kernel, stride,
                            padding};
  const auto dense_in = sparsify(
      random_tensor({1, in_channels, h, w}, 31, 1.5f), density);
  const auto input = es::dense_to_channels(dense_in);
  const auto weights = random_tensor(
      {out_channels, in_channels, kernel, kernel}, 32, 0.2f);
  const auto q = eq::quantize_conv_weights(weights, spec);
  const auto s_x = eq::Int8Scale::for_range(eq::max_abs(dense_in.data()));
  es::Workspace ws_f;
  es::Workspace ws_i;

  Result r;
  r.kernel = "int8_sparse_csr";
  r.shape = label;
  r.density = density;
  r.ref_ms = time_best_ms(
      [&] {
        (void)es::sparse_conv2d_csr(input, weights, {}, spec, nullptr,
                                    &ws_f);
      },
      reps);
  r.fast_ms = time_best_ms(
      [&] {
        (void)eq::int8_sparse_conv2d_csr(input, q, {}, s_x, nullptr,
                                         &ws_i);
      },
      reps);

  es::DenseTensor qin;
  eq::quantize_activations_reference(dense_in, s_x, qin);
  const auto reference = es::channels_to_dense(es::sparse_conv2d_csr(
      es::dense_to_channels(qin), q.fake, {}, spec, nullptr, &ws_f));
  r.max_abs_diff = es::max_abs_diff(
      es::channels_to_dense(eq::int8_sparse_conv2d_csr(
          input, q, {}, s_x, nullptr, &ws_i)),
      reference);
  r.step = eq::output_quant_step(reference);
  return r;
}

/// Fully connected head: FP32 vs int8.
Result bench_fc(const std::string& label, const es::TensorShape& in,
                int out_features, int reps) {
  const auto features = static_cast<int>(in.element_count()) / in.n;
  const es::Conv2dSpec spec{features, out_features, 1, 1, 0};
  const auto input = random_tensor(in, 41, 1.0f);
  const auto weights = random_tensor({out_features, features, 1, 1}, 42,
                                     0.1f);
  const std::vector<float> bias(static_cast<std::size_t>(out_features),
                                0.01f);
  const auto q = eq::quantize_conv_weights(weights, spec);
  const auto s_x = eq::Int8Scale::for_range(eq::max_abs(input.data()));
  es::Workspace ws;

  Result r;
  r.kernel = "int8_fully_connected";
  r.shape = label;
  r.ref_ms = time_best_ms(
      [&] { (void)en::fully_connected(input, weights, bias); }, reps);
  r.fast_ms = time_best_ms(
      [&] { (void)eq::int8_fully_connected(input, q, bias, s_x, &ws); },
      reps);

  es::DenseTensor qin;
  eq::quantize_activations_reference(input, s_x, qin);
  const auto reference = en::fully_connected(qin, q.fake, bias);
  r.max_abs_diff = es::max_abs_diff(
      eq::int8_fully_connected(input, q, bias, s_x, &ws), reference);
  r.step = eq::output_quant_step(reference);
  return r;
}

[[nodiscard]] bool write_json(const std::vector<Result>& results,
                              const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return false;
  }
  std::fprintf(f, "{\n  \"threads\": %d,\n  \"results\": [\n",
               evedge::core::parallel_thread_count());
  for (std::size_t i = 0; i < results.size(); ++i) {
    const Result& r = results[i];
    std::fprintf(f,
                 "    {\"kernel\": \"%s\", \"shape\": \"%s\", "
                 "\"density\": %.4f, \"ref_ms\": %.4f, \"fast_ms\": %.4f, "
                 "\"speedup\": %.2f, \"max_abs_diff\": %.3g, "
                 "\"quant_step\": %.3g}%s\n",
                 r.kernel.c_str(), r.shape.c_str(), r.density, r.ref_ms,
                 r.fast_ms, r.speedup(), r.max_abs_diff, r.step,
                 i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("\nwrote %s\n", path.c_str());
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_quant.json";
  std::vector<Result> results;

  std::printf("int8 engine benchmark (threads=%d)\n",
              evedge::core::parallel_thread_count());
  std::printf("%-22s %-26s %8s %10s %10s %9s %12s\n", "kernel", "shape",
              "density", "fp32_ms", "int8_ms", "speedup", "diff/step");

  const auto report = [&](Result r) {
    std::printf("%-22s %-26s %8.4f %10.3f %10.3f %8.1fx %12.3g\n",
                r.kernel.c_str(), r.shape.c_str(), r.density, r.ref_ms,
                r.fast_ms, r.speedup(),
                r.step > 0.0 ? r.max_abs_diff / r.step : 0.0);
    std::fflush(stdout);
    results.push_back(std::move(r));
  };

  // --- Dense int8 GEMM across the DAVIS346 encoder pyramid: the event
  // input layer, the wide mid-pyramid layers and a strided downsample.
  report(bench_dense("2x260x346 -> 16 k3s1",
                     es::TensorShape{1, 2, 260, 346}, 16, 3, 1, 1, 3, 7));
  report(bench_dense("16x130x173 -> 32 k3s1",
                     es::TensorShape{1, 16, 130, 173}, 32, 3, 1, 1, 3, 7));
  report(bench_dense("32x65x87 -> 64 k3s1",
                     es::TensorShape{1, 32, 65, 87}, 64, 3, 1, 1, 3, 7));
  report(bench_dense("16x130x173 -> 32 k3s2",
                     es::TensorShape{1, 16, 130, 173}, 32, 3, 2, 1, 3, 7));

  // --- Sparse int8 gather kernels at event densities.
  for (const double d : {0.02, 0.05}) {
    report(bench_sparse_csr("16x130x173 -> 32 k3s1", 130, 173, 16, 32, 3, 1,
                            1, d, 7));
  }
  report(bench_sparse_csr("16x260x346 -> 32 k3s2", 260, 346, 16, 32, 3, 2,
                          1, 0.02, 5));

  // --- Fully connected head.
  report(bench_fc("64x16x22 -> 128", es::TensorShape{1, 64, 16, 22}, 128,
                  9));

  const bool wrote = write_json(results, out_path);

  // Precision contract: every record must stay within one quantization
  // step of its fake-quant reference.
  for (const Result& r : results) {
    if (r.max_abs_diff > r.step + 1e-6) {
      std::fprintf(stderr, "parity failure: %s %s diff=%g step=%g\n",
                   r.kernel.c_str(), r.shape.c_str(), r.max_abs_diff,
                   r.step);
      return 1;
    }
  }
  return wrote ? 0 : 1;
}
