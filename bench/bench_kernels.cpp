// Kernel micro-benchmark: times the seed reference kernels
// (sparse::reference) against the rewritten fast paths on identical
// inputs — dense conv2d (direct + GEMM), transposed_conv2d,
// sparse_conv2d and sparse_conv2d_csr at DAVIS346-scale shapes across
// event densities, the spiking layers' site-major synaptic current and
// LIF step — and writes machine-readable results to
// BENCH_kernels.json so the perf trajectory is tracked across changes.
// Parity (max abs diff vs the reference) is reported alongside every
// timing.
//
// Usage: bench_kernels [output.json]

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/parallel.hpp"
#include "nn/kernels.hpp"
#include "nn/lif.hpp"
#include "sparse/reference.hpp"
#include "sparse/sparse_ops.hpp"
#include "sparse/tensor.hpp"

namespace es = evedge::sparse;
namespace en = evedge::nn;
using evedge::bench::time_best_ms;

namespace {

struct Result {
  std::string kernel;
  std::string shape;
  double density = 1.0;
  double ref_ms = 0.0;
  double fast_ms = 0.0;
  double max_abs_diff = 0.0;
  double macs = 0.0;  ///< dense-equivalent MACs per call (0 = not shown)

  [[nodiscard]] double speedup() const {
    return fast_ms > 0.0 ? ref_ms / fast_ms : 0.0;
  }
};

std::vector<es::CooChannel> random_channels(int channels, int h, int w,
                                            double density,
                                            std::uint64_t seed) {
  es::DenseTensor dense(es::TensorShape{1, channels, h, w});
  dense.fill_random(seed);
  // Keep roughly `density` of the elements, deterministically.
  const auto keep_every =
      density > 0.0 ? static_cast<std::size_t>(1.0 / density) : dense.size();
  std::size_t i = 0;
  for (float& v : dense.data()) {
    if (i++ % keep_every != 0) v = 0.0f;
  }
  return es::dense_to_channels(dense);
}

Result bench_dense_conv(const std::string& label, const es::TensorShape& in,
                        int out_channels, int kernel, int stride, int padding,
                        int ref_reps, int fast_reps) {
  const es::Conv2dSpec spec{in.c, out_channels, kernel, stride, padding};
  es::DenseTensor input(in);
  input.fill_random(11);
  es::DenseTensor weights(
      es::TensorShape{out_channels, in.c, kernel, kernel});
  weights.fill_random(12, 0.2f);
  std::vector<float> bias(static_cast<std::size_t>(out_channels), 0.05f);

  Result r;
  r.kernel = std::string("conv2d_") +
             (en::conv2d_uses_gemm(in, spec) ? "gemm" : "direct");
  r.shape = label;
  r.ref_ms = time_best_ms(
      [&] { (void)es::reference::conv2d(input, weights, bias, spec); },
      ref_reps);
  r.fast_ms = time_best_ms([&] { (void)en::conv2d(input, weights, bias, spec); },
                      fast_reps);
  r.max_abs_diff = es::max_abs_diff(
      en::conv2d(input, weights, bias, spec),
      es::reference::conv2d(input, weights, bias, spec));
  return r;
}

/// Transposed conv k4 s2 p1 (SpikeFlowNet's decoder geometry): the seed
/// scatter against the phase-split GEMM kernel on a post-ReLU input (the
/// scatter skips its zeros). MACs count every input pixel through all
/// k x k taps, the dense-equivalent work of both.
Result bench_tconv(const std::string& label, const es::TensorShape& in,
                   int out_channels, int ref_reps, int fast_reps) {
  const es::Conv2dSpec spec{in.c, out_channels, 4, 2, 1};
  es::DenseTensor input(in);
  input.fill_random(41);
  for (float& v : input.data()) v = std::max(v, 0.0f);
  es::DenseTensor weights(es::TensorShape{out_channels, in.c, 4, 4});
  weights.fill_random(42, 0.2f);
  std::vector<float> bias(static_cast<std::size_t>(out_channels), 0.05f);
  es::Workspace ws;
  es::DenseTensor out;

  Result r;
  r.kernel = "transposed_conv2d";
  r.shape = label;
  r.macs = static_cast<double>(in.element_count()) * out_channels * 16.0;
  r.ref_ms = time_best_ms(
      [&] {
        (void)es::reference::transposed_conv2d(input, weights, bias, spec);
      },
      ref_reps);
  r.fast_ms = time_best_ms(
      [&] {
        en::transposed_conv2d_into(input, weights, bias, spec, out, &ws);
      },
      fast_reps);
  r.max_abs_diff = es::max_abs_diff(
      en::transposed_conv2d(input, weights, bias, spec),
      es::reference::transposed_conv2d(input, weights, bias, spec));
  return r;
}

Result bench_sparse_conv(const std::string& label, int h, int w,
                         int in_channels, int out_channels, int kernel,
                         int stride, int padding, double density,
                         int ref_reps, int fast_reps) {
  const es::Conv2dSpec spec{in_channels, out_channels, kernel, stride,
                            padding};
  const auto input = random_channels(in_channels, h, w, density, 21);
  es::DenseTensor weights(
      es::TensorShape{out_channels, in_channels, kernel, kernel});
  weights.fill_random(22, 0.2f);
  std::vector<float> bias(static_cast<std::size_t>(out_channels), 0.05f);

  Result r;
  r.kernel = "sparse_conv2d";
  r.shape = label;
  r.density = density;
  r.ref_ms = time_best_ms(
      [&] { (void)es::reference::sparse_conv2d(input, weights, bias, spec); },
      ref_reps);
  r.fast_ms = time_best_ms(
      [&] { (void)es::sparse_conv2d(input, weights, bias, spec); },
      fast_reps);
  r.max_abs_diff =
      es::max_abs_diff(es::sparse_conv2d(input, weights, bias, spec),
                       es::reference::sparse_conv2d(input, weights, bias,
                                                    spec));
  return r;
}

/// CSR-output sparse conv vs the seed path a sparse consumer
/// needs: dense-output scatter followed by the dense_to_channels
/// re-encode (the round-trip CSR chaining removes).
Result bench_sparse_csr(const std::string& label, int h, int w,
                        int in_channels, int out_channels, int kernel,
                        int stride, int padding, double density, int ref_reps,
                        int fast_reps) {
  const es::Conv2dSpec spec{in_channels, out_channels, kernel, stride,
                            padding};
  const auto input = random_channels(in_channels, h, w, density, 21);
  es::DenseTensor weights(
      es::TensorShape{out_channels, in_channels, kernel, kernel});
  weights.fill_random(22, 0.2f);
  es::Workspace ws;

  Result r;
  r.kernel = "sparse_conv2d_csr";
  r.shape = label;
  r.density = density;
  r.ref_ms = time_best_ms(
      [&] {
        (void)es::dense_to_channels(
            es::reference::sparse_conv2d(input, weights, {}, spec));
      },
      ref_reps);
  r.fast_ms = time_best_ms(
      [&] { (void)es::sparse_conv2d_csr(input, weights, {}, spec, nullptr,
                                        &ws); },
      fast_reps);
  r.max_abs_diff = es::max_abs_diff(
      es::channels_to_dense(
          es::sparse_conv2d_csr(input, weights, {}, spec, nullptr, &ws)),
      es::reference::sparse_conv2d(input, weights, {}, spec));
  return r;
}

/// A spiking layer's synaptic current on the scatter route: the
/// channel-major scatter (sparse_conv2d, [C, H, W]) against the
/// site-major one the engine runs (sparse_conv2d_rows, [H, W, C], with
/// weights packed once as the engine packs them). Parity compares the
/// channel-major result transposed into rows.
Result bench_spiking_current(const std::string& label, int h, int w,
                             int in_channels, int out_channels, int kernel,
                             int stride, int padding, double density,
                             int ref_reps, int fast_reps) {
  const es::Conv2dSpec spec{in_channels, out_channels, kernel, stride,
                            padding};
  const auto input = random_channels(in_channels, h, w, density, 51);
  es::DenseTensor weights(
      es::TensorShape{out_channels, in_channels, kernel, kernel});
  weights.fill_random(52, 0.2f);
  std::vector<float> packed;
  es::pack_conv_weights(weights, packed);
  es::DenseTensor rows;

  Result r;
  r.kernel = "spiking_current";
  r.shape = label;
  r.density = density;
  r.ref_ms = time_best_ms(
      [&] { (void)es::sparse_conv2d(input, weights, {}, spec); }, ref_reps);
  r.fast_ms = time_best_ms(
      [&] {
        es::sparse_conv2d_rows(input, weights, {}, spec, packed, rows);
      },
      fast_reps);
  es::DenseTensor want;
  es::to_site_major(es::sparse_conv2d(input, weights, {}, spec), want);
  r.max_abs_diff = es::max_abs_diff(rows, want);
  return r;
}

/// One LIF step of a spiking layer: the channel-major oracle
/// (reference::lif_step, a spike tensor allocated per call) against
/// LifState's site-major step into a persistent spike buffer, as the
/// engine runs it. Per-channel leak and threshold around the benchmark
/// networks' 0.44 threshold, and a current that keeps about 5% of the
/// sites firing (the benchmark networks' layers fire 1-5%). Parity
/// steps fresh states 5 times and compares spikes and membranes.
Result bench_lif(const std::string& label, const es::TensorShape& shape,
                 int ref_reps, int fast_reps) {
  std::vector<float> leak(static_cast<std::size_t>(shape.c));
  std::vector<float> vth(leak.size());
  for (std::size_t c = 0; c < leak.size(); ++c) {
    leak[c] = 0.75f + 0.02f * static_cast<float>(c % 10);
    vth[c] = 0.35f + 0.02f * static_cast<float>(c % 8);
  }
  es::DenseTensor current(shape);
  current.fill_random(61, 0.16f);
  es::DenseTensor current_rows;
  es::to_site_major(current, current_rows);
  const en::LifParams params{0.85f, 0.44f, true};

  Result r;
  r.kernel = "lif_step";
  r.shape = label;
  es::DenseTensor membrane(shape);
  std::uint64_t fired = 0;
  r.ref_ms = time_best_ms(
      [&] {
        (void)es::reference::lif_step(membrane, current, leak, vth,
                                      params.soft_reset, fired);
      },
      ref_reps);
  en::LifState lif(shape, params, leak, vth);
  es::DenseTensor spikes;
  r.fast_ms = time_best_ms([&] { lif.step_sites(current_rows, spikes); },
                           fast_reps);
  r.density = lif.mean_firing_rate();

  es::DenseTensor oracle_membrane(shape);
  en::LifState fresh(shape, params, leak, vth);
  double diff = 0.0;
  for (int t = 0; t < 5; ++t) {
    const es::DenseTensor want = es::reference::lif_step(
        oracle_membrane, current, leak, vth, params.soft_reset, fired);
    fresh.step_sites(current_rows, spikes);
    es::DenseTensor want_rows;
    es::to_site_major(oracle_membrane, want_rows);
    diff = std::max<double>(diff, es::max_abs_diff(spikes, want));
    diff = std::max<double>(diff, es::max_abs_diff(fresh.membrane(), want_rows));
  }
  r.max_abs_diff = diff;
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
                 "\"speedup\": %.2f, \"max_abs_diff\": %.3g}%s\n",
                 r.kernel.c_str(), r.shape.c_str(), r.density, r.ref_ms,
                 r.fast_ms, r.speedup(), r.max_abs_diff,
                 i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("\nwrote %s\n", path.c_str());
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_kernels.json";
  std::vector<Result> results;

  std::printf("kernel benchmark (threads=%d)\n",
              evedge::core::parallel_thread_count());
  std::printf("%-22s %-26s %8s %10s %10s %9s %12s\n", "kernel", "shape",
              "density", "ref_ms", "fast_ms", "speedup", "max_diff");

  const auto report = [&](Result r) {
    std::printf("%-22s %-26s %8.4f %10.3f %10.3f %8.1fx %12.3g",
                r.kernel.c_str(), r.shape.c_str(), r.density, r.ref_ms,
                r.fast_ms, r.speedup(), r.max_abs_diff);
    if (r.macs > 0.0) {
      std::printf("   GMAC/s ref %.2f fast %.2f", r.macs / (r.ref_ms * 1e6),
                  r.macs / (r.fast_ms * 1e6));
    }
    std::printf("\n");
    std::fflush(stdout);
    results.push_back(std::move(r));
  };

  // --- Dense conv at zoo bench_scale() shapes (64x88 base, 16 channels)
  // and at DAVIS346 input scale (2-channel event frame -> first layer).
  report(bench_dense_conv("16x64x88 -> 32 k3s1",
                          es::TensorShape{1, 16, 64, 88}, 32, 3, 1, 1, 3, 9));
  report(bench_dense_conv("32x32x44 -> 64 k3s2",
                          es::TensorShape{1, 32, 32, 44}, 64, 3, 2, 1, 3, 9));
  report(bench_dense_conv("2x260x346 -> 16 k3s1",
                          es::TensorShape{1, 2, 260, 346}, 16, 3, 1, 1, 3, 9));
  report(bench_dense_conv("16x16x22 -> 32 k1s1 (direct)",
                          es::TensorShape{1, 16, 16, 22}, 32, 1, 1, 0, 5, 15));

  // --- Transposed conv at two of SpikeFlowNet's benchmark-scale decoder
  // shapes (dec1 and dec3).
  report(bench_tconv("32x48x64 -> 16 k4s2", es::TensorShape{1, 32, 48, 64},
                     16, 3, 9));
  report(bench_tconv("128x12x16 -> 32 k4s2",
                     es::TensorShape{1, 128, 12, 16}, 32, 3, 9));

  // --- Sparse scatter conv at DAVIS346 scale across densities.
  for (const double d : {0.005, 0.01, 0.02, 0.05}) {
    report(bench_sparse_conv("2x260x346 -> 16 k3s2", 260, 346, 2, 16, 3, 2, 1,
                             d, 3, 9));
  }

  // --- CSR-output strided sparse conv (the densify-free chain link).
  for (const double d : {0.005, 0.02, 0.05}) {
    report(bench_sparse_csr("2x260x346 -> 16 k3s2", 260, 346, 2, 16, 3, 2, 1,
                            d, 3, 9));
  }
  // --- CSR sparse conv at stride 1: a wide mid-pyramid shape, and
  // Adaptive-SpikeNet res1's served shape (128 channels on a 16x22
  // plane, ~4% firing), where the gather reduction does the work.
  report(bench_sparse_csr("16x130x173 -> 32 k3s1", 130, 173, 16, 32, 3, 1, 1,
                          0.02, 3, 9));
  report(bench_sparse_csr("128x16x22 -> 128 k3s1", 16, 22, 128, 128, 3, 1, 1,
                          0.04, 3, 31));

  // --- Spiking layers, site-major: Adaptive-SpikeNet enc2's synaptic
  // current (16 -> 32 k3 s2 on enc1's 128x176 spikes, ~4% firing) and
  // the LIF step at enc1's shape and DOTIE's.
  report(bench_spiking_current("16x128x176 -> 32 k3s2", 128, 176, 16, 32, 3,
                               2, 1, 0.04, 3, 31));
  report(bench_lif("16@128x176", es::TensorShape{1, 16, 128, 176}, 5, 15));
  report(bench_lif("1@256x352", es::TensorShape{1, 1, 256, 352}, 5, 15));

  const bool wrote = write_json(results, out_path);

  // Exit non-zero if any fast path diverged from the reference: the bench
  // doubles as a cheap numerical smoke test in CI.
  for (const Result& r : results) {
    if (r.max_abs_diff > 1e-3) {
      std::fprintf(stderr, "parity failure: %s %s diff=%g\n",
                   r.kernel.c_str(), r.shape.c_str(), r.max_abs_diff);
      return 1;
    }
  }
  return wrote ? 0 : 1;
}
