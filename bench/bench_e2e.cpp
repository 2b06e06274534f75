// End-to-end sparse-network execution benchmark: times two execution
// strategies for a 3-sparse-layer network (CSR conv -> strided sparse
// conv -> CSR conv) at DAVIS346 scale across event densities, over a
// DSFA-style merge batch of frames run one after another:
//
//   batch1      per-frame calls with the legacy densify/sparsify chain
//               (sparse_conv2d emits dense, dense_to_channels re-encodes)
//   csr_chain   per-frame calls chained through sparse_conv2d_csr —
//               sparse end to end, no dense round-trip, shared Workspace
//
// Only the strided middle layer differs between the strategies; the
// CSR chain's outputs are checked against the legacy chain to 1e-4.
// Results go to BENCH_e2e.json (CI artifact); the bench exits non-zero on
// any parity failure.
//
// Usage: bench_e2e [output.json]

#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/parallel.hpp"
#include "nn/kernels.hpp"
#include "sparse/sparse_ops.hpp"
#include "sparse/tensor.hpp"
#include "sparse/workspace.hpp"

namespace es = evedge::sparse;
using evedge::bench::time_best_ms;

namespace {

es::SparseSample random_sample(int channels, int h, int w, double density,
                               std::uint64_t seed) {
  es::DenseTensor dense(es::TensorShape{1, channels, h, w});
  dense.fill_random(seed);
  const auto keep_every =
      density > 0.0 ? static_cast<std::size_t>(1.0 / density) : dense.size();
  std::size_t i = 0;
  for (float& v : dense.data()) {
    if (i++ % keep_every != 0) v = 0.0f;
  }
  return es::dense_to_channels(dense);
}

/// The 3-sparse-layer encoder under test (the regime where activations
/// stay sparse — chaining pays off before the active set densifies).
/// DAVIS346 event input: 2 channels at 260x346;
///   L1 CSR conv 2->16 k3s1      @260x346
///   L2 sparse conv 16->32 k3s2  @130x173 (strided)
///   L3 CSR conv 32->32 k3s1     @130x173
struct Net {
  es::Conv2dSpec l1{2, 16, 3, 1, 1};
  es::Conv2dSpec l2{16, 32, 3, 2, 1};
  es::Conv2dSpec l3{32, 32, 3, 1, 1};
  es::DenseTensor w1, w2, w3;

  Net() {
    w1 = es::DenseTensor(es::TensorShape{16, 2, 3, 3});
    w2 = es::DenseTensor(es::TensorShape{32, 16, 3, 3});
    w3 = es::DenseTensor(es::TensorShape{32, 32, 3, 3});
    w1.fill_random(41, 0.2f);
    w2.fill_random(42, 0.1f);
    w3.fill_random(43, 0.1f);
  }

  /// Legacy chain, one sample: dense round-trip after the strided layer.
  [[nodiscard]] es::SparseSample run_legacy(const es::SparseSample& in) const {
    const auto a1 = es::sparse_conv2d_csr(in, w1, {}, l1);
    const auto a2 = es::dense_to_channels(es::sparse_conv2d(a1, w2, {}, l2));
    return es::sparse_conv2d_csr(a2, w3, {}, l3);
  }

  /// CSR chain, one sample: sparse end to end.
  [[nodiscard]] es::SparseSample run_csr1(const es::SparseSample& in,
                                          es::Workspace* ws) const {
    const auto a1 = es::sparse_conv2d_csr(in, w1, {}, l1, nullptr, ws);
    const auto a2 = es::sparse_conv2d_csr(a1, w2, {}, l2, nullptr, ws);
    return es::sparse_conv2d_csr(a2, w3, {}, l3, nullptr, ws);
  }
};

struct Result {
  double density = 0.0;
  int batch = 0;
  double batch1_ms = 0.0;
  double csr_ms = 0.0;
  double legacy_diff = 0.0;  ///< CSR chain vs legacy chain (<= 1e-4)

  [[nodiscard]] double speedup_csr() const {
    return csr_ms > 0.0 ? batch1_ms / csr_ms : 0.0;
  }
};

[[nodiscard]] bool write_json(const std::vector<Result>& results,
                              const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return false;
  }
  std::fprintf(f,
               "{\n  \"threads\": %d,\n  \"network\": "
               "\"csr2x16k3s1 -> sparse16x32k3s2 -> csr32x32k3s1 @260x346\",\n"
               "  \"results\": [\n",
               evedge::core::parallel_thread_count());
  for (std::size_t i = 0; i < results.size(); ++i) {
    const Result& r = results[i];
    std::fprintf(
        f,
        "    {\"density\": %.4f, \"batch\": %d, \"batch1_ms\": %.4f, "
        "\"csr_ms\": %.4f, \"speedup_csr\": %.2f, \"legacy_diff\": "
        "%.3g}%s\n",
        r.density, r.batch, r.batch1_ms, r.csr_ms, r.speedup_csr(),
        r.legacy_diff, i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("\nwrote %s\n", path.c_str());
  return true;
}

[[nodiscard]] double sample_diff(const es::SparseSample& a,
                                 const es::SparseSample& b) {
  return es::max_abs_diff(es::channels_to_dense(a), es::channels_to_dense(b));
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_e2e.json";
  constexpr int kBatch = 4;
  constexpr int kH = 260;
  constexpr int kW = 346;

  Net net;
  std::vector<Result> results;

  std::printf("e2e CSR-chain benchmark (threads=%d, batch=%d)\n",
              evedge::core::parallel_thread_count(), kBatch);
  std::printf("%8s %10s %10s %9s %10s\n", "density", "batch1_ms", "csr_ms",
              "c_speed", "leg_diff");

  bool parity_ok = true;
  for (const double density : {0.005, 0.01, 0.02, 0.05}) {
    std::vector<es::SparseSample> batch;
    for (int n = 0; n < kBatch; ++n) {
      batch.push_back(random_sample(
          2, kH, kW, density, 100 + static_cast<std::uint64_t>(n)));
    }

    es::Workspace ws;
    Result r;
    r.density = density;
    r.batch = kBatch;
    r.batch1_ms = time_best_ms(
        [&] {
          for (const es::SparseSample& s : batch) (void)net.run_legacy(s);
        },
        5);
    r.csr_ms = time_best_ms(
        [&] {
          for (const es::SparseSample& s : batch) (void)net.run_csr1(s, &ws);
        },
        5);

    // Parity: the CSR chain stays within 1e-4 of the legacy
    // densify/sparsify chain.
    for (const es::SparseSample& s : batch) {
      r.legacy_diff = std::max(
          r.legacy_diff, sample_diff(net.run_csr1(s, &ws), net.run_legacy(s)));
    }
    if (r.legacy_diff > 1e-4) parity_ok = false;

    std::printf("%8.4f %10.3f %10.3f %8.2fx %10.3g\n", r.density,
                r.batch1_ms, r.csr_ms, r.speedup_csr(), r.legacy_diff);
    std::fflush(stdout);
    results.push_back(r);
  }

  const bool wrote = write_json(results, out_path);
  if (!parity_ok) {
    std::fprintf(stderr,
                 "parity failure: CSR chain diverged (see table)\n");
    return 1;
  }
  return wrote ? 0 : 1;
}
