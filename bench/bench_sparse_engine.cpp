// End-to-end planner benchmark: FunctionalNetwork::run() all-dense vs
// with a density-adaptive ExecutionPlan (calibrated per input density) on
// the spiking zoo networks at DAVIS346 scale (260x346 rounded to the
// 256x352 zoo geometry, base 16 channels to keep the single-core CI run
// bounded). The networks run at lif_threshold_scale = 2, which puts the
// random-weight zoo into the 0.5-5% spiking-activation band the paper
// reports for trained event networks (the regime the sparse routes
// target; the default random-weight stand-ins fire at 7-40%). The
// planner routes the sparse-input/spiking layers through the CSR gather
// kernels and chains consecutive sparse layers in COO form; the dense
// decoders stay dense, so the end-to-end speedup is the Amdahl-limited,
// honest number.
//
// Doubles as a parity smoke test: planner-routed output must be bitwise
// identical to dense output (max_abs_diff == 0) — the bench exits
// non-zero otherwise. Results go to BENCH_sparse_engine.json and are
// gated in CI by scripts/check_bench_regression.py.
//
// Usage: bench_sparse_engine [--json] [output.json]
//   --json   write the JSON document to stdout too (the human table
//            moves to stderr, matching bench_serve)

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "core/parallel.hpp"
#include "nn/engine.hpp"
#include "nn/exec_plan.hpp"
#include "nn/zoo.hpp"
#include "quant/accuracy.hpp"
#include "sparse/tensor.hpp"

namespace en = evedge::nn;
namespace es = evedge::sparse;
namespace eq = evedge::quant;
using evedge::bench::time_best_ms;

namespace {

std::FILE* g_table = stdout;

struct Result {
  std::string network;
  double density = 0.0;
  double dense_ms = 0.0;
  double planner_ms = 0.0;
  int sparse_routed = 0;         ///< sparse-routed nodes in the plan
  double max_abs_diff = 0.0;     ///< planner vs dense (must be 0)
  double sparse_mac_fraction = 0.0;  ///< dense MACs replaced / total
  double firing_rate = 0.0;      ///< mean spiking rate over the run

  [[nodiscard]] double speedup_planner() const {
    return planner_ms > 0.0 ? dense_ms / planner_ms : 0.0;
  }
};

void write_json_to(std::FILE* f, const std::vector<Result>& results) {
  std::fprintf(f,
               "{\n  \"threads\": %d,\n  \"scale\": "
               "\"256x352 base16 (DAVIS346 zoo geometry), "
               "lif_threshold_scale=2\",\n"
               "  \"results\": [\n",
               evedge::core::parallel_thread_count());
  for (std::size_t i = 0; i < results.size(); ++i) {
    const Result& r = results[i];
    std::fprintf(
        f,
        "    {\"network\": \"%s\", \"density\": %.4f, \"dense_ms\": %.4f, "
        "\"planner_ms\": %.4f, \"speedup_planner\": %.2f, "
        "\"sparse_routed\": %d, \"sparse_mac_fraction\": %.3f, "
        "\"firing_rate\": %.4f, \"max_abs_diff\": %.3g}%s\n",
        r.network.c_str(), r.density, r.dense_ms, r.planner_ms,
        r.speedup_planner(), r.sparse_routed, r.sparse_mac_fraction,
        r.firing_rate, r.max_abs_diff, i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
}

[[nodiscard]] bool write_json(const std::vector<Result>& results,
                              const std::string& path, bool echo_stdout) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return false;
  }
  write_json_to(f, results);
  std::fclose(f);
  std::fprintf(g_table, "\nwrote %s\n", path.c_str());
  if (echo_stdout) write_json_to(stdout, results);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_sparse_engine.json";
  bool json_stdout = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--json") {
      json_stdout = true;
    } else {
      out_path = argv[i];
    }
  }
  if (json_stdout) g_table = stderr;
  // DAVIS346-scale zoo geometry at half base width (the full-scale
  // base-32 dense runs take minutes per network on one core), with the
  // spiking thresholds scaled into the paper's 0.5-5% activation band.
  const en::ZooConfig scale{256, 352, 16, 5, 2.0f};
  const en::NetworkId nets[] = {en::NetworkId::kDotie,
                                en::NetworkId::kAdaptiveSpikeNet,
                                en::NetworkId::kSpikeFlowNet,
                                en::NetworkId::kFusionFlowNet};
  const double densities[] = {0.01, 0.03};
  constexpr int kReps = 3;

  std::fprintf(g_table, "sparse engine planner benchmark (threads=%d)\n",
               evedge::core::parallel_thread_count());
  std::fprintf(g_table,
               "%-18s %8s %10s %11s %9s %7s %9s %12s\n", "network",
               "density", "dense_ms", "planner_ms", "speedup", "routed",
               "mac_frac", "max_abs_diff");

  std::vector<Result> results;
  bool parity_ok = true;
  for (const auto id : nets) {
    const auto spec = en::build_network(id, scale);
    en::FunctionalNetwork net(spec, 7);
    for (const double density : densities) {
      const auto samples = eq::make_validation_set(spec, 1, 42, density);
      const auto& steps = samples[0].event_steps;
      const es::DenseTensor* image =
          samples[0].image.has_value() ? &samples[0].image.value() : nullptr;

      Result r;
      r.network = spec.name;
      r.density = density;

      net.set_execution_plan(nullptr);
      const auto dense_out = net.run(steps, image);
      r.dense_ms = time_best_ms([&] { (void)net.run(steps, image); }, kReps);

      const auto plan = en::ExecutionPlanner::calibrate(net, steps, image);
      r.sparse_routed = plan.sparse_node_count();
      net.set_execution_plan(&plan);
      const auto routed_out = net.run(steps, image);
      r.max_abs_diff = es::max_abs_diff(routed_out, dense_out);
      const en::ExecStats& stats = net.last_exec_stats();
      const std::size_t total_macs =
          spec.graph.total_macs() * static_cast<std::size_t>(spec.timesteps);
      r.sparse_mac_fraction =
          total_macs > 0 ? static_cast<double>(stats.dense_macs_avoided) /
                               static_cast<double>(total_macs)
                         : 0.0;
      r.planner_ms = time_best_ms([&] { (void)net.run(steps, image); }, kReps);
      r.firing_rate = net.network_firing_rate();

      net.set_execution_plan(nullptr);

      if (r.max_abs_diff != 0.0) parity_ok = false;
      std::fprintf(
          g_table,
          "%-18s %8.4f %10.2f %11.2f %8.2fx %7d %9.3f %12.3g\n",
          r.network.c_str(), r.density, r.dense_ms, r.planner_ms,
          r.speedup_planner(), r.sparse_routed, r.sparse_mac_fraction,
          r.max_abs_diff);
      std::fflush(g_table);
      results.push_back(std::move(r));
    }
  }

  const bool wrote = write_json(results, out_path, json_stdout);
  if (!parity_ok) {
    std::fprintf(stderr,
                 "parity failure: planner-routed output diverged from dense "
                 "execution (see table)\n");
    return 1;
  }
  return wrote ? 0 : 1;
}
