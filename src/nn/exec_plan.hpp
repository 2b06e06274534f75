#pragma once

// Density-adaptive execution planning: the per-layer dense-vs-sparse
// dataflow decision the paper's E2SF analysis makes analytically,
// promoted to a first-class runtime artifact the engine executes.
//
// An ExecutionPlan assigns every node a Route:
//   kDense  the conventional dense kernels (conv2d / int8_conv2d)
//   kCsr    the sparse kernels (sparse_conv2d_csr and, on quantized
//           layers, int8_sparse_conv2d_csr; narrow FP32 spiking convs
//           scatter instead, see scatter_current_route). Output stays in
//           COO form, so consecutive kCsr layers chain densify-free
//           ("fused CSR chains"). With the engine's zero-bias layers this
//           route is bitwise identical to dense execution everywhere (the
//           stored sites carry the dense values; unreached sites are
//           exact zeros in both).
//
// The ExecutionPlanner chooses routes once, from activation densities
// measured on one warmup probe (calibrate: dense runs through an
// activation hook). The crossover model mirrors the cost model's
// dense-vs-sparse comparison with fixed constants fit to the gather
// kernels' measured cost (exec_plan.cpp).

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "nn/graph.hpp"
#include "sparse/tensor.hpp"

namespace evedge::nn {

class FunctionalNetwork;

/// Per-node execution route (see file comment for semantics).
enum class Route : std::uint8_t { kDense, kCsr };

[[nodiscard]] std::string to_string(Route route);

/// A prepared per-node route assignment plus the density telemetry it was
/// derived from. Installed on a FunctionalNetwork via
/// set_execution_plan(); non-owning there, so the plan must outlive its
/// installation.
struct ExecutionPlan {
  /// Route per node id; empty (or kDense entries) means dense.
  std::vector<Route> route;
  /// Estimated/measured mean OUTPUT density per node id (1.0 default).
  /// For spiking nodes this is the mean firing rate over the probe runs.
  std::vector<double> output_density;
  /// Density of the calibration probe's event input (telemetry).
  double probe_input_density = 0.0;

  [[nodiscard]] int sparse_node_count() const noexcept;

  [[nodiscard]] Route route_of(int node_id) const noexcept {
    const auto idx = static_cast<std::size_t>(node_id);
    return node_id >= 0 && idx < route.size() ? route[idx] : Route::kDense;
  }
  /// Human-readable route table (bench/debug output).
  [[nodiscard]] std::string describe(const NetworkSpec& spec) const;
};

/// Planner policy: none left — the crossover's cost constants are fixed
/// (exec_plan.cpp) and every sparse route is dense-exact. The empty
/// struct stays only because the repo benchmark's layer replay passes
/// WorkerConfig::planner to calibrate(); it goes with that call.
struct PlannerOptions {};

/// How a sparse-routed FP32 spiking conv writes its site-major
/// [H, W, C] LIF current: narrow layers scatter each (input non-zero,
/// tap) into its output site's row (one short contiguous row per tap,
/// no per-site bookkeeping); wide layers run the gather reduction,
/// whose per-site accumulators land in the site's row (past 32 output
/// channels the reduction's blocked accumulators beat re-reading and
/// re-writing a long row per tap). Both forms are bitwise the same
/// current. Shared between the planner's cost model and the engine's
/// dispatch so both agree.
[[nodiscard]] constexpr bool scatter_current_route(
    const sparse::Conv2dSpec& conv) noexcept {
  return conv.out_channels <= 32;
}

class ExecutionPlanner {
 public:
  /// Measures per-node activation densities over one probe (dense
  /// warmup runs through a scoped activation hook; the caller's hook and
  /// any installed plan are untouched) and plans from them. `net`
  /// supplies the graph and the bias vectors (sparse routes require zero
  /// bias — the CSR kernels add bias at active sites only).
  [[nodiscard]] static ExecutionPlan calibrate(
      FunctionalNetwork& net, std::span<const sparse::DenseTensor> event_steps,
      const sparse::DenseTensor* image = nullptr,
      const PlannerOptions& options = {});
};

}  // namespace evedge::nn
