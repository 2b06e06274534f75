#pragma once

// Density-adaptive execution planning: the per-layer dense-vs-sparse
// dataflow decision the paper's E2SF analysis makes analytically,
// promoted to a first-class runtime artifact the engine executes.
//
// An ExecutionPlan assigns every node a Route:
//   kDense        the conventional dense kernels (conv2d / int8_conv2d)
//   kCsr          the gather/CSR sparse kernels (sparse_conv2d_csr and,
//                 on quantized layers, int8_sparse_conv2d_csr). Output
//                 stays in COO form, so consecutive kCsr layers chain
//                 densify-free ("fused CSR chains"). With the engine's
//                 zero-bias layers this route is bitwise identical to
//                 dense execution everywhere (the stored sites carry the
//                 dense values; unreached sites are exact zeros in both).
//   kSubmanifold  Graham-style submanifold convolution: output restricted
//                 to the union of input active sites. Bitwise identical
//                 to the dense path AT STORED SITES but drops the halo
//                 sites a dense conv would populate — a deliberate
//                 semantic change (the standard sparse-SNN operator), so
//                 the planner only selects it when explicitly allowed.
//
// The ExecutionPlanner chooses routes from measured spiking activation
// densities (calibrate: warmup runs through an activation hook) or from a
// density profile supplied by the analytical cost model
// (core::seed_execution_plan wraps core/inference_cost's probe as the
// cold-start default). The crossover model mirrors the cost model's
// dense-vs-sparse comparison with constants fit to BENCH_kernels.json.

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "nn/graph.hpp"
#include "sparse/tensor.hpp"

namespace evedge::nn {

class FunctionalNetwork;

/// Per-node execution route (see file comment for semantics).
enum class Route : std::uint8_t { kDense, kSubmanifold, kCsr };

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

  /// True when `live_density` lies inside this plan's calibration band
  /// [probe/band, probe*band] around probe_input_density (band >= 1).
  /// The serving runtime re-calibrates a worker's plan when the live
  /// input density leaves the band (DSFA tracks the drift signal): the
  /// routes were chosen for the probe's density regime and go stale when
  /// the scene changes. A plan calibrated on an empty probe (density 0)
  /// is in band for empty input only: any input with events is out of
  /// band, and further empty batches do not recalibrate.
  [[nodiscard]] bool density_in_band(double live_density,
                                     double band) const noexcept;

  [[nodiscard]] Route route_of(int node_id) const noexcept {
    const auto idx = static_cast<std::size_t>(node_id);
    return node_id >= 0 && idx < route.size() ? route[idx] : Route::kDense;
  }
  /// Human-readable route table (bench/debug output).
  [[nodiscard]] std::string describe(const NetworkSpec& spec) const;
};

/// Planner policy knobs. All cost constants are in dense-GEMM-MAC
/// units, fit to single-core measurements of the gather kernels on real
/// engine activations at DAVIS346 scale (see bench_sparse_engine): the
/// packed 8-wide tap reduction runs at ~2x the per-MAC cost of dense
/// GEMM, while the branchy bookkeeping around it (tap enumeration,
/// output-entry emission, boundary scans) costs tens of MAC units per
/// element. The resulting crossover routes event-input layers and
/// low-rate spiking stages sparse and leaves ReLU-dense decoders alone.
struct PlannerOptions {
  /// Per-MAC cost of the gather tap reduction relative to dense GEMM.
  double reduce_cost_factor = 2.2;
  /// Per-MAC cost of the dense-output scatter kernel (the route spiking
  /// convs take: their LIF consumer needs dense current, so the engine
  /// scatters straight into the staging tensor with no COO
  /// materialization or per-site bookkeeping).
  double scatter_cost_factor = 3.0;
  /// Cost per bookkeeping element: tap enumeration (one per input
  /// non-zero x kernel tap) and potential output-entry emission (one per
  /// active site x output channel).
  double overhead_cost_factor = 25.0;
  /// Cost per element of sparsifying a dense parent at a chain head.
  double sparsify_cost_per_element = 8.0;
  /// Cost per element of densifying the output at a route exit.
  double densify_cost_per_element = 2.0;
  /// Sparse must win by this factor to be chosen — hysteresis against
  /// noisy density estimates AND against the model's own error on
  /// marginal layers: a mispredicted marginal route costs real time,
  /// while a skipped marginal win costs almost nothing.
  double margin = 1.35;
  /// Permit kSubmanifold for eligible stride-1 layers. Off by default:
  /// submanifold restricts the active set (stored-site-exact only),
  /// while kCsr preserves dense numerics exactly.
  bool allow_submanifold = false;
  /// Input density assumed by cold_start() before any measurement.
  double cold_start_input_density = 0.02;
};

/// How a sparse-routed spiking conv materializes its dense LIF current:
/// narrow layers scatter straight into the staging tensor (each tap
/// touches few output planes — cache-friendly, zero bookkeeping), wide
/// layers run the vectorized gather reduction and densify (a tap's
/// scatter would stride across out_channels planes). Shared between the
/// planner's cost model and the engine's dispatch so both agree.
[[nodiscard]] constexpr bool scatter_current_route(
    const sparse::Conv2dSpec& conv) noexcept {
  return conv.out_channels <= 32;
}

/// One calibration input (non-owning views over caller tensors).
struct ProbeInput {
  std::span<const sparse::DenseTensor> event_steps;
  const sparse::DenseTensor* image = nullptr;
};

class ExecutionPlanner {
 public:
  /// Builds a plan from per-node OUTPUT densities (indexed by node id;
  /// e.g. core::ActivationDensityProfile::density). `net` supplies the
  /// graph and the bias vectors (sparse routes require zero bias — the
  /// CSR kernels add bias at active sites only).
  [[nodiscard]] static ExecutionPlan plan_from_densities(
      const FunctionalNetwork& net, std::span<const double> output_density,
      double probe_input_density, const PlannerOptions& options = {});

  /// Measures per-node activation densities over `probes` (dense warmup
  /// runs through a scoped activation hook; the caller's hook and any
  /// installed plan are untouched) and plans from them.
  [[nodiscard]] static ExecutionPlan calibrate(
      FunctionalNetwork& net, std::span<const ProbeInput> probes,
      const PlannerOptions& options = {});

  /// Convenience single-probe calibration.
  [[nodiscard]] static ExecutionPlan calibrate(
      FunctionalNetwork& net, std::span<const sparse::DenseTensor> event_steps,
      const sparse::DenseTensor* image = nullptr,
      const PlannerOptions& options = {});

  /// Cold-start plan with no measurements: only layers reading the raw
  /// event input (whose density options.cold_start_input_density states)
  /// are considered for sparse routes; deeper layers stay dense until a
  /// calibrate() pass measures their real activity. This is the
  /// analytical default core::seed_execution_plan refines with the cost
  /// model's probe densities.
  [[nodiscard]] static ExecutionPlan cold_start(
      const FunctionalNetwork& net, const PlannerOptions& options = {});
};

}  // namespace evedge::nn
