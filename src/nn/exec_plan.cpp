#include "nn/exec_plan.hpp"

#include <algorithm>
#include <cmath>

#include "nn/engine.hpp"

namespace evedge::nn {

using sparse::DenseTensor;

std::string to_string(Route route) {
  switch (route) {
    case Route::kDense: return "dense";
    case Route::kCsr: return "csr";
  }
  return "?";
}

int ExecutionPlan::sparse_node_count() const noexcept {
  int count = 0;
  for (const Route r : route) {
    if (r != Route::kDense) ++count;
  }
  return count;
}

std::string ExecutionPlan::describe(const NetworkSpec& spec) const {
  std::string out = spec.name + " execution plan (probe input density " +
                    std::to_string(probe_input_density) + "):\n";
  for (const LayerNode& node : spec.graph.nodes()) {
    const auto idx = static_cast<std::size_t>(node.id);
    if (idx >= route.size() || route[idx] == Route::kDense) continue;
    const auto pidx = node.parents.empty()
                          ? output_density.size()
                          : static_cast<std::size_t>(node.parents.front());
    const double d_in = pidx < output_density.size() ? output_density[pidx]
                                                     : 1.0;
    out += "  " + std::to_string(node.id) + " " + node.spec.name + " -> " +
           to_string(route[idx]) + " (input density " + std::to_string(d_in) +
           ")\n";
  }
  return out;
}

namespace {

// Crossover cost constants, in dense-GEMM-MAC units, fit to single-core
// measurements of the gather kernels on real engine activations at
// DAVIS346 scale (see bench_sparse_engine): the packed 8-wide tap
// reduction runs at ~2x the per-MAC cost of dense GEMM, while the
// branchy bookkeeping around it (tap enumeration, output-entry emission,
// boundary scans) costs tens of MAC units per element. The resulting
// crossover routes event-input layers and low-rate spiking stages sparse
// and leaves ReLU-dense decoders alone.

/// Per-MAC cost of the gather tap reduction relative to dense GEMM.
constexpr double kReduceCostFactor = 2.2;
/// Per-MAC cost of the scatter kernel (the route narrow spiking convs
/// take: it writes the site-major LIF current directly, with no COO
/// materialization or per-site bookkeeping).
constexpr double kScatterCostFactor = 3.0;
/// Cost per bookkeeping element: tap enumeration (one per input non-zero
/// x kernel tap) and potential output-entry emission (one per active
/// site x output channel).
constexpr double kOverheadCostFactor = 25.0;
/// Cost per element of sparsifying a dense parent at a chain head.
constexpr double kSparsifyCostPerElement = 8.0;
/// Cost per element of densifying the output at a route exit.
constexpr double kDensifyCostPerElement = 2.0;
/// Sparse must win by this factor to be chosen — hysteresis against
/// noisy density estimates AND against the model's own error on marginal
/// layers: a mispredicted marginal route costs real time, while a
/// skipped marginal win costs almost nothing.
constexpr double kMargin = 1.35;

/// Kinds the sparse routes can execute: the conv whose synaptic input is
/// a (possibly sparse) activation map. Transposed convs and FC layers
/// always consume the dense decoder/head activations here, so they are
/// not routed.
[[nodiscard]] bool routable_kind(LayerKind kind) noexcept {
  return kind == LayerKind::kConv || kind == LayerKind::kSpikingConv ||
         kind == LayerKind::kAdaptiveSpikingConv;
}

[[nodiscard]] bool all_zero(std::span<const float> v) noexcept {
  return std::all_of(v.begin(), v.end(),
                     [](float x) { return x == 0.0f; });
}

/// The dense-vs-sparse crossover, mirroring core/inference_cost's
/// per-layer route comparison with the measured kernel cost structure:
/// dense cost is the layer's MAC count; sparse cost is the gather tap
/// reduction (taps x output channels) plus the bookkeeping that
/// dominates the kernel away from the reduction — tap enumeration
/// (~nnz x k^2), output-entry emission (~active sites x Cout) — plus
/// the representation-boundary scans.
[[nodiscard]] bool sparse_wins(const LayerSpec& ls, double d_in,
                               bool chain_head) {
  d_in = std::clamp(d_in, 0.0, 1.0);
  const double dense_macs = static_cast<double>(ls.macs());
  if (dense_macs <= 0.0) return false;
  const double in_elems = static_cast<double>(ls.input_elements());
  const double out_elems = static_cast<double>(ls.output_elements());
  // Narrow spiking convs take the scatter route (see engine /
  // scatter_current_route): cost is the scattered multiply-adds plus the
  // chain-head sparsify — no site bookkeeping, no densify (the current
  // write replaces the dense kernel's own). Wide spiking convs fall
  // through to the gather model below, densify charge included: their
  // reduction now writes the current rows directly, but the charge (a
  // zero-fill of the same size remains) keeps the routes the constants
  // were fit on.
  if (domain_of(ls.kind) == Domain::kSnn && scatter_current_route(ls.conv)) {
    const double k2s = static_cast<double>(ls.conv.kernel) *
                       static_cast<double>(ls.conv.kernel) /
                       (static_cast<double>(ls.conv.stride) *
                        static_cast<double>(ls.conv.stride));
    const double scatter_macs = d_in * in_elems * k2s *
                                static_cast<double>(ls.conv.out_channels);
    double cost = kScatterCostFactor * scatter_macs;
    if (chain_head) cost += kSparsifyCostPerElement * in_elems;
    return kMargin * cost < dense_macs;
  }
  const double in_pixels = static_cast<double>(ls.in_shape.h) *
                           static_cast<double>(ls.in_shape.w);
  const double out_pixels = static_cast<double>(ls.out_shape.h) *
                            static_cast<double>(ls.out_shape.w);
  const double cin = static_cast<double>(ls.conv.in_channels);
  const double cout = static_cast<double>(ls.conv.out_channels);
  const double k2 = static_cast<double>(ls.conv.kernel) *
                    static_cast<double>(ls.conv.kernel);
  const double stride2 = static_cast<double>(ls.conv.stride) *
                         static_cast<double>(ls.conv.stride);
  // Tap count: each input non-zero lands on ~k^2/stride^2 output sites.
  const double nnz_in = d_in * in_elems;
  const double est_taps = nnz_in * k2 / stride2;
  const double reduce_macs = est_taps * cout;
  // Active output sites: the per-pixel union of Cin independent channels
  // at density d_in, dilated by the kernel footprint, capped at the
  // plane.
  const double union_pixels =
      (1.0 - std::pow(1.0 - d_in, cin)) * in_pixels;
  const double est_sites =
      std::min(out_pixels, union_pixels * k2 / stride2);
  // Bookkeeping: tap enumeration visits every (non-zero, kernel tap)
  // pair twice (count + fill); emission touches every (site, channel)
  // accumulator once.
  const double overhead = nnz_in * k2 + est_sites * cout;
  // Boundary scans: sparsifying the input when the parent's carrier is
  // dense (chain head), and densifying the output (charged always —
  // conservative, since the consumer's route is not known yet; a
  // spiking layer zero-fills its dense current).
  double boundary = kDensifyCostPerElement * out_elems;
  if (chain_head) boundary += kSparsifyCostPerElement * in_elems;
  const double sparse_cost =
      kMargin * (kReduceCostFactor * reduce_macs +
                 kOverheadCostFactor * overhead + boundary);
  return sparse_cost < dense_macs;
}

/// Routes every node from a filled per-node output_density table.
[[nodiscard]] ExecutionPlan plan_impl(const FunctionalNetwork& net,
                                      std::vector<double> output_density,
                                      double probe_input_density) {
  const NetworkSpec& spec = net.spec();
  ExecutionPlan plan;
  plan.route.assign(spec.graph.size(), Route::kDense);
  plan.output_density = std::move(output_density);
  plan.probe_input_density = probe_input_density;

  for (const LayerNode& node : spec.graph.nodes()) {
    const auto idx = static_cast<std::size_t>(node.id);
    const LayerSpec& ls = node.spec;
    if (!routable_kind(ls.kind) || node.parents.size() != 1) continue;
    const int parent = node.parents.front();
    // The CSR kernels add bias at active sites only; zero bias is what
    // makes the sparse routes numerically identical to dense execution.
    if (!all_zero(net.bias(node.id))) continue;
    const auto pidx = static_cast<std::size_t>(parent);
    const double d_in = plan.output_density[pidx];
    // Chain head: the cost model charges the sparsify boundary unless
    // the parent is a plain conv that was itself routed sparse. A
    // spiking parent of a sparse consumer actually emits COO straight
    // from its LIF step, and under run_events the event
    // input arrives as COO, so neither is scanned; the model still
    // charges both as chain heads, which is conservative and keeps the
    // routes its crossover constants were fit on.
    const bool parent_chains =
        plan.route[pidx] != Route::kDense &&
        spec.graph.node(parent).spec.kind == LayerKind::kConv;
    if (sparse_wins(ls, d_in, /*chain_head=*/!parent_chains)) {
      plan.route[idx] = Route::kCsr;
    }
  }
  return plan;
}

}  // namespace

ExecutionPlan ExecutionPlanner::calibrate(
    FunctionalNetwork& net, std::span<const sparse::DenseTensor> event_steps,
    const sparse::DenseTensor* image, const PlannerOptions& /*options*/) {
  const NetworkSpec& spec = net.spec();
  const std::size_t n = spec.graph.size();
  std::vector<double> acc(n, 0.0);
  std::vector<std::size_t> hits(n, 0);

  // Scoped density hook: accumulates mean non-zero fraction per node over
  // every probe timestep, then always restores the caller's hook (the
  // hook also forces the warmup run dense, so an already-installed
  // execution plan cannot skew its own calibration).
  FunctionalNetwork::ActivationHook previous = net.set_activation_hook(
      [&acc, &hits](int node_id, DenseTensor& activation) {
        acc[static_cast<std::size_t>(node_id)] += activation.density();
        ++hits[static_cast<std::size_t>(node_id)];
      });
  try {
    (void)net.run(event_steps, image);
  } catch (...) {
    net.set_activation_hook(std::move(previous));
    throw;
  }
  net.set_activation_hook(std::move(previous));

  std::vector<double> density(n, 1.0);
  for (std::size_t i = 0; i < n; ++i) {
    if (hits[i] > 0) density[i] = acc[i] / static_cast<double>(hits[i]);
  }
  // Input nodes never fire the hook; measure them from the probe tensors.
  const auto input_ids = spec.graph.input_ids();
  double event_acc = 0.0;
  for (const DenseTensor& step : event_steps) event_acc += step.density();
  const double event_density =
      event_steps.empty()
          ? 0.0
          : event_acc / static_cast<double>(event_steps.size());
  density[static_cast<std::size_t>(input_ids.front())] = event_density;
  if (input_ids.size() > 1) {
    density[static_cast<std::size_t>(input_ids.back())] =
        image != nullptr ? image->density() : 1.0;
  }
  return plan_impl(net, std::move(density), event_density);
}

}  // namespace evedge::nn
