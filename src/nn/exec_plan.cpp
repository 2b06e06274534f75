#include "nn/exec_plan.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "nn/engine.hpp"

namespace evedge::nn {

using sparse::DenseTensor;

std::string to_string(Route route) {
  switch (route) {
    case Route::kDense: return "dense";
    case Route::kSubmanifold: return "submanifold";
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

bool ExecutionPlan::density_in_band(double live_density,
                                    double band) const noexcept {
  if (band < 1.0) return false;
  // An empty probe's band is the single point 0.
  if (probe_input_density <= 0.0) return live_density <= 0.0;
  return live_density >= probe_input_density / band &&
         live_density <= probe_input_density * band;
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

/// True when the layer satisfies the submanifold geometry contract
/// (stride 1, output extent == input extent).
[[nodiscard]] bool submanifold_geometry_ok(const LayerSpec& ls) noexcept {
  return ls.conv.stride == 1 && ls.out_shape.h == ls.in_shape.h &&
         ls.out_shape.w == ls.in_shape.w;
}

/// The dense-vs-sparse crossover, mirroring core/inference_cost's
/// per-layer route comparison with the measured kernel cost structure:
/// dense cost is the layer's MAC count; sparse cost is the gather tap
/// reduction (taps x output channels) plus the bookkeeping that
/// dominates the kernel away from the reduction — tap enumeration
/// (~nnz x k^2), output-entry emission (~active sites x Cout) — plus
/// the representation-boundary scans.
[[nodiscard]] bool sparse_wins(const LayerSpec& ls, double d_in,
                               bool chain_head, const PlannerOptions& opt) {
  d_in = std::clamp(d_in, 0.0, 1.0);
  const double dense_macs = static_cast<double>(ls.macs());
  if (dense_macs <= 0.0) return false;
  const double in_elems = static_cast<double>(ls.input_elements());
  const double out_elems = static_cast<double>(ls.output_elements());
  // Narrow spiking convs take the dense-output scatter route (see
  // engine / scatter_current_route): cost is the scattered multiply-adds
  // plus the chain-head sparsify — no site bookkeeping, no densify (the
  // dense output write replaces the dense kernel's own). Wide spiking
  // convs fall through to the gather model below (plus its densify
  // charge, which is exactly their CSR + densify execution).
  if (domain_of(ls.kind) == Domain::kSnn && scatter_current_route(ls.conv)) {
    const double k2s = static_cast<double>(ls.conv.kernel) *
                       static_cast<double>(ls.conv.kernel) /
                       (static_cast<double>(ls.conv.stride) *
                        static_cast<double>(ls.conv.stride));
    const double scatter_macs = d_in * in_elems * k2s *
                                static_cast<double>(ls.conv.out_channels);
    double cost = opt.scatter_cost_factor * scatter_macs;
    if (chain_head) cost += opt.sparsify_cost_per_element * in_elems;
    return opt.margin * cost < dense_macs;
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
  // conservative, since the consumer's route is not known yet; spiking
  // layers always densify for the LIF update).
  double boundary = opt.densify_cost_per_element * out_elems;
  if (chain_head) boundary += opt.sparsify_cost_per_element * in_elems;
  const double sparse_cost =
      opt.margin * (opt.reduce_cost_factor * reduce_macs +
                    opt.overhead_cost_factor * overhead + boundary);
  return sparse_cost < dense_macs;
}

/// Shared planning core over a filled output_density table.
[[nodiscard]] ExecutionPlan plan_impl(const FunctionalNetwork& net,
                                      std::vector<double> output_density,
                                      double probe_input_density,
                                      const PlannerOptions& options,
                                      bool event_input_parents_only) {
  const NetworkSpec& spec = net.spec();
  const std::size_t n = spec.graph.size();
  if (output_density.size() != n) {
    throw std::invalid_argument(
        "ExecutionPlanner: density table size mismatch");
  }
  ExecutionPlan plan;
  plan.route.assign(n, Route::kDense);
  plan.output_density = std::move(output_density);
  plan.probe_input_density = probe_input_density;

  const int event_input = spec.graph.input_ids().front();
  for (const LayerNode& node : spec.graph.nodes()) {
    const auto idx = static_cast<std::size_t>(node.id);
    const LayerSpec& ls = node.spec;
    if (!routable_kind(ls.kind) || node.parents.size() != 1) continue;
    const int parent = node.parents.front();
    if (event_input_parents_only && parent != event_input) continue;
    // The CSR kernels add bias at active sites only; zero bias is what
    // makes the sparse routes numerically identical to dense execution.
    if (!all_zero(net.bias(node.id))) continue;
    const auto pidx = static_cast<std::size_t>(parent);
    const double d_in = plan.output_density[pidx];
    // Chain head: the cost model charges the sparsify boundary unless
    // the parent is a plain conv that was itself routed sparse. A
    // spiking parent of a sparse consumer actually emits COO straight
    // from its LIF step (step_sparse), and under run_events the event
    // input arrives as COO, so neither is scanned; the model still
    // charges both as chain heads, which is conservative and keeps the
    // routes its crossover constants were fit on.
    const bool parent_chains =
        plan.route[pidx] != Route::kDense &&
        spec.graph.node(parent).spec.kind == LayerKind::kConv;
    if (!sparse_wins(ls, d_in, /*chain_head=*/!parent_chains, options)) {
      continue;
    }
    // Narrow spiking convs were approved on the scatter-route cost model
    // and must stay kCsr so the engine's scatter dispatch (and its
    // dense-exact numerics) actually applies — kSubmanifold would run
    // the gather+densify path the approval never costed.
    const bool scatter_snn = domain_of(ls.kind) == Domain::kSnn &&
                             scatter_current_route(ls.conv);
    plan.route[idx] = options.allow_submanifold && !scatter_snn &&
                              submanifold_geometry_ok(ls)
                          ? Route::kSubmanifold
                          : Route::kCsr;
  }
  return plan;
}

}  // namespace

ExecutionPlan ExecutionPlanner::plan_from_densities(
    const FunctionalNetwork& net, std::span<const double> output_density,
    double probe_input_density, const PlannerOptions& options) {
  return plan_impl(net,
                   std::vector<double>(output_density.begin(),
                                       output_density.end()),
                   probe_input_density, options,
                   /*event_input_parents_only=*/false);
}

ExecutionPlan ExecutionPlanner::calibrate(FunctionalNetwork& net,
                                          std::span<const ProbeInput> probes,
                                          const PlannerOptions& options) {
  if (probes.empty()) {
    throw std::invalid_argument("ExecutionPlanner::calibrate: no probes");
  }
  const NetworkSpec& spec = net.spec();
  const std::size_t n = spec.graph.size();
  std::vector<double> acc(n, 0.0);
  std::vector<std::size_t> hits(n, 0);

  // Scoped density hook: accumulates mean non-zero fraction per node over
  // every probe timestep, then always restores the caller's hook (the
  // hook also forces the warmup runs dense, so an already-installed
  // execution plan cannot skew its own calibration).
  FunctionalNetwork::ActivationHook previous = net.set_activation_hook(
      [&acc, &hits](int node_id, DenseTensor& activation) {
        acc[static_cast<std::size_t>(node_id)] += activation.density();
        ++hits[static_cast<std::size_t>(node_id)];
      });
  try {
    for (const ProbeInput& probe : probes) {
      (void)net.run(probe.event_steps, probe.image);
    }
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
  std::size_t event_hits = 0;
  double image_acc = 0.0;
  std::size_t image_hits = 0;
  for (const ProbeInput& probe : probes) {
    for (const DenseTensor& step : probe.event_steps) {
      event_acc += step.density();
      ++event_hits;
    }
    if (probe.image != nullptr) {
      image_acc += probe.image->density();
      ++image_hits;
    }
  }
  const double event_density =
      event_hits > 0 ? event_acc / static_cast<double>(event_hits) : 0.0;
  density[static_cast<std::size_t>(input_ids.front())] = event_density;
  if (input_ids.size() > 1) {
    density[static_cast<std::size_t>(input_ids.back())] =
        image_hits > 0 ? image_acc / static_cast<double>(image_hits) : 1.0;
  }
  return plan_impl(net, std::move(density), event_density, options,
                   /*event_input_parents_only=*/false);
}

ExecutionPlan ExecutionPlanner::calibrate(
    FunctionalNetwork& net, std::span<const sparse::DenseTensor> event_steps,
    const sparse::DenseTensor* image, const PlannerOptions& options) {
  const ProbeInput probe{event_steps, image};
  return calibrate(net, std::span<const ProbeInput>(&probe, 1), options);
}

ExecutionPlan ExecutionPlanner::cold_start(const FunctionalNetwork& net,
                                           const PlannerOptions& options) {
  const NetworkSpec& spec = net.spec();
  std::vector<double> density(spec.graph.size(), 1.0);
  density[static_cast<std::size_t>(spec.graph.input_ids().front())] =
      options.cold_start_input_density;
  return plan_impl(net, std::move(density), options.cold_start_input_density,
                   options, /*event_input_parents_only=*/true);
}

}  // namespace evedge::nn
