#include "core/inference_cost.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "quant/accuracy.hpp"
#include "sched/scheduler.hpp"

namespace evedge::core {

ActivationDensityProfile measure_activation_densities(
    const nn::NetworkSpec& spec, std::uint64_t weight_seed,
    double input_fill, std::uint64_t input_seed) {
  nn::FunctionalNetwork net(spec, weight_seed);
  ActivationDensityProfile profile;
  profile.measured_input_density = input_fill;
  profile.density.assign(spec.graph.size(), 1.0);

  // Accumulate mean density per node over all timesteps via the hook.
  std::vector<double> acc(spec.graph.size(), 0.0);
  std::vector<int> hits(spec.graph.size(), 0);
  net.set_activation_hook([&](int node_id, sparse::DenseTensor& t) {
    acc[static_cast<std::size_t>(node_id)] += t.density();
    ++hits[static_cast<std::size_t>(node_id)];
  });

  const auto samples =
      quant::make_validation_set(spec, 1, input_seed, input_fill);
  const auto& s = samples.front();
  (void)net.run(s.event_steps,
                s.image.has_value() ? &s.image.value() : nullptr);

  for (std::size_t i = 0; i < acc.size(); ++i) {
    if (hits[i] > 0) profile.density[i] = acc[i] / hits[i];
  }
  // Trained-network ReLU activations stay roughly half dense regardless
  // of input sparsity; random-weight probes on sparse inputs under-
  // predict that, so ANN (non-spiking) nodes are floored at 0.4. Spiking
  // nodes keep the measured firing rate - their sparsity is the real
  // phenomenon the paper exploits.
  for (const auto& node : spec.graph.nodes()) {
    if (node.spec.kind == nn::LayerKind::kInput) continue;
    if (nn::domain_of(node.spec.kind) == nn::Domain::kAnn) {
      auto& d = profile.density[static_cast<std::size_t>(node.id)];
      d = std::max(d, 0.4);
    }
  }
  // The event input carries the probe density; any further inputs are
  // dense grayscale images.
  const auto input_ids = spec.graph.input_ids();
  for (std::size_t i = 0; i < input_ids.size(); ++i) {
    profile.density[static_cast<std::size_t>(input_ids[i])] =
        i == 0 ? input_fill : 1.0;
  }
  return profile;
}

InferenceCost estimate_inference(const nn::NetworkSpec& spec,
                                 const sched::TaskMapping& mapping,
                                 const hw::Platform& platform,
                                 const ActivationDensityProfile& densities,
                                 double input_density,
                                 const InferenceCostOptions& options) {
  if (mapping.nodes.size() != spec.graph.size()) {
    throw std::invalid_argument("estimate_inference: mapping size mismatch");
  }
  if (densities.density.size() != spec.graph.size()) {
    throw std::invalid_argument("estimate_inference: density size mismatch");
  }
  if (input_density < 0.0 || input_density > 1.0) {
    throw std::invalid_argument("estimate_inference: bad input density");
  }
  if (options.batch < 1) {
    throw std::invalid_argument("estimate_inference: batch must be >= 1");
  }

  // Raw-event readers scale fully with the live input density; deeper
  // activation densities respond sub-linearly (damped square-root, a
  // smooth stand-in for spike-rate saturation) around the measured probe.
  const double ratio =
      densities.measured_input_density > 0.0
          ? input_density / densities.measured_input_density
          : 1.0;
  const double deep_scale = std::clamp(std::sqrt(ratio), 0.6, 1.8);
  std::vector<bool> reads_input(spec.graph.size(), false);
  for (const int id : spec.graph.input_ids()) {
    reads_input[static_cast<std::size_t>(id)] = true;
  }

  // Per-node execution times at the assigned (PE, precision), density-
  // and batch-aware; the candidate latency then comes from the same
  // Eq. 3 list scheduler the mapper uses, so parallel branches (e.g.
  // HALSIE's event + image encoders on different PEs) overlap exactly as
  // they would on the platform.
  hw::TaskProfile profile;
  profile.nodes.resize(spec.graph.size());
  InferenceCost cost;
  hw::EnergyAccumulator energy(platform);

  for (const nn::LayerNode& node : spec.graph.nodes()) {
    const auto nid = static_cast<std::size_t>(node.id);
    hw::NodeProfile& np = profile.nodes[nid];
    np.node_id = node.id;
    np.mappable = node.spec.kind != nn::LayerKind::kInput &&
                  node.spec.kind != nn::LayerKind::kOutput;
    np.output_elements = node.spec.output_elements() *
                         static_cast<std::size_t>(options.batch);
    np.domain = nn::domain_of(node.spec.kind);
    np.time_us.assign(platform.pes.size(),
                      {std::numeric_limits<double>::infinity(),
                       std::numeric_limits<double>::infinity(),
                       std::numeric_limits<double>::infinity()});

    const sched::NodeAssignment& a = mapping.nodes[nid];
    if (a.pe < 0) {
      for (auto& row : np.time_us) row = {0.0, 0.0, 0.0};
      continue;
    }
    const hw::ProcessingElement& pe = platform.pe(a.pe);

    hw::LayerWorkload workload = hw::LayerWorkload::from_layer(node.spec);
    // Density of this node's *input* = density of its first parent's
    // output, scaled by the live-to-probe ratio (full for raw-event
    // readers, damped deeper in the network).
    double in_density = 1.0;
    if (!node.parents.empty()) {
      const auto pid = static_cast<std::size_t>(node.parents.front());
      const double scale = reads_input[pid] ? ratio : deep_scale;
      in_density = std::clamp(densities.density[pid] * scale, 0.0, 1.0);
    }
    workload.input_density = in_density;

    const int repeats =
        np.domain == nn::Domain::kSnn ? spec.timesteps : 1;

    hw::Route route = hw::Route::kDense;
    if (options.use_sparse_routes && pe.supports_sparse) {
      route = hw::best_route(pe, a.precision, workload);
    }
    double t = static_cast<double>(repeats) *
               hw::layer_latency_us(pe, a.precision, workload, route,
                                    options.batch);
    if (route == hw::Route::kSparse && options.charge_encode_overhead) {
      // Dense pipeline that wants sparse kernels must first encode its
      // dense activations to COO — per repeat and per batch element.
      t += static_cast<double>(repeats) * options.batch *
           hw::encode_to_sparse_us(pe, workload.input_elements, a.precision);
    }
    np.time_us[static_cast<std::size_t>(a.pe)]
              [static_cast<std::size_t>(a.precision)] = t;
    energy.add_busy(a.pe, a.precision, t);
  }

  sched::MappingCandidate candidate;
  candidate.tasks.push_back(mapping);
  const sched::ScheduleResult schedule =
      sched::schedule({spec}, {profile}, candidate, platform);
  cost.latency_us = schedule.max_task_latency_us;
  for (const sched::ScheduledOp& op : schedule.ops) {
    if (op.is_comm) {
      // Transfer energy: volume reconstructed from the op duration.
      const double bytes =
          std::max(0.0, (op.end_us - op.start_us) -
                            platform.transfer_sync_overhead_us) *
          platform.unified_mem_bandwidth_bytes_per_us;
      energy.add_transfer(bytes);
    }
  }
  cost.busy_energy_mj = energy.busy_mj() + energy.transfer_mj();
  return cost;
}

}  // namespace evedge::core
