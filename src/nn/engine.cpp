#include "nn/engine.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <random>
#include <stdexcept>
#include <string>

#include "nn/kernels.hpp"
#include "quant/int8_kernels.hpp"

namespace evedge::nn {

using sparse::DenseTensor;
using sparse::TensorShape;

namespace {

/// He-style init range: sqrt(2 / fan_in), clipped to a sane interval.
[[nodiscard]] float he_range(std::size_t fan_in) {
  const double r = std::sqrt(
      2.0 / static_cast<double>(std::max<std::size_t>(fan_in, 1)));
  return static_cast<float>(std::min(0.6, std::max(0.02, r)));
}

/// Raw steady_clock nanoseconds for ExecObserver stamps (the obs layer
/// rebases them onto its trace epoch).
[[nodiscard]] std::uint64_t exec_now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Shared validity check for weight-node access (const and non-const).
void require_weight_node(const std::vector<DenseTensor>& weights,
                         int node_id) {
  if (node_id < 0 || node_id >= static_cast<int>(weights.size()) ||
      weights[static_cast<std::size_t>(node_id)].size() == 0) {
    throw std::invalid_argument("node " + std::to_string(node_id) +
                                " has no weights");
  }
}

/// `t` itself when its extent is already h x w (no copy), else its
/// center crop, stored in `storage`.
const DenseTensor& cropped(const DenseTensor& t, int h, int w,
                           DenseTensor& storage) {
  if (t.shape().h == h && t.shape().w == w) return t;
  storage = center_crop(t, h, w);
  return storage;
}

}  // namespace

DenseTensor center_crop(const DenseTensor& t, int h, int w) {
  const TensorShape& s = t.shape();
  if (h > s.h || w > s.w) {
    throw std::invalid_argument("center_crop: target larger than source");
  }
  if (h == s.h && w == s.w) return t;
  const int oy = (s.h - h) / 2;
  const int ox = (s.w - w) / 2;
  DenseTensor out(TensorShape{s.n, s.c, h, w});
  for (int n = 0; n < s.n; ++n) {
    for (int c = 0; c < s.c; ++c) {
      for (int y = 0; y < h; ++y) {
        for (int x = 0; x < w; ++x) {
          out.at(n, c, y, x) = t.at(n, c, y + oy, x + ox);
        }
      }
    }
  }
  return out;
}

FunctionalNetwork::FunctionalNetwork(NetworkSpec spec, std::uint64_t seed)
    : spec_(std::move(spec)) {
  spec_.graph.validate();
  const auto n = spec_.graph.size();
  weights_.resize(n);
  biases_.resize(n);
  channel_leak_.resize(n);
  channel_threshold_.resize(n);
  lif_.resize(n);
  is_spiking_.assign(n, false);
  time_invariant_.assign(n, 0);

  std::mt19937_64 rng(seed);
  for (const LayerNode& node : spec_.graph.nodes()) {
    const LayerSpec& ls = node.spec;
    const auto idx = static_cast<std::size_t>(node.id);
    switch (ls.kind) {
      case LayerKind::kConv:
      case LayerKind::kTransposedConv:
      case LayerKind::kSpikingConv:
      case LayerKind::kAdaptiveSpikingConv: {
        weights_[idx] = DenseTensor(TensorShape{ls.conv.out_channels,
                                                ls.conv.in_channels,
                                                ls.conv.kernel,
                                                ls.conv.kernel});
        const auto fan_in = static_cast<std::size_t>(ls.conv.in_channels) *
                            static_cast<std::size_t>(ls.conv.kernel) *
                            static_cast<std::size_t>(ls.conv.kernel);
        weights_[idx].fill_random(rng(), he_range(fan_in));
        biases_[idx].assign(static_cast<std::size_t>(ls.conv.out_channels),
                            0.0f);
        break;
      }
      case LayerKind::kFullyConnected: {
        const auto in_features = ls.input_elements();
        weights_[idx] = DenseTensor(
            TensorShape{ls.fc_out, static_cast<int>(in_features), 1, 1});
        weights_[idx].fill_random(rng(), he_range(in_features));
        biases_[idx].assign(static_cast<std::size_t>(ls.fc_out), 0.0f);
        break;
      }
      default:
        break;
    }
    if (ls.kind == LayerKind::kSpikingConv ||
        ls.kind == LayerKind::kAdaptiveSpikingConv) {
      is_spiking_[idx] = true;
      if (ls.kind == LayerKind::kAdaptiveSpikingConv) {
        // Stand-in for learned per-channel dynamics: deterministic
        // per-channel leak/threshold spread around the shared values.
        std::uniform_real_distribution<float> leak_d(0.7f, 0.97f);
        std::uniform_real_distribution<float> vth_d(0.6f * ls.lif.v_threshold,
                                                    1.4f * ls.lif.v_threshold);
        for (int c = 0; c < ls.conv.out_channels; ++c) {
          channel_leak_[idx].push_back(leak_d(rng));
          channel_threshold_[idx].push_back(vth_d(rng));
        }
      }
      lif_[idx] = LifState(ls.out_shape, ls.lif, channel_leak_[idx],
                           channel_threshold_[idx]);
    }
  }
}

FunctionalNetwork FunctionalNetwork::clone() const {
  // Rebuild from the spec (cheapest way to get every derived table
  // right), then overwrite the learned state with the live values so
  // post-construction weight edits travel with the clone.
  FunctionalNetwork copy(spec_, 0);
  copy.weights_ = weights_;
  copy.biases_ = biases_;
  copy.channel_leak_ = channel_leak_;
  copy.channel_threshold_ = channel_threshold_;
  copy.lif_ = lif_;
  return copy;
}

DenseTensor& FunctionalNetwork::weights(int node_id) {
  require_weight_node(weights_, node_id);
  // The caller may edit through the reference: repack at the next run.
  packs_stale_ = true;
  return weights_[static_cast<std::size_t>(node_id)];
}

const DenseTensor& FunctionalNetwork::weights(int node_id) const {
  require_weight_node(weights_, node_id);
  return weights_[static_cast<std::size_t>(node_id)];
}

std::vector<float>& FunctionalNetwork::bias(int node_id) {
  if (node_id < 0 || node_id >= static_cast<int>(biases_.size())) {
    throw std::invalid_argument("bad node id");
  }
  return biases_[static_cast<std::size_t>(node_id)];
}

const std::vector<float>& FunctionalNetwork::bias(int node_id) const {
  if (node_id < 0 || node_id >= static_cast<int>(biases_.size())) {
    throw std::invalid_argument("bad node id");
  }
  return biases_[static_cast<std::size_t>(node_id)];
}

const quant::QuantPlan* FunctionalNetwork::set_quant_plan(
    const quant::QuantPlan* plan) {
  // Validate the whole plan before mutating any state: a rejected plan
  // must leave the previous execution mode fully intact.
  if (plan != nullptr) {
    for (const quant::NodeQuantPlan& nq : plan->nodes) {
      if (nq.node_id < 0 ||
          nq.node_id >= static_cast<int>(spec_.graph.size()) ||
          !is_weight_layer(spec_.graph.node(nq.node_id).spec.kind)) {
        throw std::invalid_argument("set_quant_plan: node " +
                                    std::to_string(nq.node_id) +
                                    " is not a weight layer of this graph");
      }
    }
  }
  const quant::QuantPlan* previous = quant_plan_;
  quant_plan_ = plan;
  node_quant_.assign(spec_.graph.size(), nullptr);
  if (plan != nullptr) {
    for (const quant::NodeQuantPlan& nq : plan->nodes) {
      node_quant_[static_cast<std::size_t>(nq.node_id)] = &nq;
    }
  }
  return previous;
}

const ExecutionPlan* FunctionalNetwork::set_execution_plan(
    const ExecutionPlan* plan) {
  // Validate the whole plan before mutating any state (atomic install,
  // mirroring set_quant_plan).
  if (plan != nullptr && !plan->route.empty()) {
    if (plan->route.size() != spec_.graph.size()) {
      throw std::invalid_argument(
          "set_execution_plan: route table size mismatch");
    }
    for (std::size_t i = 0; i < plan->route.size(); ++i) {
      const Route r = plan->route[i];
      if (r == Route::kDense) continue;
      const LayerNode& node = spec_.graph.node(static_cast<int>(i));
      const LayerSpec& ls = node.spec;
      if ((ls.kind != LayerKind::kConv && ls.kind != LayerKind::kSpikingConv &&
           ls.kind != LayerKind::kAdaptiveSpikingConv) ||
          node.parents.size() != 1) {
        throw std::invalid_argument("set_execution_plan: node " +
                                    std::to_string(i) +
                                    " cannot take a sparse route");
      }
      // The sparse kernels add bias at active sites only; a non-zero
      // bias would diverge from dense execution at inactive sites.
      for (const float b : biases_[i]) {
        if (b != 0.0f) {
          throw std::invalid_argument(
              "set_execution_plan: sparse route on node " +
              std::to_string(i) + " requires zero bias");
        }
      }
    }
  }
  const ExecutionPlan* previous = exec_plan_;
  exec_plan_ = plan;
  node_route_.assign(spec_.graph.size(), Route::kDense);
  if (plan != nullptr) {
    for (std::size_t i = 0;
         i < std::min(plan->route.size(), node_route_.size()); ++i) {
      node_route_[i] = plan->route[i];
    }
  }
  pack_routed_weights();
  return previous;
}

Route FunctionalNetwork::effective_route(std::size_t idx) const noexcept {
  // Hooks observe (and may mutate) dense activations of every node, so
  // any installed hook forces dense execution for the whole run.
  if (exec_plan_ == nullptr || activation_hook_) return Route::kDense;
  const Route r =
      idx < node_route_.size() ? node_route_[idx] : Route::kDense;
  if (r == Route::kDense) return r;
  // Simulate-mode quant nodes run the float fake-quant oracle, which is
  // defined over dense tensors.
  const quant::NodeQuantPlan* nq = node_quant(idx);
  if (nq != nullptr && quant_plan_->simulate) return Route::kDense;
  return r;
}

void FunctionalNetwork::pack_routed_weights() {
  // Quantized nodes reduce against the plan's own int8 rows, but the
  // quant plan can change while this plan stays installed, so every
  // sparse-routed node is packed whatever the quant plan says.
  for (std::size_t i = 0; i < node_route_.size(); ++i) {
    if (node_route_[i] == Route::kDense) continue;
    sparse::pack_conv_weights(weights_[i],
                              workspace_.packed_slot(static_cast<int>(i)));
  }
  packs_stale_ = false;
}

void FunctionalNetwork::densify(const sparse::SparseSample& sample,
                                sparse::DenseTensor& out) {
  out.reset(TensorShape{1, static_cast<int>(sample.size()),
                        sample.front().height(), sample.front().width()});
  sparse::channels_into_slice(sample, out, 0);
}

const DenseTensor& FunctionalNetwork::dense_value(int node_id) {
  const auto idx = static_cast<std::size_t>(node_id);
  if (!dense_valid_[idx]) {
    if (!sparse_valid_[idx]) {
      throw std::logic_error("dense_value: node " + std::to_string(node_id) +
                             " has no value this timestep");
    }
    densify(sparse_values_[idx], values_[idx]);
    dense_valid_[idx] = 1;
    ++exec_stats_.densify_boundaries;
  }
  return values_[idx];
}

const sparse::SparseSample& FunctionalNetwork::sparse_value(int node_id) {
  const auto idx = static_cast<std::size_t>(node_id);
  if (!sparse_valid_[idx]) {
    sparse_values_[idx] = sparse::dense_to_channels(dense_value(node_id));
    sparse_valid_[idx] = 1;
    ++exec_stats_.sparsify_boundaries;
  }
  return sparse_values_[idx];
}

void FunctionalNetwork::run_sparse_conv(const LayerNode& node,
                                        std::size_t idx) {
  const LayerSpec& ls = node.spec;
  const sparse::SparseSample& input = sparse_value(node.parents.front());
  sparse::SparseSample& out = sparse_values_[idx];
  sparse::ConvWork work;
  if (const quant::NodeQuantPlan* nq = node_quant(idx)) {
    // Real int8 gather kernels; the quant plan carries the packed int8
    // rows.
    out = quant::int8_sparse_conv2d_csr(input, nq->weights, biases_[idx],
                                        nq->input_scale, &work, &workspace_);
  } else {
    const std::vector<float>& packed =
        workspace_.packed_slot(static_cast<int>(idx));
    out = sparse::sparse_conv2d_csr(input, weights_[idx], biases_[idx],
                                    ls.conv, &work, &workspace_, packed);
  }
  sparse_valid_[idx] = 1;
  dense_valid_[idx] = 0;
  ++exec_stats_.sparse_node_runs;
  exec_stats_.sparse_macs += work.sparse_macs;
  exec_stats_.dense_macs_avoided += work.dense_macs;
}

void FunctionalNetwork::synaptic_current(const LayerNode& node,
                                         std::size_t idx,
                                         DenseTensor& current) {
  const LayerSpec& ls = node.spec;
  const int parent = node.parents.front();
  const Route route = effective_route(idx);
  const quant::NodeQuantPlan* nq = node_quant(idx);
  if (route == Route::kCsr && nq == nullptr) {
    // FP32 sparse: both forms write the site-major current directly
    // against the node's packed [tap][oc] rows, bitwise the CSR result
    // densified. Narrow layers scatter each (entry, tap) into its site's
    // row; wide layers keep the gather reduction, whose per-site sums
    // land in the rows instead of per-channel COO.
    const sparse::SparseSample& input = sparse_value(parent);
    const std::vector<float>& packed =
        workspace_.packed_slot(static_cast<int>(idx));
    sparse::ConvWork work;
    if (scatter_current_route(ls.conv)) {
      sparse::sparse_conv2d_rows(input, weights_[idx], biases_[idx], ls.conv,
                                 packed, current, &work);
    } else {
      sparse::sparse_conv2d_csr_rows(input, weights_[idx], biases_[idx],
                                     ls.conv, current, &work, &workspace_,
                                     packed);
    }
    ++exec_stats_.sparse_node_runs;
    exec_stats_.sparse_macs += work.sparse_macs;
    exec_stats_.dense_macs_avoided += work.dense_macs;
  } else if (route != Route::kDense) {
    // Int8 sparse keeps its COO kernel; the current crosses into rows
    // once.
    run_sparse_conv(node, idx);
    sparse::channels_into_rows(sparse_values_[idx], current);
    ++exec_stats_.densify_boundaries;
    // The carrier held the pre-LIF current, not this node's output —
    // invalidate it before the spikes land.
    sparse_valid_[idx] = 0;
  } else {
    // Dense current: the NCHW kernel writes the node's own output
    // buffer, which the LIF step overwrites with spikes next, and the
    // current crosses into rows once.
    DenseTensor& chw = values_[idx];
    if (nq != nullptr) {
      run_quant_conv(*nq, dense_value(parent), biases_[idx], chw);
    } else {
      conv2d_into(dense_value(parent), weights_[idx], biases_[idx], ls.conv,
                  chw, &workspace_);
    }
    sparse::to_site_major(chw, current);
  }
}

void FunctionalNetwork::run_quant_conv(const quant::NodeQuantPlan& nq,
                                       const DenseTensor& input,
                                       std::span<const float> bias,
                                       DenseTensor& out) {
  if (quant_plan_->simulate) {
    quant::quantize_activations_reference(input, nq.input_scale,
                                          quant_staging_);
    conv2d_into(quant_staging_, nq.weights.fake, bias, nq.weights.spec, out,
                &workspace_);
    return;
  }
  quant::int8_conv2d_into(input, nq.weights, bias, nq.input_scale, out,
                          &workspace_);
}

void FunctionalNetwork::run_quant_tconv(const quant::NodeQuantPlan& nq,
                                        const DenseTensor& input,
                                        std::span<const float> bias,
                                        DenseTensor& out) {
  if (quant_plan_->simulate) {
    quant::quantize_activations_reference(input, nq.input_scale,
                                          quant_staging_);
    transposed_conv2d_into(quant_staging_, nq.weights.fake, bias,
                           nq.weights.spec, out, &workspace_);
    return;
  }
  quant::int8_transposed_conv2d_into(input, nq.weights, bias, nq.input_scale,
                                     out, &workspace_);
}

DenseTensor FunctionalNetwork::run_quant_fc(const quant::NodeQuantPlan& nq,
                                            const DenseTensor& input,
                                            std::span<const float> bias) {
  if (quant_plan_->simulate) {
    quant::quantize_activations_reference(input, nq.input_scale,
                                          quant_staging_);
    return fully_connected(quant_staging_, nq.weights.fake, bias);
  }
  return quant::int8_fully_connected(input, nq.weights, bias, nq.input_scale,
                                     &workspace_);
}

void FunctionalNetwork::reset_spiking_state() {
  for (std::size_t i = 0; i < lif_.size(); ++i) {
    if (is_spiking_[i]) lif_[i].reset();
  }
}

DenseTensor FunctionalNetwork::run(std::span<const DenseTensor> event_steps,
                                   const DenseTensor* image) {
  for (const DenseTensor& step : event_steps) {
    if (step.shape().n != 1) {
      throw std::invalid_argument(
          "run: event steps must be batch 1 (use run_batched)");
    }
  }
  return run_batched(event_steps, image);
}

DenseTensor FunctionalNetwork::run_batched(
    std::span<const DenseTensor> event_steps, const DenseTensor* image) {
  if (event_steps.empty()) {
    throw std::invalid_argument("run_batched: no event steps");
  }
  const int batch = event_steps[0].shape().n;
  for (const DenseTensor& step : event_steps) {
    if (step.shape().n != batch) {
      throw std::invalid_argument("run_batched: inconsistent batch sizes");
    }
  }
  if (static_cast<int>(event_steps.size()) != spec_.timesteps) {
    throw std::invalid_argument(
        "run: expected " + std::to_string(spec_.timesteps) +
        " timestep inputs, got " + std::to_string(event_steps.size()));
  }
  return run_lanes(batch, event_steps, {}, image);
}

DenseTensor FunctionalNetwork::run_events(
    std::span<const sparse::SparseSample> events, const DenseTensor* image) {
  if (events.empty()) {
    throw std::invalid_argument("run_events: no event samples");
  }
  // Callers outside the serving worker build samples by hand, so each
  // one is checked against the event input before the run touches it.
  const TensorShape& in =
      spec_.graph.node(spec_.graph.input_ids().front()).spec.out_shape;
  for (const sparse::SparseSample& sample : events) {
    if (static_cast<int>(sample.size()) != in.c) {
      throw std::invalid_argument(
          "run_events: sample has " + std::to_string(sample.size()) +
          " channels, the event input takes " + std::to_string(in.c));
    }
    for (const sparse::CooChannel& ch : sample) {
      if (ch.height() != in.h || ch.width() != in.w) {
        throw std::invalid_argument(
            "run_events: channel extent " + std::to_string(ch.height()) +
            "x" + std::to_string(ch.width()) + " differs from the event "
            "input's " + std::to_string(in.h) + "x" + std::to_string(in.w));
      }
      try {
        ch.validate();
      } catch (const std::logic_error& e) {
        throw std::invalid_argument(std::string("run_events: ") + e.what());
      }
    }
  }
  return run_lanes(static_cast<int>(events.size()), {}, events, image);
}

void FunctionalNetwork::mark_time_invariant(int event_input,
                                            bool events_invariant) {
  for (const LayerNode& node : spec_.graph.nodes()) {
    const auto idx = static_cast<std::size_t>(node.id);
    if (node.spec.kind == LayerKind::kInput) {
      // Further inputs (the grayscale image) are constant across the
      // presentation, and so is the event input when run_events presents
      // one sample at every timestep.
      time_invariant_[idx] = node.id != event_input || events_invariant;
      continue;
    }
    // Stateless nodes fed only by constant inputs compute the same
    // value at every timestep — run_sample caches them after t == 0.
    bool invariant = !node.parents.empty();
    for (const int parent : node.parents) {
      invariant =
          invariant && time_invariant_[static_cast<std::size_t>(parent)] != 0;
    }
    time_invariant_[idx] =
        invariant && domain_of(node.spec.kind) == Domain::kAnn;
  }
}

DenseTensor FunctionalNetwork::run_lanes(
    int batch, std::span<const DenseTensor> event_steps,
    std::span<const sparse::SparseSample> events, const DenseTensor* image) {
  if (image != nullptr && image->shape().n != 1 &&
      image->shape().n != batch) {
    throw std::invalid_argument("run: image batch must be 1 or N");
  }
  const std::vector<int> inputs = spec_.graph.input_ids();
  if (inputs.size() > 1 && image == nullptr) {
    throw std::invalid_argument("run: network requires an image input");
  }

  // Per-call setup, shared by every sample of the call.
  const std::size_t n_nodes = spec_.graph.size();
  values_.resize(n_nodes);
  sparse_values_.resize(n_nodes);
  kept_current_.resize(n_nodes);
  exec_stats_ = ExecStats{};
  if (packs_stale_) pack_routed_weights();
  // Spiking nodes feeding a sparse-routed consumer this run emit their
  // spikes as COO directly (LifState::step_sites), skipping the consumer's
  // chain-head dense_to_channels re-scan of a spike tensor that was just
  // written. Dense consumers (skip connections) densify lazily — spikes
  // are exactly 1.0f, so both representations are bitwise identical.
  spike_sparse_emit_.assign(n_nodes, 0);
  if (exec_plan_ != nullptr && !activation_hook_) {
    for (const LayerNode& node : spec_.graph.nodes()) {
      if (node.parents.size() != 1 ||
          effective_route(static_cast<std::size_t>(node.id)) ==
              Route::kDense) {
        continue;
      }
      const auto pidx = static_cast<std::size_t>(node.parents.front());
      if (is_spiking_[pidx]) spike_sparse_emit_[pidx] = 1;
    }
  }
  const int event_input = inputs.front();
  const int output = spec_.graph.output_ids().front();
  mark_time_invariant(event_input, /*events_invariant=*/!events.empty());

  // Samples run one after another through the batch-1 path, so lane n
  // is exactly run() on sample n.
  const auto lane_events = [&events](int n) {
    return events.empty() ? nullptr : &events[static_cast<std::size_t>(n)];
  };
  if (batch == 1) {
    return run_sample(event_steps, lane_events(0), image, 0, event_input,
                      output);
  }
  DenseTensor out;
  for (int n = 0; n < batch; ++n) {
    const DenseTensor lane = run_sample(event_steps, lane_events(n), image, n,
                                       event_input, output);
    if (n == 0) {
      const TensorShape& ls = lane.shape();
      out.reset(TensorShape{batch, ls.c, ls.h, ls.w});
    }
    std::copy(lane.raw(), lane.raw() + lane.size(),
              out.raw() + static_cast<std::size_t>(n) * lane.size());
  }
  return out;
}

DenseTensor FunctionalNetwork::run_sample(
    std::span<const DenseTensor> event_steps,
    const sparse::SparseSample* events, const DenseTensor* image, int lane,
    int event_input, int output) {
  reset_spiking_state();

  DenseTensor accumulated;
  const std::size_t n_nodes = spec_.graph.size();
  std::vector<DenseTensor>& values = values_;

  // Timestep-invariant caching: stateless nodes fed only by constant
  // inputs compute identical values every timestep (e.g. the whole
  // Fusion-FlowNet / HALSIE image encoder, and under run_events the
  // event input itself), so after t == 0 they are skipped and their
  // cached value reused — bitwise identical to recomputation. A spiking
  // node fed by such a node keeps its t == 0 synaptic current. Hooks
  // observe (and may mutate) every node at every timestep, so an
  // installed hook disables both.
  const bool cache_invariant = !activation_hook_;

  for (int t = 0; t < spec_.timesteps; ++t) {
    // Every non-cached node recomputes this timestep; neither
    // representation of the previous step's activations is valid any
    // more.
    if (t == 0 || !cache_invariant) {
      dense_valid_.assign(n_nodes, 0);
      sparse_valid_.assign(n_nodes, 0);
    } else {
      for (std::size_t i = 0; i < n_nodes; ++i) {
        if (!time_invariant_[i]) {
          dense_valid_[i] = 0;
          sparse_valid_[i] = 0;
        }
      }
    }
    for (const LayerNode& node : spec_.graph.nodes()) {
      const LayerSpec& ls = node.spec;
      const auto idx = static_cast<std::size_t>(node.id);
      if (t > 0 && cache_invariant && time_invariant_[idx] &&
          (dense_valid_[idx] || sparse_valid_[idx])) {
        continue;  // cached from t == 0
      }
      ++exec_stats_.node_executions;
      std::uint64_t obs_t0 = 0;
      if (exec_observer_ != nullptr) obs_t0 = exec_now_ns();
      // Dense node outputs land in the persistent per-node buffer, so
      // steady state reuses the previous call's allocations; sparse
      // routes fill the per-node COO carrier instead and densify lazily
      // at route boundaries (dense_value).
      DenseTensor& out = values[idx];
      switch (ls.kind) {
        case LayerKind::kInput: {
          if (node.id == event_input && events != nullptr) {
            // run_events: the sample (validated there) is the node's COO
            // carrier; sparse consumers read it as is and a dense
            // consumer densifies it once (dense_value).
            sparse_values_[idx] = *events;
            sparse_valid_[idx] = 1;
            break;
          }
          const DenseTensor& src =
              node.id == event_input
                  ? event_steps[static_cast<std::size_t>(t)]
                  : *image;
          const TensorShape& ss = src.shape();
          if (ss.c != ls.out_shape.c || ss.h != ls.out_shape.h ||
              ss.w != ls.out_shape.w) {
            throw std::invalid_argument("run: input shape mismatch at '" +
                                        ls.name + "'");
          }
          // A [1, ...] image is shared by every lane.
          sparse::copy_sample(src, ss.n == 1 ? 0 : lane, out);
          dense_valid_[idx] = 1;
          break;
        }
        case LayerKind::kConv: {
          const Route route = effective_route(idx);
          if (route != Route::kDense) {
            run_sparse_conv(node, idx);
            if (ls.relu_after) {
              // Sparse ReLU: dropping negative entries leaves exactly
              // relu() of the dense image (implicit zeros are fixpoints).
              sparse::relu_sample_inplace(sparse_values_[idx]);
            }
            break;
          }
          const DenseTensor& src = dense_value(node.parents[0]);
          if (const auto* nq = node_quant(idx)) {
            run_quant_conv(*nq, src, biases_[idx], out);
          } else {
            conv2d_into(src, weights_[idx], biases_[idx], ls.conv, out,
                        &workspace_);
          }
          if (ls.relu_after) relu_inplace(out);
          dense_valid_[idx] = 1;
          break;
        }
        case LayerKind::kTransposedConv: {
          const DenseTensor& src = dense_value(node.parents[0]);
          if (const auto* nq = node_quant(idx)) {
            run_quant_tconv(*nq, src, biases_[idx], out);
          } else {
            transposed_conv2d_into(src, weights_[idx], biases_[idx],
                                   ls.conv, out, &workspace_);
          }
          if (ls.relu_after) relu_inplace(out);
          dense_valid_[idx] = 1;
          break;
        }
        case LayerKind::kSpikingConv:
        case LayerKind::kAdaptiveSpikingConv: {
          // The synaptic-current conv routes dense or sparse into a
          // site-major [H, W, C] current, which the LIF update steps in
          // place (membrane state is dense by nature). The spikes leave
          // dense into the node's buffer, or as COO when a sparse-routed
          // consumer reads them (spike_sparse_emit_).
          // Fed by a timestep-invariant parent, the node computes its
          // current once, at t == 0, into a kept per-node buffer: the
          // same input gives the same floats at every step.
          const int parent = node.parents.front();
          const bool keep =
              cache_invariant &&
              time_invariant_[static_cast<std::size_t>(parent)] != 0;
          DenseTensor& current = keep ? kept_current_[idx] : conv_scratch_;
          if (!keep || t == 0) synaptic_current(node, idx, current);
          if (spike_sparse_emit_[idx]) {
            lif_[idx].step_sites(current, spike_staging_);
            const TensorShape& os = lif_[idx].shape();
            sparse::SparseSample& sample = sparse_values_[idx];
            sample.resize(static_cast<std::size_t>(os.c));
            for (int c = 0; c < os.c; ++c) {
              sample[static_cast<std::size_t>(c)] =
                  sparse::CooChannel::from_sorted_entries(
                      os.h, os.w,
                      std::move(spike_staging_.front()
                                              [static_cast<std::size_t>(c)]));
            }
            sparse_valid_[idx] = 1;
            dense_valid_[idx] = 0;
          } else {
            lif_[idx].step_sites(current, out);
            dense_valid_[idx] = 1;
          }
          break;
        }
        case LayerKind::kFullyConnected: {
          const DenseTensor& src = dense_value(node.parents[0]);
          if (const auto* nq = node_quant(idx)) {
            out = run_quant_fc(*nq, src, biases_[idx]);
          } else {
            out = fully_connected(src, weights_[idx], biases_[idx]);
          }
          dense_valid_[idx] = 1;
          break;
        }
        case LayerKind::kMaxPool:
          out = max_pool(dense_value(node.parents[0]), ls.pool_kernel);
          dense_valid_[idx] = 1;
          break;
        case LayerKind::kAvgPool:
          out = avg_pool(dense_value(node.parents[0]), ls.pool_kernel);
          dense_valid_[idx] = 1;
          break;
        case LayerKind::kUpsample:
          out = upsample_nearest(dense_value(node.parents[0]),
                                 ls.upsample_factor);
          dense_valid_[idx] = 1;
          break;
        case LayerKind::kConcat:
        case LayerKind::kAdd: {
          const DenseTensor& a = dense_value(node.parents[0]);
          const DenseTensor& b = dense_value(node.parents[1]);
          const int h = std::min(a.shape().h, b.shape().h);
          const int w = std::min(a.shape().w, b.shape().w);
          DenseTensor crop_a;
          DenseTensor crop_b;
          const DenseTensor& ca = cropped(a, h, w, crop_a);
          const DenseTensor& cb = cropped(b, h, w, crop_b);
          out = ls.kind == LayerKind::kConcat ? concat_channels(ca, cb)
                                              : add(ca, cb);
          dense_valid_[idx] = 1;
          break;
        }
        case LayerKind::kOutput:
          out = dense_value(node.parents[0]);
          dense_valid_[idx] = 1;
          break;
      }
      if (activation_hook_ && ls.kind != LayerKind::kInput &&
          ls.kind != LayerKind::kOutput) {
        activation_hook_(node.id, out);
      }
      if (exec_observer_ != nullptr) {
        exec_observer_->on_node(node.id, effective_route(idx), t, obs_t0,
                                exec_now_ns(), 0, 1);
      }
    }

    const DenseTensor& step_out = values[static_cast<std::size_t>(output)];
    if (t == 0) {
      accumulated = step_out;
    } else {
      accumulated = add(accumulated, step_out);
    }
  }

  if (spec_.timesteps > 1) {
    const float inv = 1.0f / static_cast<float>(spec_.timesteps);
    for (float& v : accumulated.data()) v *= inv;
  }
  return accumulated;
}

double FunctionalNetwork::mean_firing_rate(int node_id) const {
  if (node_id < 0 || node_id >= static_cast<int>(lif_.size())) return 0.0;
  const auto idx = static_cast<std::size_t>(node_id);
  return is_spiking_[idx] ? lif_[idx].mean_firing_rate() : 0.0;
}

double FunctionalNetwork::network_firing_rate() const {
  double acc = 0.0;
  int count = 0;
  for (std::size_t i = 0; i < lif_.size(); ++i) {
    if (is_spiking_[i]) {
      acc += lif_[i].mean_firing_rate();
      ++count;
    }
  }
  return count > 0 ? acc / count : 0.0;
}

}  // namespace evedge::nn
