#pragma once

// FunctionalNetwork: numerically executes a NetworkSpec on the CPU.
// This is the substrate behind every accuracy experiment: quantization
// and DSFA merging perturb the inputs/weights and the resulting output
// deviation (vs. the FP32 unmerged reference) drives the task metrics.
//
// Execution model (Background §2 input representations):
//  - SNN / hybrid nets: the event bins are presented sequentially as
//    `timesteps` 2-channel frames; spiking layers keep membrane state
//    across steps; the network output is the mean over timesteps.
//    run_events presents one COO event sample (a DSFA merged frame) at
//    every timestep; run()/run_batched() take one dense tensor per step.
//  - pure ANN nets: timesteps == 1 and all bins are stacked as channels.
//  - two-input nets (Fusion-FlowNet, HALSIE) additionally take a
//    grayscale image, constant across timesteps.
//  - spiking layers hold their synaptic current and LIF membrane
//    site-major, [H, W, C] per sample (the C channels of one site
//    contiguous; lif.hpp). An FP32 sparse-routed spiking conv writes the
//    current in that layout directly (the scatter route for narrow
//    layers, the gather reduction's row sink for wide ones); every
//    other current source (dense, int8, simulate mode) keeps its kernel
//    and crosses into rows once. The LIF step emits the
//    spikes into the node's persistent NCHW buffer, or as per-channel
//    COO when a sparse-routed consumer reads them.
//
// Execution routes (exec_plan.hpp): with an ExecutionPlan installed, each
// conv-shaped node executes kDense or kCsr. Sparse-routed nodes consume
// and produce a COO activation carrier, so consecutive sparse layers
// chain in sparse form end to end; the engine crosses representations
// (sparsify/densify) only at route boundaries. kCsr results are bitwise
// identical to dense execution (zero-bias layers).

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "nn/exec_plan.hpp"
#include "nn/graph.hpp"
#include "nn/lif.hpp"
#include "sparse/sparse_ops.hpp"
#include "sparse/workspace.hpp"

namespace evedge::quant {
// Engine-side precision plan (quant/int8_kernels.hpp); held by pointer
// only, so the int8 backend headers stay out of every nn consumer.
struct QuantPlan;
struct NodeQuantPlan;
}  // namespace evedge::quant

namespace evedge::nn {

/// Per-call telemetry of the route-dispatched executor (reset by every
/// run()/run_batched()/run_events(); counters accumulate over timesteps
/// and, in a multi-sample call, over its samples: the call reports the
/// field-wise sum of its per-sample stats).
struct ExecStats {
  std::size_t node_executions = 0;     ///< nodes actually executed (the
                                       ///< timestep-invariant cache skips
                                       ///< constant-image subgraphs and,
                                       ///< under run_events, the event
                                       ///< input after t == 0)
  std::size_t sparse_node_runs = 0;    ///< sparse-route conv kernels run
                                       ///< (a spiking node keeping its
                                       ///< t == 0 current counts once per
                                       ///< sample)
  std::size_t sparsify_boundaries = 0; ///< dense -> COO carrier conversions
  std::size_t densify_boundaries = 0;  ///< COO carrier -> dense conversions
                                       ///< (incl. a COO current crossing
                                       ///< into a spiking node's rows)
  std::size_t sparse_macs = 0;         ///< MACs the sparse kernels executed
  std::size_t dense_macs_avoided = 0;  ///< dense MACs the routes replaced
};

/// Per-node execution observer: on_node fires once after every node the
/// engine actually executes (cache-skipped nodes never fire), with the
/// route the node took, the timestep, and raw steady_clock nanosecond
/// stamps bracketing the node's kernel (+ activation hook). A
/// multi-sample call runs its samples one after another,
/// so the observer sees each sample's executions in turn (the timestep
/// restarts at 0 per sample): exactly ExecStats::node_executions calls
/// per call. Every node runs as one piece, so the engine passes
/// (tile, tile_count) == (0, 1) on every call; the two trailing
/// parameters stay in the signature so existing observers keep
/// compiling. The engine holds the observer as a non-owning pointer and
/// calls it from the run thread only; implementations must be noexcept
/// and cheap — this sits inside the per-node loop. The obs layer's
/// LayerProfiler builds per-layer execution profiles on top of this
/// hook.
class ExecObserver {
 public:
  virtual ~ExecObserver() = default;
  virtual void on_node(int node_id, Route route, int timestep,
                       std::uint64_t t0_ns, std::uint64_t t1_ns, int tile,
                       int tile_count) noexcept = 0;
};

class FunctionalNetwork {
 public:
  /// Materializes weights (He-scaled uniform, deterministic in `seed`) and
  /// per-channel LIF parameters for adaptive spiking layers.
  FunctionalNetwork(NetworkSpec spec, std::uint64_t seed);

  /// Deep copy for concurrent workers: identical spec, weights, biases
  /// and LIF parameters (including any post-construction weight edits),
  /// with a fresh workspace and value buffers, and with NO activation
  /// hook, exec observer, quant plan or execution plan carried over —
  /// plans are
  /// non-owning pointers into caller state, so every clone installs its
  /// own. Clones share no mutable state with the original: running them
  /// on separate threads is safe and bitwise reproduces the original
  /// (the serve worker-pool contract; see test_serve).
  [[nodiscard]] FunctionalNetwork clone() const;

  /// Runs one inference. `event_steps` must contain spec.timesteps
  /// tensors shaped like the event input node; `image`, when the graph
  /// has a second input, must match its shape. Returns the output-node
  /// tensor averaged over timesteps.
  [[nodiscard]] sparse::DenseTensor run(
      std::span<const sparse::DenseTensor> event_steps,
      const sparse::DenseTensor* image = nullptr);

  /// Batched inference over a DSFA merge batch: every tensor in
  /// `event_steps` is [N, C, H, W] (all with the same N) and the result
  /// is the [N, ...] output tensor whose sample n is bitwise identical
  /// to run() over sample n alone — the samples run one after another
  /// through run()'s batch-1 path, each from rest. `image`, when
  /// required, may be [1, ...] (shared by every sample) or [N, ...].
  /// The dense reference path (ServingRuntime::run_serial).
  [[nodiscard]] sparse::DenseTensor run_batched(
      std::span<const sparse::DenseTensor> event_steps,
      const sparse::DenseTensor* image = nullptr);

  /// Event-proportional inference over N merged frames given as COO
  /// samples (core::frame_to_event_sample), each presented unchanged at
  /// every timestep — the serving workers' entry point. Lane n of the
  /// [N, ...] result is bitwise run_batched() over the dense steps of
  /// sample n (core::frames_to_event_steps of the same frame). The event
  /// input adopts the sample as its COO carrier: sparse-routed consumers
  /// read it with no sparsify step, and a dense consumer densifies it
  /// once per sample. The input joins the timestep-invariant set, so a
  /// spiking layer fed by it computes its synaptic current once per
  /// sample and steps LIF on that kept current (off while an activation
  /// hook is installed, like the rest of the invariant cache). Every
  /// sample must have the event input's channel count and extents, and
  /// every channel must pass CooChannel::validate(); otherwise throws
  /// std::invalid_argument. `image` as in run_batched().
  [[nodiscard]] sparse::DenseTensor run_events(
      std::span<const sparse::SparseSample> events,
      const sparse::DenseTensor* image = nullptr);

  [[nodiscard]] const NetworkSpec& spec() const noexcept { return spec_; }

  /// Learned parameters of a weight node (throws for helper nodes).
  /// The non-const accessor marks the installed plan's packed weight
  /// rows stale, so the next run repacks them: edit through the
  /// reference before that run (re-fetch it to edit again later).
  [[nodiscard]] sparse::DenseTensor& weights(int node_id);
  [[nodiscard]] const sparse::DenseTensor& weights(int node_id) const;
  [[nodiscard]] std::vector<float>& bias(int node_id);
  [[nodiscard]] const std::vector<float>& bias(int node_id) const;

  /// Hook applied to each node's activations right after it executes
  /// (used by the quantization module for fake-quant inference).
  /// Returns the previously installed hook so scoped users (e.g. the
  /// calibration pass) can restore rather than clobber it.
  using ActivationHook =
      std::function<void(int node_id, sparse::DenseTensor& activation)>;
  ActivationHook set_activation_hook(ActivationHook hook) {
    ActivationHook previous = std::move(activation_hook_);
    activation_hook_ = std::move(hook);
    return previous;
  }

  /// Per-layer precision mode: nodes named in `plan` execute through the
  /// INT8 kernels (or their float fake-quant twin when plan->simulate),
  /// every other node runs FP32 — mixed-precision networks are the
  /// normal case, since the mapper assigns precision per layer. The plan
  /// is non-owning and must outlive its installation; it snapshots
  /// weights at build time (quant::build_quant_plan), so mutating
  /// weights() afterwards requires rebuilding it. nullptr restores pure
  /// FP32 execution. Applies to run() and run_batched() alike; per-node
  /// plan entries must reference weight nodes of this graph (the whole
  /// plan is validated before any state changes). Returns the
  /// previously installed plan for scoped save/restore.
  const quant::QuantPlan* set_quant_plan(const quant::QuantPlan* plan);

  /// Per-node execution routes (exec_plan.hpp): nodes routed kCsr
  /// execute the sparse kernels on a COO activation carrier (the int8
  /// sparse kernels when the node is also in the quant plan), every
  /// other node runs the dense path. The plan is non-owning and must
  /// outlive its installation; the whole plan is validated before any
  /// state changes (routes only on conv-shaped zero-bias nodes).
  /// nullptr restores all-dense execution. While an activation hook is
  /// installed, every node runs dense (hooks observe and may mutate
  /// dense activations). Installing a plan packs the [tap][oc] weight
  /// rows of every sparse-routed node once, whatever the quant plan says
  /// (weights() repacks after an edit). Returns the previously installed
  /// plan for scoped save/restore.
  const ExecutionPlan* set_execution_plan(const ExecutionPlan* plan);
  [[nodiscard]] const ExecutionPlan* execution_plan() const noexcept {
    return exec_plan_;
  }

  /// Route/boundary telemetry of the last run() / run_batched() /
  /// run_events(); a multi-sample call reports the sum over its samples
  /// (ExecStats).
  [[nodiscard]] const ExecStats& last_exec_stats() const noexcept {
    return exec_stats_;
  }

  /// Installs a per-node timing observer (nullptr uninstalls). The
  /// pointer is non-owning and must outlive its installation; when no
  /// observer is installed the per-node cost is a single null check —
  /// no clocks are read. Not carried by clone() (observers are
  /// per-thread state, like plans and hooks). Returns the previously
  /// installed observer for scoped save/restore.
  ExecObserver* set_exec_observer(ExecObserver* observer) noexcept {
    ExecObserver* previous = exec_observer_;
    exec_observer_ = observer;
    return previous;
  }
  [[nodiscard]] ExecObserver* exec_observer() const noexcept {
    return exec_observer_;
  }

  /// Mean firing rate of a spiking node measured over the last run()
  /// (0 for non-spiking nodes or before any run). Every sample starts
  /// from reset LIF state, so after a multi-sample run_batched() call
  /// this is the rate of the call's last sample.
  [[nodiscard]] double mean_firing_rate(int node_id) const;

  /// Mean firing rate across all spiking nodes over the last run() (the
  /// last sample of a multi-sample call).
  [[nodiscard]] double network_firing_rate() const;

  /// The scratch arena threaded through every kernel this network runs
  /// (im2col columns, gather rows, ...). Exposed for observability —
  /// tests assert it stops growing once warm.
  [[nodiscard]] const sparse::Workspace& workspace() const noexcept {
    return workspace_;
  }

 private:
  void reset_spiking_state();
  /// Fills time_invariant_ for one call: the image input, the event
  /// input when `events_invariant` (run_events), and every stateless
  /// node fed only by invariant nodes.
  void mark_time_invariant(int event_input, bool events_invariant);
  /// The shared body of run_batched() and run_events(): per-call setup,
  /// then every lane through run_sample. Exactly one of `event_steps`
  /// (dense, one tensor per timestep) and `events` (one COO sample per
  /// lane) is non-empty.
  [[nodiscard]] sparse::DenseTensor run_lanes(
      int batch, std::span<const sparse::DenseTensor> event_steps,
      std::span<const sparse::SparseSample> events,
      const sparse::DenseTensor* image);
  /// Runs sample `lane` of the call's inputs (the per-call setup in
  /// run_lanes() already ran) and returns its [1, ...] output. `events`
  /// is the lane's COO sample under run_events, nullptr otherwise.
  [[nodiscard]] sparse::DenseTensor run_sample(
      std::span<const sparse::DenseTensor> event_steps,
      const sparse::SparseSample* events, const sparse::DenseTensor* image,
      int lane, int event_input, int output);
  /// The active plan entry for a node (nullptr when the node runs FP32).
  [[nodiscard]] const quant::NodeQuantPlan* node_quant(
      std::size_t idx) const noexcept {
    return idx < node_quant_.size() ? node_quant_[idx] : nullptr;
  }
  /// Executes one conv-shaped node through the plan entry: the int8
  /// kernel, or — in simulate mode — the float kernel over the
  /// fake-quantized operands (identical quantization decisions).
  void run_quant_conv(const quant::NodeQuantPlan& nq,
                      const sparse::DenseTensor& input,
                      std::span<const float> bias,
                      sparse::DenseTensor& out);
  void run_quant_tconv(const quant::NodeQuantPlan& nq,
                       const sparse::DenseTensor& input,
                       std::span<const float> bias,
                       sparse::DenseTensor& out);
  [[nodiscard]] sparse::DenseTensor run_quant_fc(
      const quant::NodeQuantPlan& nq, const sparse::DenseTensor& input,
      std::span<const float> bias);

  // --- Route-dispatched execution (exec_plan.hpp) -----------------------
  /// The route a node actually takes this run: the plan's route, demoted
  /// to kDense while an activation hook is installed or for quant
  /// simulate-mode nodes (the fake-quant twin is a dense oracle).
  [[nodiscard]] Route effective_route(std::size_t idx) const noexcept;
  /// Packs [tap][oc] weight rows for every sparse-routed node into the
  /// workspace's per-node slots: when a plan is installed, and again at
  /// the next run after the non-const weights() accessor handed out a
  /// reference.
  void pack_routed_weights();
  /// Dense view of a node's output, densifying the COO carrier on first
  /// access (cached for the rest of the timestep).
  [[nodiscard]] const sparse::DenseTensor& dense_value(int node_id);
  /// COO carrier view of a node's output, sparsifying the dense tensor
  /// on first access (cached for the rest of the timestep).
  [[nodiscard]] const sparse::SparseSample& sparse_value(int node_id);
  /// Executes one conv-shaped kCsr node into its COO carrier (float
  /// gather kernel, or the int8 one when planned).
  void run_sparse_conv(const LayerNode& node, std::size_t idx);
  /// Computes a spiking node's synaptic current (its conv, on the node's
  /// route) into the site-major [1, H, W, C] `current` its LIF state
  /// steps on: FP32 kCsr nodes write it directly (scatter or gather row
  /// sink, by scatter_current_route), int8 kCsr nodes through their COO
  /// kernel, dense nodes through their NCHW kernel.
  void synaptic_current(const LayerNode& node, std::size_t idx,
                        sparse::DenseTensor& current);
  /// Densifies `sample` into `out` ([1, C, H, W]).
  void densify(const sparse::SparseSample& sample, sparse::DenseTensor& out);

  NetworkSpec spec_;
  std::vector<sparse::DenseTensor> weights_;   // per node (empty if none)
  std::vector<std::vector<float>> biases_;     // per node
  std::vector<std::vector<float>> channel_leak_;       // adaptive LIF
  std::vector<std::vector<float>> channel_threshold_;  // adaptive LIF
  std::vector<LifState> lif_;                  // per node (spiking only)
  std::vector<bool> is_spiking_;
  // Nodes whose value cannot change across timesteps this call (the
  // constant image input, the event input under run_events, and every
  // stateless node fed only by such nodes); run_sample computes them
  // once per sample instead of once per timestep.
  std::vector<std::uint8_t> time_invariant_;
  ActivationHook activation_hook_;
  // Steady-state buffers: per-node activations, the spiking-conv synaptic
  // current staging tensor (site-major) and the kernel scratch arena are
  // all reused across run() calls (and across the samples of a batched
  // run). Spiking nodes fed by a timestep-invariant parent keep their
  // t == 0 current in their own kept_current_ slot instead of
  // conv_scratch_.
  sparse::Workspace workspace_;
  std::vector<sparse::DenseTensor> values_;
  sparse::DenseTensor conv_scratch_;
  std::vector<sparse::DenseTensor> kept_current_;
  // Per-layer precision plan: non-owning pointer plus a per-node index,
  // and a staging tensor for the simulate path's quantized input copies.
  const quant::QuantPlan* quant_plan_ = nullptr;
  std::vector<const quant::NodeQuantPlan*> node_quant_;
  sparse::DenseTensor quant_staging_;
  // Execution routes: non-owning plan pointer, flattened per-node route
  // table, per-node COO activation carriers (persistent across runs, like
  // values_) and the per-timestep representation-validity flags.
  const ExecutionPlan* exec_plan_ = nullptr;
  std::vector<Route> node_route_;
  // Set when weights() hands out a mutable reference: the packed slots
  // may be out of date, so the next run repacks them.
  bool packs_stale_ = false;
  std::vector<sparse::SparseSample> sparse_values_;
  std::vector<std::uint8_t> dense_valid_;
  std::vector<std::uint8_t> sparse_valid_;
  // Spiking nodes whose spikes feed a sparse-routed consumer this run
  // emit COO directly (LifState::step_sites' COO form) instead of a
  // dense spike tensor the consumer would immediately re-scan;
  // `spike_staging_` is the reused emission buffer.
  std::vector<std::uint8_t> spike_sparse_emit_;
  SpikeCoo spike_staging_;
  ExecStats exec_stats_;
  ExecObserver* exec_observer_ = nullptr;
};

/// Center-crops `t` spatially to (h, w); h/w must not exceed the extents.
[[nodiscard]] sparse::DenseTensor center_crop(const sparse::DenseTensor& t,
                                              int h, int w);

}  // namespace evedge::nn
