// Per-layer measurements: a serial replay of one stream through the
// layers' public calls, and the hop breakdown of a traced serving run.

#include <cstdio>
#include <cstring>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>

#include "bench.hpp"
#include "core/batch_executor.hpp"
#include "core/dsfa.hpp"
#include "core/e2sf.hpp"
#include "nn/engine.hpp"
#include "nn/exec_plan.hpp"

namespace evbench {

namespace {

/// Node calls the engine reports through its public observer hook.
struct NodeCall {
  int node_id = -1;
  enn::Route route = enn::Route::kDense;
  int timestep = 0;
  std::uint64_t t0_ns = 0;
  std::uint64_t t1_ns = 0;
  int tile = 0;
  int tiles = 1;
};

class NodeRecorder final : public enn::ExecObserver {
 public:
  NodeRecorder() { calls_.reserve(kCapacity); }

  void on_node(int node_id, enn::Route route, int timestep,
               std::uint64_t t0_ns, std::uint64_t t1_ns, int tile,
               int tile_count) noexcept override {
    if (calls_.size() < kCapacity) {
      calls_.push_back(
          NodeCall{node_id, route, timestep, t0_ns, t1_ns, tile, tile_count});
    }
  }

  /// Hands over the calls since the last take.
  std::vector<NodeCall> take() {
    std::vector<NodeCall> out = std::move(calls_);
    calls_.clear();
    calls_.reserve(kCapacity);
    return out;
  }

 private:
  static constexpr std::size_t kCapacity = 1u << 16;
  std::vector<NodeCall> calls_;
};

[[nodiscard]] double ns_to_ms(double ns) { return ns / 1e6; }

[[nodiscard]] std::string node_metric(int position) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "nn.node.%02d.ms", position);
  return buf;
}

}  // namespace

Metrics replay_layers(const enn::NetworkSpec& spec,
                      const ev::EventStream& stream,
                      std::span<const es::SparseFrame> expected,
                      const esv::ServeConfig& config, SpanLog& log) {
  namespace core = evedge::core;
  Metrics m;
  const std::int64_t root = log.open("replay", 0);

  // ---- core: E2SF convert and DSFA push/take, in the ingress's order.
  const ev::FrameClock clock =
      ev::FrameClock::spanning(stream, config.ingress.frame_rate_hz);
  const core::Event2SparseFrame e2sf(stream.geometry(), config.ingress.e2sf);
  core::DynamicSparseFrameAggregator dsfa(config.ingress.dsfa);
  std::vector<es::SparseFrame> merged;
  std::uint64_t e2sf_ns = 0;
  std::uint64_t dsfa_ns = 0;
  std::size_t events = 0;
  std::size_t bins = 0;
  const auto drain = [&] {
    for (;;) {
      const std::int64_t id = log.open("core.dsfa.take", root);
      std::optional<core::MergedBatch> batch = dsfa.take_ready_batch();
      dsfa_ns += log.close(id);
      if (!batch.has_value()) return;
      for (es::SparseFrame& f : batch->frames) merged.push_back(std::move(f));
    }
  };
  for (std::size_t i = 0; i < clock.interval_count(); ++i) {
    const ev::TimeUs t0 = clock.timestamps[i];
    const ev::TimeUs t1 = clock.timestamps[i + 1];
    const auto window = stream.slice(t0, t1);
    const std::int64_t id = log.open("core.e2sf.convert", root);
    std::vector<es::SparseFrame> frames = e2sf.convert(window, t0, t1);
    e2sf_ns += log.close(id, "\"interval\":" + std::to_string(i) +
                                 ",\"events\":" +
                                 std::to_string(window.size()));
    events += window.size();
    for (es::SparseFrame& f : frames) {
      const std::int64_t pid = log.open("core.dsfa.push", root);
      dsfa.push(std::move(f));
      dsfa_ns += log.close(pid);
      ++bins;
    }
    drain();
  }
  dsfa.dispatch_available();
  drain();
  if (merged.size() != expected.size()) {
    throw std::runtime_error("replay: DSFA produced " +
                             std::to_string(merged.size()) +
                             " frames, ingress " +
                             std::to_string(expected.size()));
  }
  for (std::size_t i = 0; i < merged.size(); ++i) {
    if (merged[i].nnz() != expected[i].nnz() ||
        merged[i].t_end != expected[i].t_end) {
      throw std::runtime_error("replay: merged frame " + std::to_string(i) +
                               " differs from the ingress's");
    }
  }
  if (merged.empty() || events == 0) {
    throw std::runtime_error("replay: stream produced no frames");
  }
  const auto n_merged = static_cast<double>(merged.size());
  m["core.e2sf.ns_per_event"] = {static_cast<double>(e2sf_ns) /
                                     static_cast<double>(events),
                                 "ns"};
  m["core.dsfa.us_per_frame"] = {static_cast<double>(dsfa_ns) / 1e3 / n_merged,
                                 "us"};
  m["core.dsfa.merge_factor"] = {static_cast<double>(bins) / n_merged,
                                 "count"};

  // ---- nn: clone, calibrate, run_batched at N=1 and N=8.
  const enn::FunctionalNetwork prototype(spec, kWeightSeed);
  std::vector<double> clone_ns;
  enn::FunctionalNetwork net = prototype.clone();
  for (int r = 0; r < 3; ++r) {
    const std::int64_t id = log.open("nn.clone", root);
    net = prototype.clone();
    clone_ns.push_back(static_cast<double>(log.close(id)));
  }
  // Bytes a clone copies, computed from the parameter tensor sizes.
  double param_bytes = 0.0;
  std::vector<int> position(spec.graph.size(), -1);
  int weight_nodes = 0;
  for (const enn::LayerNode& node : spec.graph.nodes()) {
    if (!enn::is_weight_layer(node.spec.kind)) continue;
    position[static_cast<std::size_t>(node.id)] = weight_nodes++;
    param_bytes += static_cast<double>(prototype.weights(node.id).size() +
                                       prototype.bias(node.id).size()) *
                   sizeof(float);
  }
  m["nn.clone_ms"] = {ns_to_ms(median(clone_ns)), "ms"};
  m["nn.clone_mb"] = {param_bytes / (1024.0 * 1024.0), "MB"};

  const auto input_ids = spec.graph.input_ids();
  const es::TensorShape event_shape =
      spec.graph.node(input_ids.front()).spec.out_shape;
  const es::DenseTensor image = input_ids.size() > 1
                                    ? core::make_reference_image(spec)
                                    : es::DenseTensor{};
  const es::DenseTensor* image_ptr = input_ids.size() > 1 ? &image : nullptr;

  std::uint64_t adapt_ns = 0;
  std::size_t adapted = 0;
  std::vector<es::DenseTensor> steps;
  const auto adapt = [&](const std::vector<es::SparseFrame>& frames,
                         std::int64_t seq) {
    const std::int64_t id = log.open("core.adapt", root, 0, seq);
    core::frames_to_event_steps(frames, event_shape, spec.timesteps, steps);
    adapt_ns += log.close(id, "\"batch\":" + std::to_string(frames.size()));
    adapted += frames.size();
  };
  const auto frame_at = [&](std::size_t i) -> const es::SparseFrame& {
    return merged[i % merged.size()];
  };

  // The worker calibrates on its first frame; replay that three times.
  std::vector<double> calibrate_ns;
  enn::ExecutionPlan plan;
  for (int r = 0; r < 3; ++r) {
    adapt({frame_at(static_cast<std::size_t>(r))}, r);
    const std::int64_t id = log.open("nn.calibrate", root);
    enn::ExecutionPlan p = enn::ExecutionPlanner::calibrate(
        net, steps, image_ptr, config.worker.planner);
    calibrate_ns.push_back(static_cast<double>(log.close(
        id, "\"sparse_nodes\":" + std::to_string(p.sparse_node_count()))));
    if (r == 0) plan = std::move(p);
  }
  m["nn.calibrate_ms"] = {ns_to_ms(median(calibrate_ns)), "ms"};
  net.set_execution_plan(&plan);

  NodeRecorder recorder;
  net.set_exec_observer(&recorder);
  // Emits the node spans of one run_batched call under `parent` and
  // returns the call's per-node time sums.
  const auto node_spans = [&](std::int64_t parent) {
    std::map<int, double> per_node;
    for (const NodeCall& c : recorder.take()) {
      per_node[c.node_id] += static_cast<double>(c.t1_ns - c.t0_ns);
      log.add(spec.graph.node(c.node_id).spec.name, parent, c.t0_ns, c.t1_ns,
              "\"node\":" + std::to_string(c.node_id) + ",\"route\":\"" +
                  enn::to_string(c.route) +
                  "\",\"timestep\":" + std::to_string(c.timestep) +
                  ",\"tile\":" + std::to_string(c.tile) +
                  ",\"tiles\":" + std::to_string(c.tiles));
    }
    return per_node;
  };

  constexpr int kBatch1Calls = 8;
  constexpr int kBatch8Calls = 2;
  std::vector<double> batch1_ns;
  std::vector<std::vector<double>> node_ns(
      static_cast<std::size_t>(weight_nodes));
  std::size_t node_runs = 0;
  std::size_t sparse_runs = 0;
  std::size_t boundaries = 0;
  for (int i = 0; i < kBatch1Calls; ++i) {
    adapt({frame_at(static_cast<std::size_t>(i))}, i);
    const std::int64_t id = log.open("nn.run_batched", root, 0, i);
    const es::DenseTensor out = net.run_batched(steps, image_ptr);
    batch1_ns.push_back(static_cast<double>(log.close(id, "\"batch\":1")));
    for (const auto& [node_id, ns] : node_spans(id)) {
      const int pos = position[static_cast<std::size_t>(node_id)];
      if (pos >= 0) node_ns[static_cast<std::size_t>(pos)].push_back(ns);
    }
    const enn::ExecStats& st = net.last_exec_stats();
    node_runs += st.node_executions;
    sparse_runs += st.sparse_node_runs;
    boundaries += st.sparsify_boundaries + st.densify_boundaries;
  }
  std::vector<double> batch8_ns;
  for (int b = 0; b < kBatch8Calls; ++b) {
    std::vector<es::SparseFrame> batch;
    for (int i = 0; i < 8; ++i) {
      batch.push_back(frame_at(static_cast<std::size_t>(b * 8 + i)));
    }
    adapt(batch, b * 8);
    const std::int64_t id = log.open("nn.run_batched", root);
    const es::DenseTensor out = net.run_batched(steps, image_ptr);
    batch8_ns.push_back(static_cast<double>(log.close(id, "\"batch\":8")));
    (void)node_spans(id);
  }
  net.set_exec_observer(nullptr);
  log.close(root);

  m["core.adapt.us_per_frame"] = {
      static_cast<double>(adapt_ns) / 1e3 / static_cast<double>(adapted),
      "us"};
  m["nn.batch1_ms"] = {ns_to_ms(median(batch1_ns)), "ms"};
  m["nn.batch8_ms"] = {ns_to_ms(median(batch8_ns)), "ms"};
  double slowest = 0.0;
  for (std::size_t p = 0; p < node_ns.size(); ++p) {
    const double ms = ns_to_ms(median(node_ns[p]));
    m[node_metric(static_cast<int>(p))] = {ms, "ms"};
    slowest = std::max(slowest, ms);
  }
  m["nn.node.slowest_ms"] = {slowest, "ms"};
  m["nn.sparse_node_frac"] = {
      node_runs > 0 ? static_cast<double>(sparse_runs) /
                          static_cast<double>(node_runs)
                    : 0.0,
      "fraction"};
  m["nn.boundaries_per_frame"] = {
      static_cast<double>(boundaries) / kBatch1Calls, "count"};
  return m;
}

Metrics serving_span_metrics(std::span<const evedge::obs::TraceEvent> events,
                             const esv::ServeReport& report) {
  namespace obs = evedge::obs;
  struct Hops {
    std::uint64_t admitted_ns = 0;  ///< queue.wait start == enqueue stamp
    std::uint64_t done_ns = 0;      ///< frame.inference end
    std::uint64_t traced_ns = 0;    ///< sum of the frame's traced hops
    int hops = 0;
  };
  std::map<std::pair<std::int64_t, std::int64_t>, Hops> frames;
  std::map<std::pair<std::uint32_t, std::uint64_t>, std::uint64_t> batches;
  std::vector<double> queue_wait, collate_wait, inference, capture;
  const auto is = [](const obs::TraceEvent& e, const char* name) {
    return std::strcmp(e.name, name) == 0;
  };
  for (const obs::TraceEvent& e : events) {
    if (e.phase != obs::Phase::kSpan || e.arg0_key == nullptr ||
        std::strcmp(e.arg0_key, "stream") != 0) {
      continue;
    }
    Hops& h = frames[{e.arg0, e.arg1}];
    const auto ms = static_cast<double>(e.dur_ns) / 1e6;
    if (is(e, "queue.wait")) {
      queue_wait.push_back(ms);
      h.admitted_ns = e.t_ns;
    } else if (is(e, "collate.wait")) {
      collate_wait.push_back(ms);
    } else if (is(e, "frame.inference")) {
      inference.push_back(ms);
      h.done_ns = e.t_ns + e.dur_ns;
      // Every lane of a batch carries the same span; keep one per batch.
      batches[{e.tid, e.t_ns}] = e.dur_ns;
    } else if (is(e, "frame.capture")) {
      capture.push_back(ms);
      continue;  // after completion: not part of the latency
    } else {
      continue;
    }
    h.traced_ns += e.dur_ns;
    ++h.hops;
  }
  std::vector<double> untraced;
  for (const auto& [key, h] : frames) {
    if (h.hops == 3 && h.done_ns >= h.admitted_ns) {
      untraced.push_back(
          (static_cast<double>(h.done_ns - h.admitted_ns) -
           static_cast<double>(h.traced_ns)) /
          1e6);
    }
  }
  if (queue_wait.empty() || inference.empty() || untraced.empty()) {
    throw std::runtime_error("traced run: no frame hops in the trace");
  }
  Metrics m;
  m["serve.queue_wait_ms.p50"] = {quantile(queue_wait, 0.5), "ms"};
  m["serve.queue_wait_ms.p99"] = {quantile(queue_wait, 0.99), "ms"};
  m["serve.collate_wait_ms.p50"] = {quantile(collate_wait, 0.5), "ms"};
  m["serve.inference_ms.p50"] = {quantile(inference, 0.5), "ms"};
  m["serve.capture_ms.p50"] = {quantile(capture, 0.5), "ms"};
  m["serve.untraced_ms.p50"] = {quantile(untraced, 0.5), "ms"};

  // Time inside frame.inference outside the engine's nodes, per batch:
  // the mean batch span minus the layer profiles' node time per batch.
  double batch_ns = 0.0;
  for (const auto& [key, dur] : batches) batch_ns += static_cast<double>(dur);
  double node_ns = 0.0;
  for (const esv::WorkerLayerProfile& w : report.layer_profiles) {
    for (const evedge::obs::NodeRouteProfile& row : w.nodes) {
      node_ns += static_cast<double>(row.total_ns);
    }
  }
  const auto n_batches = static_cast<double>(report.total_batches());
  if (batches.empty() || n_batches <= 0.0) {
    throw std::runtime_error("traced run: no batches");
  }
  m["nn.outside_nodes_ms"] = {
      (batch_ns / static_cast<double>(batches.size()) - node_ns / n_batches) /
          1e6,
      "ms"};
  return m;
}

}  // namespace evbench
