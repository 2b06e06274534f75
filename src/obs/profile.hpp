#pragma once

// Per-layer execution profiles on top of the engine's ExecObserver hook:
// LayerProfiler accumulates wall time per (node, route) cell while a
// worker runs, optionally mirroring every node execution as a trace
// sub-span, and snapshots into NodeRouteProfile rows that travel in
// ServeReport. cross_check_profiles then lines the measured per-node
// times up against hw/profiler's analytic tables — the observed twin of
// the profiling pass the mapper search consumes (paper §4.3.2), and the
// first place a drifting latency model shows up.
//
// Threading: the profiler is installed on exactly one FunctionalNetwork
// and written by its run thread only (the engine calls on_node from the
// run thread); snapshot() is for after the run thread quiesced (worker
// joined), matching how ServeReport is assembled. Cells are plain
// integers — no atomics on the inference hot path.

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "nn/engine.hpp"

namespace evedge::hw {
struct Platform;
}  // namespace evedge::hw

namespace evedge::obs {

/// Accumulated wall time of one graph node on one execution route.
struct NodeRouteProfile {
  int node_id = -1;
  std::string name;
  nn::Route route = nn::Route::kDense;
  std::uint64_t runs = 0;      ///< node executions (per timestep)
  std::uint64_t total_ns = 0;  ///< summed wall time
  std::uint64_t max_ns = 0;    ///< worst single execution

  [[nodiscard]] double mean_us() const noexcept {
    return runs == 0 ? 0.0
                     : static_cast<double>(total_ns) / 1e3 /
                           static_cast<double>(runs);
  }
};

/// ExecObserver that builds per-layer profiles (and, when asked, per-node
/// trace sub-spans named after the layer). Node names go through
/// obs::intern_name at construction, so span names satisfy the tracer's
/// immortal-string contract even after the profiler (and the worker
/// owning it) is destroyed — collected traces are exported at end of
/// run, which outlives the worker pool.
class LayerProfiler final : public nn::ExecObserver {
 public:
  /// `emit_spans`: also emit a "node"-category trace span per execution
  /// (timestep and route as args) — the per-node lane under the worker's
  /// inference spans.
  explicit LayerProfiler(const nn::NetworkSpec& spec,
                         bool emit_spans = false);

  void on_node(int node_id, nn::Route route, int timestep,
               std::uint64_t t0_ns, std::uint64_t t1_ns, int /*tile*/,
               int /*tile_count*/) noexcept override;

  /// Rows for every (node, route) cell that ran at least once, node-id
  /// major. Call after the run thread quiesced.
  [[nodiscard]] std::vector<NodeRouteProfile> snapshot() const;

  /// Total node executions observed (all cells).
  [[nodiscard]] std::uint64_t observed() const noexcept;

  void reset() noexcept;

 private:
  struct Cell {
    std::uint64_t runs = 0;
    std::uint64_t total_ns = 0;
    std::uint64_t max_ns = 0;
  };
  static constexpr int kRoutes = 2;  // kDense, kCsr

  bool emit_spans_;
  std::vector<const char*> names_;  // interned: process-lifetime storage
  std::vector<Cell> cells_;         // [node][route]
};

/// One row of the measured-vs-analytic comparison: the profiler's mean
/// per-inference wall time on a node next to the latency model's
/// prediction for the same node on `pe` at FP32.
struct ProfileCrossCheckRow {
  int node_id = -1;
  std::string name;
  bool mappable = true;
  double measured_us = 0.0;  ///< total measured / inferences
  double analytic_us = 0.0;  ///< hw profile_task time (pe, FP32)
  double ratio = 0.0;        ///< measured / analytic (0 if no analytic)
};

struct ProfileCrossCheckReport {
  std::string network;
  std::string pe_name;
  std::uint64_t inferences = 0;
  std::vector<ProfileCrossCheckRow> rows;

  /// Fixed-width table for logs / the evedge_trace CLI.
  [[nodiscard]] std::string text() const;
};

/// Folds `measured` rows (routes summed per node) over `inferences`
/// inferences and compares each node against hw::profile_task's analytic
/// table on the platform's first GPU PE at FP32 — the same convention
/// the mapper's profiling pass records. Nodes without measurements get
/// measured_us = 0; nodes the hw model marks unmappable keep their
/// measured time with analytic_us = 0.
[[nodiscard]] ProfileCrossCheckReport cross_check_profiles(
    const nn::NetworkSpec& spec, std::span<const NodeRouteProfile> measured,
    const hw::Platform& platform, std::uint64_t inferences);

}  // namespace evedge::obs
