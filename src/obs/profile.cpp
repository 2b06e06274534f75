#include "obs/profile.hpp"

#include <algorithm>
#include <cstdio>

#include "hw/profiler.hpp"
#include "obs/trace.hpp"

namespace evedge::obs {

LayerProfiler::LayerProfiler(const nn::NetworkSpec& spec, bool emit_spans)
    : emit_spans_(emit_spans) {
  const std::size_t n = spec.graph.size();
  cells_.resize(n * kRoutes);
  names_.reserve(n);
  for (const nn::LayerNode& node : spec.graph.nodes()) {
    names_.push_back(intern_name(node.spec.name));
  }
}

void LayerProfiler::on_node(int node_id, nn::Route route, int timestep,
                            std::uint64_t t0_ns, std::uint64_t t1_ns,
                            int /*tile*/, int /*tile_count*/) noexcept {
  const auto idx = static_cast<std::size_t>(node_id);
  if (idx >= names_.size()) return;
  const std::uint64_t dur = t1_ns >= t0_ns ? t1_ns - t0_ns : 0;
  Cell& cell =
      cells_[idx * kRoutes + static_cast<std::size_t>(route)];
  ++cell.runs;
  cell.total_ns += dur;
  cell.max_ns = std::max(cell.max_ns, dur);
  if (emit_spans_ && Tracer::enabled()) {
    // The engine stamps raw steady_clock ns; rebase onto the trace
    // epoch so node spans nest under the worker's inference spans.
    const std::uint64_t base = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            trace_epoch().time_since_epoch())
            .count());
    const std::uint64_t t0 = t0_ns >= base ? t0_ns - base : 0;
    Tracer::span("node", names_[idx], t0, t0 + dur, "timestep",
                 timestep, "route", static_cast<std::int64_t>(route));
  }
}

std::vector<NodeRouteProfile> LayerProfiler::snapshot() const {
  std::vector<NodeRouteProfile> out;
  for (std::size_t idx = 0; idx < names_.size(); ++idx) {
    for (int r = 0; r < kRoutes; ++r) {
      const Cell& cell = cells_[idx * kRoutes + static_cast<std::size_t>(r)];
      if (cell.runs == 0) continue;
      NodeRouteProfile row;
      row.node_id = static_cast<int>(idx);
      row.name = names_[idx];
      row.route = static_cast<nn::Route>(r);
      row.runs = cell.runs;
      row.total_ns = cell.total_ns;
      row.max_ns = cell.max_ns;
      out.push_back(std::move(row));
    }
  }
  return out;
}

std::uint64_t LayerProfiler::observed() const noexcept {
  std::uint64_t total = 0;
  for (const Cell& cell : cells_) total += cell.runs;
  return total;
}

void LayerProfiler::reset() noexcept {
  std::fill(cells_.begin(), cells_.end(), Cell{});
}

std::string ProfileCrossCheckReport::text() const {
  std::string out = "layer profile cross-check: " + network + " vs " +
                    pe_name + " FP32 analytic (" +
                    std::to_string(inferences) + " inferences)\n";
  char buf[160];
  std::snprintf(buf, sizeof buf, "  %-4s %-24s %12s %12s %8s\n", "id",
                "node", "measured_us", "analytic_us", "ratio");
  out += buf;
  for (const ProfileCrossCheckRow& row : rows) {
    if (row.analytic_us > 0.0) {
      std::snprintf(buf, sizeof buf, "  %-4d %-24s %12.2f %12.2f %8.3f\n",
                    row.node_id, row.name.c_str(), row.measured_us,
                    row.analytic_us, row.ratio);
    } else {
      std::snprintf(buf, sizeof buf, "  %-4d %-24s %12.2f %12s %8s\n",
                    row.node_id, row.name.c_str(), row.measured_us,
                    row.mappable ? "n/a" : "pinned", "-");
    }
    out += buf;
  }
  return out;
}

ProfileCrossCheckReport cross_check_profiles(
    const nn::NetworkSpec& spec, std::span<const NodeRouteProfile> measured,
    const hw::Platform& platform, std::uint64_t inferences) {
  ProfileCrossCheckReport report;
  report.network = spec.name;
  report.inferences = inferences;
  const int gpu = platform.first_pe(hw::PeKind::kGpu);
  report.pe_name = platform.pe(gpu).name;

  // Routes summed per node: the cross-check compares total node wall
  // time per inference, whichever kernels served it.
  std::vector<std::uint64_t> total_ns(spec.graph.size(), 0);
  for (const NodeRouteProfile& row : measured) {
    if (row.node_id >= 0 &&
        static_cast<std::size_t>(row.node_id) < total_ns.size()) {
      total_ns[static_cast<std::size_t>(row.node_id)] += row.total_ns;
    }
  }

  const hw::TaskProfile analytic = hw::profile_task(spec, platform);
  for (const nn::LayerNode& node : spec.graph.nodes()) {
    const auto idx = static_cast<std::size_t>(node.id);
    ProfileCrossCheckRow row;
    row.node_id = node.id;
    row.name = node.spec.name;
    const hw::NodeProfile& np = analytic.node(node.id);
    row.mappable = np.mappable;
    if (inferences > 0) {
      row.measured_us = static_cast<double>(total_ns[idx]) / 1e3 /
                        static_cast<double>(inferences);
    }
    if (np.mappable && np.supported(gpu, hw::Precision::kFp32)) {
      row.analytic_us = np.time(gpu, hw::Precision::kFp32);
    }
    if (row.analytic_us > 0.0) {
      row.ratio = row.measured_us / row.analytic_us;
    }
    report.rows.push_back(std::move(row));
  }
  return report;
}

}  // namespace evedge::obs
