#include "core/batch_executor.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <stdexcept>

namespace evedge::core {

using sparse::CooChannel;
using sparse::CooEntry;
using sparse::DenseTensor;
using sparse::SparseFrame;
using sparse::SparseSample;
using sparse::TensorShape;

namespace {

/// Integer downsample factor mapping a source extent onto a target one
/// (1 when the source already fits).
[[nodiscard]] int downsample_factor(int src_h, int src_w, int dst_h,
                                    int dst_w) {
  const int fy = (src_h + dst_h - 1) / dst_h;
  const int fx = (src_w + dst_w - 1) / dst_w;
  return std::max(1, std::max(fy, fx));
}

/// Downsamples one COO channel by `factor` and centre-aligns it at
/// (off_y, off_x) inside a dst_h x dst_w channel, cropping coordinates
/// that fall outside. Entries landing on one target site accumulate in
/// source order, starting from the first value (a stable sort keeps that
/// order), and sites whose sum cancels to 0 are dropped: the same float
/// sequence a `+=` scatter into a zeroed dense plane performs, so the
/// channel densifies bitwise to that scatter.
[[nodiscard]] CooChannel adapt_channel(const CooChannel& ch, int factor,
                                       int off_y, int off_x, int dst_h,
                                       int dst_w) {
  std::vector<CooEntry> entries;
  entries.reserve(ch.nnz());
  for (const CooEntry& e : ch.entries()) {
    const int ty = e.row / factor + off_y;
    const int tx = e.col / factor + off_x;
    if (ty < 0 || ty >= dst_h || tx < 0 || tx >= dst_w) continue;
    entries.push_back(CooEntry{ty, tx, e.value});
  }
  const auto before = [](const CooEntry& a, const CooEntry& b) {
    return a.row != b.row ? a.row < b.row : a.col < b.col;
  };
  // Without downsampling the source order already is the target order.
  if (!std::is_sorted(entries.begin(), entries.end(), before)) {
    std::stable_sort(entries.begin(), entries.end(), before);
  }
  std::size_t kept = 0;
  for (std::size_t i = 0; i < entries.size();) {
    CooEntry site = entries[i];
    for (++i; i < entries.size() && entries[i].row == site.row &&
              entries[i].col == site.col;
         ++i) {
      site.value += entries[i].value;
    }
    if (site.value != 0.0f) entries[kept++] = site;
  }
  entries.resize(kept);
  return CooChannel::from_sorted_entries(dst_h, dst_w, std::move(entries));
}

}  // namespace

SparseSample frame_to_event_sample(const SparseFrame& frame,
                                   const TensorShape& event_shape) {
  const int h = event_shape.h;
  const int w = event_shape.w;
  const int factor = downsample_factor(frame.height(), frame.width(), h, w);
  const int off_y = (h - (frame.height() + factor - 1) / factor) / 2;
  const int off_x = (w - (frame.width() + factor - 1) / factor) / 2;
  // SNN/hybrid nets take a 2-channel input per timestep; pure ANN nets
  // stack all bins as channels. Either way the event input has 2
  // channels per bin slot, and the merged frame fills every slot.
  const int bins = std::max(1, event_shape.c / 2);
  CooChannel pos = adapt_channel(frame.positive(), factor, off_y, off_x, h, w);
  CooChannel neg = adapt_channel(frame.negative(), factor, off_y, off_x, h, w);
  SparseSample sample(static_cast<std::size_t>(event_shape.c),
                      CooChannel(h, w));
  for (int c = 0; c < std::min(event_shape.c, 2 * bins); ++c) {
    CooChannel& src = c % 2 == 0 ? pos : neg;
    // The last slot takes the adapted channel; earlier slots copy it.
    if (c + 2 >= 2 * bins) {
      sample[static_cast<std::size_t>(c)] = std::move(src);
    } else {
      sample[static_cast<std::size_t>(c)] = src;
    }
  }
  return sample;
}

void frames_to_event_steps(const std::vector<SparseFrame>& frames,
                           const TensorShape& event_shape, int timesteps,
                           std::vector<DenseTensor>& steps) {
  if (frames.empty()) {
    throw std::invalid_argument("frames_to_event_steps: empty batch");
  }
  const int batch = static_cast<int>(frames.size());
  steps.resize(static_cast<std::size_t>(timesteps));
  DenseTensor& step0 = steps.front();
  step0.reset(TensorShape{batch, event_shape.c, event_shape.h, event_shape.w});
  for (int n = 0; n < batch; ++n) {
    sparse::channels_into_slice(
        frame_to_event_sample(frames[static_cast<std::size_t>(n)],
                              event_shape),
        step0, n);
  }
  // Identical event evidence at every timestep.
  for (std::size_t t = 1; t < steps.size(); ++t) steps[t] = step0;
}

DenseTensor make_reference_image(const nn::NetworkSpec& spec) {
  const auto input_ids = spec.graph.input_ids();
  if (input_ids.size() < 2) return DenseTensor{};
  DenseTensor image(spec.graph.node(input_ids.back()).spec.out_shape);
  image.fill_random(1234, 0.5f);
  for (float& v : image.data()) v = std::abs(v);
  return image;
}

BatchExecutor::BatchExecutor(nn::FunctionalNetwork& net) : net_(net) {
  const nn::NetworkSpec& spec = net_.spec();
  const auto input_ids = spec.graph.input_ids();
  event_shape_ = spec.graph.node(input_ids.front()).spec.out_shape;
  needs_image_ = input_ids.size() > 1;
  if (needs_image_) image_ = make_reference_image(spec);
}

BatchExecutor::~BatchExecutor() {
  // The network outlives the executor (constructor contract), but the
  // plan dies with us — never leave a dangling plan installed. Only
  // uninstall if ours is still the active plan (a caller may have
  // installed its own since).
  if (plan_ready_ && net_.execution_plan() == &plan_) {
    net_.set_execution_plan(nullptr);
  }
}

void BatchExecutor::enable_execution_planner() { planner_enabled_ = true; }

const DenseTensor& BatchExecutor::execute(
    const std::vector<SparseFrame>& frames) {
  if (frames.empty()) {
    throw std::invalid_argument("BatchExecutor::execute: empty batch");
  }
  samples_.resize(frames.size());
  for (std::size_t n = 0; n < frames.size(); ++n) {
    samples_[n] = frame_to_event_sample(frames[n], event_shape_);
  }

  if (planner_enabled_ && !plan_ready_) {
    // First dispatched batch = warmup probe. calibrate() runs dense
    // batch-1 inputs, so probe on frame 0 alone; DSFA merges within a
    // density band, so one sample's densities represent the batch.
    std::vector<DenseTensor> probe;
    frames_to_event_steps({frames.front()}, event_shape_,
                          net_.spec().timesteps, probe);
    plan_ = nn::ExecutionPlanner::calibrate(
        net_, probe, needs_image_ ? &image_ : nullptr);
    net_.set_execution_plan(&plan_);
    plan_ready_ = true;
  }

  const auto t0 = std::chrono::steady_clock::now();
  last_output_ = net_.run_events(samples_, needs_image_ ? &image_ : nullptr);
  const auto t1 = std::chrono::steady_clock::now();

  ++stats_.batches;
  stats_.samples += frames.size();
  stats_.wall_ms +=
      std::chrono::duration<double, std::milli>(t1 - t0).count();
  return last_output_;
}

}  // namespace evedge::core
