#include "serve/batch_collator.hpp"

#include <chrono>
#include <stdexcept>
#include <utility>

#include "obs/trace.hpp"

namespace evedge::serve {

namespace {

/// One "queue.wait" span per popped frame: enqueue_tp -> pop, the
/// queue-residency lane of the trace timeline.
void trace_queue_wait(const ReadyFrame& frame, std::uint64_t pop_ns) {
  obs::Tracer::span("queue", "queue.wait",
                    obs::to_trace_ns(frame.enqueue_tp), pop_ns, "stream",
                    frame.stream_id, "seq", frame.seq);
}

}  // namespace

BatchCollator::BatchCollator(CollatorConfig config) : config_(config) {
  if (config_.max_batch < 1) {
    throw std::invalid_argument("BatchCollator: max_batch must be >= 1");
  }
  if (config_.max_wait_us < 0.0) {
    throw std::invalid_argument("BatchCollator: max_wait_us must be >= 0");
  }
}

bool BatchCollator::collect(FrameQueue& queue,
                            std::vector<ReadyFrame>& out,
                            int max_batch_override) {
  out.clear();
  pop_ns_.clear();
  ready_ns_ = 0;
  const bool tracing = obs::Tracer::enabled();
  // One clock read per pop ends the frame's queue.wait and starts its
  // collate.wait, so the two hops are contiguous by construction.
  const auto note_pop = [&](const ReadyFrame& frame) {
    if (!tracing) return;
    const std::uint64_t pop_ns = obs::now_ns();
    trace_queue_wait(frame, pop_ns);
    pop_ns_.push_back(pop_ns);
  };
  const int max_batch =
      max_batch_override > 0 ? max_batch_override : config_.max_batch;
  std::optional<ReadyFrame> first = queue.pop();
  if (!first.has_value()) return false;
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::microseconds(
          static_cast<long long>(config_.max_wait_us));
  note_pop(*first);
  out.push_back(std::move(*first));
  while (static_cast<int>(out.size()) < max_batch) {
    std::optional<ReadyFrame> next = queue.pop_until(deadline);
    if (!next.has_value()) break;  // deadline, or closed and drained
    note_pop(*next);
    out.push_back(std::move(*next));
  }
  // "collate.wait" lineage spans: each frame's pop -> batch ready, the
  // wait a frame pays for the batch to fill behind it.
  if (tracing) {
    ready_ns_ = obs::now_ns();
    for (std::size_t i = 0; i < out.size(); ++i) {
      obs::Tracer::span("queue", "collate.wait", pop_ns_[i], ready_ns_,
                        "stream", out[i].stream_id, "seq", out[i].seq);
    }
  }
  return true;
}

}  // namespace evedge::serve
