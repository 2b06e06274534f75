#include "obs/trace.hpp"

#include <algorithm>
#include <string>
#include <unordered_set>
#include <utility>

namespace evedge::obs {

const char* intern_name(std::string_view name) {
  static std::mutex mutex;
  // Deliberately leaked: interned names must stay valid through any
  // static-teardown-time trace export, so the pool is never destroyed.
  // unordered_set is node-based — c_str() pointers survive rehashing.
  static auto* const pool = new std::unordered_set<std::string>();
  const std::lock_guard<std::mutex> lock(mutex);
  return pool->emplace(name).first->c_str();
}

std::atomic<bool> Tracer::enabled_{false};

std::chrono::steady_clock::time_point trace_epoch() noexcept {
  // Latched once, process-wide: static-local initialization is
  // thread-safe, and everything downstream (spans, journal t_ms) is a
  // difference against this instant.
  static const std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
  return epoch;
}

std::uint64_t to_trace_ns(
    std::chrono::steady_clock::time_point tp) noexcept {
  const auto d = tp - trace_epoch();
  if (d.count() < 0) return 0;
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(d).count());
}

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

Tracer::Ring::Ring(std::size_t capacity, std::uint32_t tid)
    : slots(std::allocator<TraceEvent>{}.allocate(capacity)),
      capacity(capacity),
      tid(tid) {}

Tracer::Ring::~Ring() {
  // TraceEvent is trivially destructible: releasing the storage is all.
  std::allocator<TraceEvent>{}.deallocate(slots, capacity);
}

void Tracer::set_ring_capacity(std::size_t capacity) {
  const std::lock_guard<std::mutex> lock(registry_mutex_);
  capacity_ = std::max<std::size_t>(1, capacity);
}

std::size_t Tracer::ring_capacity() const noexcept {
  const std::lock_guard<std::mutex> lock(registry_mutex_);
  return capacity_;
}

void Tracer::clear() {
  const std::lock_guard<std::mutex> lock(registry_mutex_);
  std::erase_if(free_rings_, [this](const std::unique_ptr<Ring>& ring) {
    return ring->capacity != capacity_;
  });
  std::vector<std::unique_ptr<Ring>> live;
  live.reserve(rings_.size());
  for (std::unique_ptr<Ring>& ring : rings_) {
    ring->count.store(0, std::memory_order_release);
    ring->dropped.store(0, std::memory_order_relaxed);
    if (!ring->released.load(std::memory_order_acquire)) {
      live.push_back(std::move(ring));
    } else if (ring->capacity == capacity_) {
      ring->released.store(false, std::memory_order_relaxed);
      free_rings_.push_back(std::move(ring));
    }
    // A released ring of another capacity is freed here.
  }
  rings_ = std::move(live);
}

std::vector<TraceEvent> Tracer::collect() const {
  std::vector<TraceEvent> out;
  const std::lock_guard<std::mutex> lock(registry_mutex_);
  for (const std::unique_ptr<Ring>& ring : rings_) {
    const std::uint32_t n = ring->count.load(std::memory_order_acquire);
    out.insert(out.end(), ring->slots, ring->slots + n);
  }
  return out;
}

std::uint64_t Tracer::dropped() const noexcept {
  const std::lock_guard<std::mutex> lock(registry_mutex_);
  std::uint64_t total = 0;
  for (const std::unique_ptr<Ring>& ring : rings_) {
    total += ring->dropped.load(std::memory_order_relaxed);
  }
  return total;
}

std::size_t Tracer::ring_count() const {
  const std::lock_guard<std::mutex> lock(registry_mutex_);
  return rings_.size() + free_rings_.size();
}

Tracer::Ring& Tracer::local_ring() {
  // First emit on a thread registers a ring (the only locked path on
  // the way to a slot) — a free one of the installed capacity when
  // clear() recycled some; afterwards the thread-local lease short-cuts
  // straight to it. Rings are owned by the registry and outlive their
  // threads: the lease only marks its ring released at thread exit, so
  // a snapshot after a worker joined still sees its events. Thread-local
  // destructors run before static ones, so the registry is still alive.
  struct Lease {
    Ring* ring = nullptr;
    ~Lease() {
      if (ring != nullptr) {
        ring->released.store(true, std::memory_order_release);
      }
    }
  };
  thread_local Lease lease;
  if (lease.ring == nullptr) {
    const std::lock_guard<std::mutex> lock(registry_mutex_);
    std::unique_ptr<Ring> ring;
    if (!free_rings_.empty() && free_rings_.back()->capacity == capacity_) {
      ring = std::move(free_rings_.back());
      free_rings_.pop_back();
    } else {
      ring = std::make_unique<Ring>(capacity_, next_tid_++);
    }
    lease.ring = ring.get();
    // Keep the registry in tid order: collect() promises (tid, emit
    // order), and a recycled ring carries its original tid.
    const auto at = std::upper_bound(
        rings_.begin(), rings_.end(), ring->tid,
        [](std::uint32_t tid, const std::unique_ptr<Ring>& r) {
          return tid < r->tid;
        });
    rings_.insert(at, std::move(ring));
  }
  return *lease.ring;
}

void Tracer::push(TraceEvent event) noexcept {
  Ring& ring = local_ring();
  const std::uint32_t idx = ring.count.load(std::memory_order_relaxed);
  if (idx >= ring.capacity) {
    ring.dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  event.tid = ring.tid;
  std::construct_at(ring.slots + idx, event);
  ring.count.store(idx + 1, std::memory_order_release);
}

void Tracer::span(const char* cat, const char* name, std::uint64_t t0_ns,
                  std::uint64_t t1_ns, const char* arg0_key,
                  std::int64_t arg0, const char* arg1_key,
                  std::int64_t arg1) noexcept {
  if (!enabled()) return;
  TraceEvent e;
  e.phase = Phase::kSpan;
  e.cat = cat;
  e.name = name;
  e.t_ns = t0_ns;
  e.dur_ns = t1_ns >= t0_ns ? t1_ns - t0_ns : 0;
  e.arg0_key = arg0_key;
  e.arg0 = arg0;
  e.arg1_key = arg1_key;
  e.arg1 = arg1;
  instance().push(e);
}

void Tracer::instant(const char* cat, const char* name,
                     const char* arg0_key, std::int64_t arg0,
                     const char* arg1_key, std::int64_t arg1) noexcept {
  if (!enabled()) return;
  TraceEvent e;
  e.phase = Phase::kInstant;
  e.cat = cat;
  e.name = name;
  e.t_ns = now_ns();
  e.arg0_key = arg0_key;
  e.arg0 = arg0;
  e.arg1_key = arg1_key;
  e.arg1 = arg1;
  instance().push(e);
}

void Tracer::counter(const char* cat, const char* name,
                     std::int64_t value) noexcept {
  if (!enabled()) return;
  TraceEvent e;
  e.phase = Phase::kCounter;
  e.cat = cat;
  e.name = name;
  e.t_ns = now_ns();
  e.arg0_key = "value";
  e.arg0 = value;
  instance().push(e);
}

}  // namespace evedge::obs
