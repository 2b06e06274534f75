#pragma once

// Lock-free always-on tracing: every serving thread owns a bounded ring
// of fixed-size trace records (spans, instants, counter samples) stamped
// with nanoseconds on a process-wide monotonic timeline. The emit path
// is wait-free and heap-free: one relaxed atomic load when tracing is
// disabled (the always-compiled-in default), and when enabled a
// steady_clock read plus one slot write into the calling thread's ring.
// Rings never wrap — a full ring counts further events as drops instead
// of overwriting history, so a trace is a prefix of the run and the
// drop counter says exactly how much is missing.
//
// Timeline contract: every timestamp is nanoseconds since trace_epoch(),
// a process-wide steady_clock instant latched on first use. The fault
// journal (serve/journal.hpp) stamps its entries from the same epoch,
// so journal records overlay exactly onto an exported trace
// (tools/evedge_trace export --journal).
//
// Ownership/visibility model: a ring is written only by its owning
// thread; the writer publishes each slot with a release store of the
// ring count, and collect() reads counts with acquire loads — a
// snapshot taken mid-run is a consistent prefix per thread. clear() and
// set_ring_capacity() are quiesce-time operations (call them between
// runs, not while instrumented threads are emitting).
//
// Ring memory: slot storage is allocated uninitialized and each slot is
// constructed when written (only the published prefix is ever read), so
// a fresh ring costs no up-front page touching. A thread's ring is
// marked released when the thread exits; it stays registered, so a
// snapshot after a join still sees its events, and the next clear()
// moves it to a free list (or frees it when its capacity is no longer
// the installed one). A new thread's first emit takes a free ring
// before allocating, so repeated traced runs reuse their rings.
//
// Names and categories must be string literals (or otherwise immortal):
// records store the pointers, never copies — that is what keeps the hot
// path free of allocation. Runtime-built names (layer names from a
// NetworkSpec) go through intern_name(), which copies them into
// process-lifetime storage once on the cold path.

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string_view>
#include <vector>

namespace evedge::obs {

/// The process-wide trace epoch: a steady_clock instant latched the
/// first time anyone asks. Every trace timestamp (and every journal
/// t_ms) is measured from it.
[[nodiscard]] std::chrono::steady_clock::time_point trace_epoch() noexcept;

/// Nanoseconds since trace_epoch() for an arbitrary steady_clock
/// instant (0 for instants before the epoch).
[[nodiscard]] std::uint64_t to_trace_ns(
    std::chrono::steady_clock::time_point tp) noexcept;

/// Nanoseconds since trace_epoch(), now.
[[nodiscard]] inline std::uint64_t now_ns() noexcept {
  return to_trace_ns(std::chrono::steady_clock::now());
}

/// Copies a runtime-built string into process-lifetime storage and
/// returns its stable NUL-terminated pointer, deduplicated — the
/// immortality escape hatch for trace names that are not compile-time
/// literals (layer names, say). The returned pointer outlives every
/// collected trace; collected events therefore never dangle, whatever
/// emitted them. Mutex-guarded: cold path only (construction time, not
/// per event).
[[nodiscard]] const char* intern_name(std::string_view name);

enum class Phase : std::uint8_t {
  kSpan,     ///< [t_ns, t_ns + dur_ns] duration event
  kInstant,  ///< point event (dur_ns == 0)
  kCounter,  ///< sampled value (arg0) on a named counter track
};

/// One fixed-size trace record. Plain data; name/category/arg-key
/// pointers must outlive the tracer (string literals in practice).
struct TraceEvent {
  std::uint64_t t_ns = 0;    ///< start (span) / occurrence, since epoch
  std::uint64_t dur_ns = 0;  ///< span duration; 0 for instants/counters
  const char* cat = "";
  const char* name = "";
  const char* arg0_key = nullptr;  ///< nullptr = no arg
  const char* arg1_key = nullptr;
  std::int64_t arg0 = 0;
  std::int64_t arg1 = 0;
  std::uint32_t tid = 0;  ///< tracer-assigned thread index
  Phase phase = Phase::kSpan;
};

/// Process-wide tracer: a registry of per-thread rings behind one
/// enabled flag. All emitters are static so call sites pay nothing for
/// the singleton when disabled.
class Tracer {
 public:
  static Tracer& instance();

  /// The hot-path gate: one relaxed load. All emitters check it first.
  [[nodiscard]] static bool enabled() noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }
  static void set_enabled(bool on) noexcept {
    enabled_.store(on, std::memory_order_relaxed);
  }

  /// Capacity for rings threads take after the call (existing rings
  /// keep theirs; free rings of another capacity are not reused).
  /// Quiesce-time only.
  void set_ring_capacity(std::size_t capacity);
  [[nodiscard]] std::size_t ring_capacity() const noexcept;

  /// Empties every ring and zeroes drop counts; rings of exited threads
  /// move to the free list (installed capacity) or are freed.
  /// Quiesce-time only.
  void clear();

  /// Snapshot of every thread's events, stably ordered by (tid, emit
  /// order). Safe concurrently with writers: each ring contributes the
  /// prefix published at the moment of the read.
  [[nodiscard]] std::vector<TraceEvent> collect() const;

  /// Events discarded because a ring was full, across all rings.
  [[nodiscard]] std::uint64_t dropped() const noexcept;

  /// Rings the tracer holds: registered (live threads, plus exited ones
  /// until the next clear()) and free for reuse.
  [[nodiscard]] std::size_t ring_count() const;

  // ---- emitters (no-ops when disabled) ------------------------------
  static void span(const char* cat, const char* name, std::uint64_t t0_ns,
                   std::uint64_t t1_ns, const char* arg0_key = nullptr,
                   std::int64_t arg0 = 0, const char* arg1_key = nullptr,
                   std::int64_t arg1 = 0) noexcept;
  static void instant(const char* cat, const char* name,
                      const char* arg0_key = nullptr, std::int64_t arg0 = 0,
                      const char* arg1_key = nullptr,
                      std::int64_t arg1 = 0) noexcept;
  static void counter(const char* cat, const char* name,
                      std::int64_t value) noexcept;

 private:
  struct Ring {
    Ring(std::size_t capacity, std::uint32_t tid);
    ~Ring();
    Ring(const Ring&) = delete;
    Ring& operator=(const Ring&) = delete;
    /// `capacity` uninitialized slots; [0, count) are constructed.
    TraceEvent* slots = nullptr;
    std::size_t capacity = 0;
    /// Valid slots; the owning thread release-stores after each write.
    std::atomic<std::uint32_t> count{0};
    std::atomic<std::uint64_t> dropped{0};
    /// Set when the owning thread exits (clear() may then recycle it).
    std::atomic<bool> released{false};
    std::uint32_t tid = 0;
  };

  Tracer() = default;
  [[nodiscard]] Ring& local_ring();
  void push(TraceEvent event) noexcept;

  static std::atomic<bool> enabled_;

  mutable std::mutex registry_mutex_;
  std::vector<std::unique_ptr<Ring>> rings_;
  std::vector<std::unique_ptr<Ring>> free_rings_;
  std::uint32_t next_tid_ = 0;
  std::size_t capacity_ = 1u << 16;

  friend class ScopedSpan;
};

/// RAII span: stamps t0 at construction (when tracing is on) and emits
/// at destruction. Zero cost when tracing is off beyond the flag load.
class ScopedSpan {
 public:
  ScopedSpan(const char* cat, const char* name) noexcept {
    if (Tracer::enabled()) {
      cat_ = cat;
      name_ = name;
      t0_ = now_ns();
      active_ = true;
    }
  }
  ~ScopedSpan() {
    if (active_) {
      Tracer::span(cat_, name_, t0_, now_ns(), arg0_key_, arg0_, arg1_key_,
                   arg1_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Attach args any time before destruction (no-ops when inactive).
  void arg0(const char* key, std::int64_t value) noexcept {
    arg0_key_ = key;
    arg0_ = value;
  }
  void arg1(const char* key, std::int64_t value) noexcept {
    arg1_key_ = key;
    arg1_ = value;
  }
  [[nodiscard]] bool active() const noexcept { return active_; }

 private:
  bool active_ = false;
  const char* cat_ = nullptr;
  const char* name_ = nullptr;
  const char* arg0_key_ = nullptr;
  const char* arg1_key_ = nullptr;
  std::int64_t arg0_ = 0;
  std::int64_t arg1_ = 0;
  std::uint64_t t0_ = 0;
};

}  // namespace evedge::obs
