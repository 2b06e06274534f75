// Heap accounting for run_mem_mb: this binary replaces the global
// operator new and delete, so every allocation the library makes through
// them is counted. Resident-set readings were tried first; they follow
// what the allocator keeps after frees more than what a run needs.
//
// libstdc++ forwards the array, nothrow and remaining sized forms to the
// ones replaced here; the aligned forms allocate on their own, so they
// are replaced as well.

#include <malloc.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "bench.hpp"

namespace {

std::atomic<std::int64_t> g_live{0};
std::atomic<std::int64_t> g_peak{0};

void count_alloc(void* p) noexcept {
  const auto n = static_cast<std::int64_t>(malloc_usable_size(p));
  const std::int64_t live = g_live.fetch_add(n, std::memory_order_relaxed) + n;
  std::int64_t peak = g_peak.load(std::memory_order_relaxed);
  while (live > peak && !g_peak.compare_exchange_weak(
                            peak, live, std::memory_order_relaxed)) {
  }
}

void count_free(void* p) noexcept {
  g_live.fetch_sub(static_cast<std::int64_t>(malloc_usable_size(p)),
                   std::memory_order_relaxed);
}

void* checked(void* p) {
  if (p == nullptr) throw std::bad_alloc();
  count_alloc(p);
  return p;
}

}  // namespace

void* operator new(std::size_t n) { return checked(std::malloc(n == 0 ? 1 : n)); }

void* operator new(std::size_t n, std::align_val_t align) {
  const auto a = static_cast<std::size_t>(align);
  // aligned_alloc wants a size that is a multiple of the alignment.
  return checked(std::aligned_alloc(a, (n + a - 1) / a * a));
}

void operator delete(void* p) noexcept {
  if (p == nullptr) return;
  count_free(p);
  std::free(p);
}

void operator delete(void* p, std::size_t) noexcept { operator delete(p); }

void operator delete(void* p, std::align_val_t) noexcept {
  operator delete(p);
}

namespace evbench {

void reset_heap_peak() noexcept {
  g_peak.store(g_live.load(std::memory_order_relaxed),
               std::memory_order_relaxed);
}

double heap_live_mb() noexcept {
  return static_cast<double>(g_live.load(std::memory_order_relaxed)) /
         (1024.0 * 1024.0);
}

double heap_peak_mb() noexcept {
  return static_cast<double>(g_peak.load(std::memory_order_relaxed)) /
         (1024.0 * 1024.0);
}

}  // namespace evbench
