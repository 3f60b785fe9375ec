// Counting global operator new for the benchmark binary: while counting is
// on, every allocation adds to per-thread counters, so each site thread's
// allocations per frame are read without a lock. Off, it costs one relaxed
// load per allocation.
#include <atomic>
#include <cstdlib>
#include <new>

#include "e2ebench/probes.h"

namespace {
std::atomic<bool> g_counting{false};
thread_local e2e::AllocCounts t_counts;

void* counted_alloc(std::size_t n) {
  if (g_counting.load(std::memory_order_relaxed)) {
    ++t_counts.count;
    t_counts.bytes += n;
  }
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
}  // namespace

namespace e2e {
AllocCounts thread_alloc_counts() { return t_counts; }
void set_alloc_counting(bool on) { g_counting.store(on, std::memory_order_relaxed); }
}  // namespace e2e

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
