// A counting global `operator new` for the allocation-count checks under
// tests/perf (ctest label `perf`). For a fixed single-threaded replay
// the number of heap allocations is deterministic, so a test counts them
// between StartCounting() and StopCounting() and pins the count per unit
// of work.
//
// The header defines the replaceable global allocation functions, so
// exactly one translation unit of a test binary may include it (every
// test source here is its own binary). ASan and TSan replace
// `operator new` themselves: under them the counting operator is
// compiled out, kCountingAllocations is false and a test skips its
// allocation assertions, while its replays and output checks still run.

#ifndef ESLEV_TESTS_PERF_ALLOC_COUNTER_H_
#define ESLEV_TESTS_PERF_ALLOC_COUNTER_H_

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define ESLEV_COUNT_ALLOCATIONS 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define ESLEV_COUNT_ALLOCATIONS 0
#endif
#endif
#ifndef ESLEV_COUNT_ALLOCATIONS
#define ESLEV_COUNT_ALLOCATIONS 1
#endif

namespace eslev {
namespace alloc_counter {

inline std::atomic<bool> g_counting{false};
inline std::atomic<uint64_t> g_allocations{0};

}  // namespace alloc_counter
}  // namespace eslev

#if ESLEV_COUNT_ALLOCATIONS
// GCC matches the free() below against the operator new it can see
// inlined at a call site and reports a mismatch; both are this pair.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void* operator new(std::size_t size) {
  if (eslev::alloc_counter::g_counting.load(std::memory_order_relaxed)) {
    eslev::alloc_counter::g_allocations.fetch_add(1,
                                                  std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { ::operator delete(p); }
void operator delete(void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept { ::operator delete(p); }
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif
#endif

namespace eslev {

constexpr bool kCountingAllocations = ESLEV_COUNT_ALLOCATIONS != 0;

inline void StartCounting() {
  alloc_counter::g_allocations.store(0, std::memory_order_relaxed);
  alloc_counter::g_counting.store(true, std::memory_order_relaxed);
}

/// Stops counting; returns the allocations since StartCounting().
inline uint64_t StopCounting() {
  alloc_counter::g_counting.store(false, std::memory_order_relaxed);
  return alloc_counter::g_allocations.load(std::memory_order_relaxed);
}

/// Allocations and units of work counted over one replay.
struct AllocCount {
  uint64_t allocations = 0;
  uint64_t units = 0;
  double PerUnit() const {
    return units == 0 ? 0.0
                      : static_cast<double>(allocations) /
                            static_cast<double>(units);
  }
  bool operator==(const AllocCount& o) const {
    return allocations == o.allocations && units == o.units;
  }
};

}  // namespace eslev

#endif  // ESLEV_TESTS_PERF_ALLOC_COUNTER_H_
