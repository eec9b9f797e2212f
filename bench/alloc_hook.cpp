// Global operator new/delete replacements that count heap allocations.
//
// perfbench/ links this file into its traced probe, whose allocation
// counters (proc.allocs_run, proc.allocs_per_event) read
// bench::allocation_count(). The counter uses a relaxed atomic — callers
// only read totals, never order anything on it — so the hook costs one
// uncontended RMW per allocation.
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace shadowprobe::bench {
namespace {
std::atomic<std::uint64_t> g_alloc_count{0};

void* counted_malloc(std::size_t size) noexcept {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size != 0 ? size : 1);
}

void* counted_aligned(std::size_t size, std::size_t alignment) noexcept {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  void* ptr = nullptr;
  if (alignment < sizeof(void*)) alignment = sizeof(void*);
  if (posix_memalign(&ptr, alignment, size != 0 ? size : 1) != 0) return nullptr;
  return ptr;
}
}  // namespace

std::uint64_t allocation_count() noexcept {
  return g_alloc_count.load(std::memory_order_relaxed);
}

}  // namespace shadowprobe::bench

void* operator new(std::size_t size) {
  if (void* ptr = shadowprobe::bench::counted_malloc(size)) return ptr;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  if (void* ptr = shadowprobe::bench::counted_malloc(size)) return ptr;
  throw std::bad_alloc();
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return shadowprobe::bench::counted_malloc(size);
}

void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return shadowprobe::bench::counted_malloc(size);
}

void* operator new(std::size_t size, std::align_val_t alignment) {
  if (void* ptr = shadowprobe::bench::counted_aligned(
          size, static_cast<std::size_t>(alignment))) {
    return ptr;
  }
  throw std::bad_alloc();
}

void* operator new[](std::size_t size, std::align_val_t alignment) {
  if (void* ptr = shadowprobe::bench::counted_aligned(
          size, static_cast<std::size_t>(alignment))) {
    return ptr;
  }
  throw std::bad_alloc();
}

void* operator new(std::size_t size, std::align_val_t alignment,
                   const std::nothrow_t&) noexcept {
  return shadowprobe::bench::counted_aligned(size, static_cast<std::size_t>(alignment));
}

void* operator new[](std::size_t size, std::align_val_t alignment,
                     const std::nothrow_t&) noexcept {
  return shadowprobe::bench::counted_aligned(size, static_cast<std::size_t>(alignment));
}

void operator delete(void* ptr) noexcept { std::free(ptr); }
void operator delete[](void* ptr) noexcept { std::free(ptr); }
void operator delete(void* ptr, std::size_t) noexcept { std::free(ptr); }
void operator delete[](void* ptr, std::size_t) noexcept { std::free(ptr); }
void operator delete(void* ptr, const std::nothrow_t&) noexcept { std::free(ptr); }
void operator delete[](void* ptr, const std::nothrow_t&) noexcept { std::free(ptr); }
void operator delete(void* ptr, std::align_val_t) noexcept { std::free(ptr); }
void operator delete[](void* ptr, std::align_val_t) noexcept { std::free(ptr); }
void operator delete(void* ptr, std::size_t, std::align_val_t) noexcept {
  std::free(ptr);
}
void operator delete[](void* ptr, std::size_t, std::align_val_t) noexcept {
  std::free(ptr);
}
void operator delete(void* ptr, std::align_val_t, const std::nothrow_t&) noexcept {
  std::free(ptr);
}
void operator delete[](void* ptr, std::align_val_t, const std::nothrow_t&) noexcept {
  std::free(ptr);
}
