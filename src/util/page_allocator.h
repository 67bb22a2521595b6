// Allocator for large per-run tables: a block of at least kPageMapBytes is
// mapped straight from the kernel and unmapped when released; smaller
// blocks come from operator new.
//
// Why: glibc raises its mmap threshold to the size of each larger mapped
// block it frees (up to 32 MiB), and a thread arena then keeps up to twice
// that threshold as free memory at its top, which malloc_trim does not
// return. A table of tens of MiB built on a short-lived thread — one
// message engine per rank thread — so stays resident in the arena that
// served it, and whether the next run reuses it or maps fresh memory
// depends on which arena its threads happen to draw: the process's peak
// resident set then varies from run to run. A page-mapped table leaves
// the threshold alone and gives its pages back the moment it is freed.
#pragma once

#include <cstddef>
#include <new>
#include <vector>

#include <sys/mman.h>

namespace deltacol {

inline constexpr std::size_t kPageMapBytes = std::size_t{1} << 20;

template <typename T>
struct PageAllocator {
  static_assert(alignof(T) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__,
                "over-aligned types need an aligned operator new");
  using value_type = T;

  PageAllocator() = default;
  template <typename U>
  PageAllocator(const PageAllocator<U>&) noexcept {}

  T* allocate(std::size_t n) {
    const std::size_t bytes = n * sizeof(T);
    if (bytes < kPageMapBytes) return static_cast<T*>(::operator new(bytes));
    void* p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) throw std::bad_alloc();
    // A hint: fresh pages are faulted in on every run, and huge pages cut
    // the faults 512-fold where the kernel offers them.
    (void)::madvise(p, bytes, MADV_HUGEPAGE);
    return static_cast<T*>(p);
  }

  // The size decides the path, and the container passes back the n it
  // allocated, so a block always returns the way it came.
  void deallocate(T* p, std::size_t n) noexcept {
    const std::size_t bytes = n * sizeof(T);
    if (bytes < kPageMapBytes) {
      ::operator delete(p);
    } else {
      ::munmap(p, bytes);
    }
  }

  template <typename U>
  bool operator==(const PageAllocator<U>&) const noexcept {
    return true;
  }
};

/// A vector whose large buffers are page-mapped (see PageAllocator).
template <typename T>
using PageVector = std::vector<T, PageAllocator<T>>;

}  // namespace deltacol
