/// \file alloc_guard.cpp
/// Opt-in global operator new/delete replacement that reports every
/// allocation to the hot-region counter (alloc_hook.h). Built as its own
/// object library (`cpr_alloc_guard`) and linked ONLY by the bench harness
/// and the allocation-regression test; production binaries keep the
/// default allocator. Replacement operators are program-global, so linking
/// this TU anywhere instruments the whole binary.
#include <cstddef>
#include <cstdlib>
#include <new>

#include "support/alloc_hook.h"

namespace {

void* countedAlloc(std::size_t size, std::size_t align) {
  cpr::support::alloc::noteAlloc();
  if (size == 0) size = 1;
  void* p = align > alignof(std::max_align_t)
                ? std::aligned_alloc(align, (size + align - 1) / align * align)
                : std::malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t size) { return countedAlloc(size, 0); }
void* operator new[](std::size_t size) { return countedAlloc(size, 0); }
void* operator new(std::size_t size, std::align_val_t align) {
  return countedAlloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return countedAlloc(size, static_cast<std::size_t>(align));
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return countedAlloc(size, 0);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return countedAlloc(size, 0);
  } catch (...) {
    return nullptr;
  }
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
