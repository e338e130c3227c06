#include "alloc_hook.h"

#include <atomic>
#include <cstdlib>
#include <new>

namespace servebench {
namespace {
std::atomic<bool> g_counting{false};
std::atomic<uint64_t> g_allocs{0};

void* Allocate(std::size_t n) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  void* p = std::malloc(n ? n : 1);
  if (!p) throw std::bad_alloc();
  return p;
}

void* AllocateAligned(std::size_t n, std::align_val_t al) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  std::size_t a = static_cast<std::size_t>(al);
  std::size_t size = (n + a - 1) / a * a;  // aligned_alloc wants a multiple.
  void* p = std::aligned_alloc(a, size ? size : a);
  if (!p) throw std::bad_alloc();
  return p;
}
}  // namespace

void SetAllocCounting(bool on) {
  g_counting.store(on, std::memory_order_relaxed);
}

uint64_t AllocCount() { return g_allocs.load(std::memory_order_relaxed); }

}  // namespace servebench

void* operator new(std::size_t n) { return servebench::Allocate(n); }
void* operator new[](std::size_t n) { return servebench::Allocate(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return servebench::Allocate(n);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return servebench::Allocate(n);
  } catch (...) {
    return nullptr;
  }
}
void* operator new(std::size_t n, std::align_val_t al) {
  return servebench::AllocateAligned(n, al);
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return servebench::AllocateAligned(n, al);
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
