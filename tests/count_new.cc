#include "count_new.h"

#include <atomic>
#include <cstdlib>
#include <new>

namespace {
std::atomic<uint64_t> g_news{0};
}  // namespace

namespace boxagg {
uint64_t NewCount() { return g_news.load(std::memory_order_relaxed); }
}  // namespace boxagg

void* operator new(size_t n) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new(size_t n, std::align_val_t al) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::aligned_alloc(static_cast<size_t>(al),
                                   (n + static_cast<size_t>(al) - 1) &
                                       ~(static_cast<size_t>(al) - 1))) {
    return p;
  }
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, size_t, std::align_val_t) noexcept {
  std::free(p);
}
