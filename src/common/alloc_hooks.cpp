// The counting allocator hook: replacement global operator new/delete that
// report every heap allocation to common/alloc_stats.h.
//
// This TU is deliberately NOT part of waif_common — it is its own object
// library (waif::alloc_hooks) so only binaries that opt in (the benches,
// the allocation-regression tests) get the replaced operators. The
// replacements forward to malloc/free, which keeps them compatible with the
// sanitizer interceptors (ASan still sees every allocation through its
// malloc hook).
#include <cstdlib>
#include <new>

#include "common/alloc_stats.h"

namespace {

struct InstallFlag {
  InstallFlag() { waif::alloc_stats::mark_installed(); }
};
InstallFlag g_install_flag;

void* counted_alloc(std::size_t size) {
  waif::alloc_stats::record_alloc(size);
  if (size == 0) size = 1;
  void* p = std::malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* counted_aligned_alloc(std::size_t size, std::align_val_t align) {
  waif::alloc_stats::record_alloc(size);
  const auto alignment = static_cast<std::size_t>(align);
  // aligned_alloc requires size to be a multiple of the alignment.
  const std::size_t rounded = (size + alignment - 1) / alignment * alignment;
  void* p = std::aligned_alloc(alignment, rounded == 0 ? alignment : rounded);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  waif::alloc_stats::record_alloc(size);
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  waif::alloc_stats::record_alloc(size);
  return std::malloc(size == 0 ? 1 : size);
}

void* operator new(std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}

void operator delete(void* p) noexcept {
  if (p != nullptr) waif::alloc_stats::record_free();
  std::free(p);
}
void operator delete[](void* p) noexcept {
  if (p != nullptr) waif::alloc_stats::record_free();
  std::free(p);
}
void operator delete(void* p, std::size_t) noexcept { operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept { operator delete[](p); }
void operator delete(void* p, std::align_val_t) noexcept {
  if (p != nullptr) waif::alloc_stats::record_free();
  std::free(p);
}
void operator delete[](void* p, std::align_val_t) noexcept {
  if (p != nullptr) waif::alloc_stats::record_free();
  std::free(p);
}
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  if (p != nullptr) waif::alloc_stats::record_free();
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  if (p != nullptr) waif::alloc_stats::record_free();
  std::free(p);
}
