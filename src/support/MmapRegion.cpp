//===- support/MmapRegion.cpp ---------------------------------------------===//
//
// Part of the DieHard reproduction (Berger & Zorn, PLDI 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Implementation of the RAII anonymous-mapping wrapper.
///
//===----------------------------------------------------------------------===//

#include "support/MmapRegion.h"

#include <atomic>
#include <cassert>
#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <cstring>

#include <sys/mman.h>
#include <unistd.h>

namespace diehard {

MmapRegion::MmapRegion(MmapRegion &&Other) noexcept
    : Base(Other.Base), Size(Other.Size) {
  Other.Base = nullptr;
  Other.Size = 0;
}

MmapRegion &MmapRegion::operator=(MmapRegion &&Other) noexcept {
  if (this == &Other)
    return *this;
  unmap();
  Base = Other.Base;
  Size = Other.Size;
  Other.Base = nullptr;
  Other.Size = 0;
  return *this;
}

MmapRegion::~MmapRegion() { unmap(); }

bool MmapRegion::map(size_t NumBytes) {
  unmap();
  if (NumBytes == 0)
    return false;
  // MAP_NORESERVE keeps huge reservations cheap: pages are committed lazily
  // on first touch, exactly the lazy-initialization behaviour the paper
  // relies on for its M-times-oversized heap.
  void *P = ::mmap(nullptr, NumBytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (P == MAP_FAILED)
    return false;
  Base = P;
  Size = NumBytes;
  return true;
}

void MmapRegion::unmap() {
  if (Base != nullptr)
    ::munmap(Base, Size);
  Base = nullptr;
  Size = 0;
}

bool MmapRegion::protectNone(size_t Offset, size_t Len) {
  assert(Base != nullptr && "cannot protect an empty region");
  assert(Offset % pageSize() == 0 && Len % pageSize() == 0 &&
         "guard pages must be page-aligned");
  assert(Offset + Len <= Size && "guard range out of bounds");
  char *Start = static_cast<char *>(Base) + Offset;
  return ::mprotect(Start, Len, PROT_NONE) == 0;
}

namespace {

/// The process page-return policy, resolved lazily from DIEHARD_PAGE_RETURN.
/// -1 = unresolved; otherwise a PageReturnPolicy value. Relaxed atomics: a
/// racing first resolution parses the same environment and stores the same
/// answer.
std::atomic<int> PolicyState{-1};

/// Whether madvise(MADV_FREE) works here: 0 = untried, 1 = works,
/// 2 = refused (pre-4.5 kernel, or no MADV_FREE at compile time) — fall
/// back to MADV_DONTNEED forever after.
std::atomic<int> LazyFreeState{0};

/// DIEHARD_THP: -1 = unresolved, 0 = off, 1 = back metadata mappings with
/// transparent huge pages.
std::atomic<int> ThpState{-1};

} // namespace

PageReturnPolicy MmapRegion::pageReturnPolicy() {
  int State = PolicyState.load(std::memory_order_relaxed);
  if (State < 0) {
    const char *V = std::getenv("DIEHARD_PAGE_RETURN");
    PageReturnPolicy P = PageReturnPolicy::DontNeed;
    if (V != nullptr) {
      if (std::strcmp(V, "free") == 0)
        P = PageReturnPolicy::Free;
      else if (std::strcmp(V, "off") == 0 || std::strcmp(V, "0") == 0)
        P = PageReturnPolicy::Off;
    }
    State = static_cast<int>(P);
    PolicyState.store(State, std::memory_order_relaxed);
  }
  return static_cast<PageReturnPolicy>(State);
}

void MmapRegion::setPageReturnPolicy(PageReturnPolicy Policy) {
  PolicyState.store(static_cast<int>(Policy), std::memory_order_relaxed);
}

bool MmapRegion::lazyFreeWorks() {
  return LazyFreeState.load(std::memory_order_relaxed) == 1;
}

size_t MmapRegion::releasePageRange(void *PageBegin, size_t PageBytes) {
  assert(reinterpret_cast<uintptr_t>(PageBegin) % pageSize() == 0 &&
         PageBytes % pageSize() == 0 && "range must be exactly page-aligned");
  if (PageBytes == 0)
    return 0;
  PageReturnPolicy Policy = pageReturnPolicy();
  if (Policy == PageReturnPolicy::Off)
    return 0;
#ifdef MADV_FREE
  if (Policy == PageReturnPolicy::Free &&
      LazyFreeState.load(std::memory_order_relaxed) != 2) {
    if (::madvise(PageBegin, PageBytes, MADV_FREE) == 0) {
      LazyFreeState.store(1, std::memory_order_relaxed);
      return PageBytes;
    }
    if (errno != EINVAL)
      return 0; // Transient refusal (e.g. locked pages): advise nothing.
    // EINVAL: the kernel predates MADV_FREE. Remember and fall through.
    LazyFreeState.store(2, std::memory_order_relaxed);
  }
#else
  if (Policy == PageReturnPolicy::Free)
    LazyFreeState.store(2, std::memory_order_relaxed);
#endif
  if (::madvise(PageBegin, PageBytes, MADV_DONTNEED) != 0)
    return 0;
  return PageBytes;
}

bool MmapRegion::hugePageMetadata() {
  int State = ThpState.load(std::memory_order_relaxed);
  if (State < 0) {
    const char *V = std::getenv("DIEHARD_THP");
    State = (V != nullptr && V[0] == '1' && V[1] == '\0') ? 1 : 0;
    ThpState.store(State, std::memory_order_relaxed);
  }
  return State == 1;
}

void MmapRegion::setHugePageMetadata(bool On) {
  ThpState.store(On ? 1 : 0, std::memory_order_relaxed);
}

void MmapRegion::adviseHugePages() const {
  if (Base == nullptr || !hugePageMetadata())
    return;
#ifdef MADV_HUGEPAGE
  // Best effort: THP may be disabled system-wide (EINVAL) — the mapping
  // works identically either way, just with 4 KB TLB entries.
  (void)::madvise(Base, Size, MADV_HUGEPAGE);
#endif
}

size_t MmapRegion::pageSize() {
  static const size_t Cached = static_cast<size_t>(::sysconf(_SC_PAGESIZE));
  return Cached;
}

} // namespace diehard
