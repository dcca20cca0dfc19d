//===- core/LargeObjectManager.cpp ----------------------------------------===//
//
// Part of the DieHard reproduction (Berger & Zorn, PLDI 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Implementation of the guarded-mapping large-object manager: its
/// allocator-re-entrancy-free open-addressing validity table and its
/// randomized cache of parked mappings.
///
//===----------------------------------------------------------------------===//

#include "core/LargeObjectManager.h"

#include <cstdint>
#include <cstring>
#include <utility>

#include <sys/mman.h>

namespace diehard {

namespace {

/// SplitMix64-style mix of the user address. Large-object pointers are
/// page-aligned, so the low bits carry no information; mixing spreads the
/// page number over the whole word.
size_t hashPointer(const void *Ptr) {
  uint64_t Z = reinterpret_cast<uintptr_t>(Ptr) >> 12;
  Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBULL;
  return static_cast<size_t>(Z ^ (Z >> 31));
}

/// Salt for the cache's pick stream, so it is unrelated to every stream
/// the heap draws from the same seed.
constexpr uint64_t PickSeedSalt = 0x5A3C9E1F7B2D4863ULL;

} // namespace

LargeObjectManager::~LargeObjectManager() {
  for (size_t I = 0; I < Capacity; ++I) {
    Slot &S = slots()[I];
    if (S.User != nullptr && S.User != tombstone())
      ::munmap(S.Map.Base, S.Map.Size);
  }
  for (size_t I = 0; I < ParkedCount; ++I)
    ::munmap(parked()[I].Base, parked()[I].Size);
}

void LargeObjectManager::setSeed(uint64_t HeapSeed) {
  PickRand.setSeed(HeapSeed ^ PickSeedSalt);
}

bool LargeObjectManager::grow() {
  size_t NewCapacity = Capacity == 0 ? 64 : Capacity * 2;
  MmapRegion NewStorage;
  if (!NewStorage.map(NewCapacity * sizeof(Slot)))
    return false;
  auto *NewSlots = static_cast<Slot *>(NewStorage.base());
  // Fresh anonymous pages are demand-zero, so every User starts nullptr.
  for (size_t I = 0; I < Capacity; ++I) {
    const Slot &S = slots()[I];
    if (S.User == nullptr || S.User == tombstone())
      continue;
    size_t Index = hashPointer(S.User) & (NewCapacity - 1);
    while (NewSlots[Index].User != nullptr)
      Index = (Index + 1) & (NewCapacity - 1);
    NewSlots[Index] = S;
  }
  Storage = std::move(NewStorage);
  Capacity = NewCapacity;
  Used = Live; // Rehashing drops the tombstones.
  return true;
}

LargeObjectManager::Slot *
LargeObjectManager::findSlot(const void *Ptr) const {
  if (Capacity == 0 || Ptr == nullptr || Ptr == tombstone())
    return nullptr;
  size_t Index = hashPointer(Ptr) & (Capacity - 1);
  while (true) {
    Slot &S = slots()[Index];
    if (S.User == nullptr)
      return nullptr; // Hit a never-used slot: Ptr is not in the table.
    if (S.User == Ptr)
      return &S;
    Index = (Index + 1) & (Capacity - 1);
  }
}

void *LargeObjectManager::allocate(size_t Size) {
  // Past PTRDIFF_MAX the page rounding below would wrap and map a mapping
  // far smaller than Size.
  if (Size == 0 || Size > PTRDIFF_MAX)
    return nullptr;
  // Keep the table at most 3/4 occupied (tombstones included) so probe
  // chains stay short and the insert below cannot fail.
  if ((Used + 1) * 4 > Capacity * 3 && !grow())
    return nullptr;

  size_t Page = MmapRegion::pageSize();
  size_t Body = (Size + Page - 1) / Page * Page;
  // One guard page before and one after the object body.
  size_t Total = Body + 2 * Page;
  Mapping M;
  if (takeParked(Total, M)) {
    ++Reuses; // Guards are still PROT_NONE; the body was advised away.
  } else {
    M.Size = Total;
    M.Base = ::mmap(nullptr, Total, PROT_READ | PROT_WRITE,
                    MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    if (M.Base == MAP_FAILED)
      return nullptr;
    // Revoke all access on the guard pages so that any overflow off either
    // end of the object faults immediately instead of silently corrupting
    // memory.
    ::mprotect(M.Base, Page, PROT_NONE);
    ::mprotect(static_cast<char *>(M.Base) + Page + Body, Page, PROT_NONE);
  }
  char *User = static_cast<char *>(M.Base) + Page;

  size_t Index = hashPointer(User) & (Capacity - 1);
  while (slots()[Index].User != nullptr &&
         slots()[Index].User != tombstone())
    Index = (Index + 1) & (Capacity - 1);
  if (slots()[Index].User == nullptr)
    ++Used; // Reusing a tombstone keeps Used unchanged.
  slots()[Index] = Slot{User, M, Size};
  ++Live;
  return User;
}

bool LargeObjectManager::deallocate(void *Ptr) {
  Mapping M;
  if (detach(Ptr, M) == 0)
    return false; // Unknown or already-freed address: ignore, per the paper.
  if (releaseBody(M))
    park(M);
  return true;
}

size_t LargeObjectManager::detach(void *Ptr, Mapping &Out) {
  Slot *S = findSlot(Ptr);
  if (S == nullptr)
    return 0;
  Out = S->Map;
  S->User = tombstone();
  --Live;
  return S->UserSize;
}

bool LargeObjectManager::releaseBody(const Mapping &M) {
  size_t Page = MmapRegion::pageSize();
  if (::madvise(static_cast<char *>(M.Base) + Page, M.Size - 2 * Page,
                MADV_DONTNEED) == 0)
    return true;
  // The body still holds its previous owner's bytes; do not recycle it.
  ::munmap(M.Base, M.Size);
  return false;
}

void LargeObjectManager::park(const Mapping &M) {
  if (M.Size > MaxParkedBytes ||
      (Cache.base() == nullptr &&
       !Cache.map(MaxParkedMappings * sizeof(Mapping)))) {
    ::munmap(M.Base, M.Size);
    return;
  }
  // Evict uniformly at random rather than refusing M: unmapping the
  // mapping just freed would let the kernel hand its address to the next
  // mmap of that size, the deterministic reuse the cache exists to avoid.
  while (ParkedCount == MaxParkedMappings ||
         ParkedBytes + M.Size > MaxParkedBytes) {
    size_t Victim =
        PickRand.nextBounded(static_cast<uint32_t>(ParkedCount));
    ::munmap(parked()[Victim].Base, parked()[Victim].Size);
    removeParked(Victim);
  }
  // Append to the end of M's bucket so the array stays sorted.
  size_t At = bucketBound(M.Size, /*Upper=*/true);
  std::memmove(&parked()[At + 1], &parked()[At],
               (ParkedCount - At) * sizeof(Mapping));
  parked()[At] = M;
  ++ParkedCount;
  ParkedBytes += M.Size;
}

size_t LargeObjectManager::bucketBound(size_t Size, bool Upper) const {
  size_t Lo = 0, Hi = ParkedCount;
  while (Lo < Hi) {
    size_t Mid = Lo + (Hi - Lo) / 2;
    size_t S = parked()[Mid].Size;
    if (S < Size || (Upper && S == Size))
      Lo = Mid + 1;
    else
      Hi = Mid;
  }
  return Lo;
}

bool LargeObjectManager::takeParked(size_t Size, Mapping &Out) {
  size_t Begin = bucketBound(Size, /*Upper=*/false);
  size_t End = bucketBound(Size, /*Upper=*/true);
  if (End - Begin < CandidateFloor)
    return false;
  size_t Index =
      Begin + PickRand.nextBounded(static_cast<uint32_t>(End - Begin));
  Out = parked()[Index];
  removeParked(Index);
  return true;
}

void LargeObjectManager::removeParked(size_t Index) {
  ParkedBytes -= parked()[Index].Size;
  ParkedCount -= 1;
  std::memmove(&parked()[Index], &parked()[Index + 1],
               (ParkedCount - Index) * sizeof(Mapping));
}

size_t LargeObjectManager::getSize(const void *Ptr) const {
  const Slot *S = findSlot(Ptr);
  return S == nullptr ? 0 : S->UserSize;
}

} // namespace diehard
