//===- core/LargeObjectManager.h - mmap-backed large objects ----*- C++ -*-===//
//
// Part of the DieHard reproduction (Berger & Zorn, PLDI 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Manager for objects larger than 16 KB. The paper gives each of these its
/// own mmap with no-access guard pages on either end, and records each
/// object in a table so that free can validate the address (Sections 4.1
/// and 4.3). Requests to free addresses that are not live large objects
/// are ignored.
///
/// Freed mappings are recycled through a randomized cache instead of being
/// unmapped. A free takes the object out of the validity table (so a
/// second free is still refused), advises the body away with
/// MADV_DONTNEED (it reads zero and costs no RSS) and parks the whole
/// mapping, both PROT_NONE guards intact, in a bucket keyed by mapping
/// size. An allocation picks a parked mapping of its size uniformly at
/// random, with no system call, provided the bucket holds at least
/// CandidateFloor mappings; otherwise it maps fresh. The pick comes from
/// the manager's own salted stream, so no other random stream of the heap
/// changes. This is DieHard's randomized reuse applied to large objects,
/// as in OpenBSD's malloc page cache.
///
/// Dangling pointers behave differently from the unmap-per-free design.
/// After munmap, an access faulted until the kernel handed the address to
/// the next mmap of that size, which Linux does deterministically. A
/// parked body instead reads zero and silently absorbs a dangling write,
/// and the next same-size request receives that particular mapping with
/// probability at most 1/CandidateFloor. A recycled body therefore reads
/// zero unless a dangling write reached it while it was parked: calloc
/// must still clear it.
///
/// The cache is bounded by MaxParkedMappings (each parked mapping costs
/// three VMAs) and MaxParkedBytes (address space, not RSS). A mapping that
/// would overflow either cap evicts uniformly random parked mappings,
/// which are unmapped; a mapping larger than the byte cap is unmapped
/// directly.
///
/// The validity table is an open-addressing hash table and the cache a
/// sorted array, each stored in its own lazily created anonymous mapping,
/// so the manager never allocates through the global allocator. That
/// matters under the malloc shim: the large-object path runs under a lock,
/// and storage that malloc'd its nodes (the previous std::unordered_map)
/// could re-enter that locked path from inside its own rehash — the
/// manager must be allocator-re-entrancy-free, not merely
/// external-synchronization-safe.
///
//===----------------------------------------------------------------------===//

#ifndef DIEHARD_CORE_LARGEOBJECTMANAGER_H
#define DIEHARD_CORE_LARGEOBJECTMANAGER_H

#include "support/MmapRegion.h"
#include "support/RelaxedCounter.h"
#include "support/Rng.h"

#include <cstddef>
#include <cstdint>

namespace diehard {

/// Allocates and frees large objects as guarded mappings, with a validity
/// table and a randomized cache of freed mappings. Not thread-safe; callers
/// serialize access (ShardedHeap uses a dedicated large-object lock). The
/// reuses() and parkedCount() gauges may be read without that lock.
class LargeObjectManager {
public:
  /// An allocation is served from the cache only when the bucket for its
  /// mapping size holds at least this many parked mappings, so a given
  /// freed mapping is handed to the next same-size request with
  /// probability at most 1/CandidateFloor.
  static constexpr size_t CandidateFloor = 8;

  /// Most mappings the cache keeps parked.
  static constexpr size_t MaxParkedMappings = 1024;

  /// Most bytes of mappings (guards included) the cache keeps parked.
  static constexpr size_t MaxParkedBytes = size_t(128) << 20;

  /// One whole guarded mapping: front guard, body, rear guard.
  struct Mapping {
    void *Base = nullptr;
    size_t Size = 0;
  };

  LargeObjectManager() = default;
  LargeObjectManager(const LargeObjectManager &) = delete;
  LargeObjectManager &operator=(const LargeObjectManager &) = delete;
  ~LargeObjectManager();

  /// Seeds the cache's pick stream from the heap seed \p HeapSeed (salted
  /// here, so the stream is unrelated to every stream the heap draws).
  void setSeed(uint64_t HeapSeed);

  /// Returns a region of \p Size bytes bracketed by PROT_NONE guard pages:
  /// a parked mapping of the same size when enough are cached, else a
  /// fresh one. \returns the usable pointer, or nullptr on exhaustion or
  /// for a \p Size of 0 or above PTRDIFF_MAX.
  void *allocate(size_t Size);

  /// Frees \p Ptr if and only if it is a live large object, in three steps:
  /// detach(), releaseBody() and park(). \returns true if the object was
  /// released, false if the request was ignored as invalid (unknown
  /// address or double free).
  bool deallocate(void *Ptr);

  /// First step of a free: takes \p Ptr out of the validity table and
  /// hands its mapping to \p Out. \returns the requested size, or 0 (and
  /// \p Out untouched) if \p Ptr is not a live large object.
  size_t detach(void *Ptr, Mapping &Out);

  /// Second step: returns the body of a detached mapping to the OS with
  /// MADV_DONTNEED. Touches no manager state, so it needs no lock; a
  /// detached mapping belongs to no one. If the advice fails the mapping
  /// is unmapped instead. \returns true if \p M should be parked.
  static bool releaseBody(const Mapping &M);

  /// Third step: parks a released mapping in the cache, evicting random
  /// parked mappings if a cap would be exceeded.
  void park(const Mapping &M);

  /// Returns the requested size of \p Ptr, or 0 if it is not a live large
  /// object (parked mappings included).
  size_t getSize(const void *Ptr) const;

  /// Returns true if \p Ptr is a live large object.
  bool contains(const void *Ptr) const { return getSize(Ptr) != 0; }

  /// Number of live large objects.
  size_t liveCount() const { return Live; }

  /// Allocations served from the cache. Lock-free read.
  uint64_t reuses() const { return Reuses; }

  /// Mappings currently parked. Lock-free read.
  uint64_t parkedCount() const { return ParkedCount; }

  /// Bytes of mappings currently parked, guards included.
  size_t parkedBytes() const { return ParkedBytes; }

private:
  /// One table slot, keyed by the user-visible pointer (first byte after
  /// the front guard). User is nullptr for never-used slots and Tombstone
  /// for erased ones.
  struct Slot {
    const void *User;
    Mapping Map;     ///< The whole mapping, guards included.
    size_t UserSize; ///< Size the caller asked for.
  };

  static const void *tombstone() {
    return reinterpret_cast<const void *>(~uintptr_t(0));
  }

  /// Doubles (or initializes) the table and rehashes live entries.
  /// \returns false if the new mapping cannot be obtained.
  bool grow();

  /// Returns the live slot for \p Ptr, or nullptr.
  Slot *findSlot(const void *Ptr) const;

  Slot *slots() const { return static_cast<Slot *>(Storage.base()); }

  /// Parked mappings, sorted by Size; a bucket is one run of equal sizes.
  Mapping *parked() const { return static_cast<Mapping *>(Cache.base()); }

  /// First parked index whose size is not below (\p Upper: is above)
  /// \p Size.
  size_t bucketBound(size_t Size, bool Upper) const;

  /// Moves a uniformly chosen mapping of exactly \p Size bytes out of the
  /// cache into \p Out. \returns false if the bucket holds fewer than
  /// CandidateFloor mappings.
  bool takeParked(size_t Size, Mapping &Out);

  /// Removes parked entry \p Index, keeping the array sorted.
  void removeParked(size_t Index);

  MmapRegion Storage; ///< Backing for the slot array.
  size_t Capacity = 0; ///< Slot count; always a power of two (or 0).
  size_t Live = 0;     ///< Live entries.
  size_t Used = 0;     ///< Live entries plus tombstones.

  MmapRegion Cache; ///< Backing for the parked array, mapped on first park.
  RelaxedCounter ParkedCount;
  size_t ParkedBytes = 0;
  RelaxedCounter Reuses;
  Rng PickRand; ///< Cache picks and evictions only.
};

} // namespace diehard

#endif // DIEHARD_CORE_LARGEOBJECTMANAGER_H
