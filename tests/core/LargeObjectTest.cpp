//===- tests/core/LargeObjectTest.cpp -------------------------------------===//
//
// Part of the DieHard reproduction (Berger & Zorn, PLDI 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the large-object path: guard pages, the validity table, the
/// randomized cache of parked mappings, realloc across the small/large
/// boundary, and concurrent alloc/free (externally locked manager and the
/// sharded heap's shared path).
///
//===----------------------------------------------------------------------===//

#include "core/LargeObjectManager.h"

#include "core/DieHardHeap.h"
#include "core/ShardedHeap.h"
#include "support/MmapRegion.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include <sys/mman.h>

namespace diehard {
namespace {

TEST(LargeObjectManagerTest, AllocatesUsableMemory) {
  LargeObjectManager M;
  constexpr size_t Size = 100 * 1024;
  auto *P = static_cast<char *>(M.allocate(Size));
  ASSERT_NE(P, nullptr);
  std::memset(P, 0xEE, Size);
  EXPECT_EQ(static_cast<unsigned char>(P[Size - 1]), 0xEE);
  EXPECT_TRUE(M.deallocate(P));
}

TEST(LargeObjectManagerTest, TracksSizeAndLiveness) {
  LargeObjectManager M;
  void *P = M.allocate(64 * 1024);
  ASSERT_NE(P, nullptr);
  EXPECT_EQ(M.getSize(P), 64u * 1024);
  EXPECT_TRUE(M.contains(P));
  EXPECT_EQ(M.liveCount(), 1u);
  EXPECT_TRUE(M.deallocate(P));
  EXPECT_FALSE(M.contains(P));
  EXPECT_EQ(M.liveCount(), 0u);
}

TEST(LargeObjectManagerTest, DoubleFreeIgnored) {
  LargeObjectManager M;
  void *P = M.allocate(32 * 1024);
  ASSERT_NE(P, nullptr);
  EXPECT_TRUE(M.deallocate(P));
  EXPECT_FALSE(M.deallocate(P)) << "second free must be refused";
}

TEST(LargeObjectManagerTest, UnknownPointerIgnored) {
  LargeObjectManager M;
  int Local;
  EXPECT_FALSE(M.deallocate(&Local));
  EXPECT_FALSE(M.deallocate(nullptr));
}

TEST(LargeObjectManagerTest, ZeroSizeRefused) {
  LargeObjectManager M;
  EXPECT_EQ(M.allocate(0), nullptr);
}

TEST(LargeObjectManagerTest, OversizedRequestRefused) {
  // Rounding these up to whole pages would wrap around to a tiny mapping.
  LargeObjectManager M;
  EXPECT_EQ(M.allocate(SIZE_MAX), nullptr);
  EXPECT_EQ(M.allocate(SIZE_MAX - MmapRegion::pageSize() + 1), nullptr);
  EXPECT_EQ(M.liveCount(), 0u);
}

TEST(LargeObjectManagerDeathTest, FrontGuardPageFaults) {
  LargeObjectManager M;
  auto *P = static_cast<char *>(M.allocate(8 * 1024 * 1024));
  ASSERT_NE(P, nullptr);
  // One byte before the object is the PROT_NONE guard page (Section 4.1).
  EXPECT_DEATH({ P[-1] = 1; }, "");
  M.deallocate(P);
}

TEST(LargeObjectManagerDeathTest, RearGuardPageFaults) {
  LargeObjectManager M;
  size_t Page = MmapRegion::pageSize();
  // Exactly page-sized body: the byte after the object is the rear guard.
  auto *P = static_cast<char *>(M.allocate(Page));
  ASSERT_NE(P, nullptr);
  EXPECT_DEATH({ P[Page] = 1; }, "");
  M.deallocate(P);
}

constexpr size_t Floor = LargeObjectManager::CandidateFloor;

/// Allocates \p Count objects of \p Size and frees them in allocation
/// order, so they are all parked. \returns them in that order.
std::vector<char *> parkObjects(LargeObjectManager &M, size_t Count,
                                size_t Size) {
  std::vector<char *> Order;
  for (size_t I = 0; I < Count; ++I)
    Order.push_back(static_cast<char *>(M.allocate(Size)));
  for (char *P : Order)
    M.deallocate(P);
  return Order;
}

/// Position of \p P in \p Order, or Order.size() if absent.
size_t indexIn(const std::vector<char *> &Order, const void *P) {
  return static_cast<size_t>(
      std::find(Order.begin(), Order.end(), P) - Order.begin());
}

/// Returns an object of \p Size served from the cache: CandidateFloor
/// mappings of its size are parked first.
char *recycledObject(LargeObjectManager &M, size_t Size) {
  parkObjects(M, Floor, Size);
  auto *P = static_cast<char *>(M.allocate(Size));
  EXPECT_EQ(M.reuses(), 1u);
  return P;
}

/// True if the page at \p P is mapped (mincore fails with ENOMEM on an
/// unmapped range).
bool isMapped(const void *P) {
  unsigned char Resident;
  return ::mincore(const_cast<void *>(P), MmapRegion::pageSize(),
                   &Resident) == 0;
}

TEST(LargeObjectCacheTest, FreshMappingsUntilTheBucketReachesTheFloor) {
  LargeObjectManager M;
  constexpr size_t Size = 24 * 1024;
  parkObjects(M, Floor - 1, Size);
  EXPECT_EQ(M.parkedCount(), Floor - 1);
  void *P = M.allocate(Size);
  EXPECT_EQ(M.reuses(), 0u) << "a bucket below the floor maps fresh";
  M.deallocate(P);
  EXPECT_EQ(M.parkedCount(), Floor);
  // A different page count has its own, empty bucket.
  void *Other = M.allocate(Size + MmapRegion::pageSize());
  EXPECT_EQ(M.reuses(), 0u);
  M.deallocate(Other);
  P = M.allocate(Size);
  EXPECT_EQ(M.reuses(), 1u);
  EXPECT_EQ(M.parkedCount(), Floor);
  M.deallocate(P);
}

TEST(LargeObjectCacheTest, RecycledBodyReadsZero) {
  LargeObjectManager M;
  size_t Page = MmapRegion::pageSize();
  const size_t Size = 10 * Page + 100;
  const size_t Body = 11 * Page;
  std::vector<char *> Owners;
  for (size_t I = 0; I < Floor; ++I) {
    auto *P = static_cast<char *>(M.allocate(Size));
    ASSERT_NE(P, nullptr);
    std::memset(P, 0xA5, Body); // Every page of the body, slack included.
    Owners.push_back(P);
  }
  for (char *P : Owners)
    ASSERT_TRUE(M.deallocate(P));
  auto *Q = static_cast<char *>(M.allocate(Size));
  ASSERT_NE(Q, nullptr);
  EXPECT_EQ(M.reuses(), 1u);
  EXPECT_LT(indexIn(Owners, Q), Owners.size()) << "not a recycled mapping";
  EXPECT_EQ(M.getSize(Q), Size);
  for (size_t I = 0; I < Body; ++I)
    ASSERT_EQ(Q[I], 0) << "byte " << I << " of a recycled body";
  M.deallocate(Q);
}

TEST(LargeObjectCacheDeathTest, RecycledFrontGuardPageFaults) {
  LargeObjectManager M;
  char *P = recycledObject(M, 64 * 1024);
  ASSERT_NE(P, nullptr);
  EXPECT_DEATH({ P[-1] = 1; }, "");
  M.deallocate(P);
}

TEST(LargeObjectCacheDeathTest, RecycledRearGuardPageFaults) {
  LargeObjectManager M;
  size_t Page = MmapRegion::pageSize();
  char *P = recycledObject(M, Page);
  ASSERT_NE(P, nullptr);
  EXPECT_DEATH({ P[Page] = 1; }, "");
  M.deallocate(P);
}

TEST(LargeObjectCacheTest, ParkedPointerIsNotLive) {
  LargeObjectManager M;
  void *P = M.allocate(32 * 1024);
  ASSERT_NE(P, nullptr);
  ASSERT_TRUE(M.deallocate(P));
  EXPECT_EQ(M.parkedCount(), 1u);
  EXPECT_TRUE(isMapped(P)) << "the mapping is parked, not unmapped";
  EXPECT_EQ(M.getSize(P), 0u);
  EXPECT_FALSE(M.contains(P));
  EXPECT_FALSE(M.deallocate(P)) << "double free of a parked pointer";
  EXPECT_EQ(M.parkedCount(), 1u) << "a refused free must not park twice";
}

TEST(LargeObjectCacheTest, ReuseOrderIsNeitherLifoNorFifo) {
  constexpr size_t Size = 48 * 1024;
  constexpr size_t Count = 2 * Floor;
  constexpr int Seeds = 32;
  int Lifo = 0, Fifo = 0;
  std::set<size_t> Picks;
  for (int Seed = 1; Seed <= Seeds; ++Seed) {
    LargeObjectManager M;
    M.setSeed(static_cast<uint64_t>(Seed));
    std::vector<char *> Order = parkObjects(M, Count, Size);
    size_t Pick = indexIn(Order, M.allocate(Size));
    ASSERT_LT(Pick, Count) << "seed " << Seed << ": not a recycled mapping";
    Lifo += Pick == Count - 1;
    Fifo += Pick == 0;
    Picks.insert(Pick);
  }
  EXPECT_LT(Lifo, Seeds) << "always hands out the last freed mapping";
  EXPECT_LT(Fifo, Seeds) << "always hands out the first freed mapping";
  EXPECT_GE(Picks.size(), Count / 2) << "picks are not spread over the bucket";
}

TEST(LargeObjectCacheTest, EntryCapUnmapsTheExcess) {
  LargeObjectManager M;
  size_t Page = MmapRegion::pageSize();
  constexpr size_t Extra = 16;
  std::vector<char *> Order =
      parkObjects(M, LargeObjectManager::MaxParkedMappings + Extra, Page);
  EXPECT_EQ(M.parkedCount(), LargeObjectManager::MaxParkedMappings);
  size_t Unmapped = static_cast<size_t>(
      std::count_if(Order.begin(), Order.end(),
                    [](const char *P) { return !isMapped(P); }));
  EXPECT_EQ(Unmapped, Extra);
  EXPECT_TRUE(isMapped(Order.back()))
      << "the newest mapping is parked; evictions take random older ones";
}

TEST(LargeObjectCacheTest, ByteCapUnmapsTheExcess) {
  LargeObjectManager M;
  size_t Page = MmapRegion::pageSize();
  constexpr size_t Size = size_t(8) << 20; // Untouched: address space only.
  const size_t MapSize = Size + 2 * Page;
  const size_t Fit = LargeObjectManager::MaxParkedBytes / MapSize;
  std::vector<char *> Order = parkObjects(M, Fit + 4, Size);
  EXPECT_EQ(M.parkedCount(), Fit);
  EXPECT_EQ(M.parkedBytes(), Fit * MapSize);
  EXPECT_LE(M.parkedBytes(), LargeObjectManager::MaxParkedBytes);
  size_t Unmapped = static_cast<size_t>(
      std::count_if(Order.begin(), Order.end(),
                    [](const char *P) { return !isMapped(P); }));
  EXPECT_EQ(Unmapped, 4u);

  // A mapping larger than the whole byte cap is never parked.
  void *Huge = M.allocate(LargeObjectManager::MaxParkedBytes);
  ASSERT_NE(Huge, nullptr);
  M.deallocate(Huge);
  EXPECT_FALSE(isMapped(Huge));
  EXPECT_EQ(M.parkedCount(), Fit);
}

/// Frees 2 * CandidateFloor large objects of one size on \p H, allocates
/// CandidateFloor more, and \returns each one's position in the free order.
template <typename HeapT> std::vector<size_t> recyclePicks(HeapT &H) {
  constexpr size_t Size = 20 * 1024;
  std::vector<char *> Order;
  for (size_t I = 0; I < 2 * Floor; ++I)
    Order.push_back(static_cast<char *>(H.allocate(Size)));
  for (char *P : Order)
    H.deallocate(P);
  std::vector<size_t> Picks;
  for (size_t I = 0; I < Floor; ++I)
    Picks.push_back(indexIn(Order, H.allocate(Size)));
  EXPECT_EQ(H.stats().LargeReuses, Floor);
  EXPECT_EQ(H.stats().LargeParked, Floor);
  return Picks;
}

TEST(LargeObjectCacheTest, SeededHeapsPickReproducibly) {
  // The pick stream follows the heap seed, so replicas with one seed
  // recycle the same mappings in the same order, sharded or not.
  auto HeapPicks = [](uint64_t Seed) {
    DieHardOptions O;
    O.HeapSize = 24 * 1024 * 1024;
    O.Seed = Seed;
    DieHardHeap H(O);
    return recyclePicks(H);
  };
  std::vector<size_t> First = HeapPicks(7);
  EXPECT_EQ(First, HeapPicks(7));
  EXPECT_NE(First, HeapPicks(8));

  ShardedHeapOptions SO;
  SO.Heap.HeapSize = 24 * 1024 * 1024;
  SO.Heap.Seed = 7;
  SO.NumShards = 1;
  ShardedHeap S(SO);
  EXPECT_EQ(First, recyclePicks(S));
}

TEST(DieHardHeapLargeTest, HeapRoutesLargeRequests) {
  DieHardOptions O;
  O.HeapSize = 24 * 1024 * 1024;
  O.Seed = 4;
  DieHardHeap H(O);
  constexpr size_t Size = SizeClass::MaxObjectSize + 1;
  auto *P = static_cast<char *>(H.allocate(Size));
  ASSERT_NE(P, nullptr);
  EXPECT_FALSE(H.isInHeap(P)) << "large objects live outside the heap area";
  EXPECT_EQ(H.getObjectSize(P), Size);
  std::memset(P, 1, Size);
  EXPECT_EQ(H.stats().LargeAllocations, 1u);
  H.deallocate(P);
  EXPECT_EQ(H.stats().LargeFrees, 1u);
  EXPECT_EQ(H.getObjectSize(P), 0u);
}

TEST(DieHardHeapLargeTest, LargeDoubleFreeIgnored) {
  DieHardOptions O;
  O.HeapSize = 24 * 1024 * 1024;
  O.Seed = 4;
  DieHardHeap H(O);
  void *P = H.allocate(128 * 1024);
  ASSERT_NE(P, nullptr);
  H.deallocate(P);
  H.deallocate(P);
  EXPECT_EQ(H.stats().IgnoredFrees, 1u);
}

TEST(LargeObjectConcurrencyTest, ManagerIsSafeUnderAnExternalLock) {
  // LargeObjectManager itself is not thread-safe; its contract is that the
  // caller serializes access (ShardedHeap uses a dedicated large-object
  // lock). This hammers that usage pattern directly.
  LargeObjectManager M;
  std::mutex Lock;
  std::atomic<int> Failures{0};
  constexpr int ThreadCount = 4;
  constexpr int OpsPerThread = 200;

  std::vector<std::thread> Threads;
  for (int T = 0; T < ThreadCount; ++T)
    Threads.emplace_back([&M, &Lock, &Failures, T] {
      unsigned State = static_cast<unsigned>(T) * 2654435761u + 1;
      std::vector<std::pair<char *, size_t>> Mine;
      for (int I = 0; I < OpsPerThread; ++I) {
        State = State * 1664525u + 1013904223u;
        if (State % 3 != 0 || Mine.empty()) {
          size_t Size = 17 * 1024 + State % (64 * 1024);
          char *P;
          {
            std::lock_guard<std::mutex> G(Lock);
            P = static_cast<char *>(M.allocate(Size));
          }
          if (P == nullptr) {
            ++Failures;
            return;
          }
          // Writes land outside the lock: the mappings are disjoint.
          P[0] = static_cast<char>(T);
          P[Size - 1] = static_cast<char>(T);
          Mine.emplace_back(P, Size);
        } else {
          auto [P, Size] = Mine.back();
          Mine.pop_back();
          if (P[0] != static_cast<char>(T) ||
              P[Size - 1] != static_cast<char>(T)) {
            ++Failures;
            return;
          }
          std::lock_guard<std::mutex> G(Lock);
          if (!M.deallocate(P)) {
            ++Failures;
            return;
          }
        }
      }
      std::lock_guard<std::mutex> G(Lock);
      for (auto &[P, Size] : Mine)
        M.deallocate(P);
    });
  for (std::thread &T : Threads)
    T.join();

  EXPECT_EQ(Failures.load(), 0);
  EXPECT_EQ(M.liveCount(), 0u);
}

TEST(LargeObjectConcurrencyTest, ShardedHeapLargePathUnderContention) {
  // The same workload through ShardedHeap's shared large-object path,
  // including cross-thread frees handed over through a shared pool.
  ShardedHeapOptions O;
  O.Heap.HeapSize = 64 * 1024 * 1024;
  O.Heap.Seed = 11;
  O.NumShards = 4;
  ShardedHeap H(O);
  ASSERT_TRUE(H.isValid());

  std::mutex PoolLock;
  std::vector<std::pair<char *, size_t>> Pool;
  std::atomic<int> Failures{0};

  std::vector<std::thread> Threads;
  for (int T = 0; T < 4; ++T)
    Threads.emplace_back([&, T] {
      unsigned State = static_cast<unsigned>(T) * 48271u + 13;
      for (int I = 0; I < 150; ++I) {
        State = State * 1664525u + 1013904223u;
        size_t Size = SizeClass::MaxObjectSize + 1 + State % (32 * 1024);
        auto *P = static_cast<char *>(H.allocate(Size));
        if (P == nullptr || H.getObjectSize(P) != Size) {
          ++Failures;
          return;
        }
        P[0] = static_cast<char>(T);
        P[Size - 1] = static_cast<char>(T);
        std::unique_lock<std::mutex> G(PoolLock);
        Pool.emplace_back(P, Size);
        if (Pool.size() > 8) {
          auto [Q, QSize] = Pool.front();
          Pool.erase(Pool.begin());
          G.unlock();
          // Someone else's object, freed here: routed by address range.
          if (H.getObjectSize(Q) != QSize)
            ++Failures;
          H.deallocate(Q);
        }
      }
    });
  for (std::thread &T : Threads)
    T.join();
  for (auto &[P, Size] : Pool)
    H.deallocate(P);

  EXPECT_EQ(Failures.load(), 0);
  DieHardStats S = H.stats();
  EXPECT_EQ(S.LargeAllocations, 4u * 150u);
  EXPECT_EQ(S.LargeFrees, S.LargeAllocations);
  EXPECT_EQ(H.liveLargeObjects(), 0u);
  EXPECT_EQ(H.bytesLive(), 0u);
}

TEST(LargeObjectConcurrencyTest, RecycledMappingsAreNeverShared) {
  // Threads churn objects of one page count through the shared large path,
  // so mappings cycle through detach, the unlocked advise and park while
  // others allocate. Each object carries its owner's stamp, checked before
  // the owner frees it: a mapping handed out twice would be overwritten by
  // the second owner.
  ShardedHeapOptions O;
  O.Heap.HeapSize = 64 * 1024 * 1024;
  O.Heap.Seed = 29;
  O.NumShards = 4;
  ShardedHeap H(O);
  ASSERT_TRUE(H.isValid());
  size_t Page = MmapRegion::pageSize();
  const size_t Size = 5 * Page + 123;
  constexpr int ThreadCount = 4;
  constexpr int OpsPerThread = 300;
  constexpr size_t Held = 4;
  std::atomic<int> Failures{0};

  std::vector<std::thread> Threads;
  for (int T = 0; T < ThreadCount; ++T)
    Threads.emplace_back([&, T] {
      const char Stamp = static_cast<char>(0x40 + T);
      std::vector<char> Expected(Size, Stamp);
      std::vector<char *> Mine;
      auto Release = [&](char *P) {
        if (std::memcmp(P, Expected.data(), Size) != 0)
          ++Failures;
        H.deallocate(P);
      };
      for (int I = 0; I < OpsPerThread; ++I) {
        auto *P = static_cast<char *>(H.allocate(Size));
        if (P == nullptr) {
          ++Failures;
          break;
        }
        std::memset(P, Stamp, Size);
        Mine.push_back(P);
        if (Mine.size() > Held) {
          Release(Mine.front());
          Mine.erase(Mine.begin());
        }
      }
      for (char *P : Mine)
        Release(P);
    });
  for (std::thread &T : Threads)
    T.join();

  EXPECT_EQ(Failures.load(), 0);
  DieHardStats S = H.stats();
  EXPECT_EQ(S.LargeAllocations, uint64_t(ThreadCount) * OpsPerThread);
  EXPECT_EQ(S.LargeFrees, S.LargeAllocations);
  EXPECT_GT(S.LargeReuses, 0u);
  EXPECT_EQ(S.LargeParked, S.LargeAllocations - S.LargeReuses)
      << "every mapping ever made is parked (no cap reached)";
  EXPECT_EQ(H.liveLargeObjects(), 0u);

  // A parked body is not guaranteed zero: a dangling write lands in it and
  // survives. allocateZeroed must clear a recycled mapping anyway. A fresh
  // page count, so every parked mapping of it is one dirtied here.
  const size_t Other = 9 * Page;
  std::vector<char *> Dangling;
  for (size_t I = 0; I <= Floor; ++I)
    Dangling.push_back(static_cast<char *>(H.allocate(Other)));
  for (char *P : Dangling)
    H.deallocate(P);
  for (char *P : Dangling)
    std::memset(P, 0x5C, Other); // Writes through dangling pointers.
  uint64_t Before = H.stats().LargeReuses;
  auto *Z = static_cast<char *>(H.allocateZeroed(1, Other));
  ASSERT_NE(Z, nullptr);
  EXPECT_EQ(H.stats().LargeReuses, Before + 1);
  EXPECT_LT(indexIn(Dangling, Z), Dangling.size());
  for (size_t I = 0; I < Other; ++I)
    ASSERT_EQ(Z[I], 0) << "byte " << I << " of a recycled calloc";
  auto *D = static_cast<char *>(H.allocate(Other));
  ASSERT_NE(D, nullptr);
  EXPECT_EQ(H.stats().LargeReuses, Before + 2);
  EXPECT_EQ(D[0], 0x5C) << "the dangling write was absorbed by the body";
  H.deallocate(Z);
  H.deallocate(D);
}

TEST(DieHardHeapLargeTest, ReallocAcrossLargeBoundary) {
  DieHardOptions O;
  O.HeapSize = 24 * 1024 * 1024;
  O.Seed = 4;
  DieHardHeap H(O);
  auto *P = static_cast<char *>(H.allocate(8192));
  ASSERT_NE(P, nullptr);
  for (int I = 0; I < 8192; ++I)
    P[I] = static_cast<char>(I * 31);
  // Grow past MaxObjectSize: must migrate to the large-object manager.
  auto *Q = static_cast<char *>(H.reallocate(P, 64 * 1024));
  ASSERT_NE(Q, nullptr);
  EXPECT_FALSE(H.isInHeap(Q));
  for (int I = 0; I < 8192; ++I)
    ASSERT_EQ(Q[I], static_cast<char>(I * 31));
  // And shrink back into the small heap.
  auto *R = static_cast<char *>(H.reallocate(Q, 1024));
  ASSERT_NE(R, nullptr);
  EXPECT_TRUE(H.isInHeap(R));
  for (int I = 0; I < 1024; ++I)
    ASSERT_EQ(R[I], static_cast<char>(I * 31));
  H.deallocate(R);
}

} // namespace
} // namespace diehard
