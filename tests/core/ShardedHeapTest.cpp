//===- tests/core/ShardedHeapTest.cpp -------------------------------------===//
//
// Part of the DieHard reproduction (Berger & Zorn, PLDI 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the sharded heap layer: single-shard equivalence with a lone
/// DieHardHeap, cross-thread frees routed to the owning shard, thread churn
/// beyond the shard count, per-partition lock concurrency, overflow routing
/// to sibling shards, stats aggregation, the shared large-object path, and
/// elastic spans under the sharded and cached layers.
/// The multithreaded cases double as the TSan/ASan workload for the
/// sanitizer CI lanes.
///
//===----------------------------------------------------------------------===//

#include "core/ShardedHeap.h"

#include "core/HeapAdapter.h"
#include "core/SizeClass.h"
#include "support/Rng.h"
#include "workloads/SyntheticWorkload.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <iterator>
#include <mutex>
#include <thread>
#include <vector>

namespace diehard {
namespace {

ShardedHeapOptions smallOptions(size_t NumShards, uint64_t Seed = 42) {
  ShardedHeapOptions O;
  O.Heap.HeapSize = 96 * 1024 * 1024;
  O.Heap.Seed = Seed;
  O.NumShards = NumShards;
  return O;
}

ptrdiff_t offsetFromBase(const void *Ptr, const DieHardHeap &H) {
  return static_cast<const char *>(Ptr) -
         static_cast<const char *>(H.heapBase());
}

TEST(ShardedHeapTest, SingleShardMatchesDieHardHeapBitForBit) {
  // With one shard, the layer must reproduce a lone DieHardHeap exactly:
  // same seed, same RNG stream, same slot for every request. The replicated
  // framework depends on this equivalence for per-seed determinism.
  DieHardOptions Plain;
  Plain.HeapSize = 96 * 1024 * 1024;
  Plain.Seed = 42;
  DieHardHeap Reference(Plain);

  ShardedHeap Sharded(smallOptions(1));
  ASSERT_TRUE(Reference.isValid());
  ASSERT_TRUE(Sharded.isValid());
  ASSERT_EQ(Sharded.numShards(), 1u);
  EXPECT_EQ(Sharded.seed(), Reference.seed());

  const size_t Sizes[] = {8, 24, 100, 512, 16, 2048, 8000, 16384, 1, 333};
  std::vector<void *> FromReference, FromSharded;
  for (int Round = 0; Round < 50; ++Round)
    for (size_t Size : Sizes) {
      void *A = Reference.allocate(Size);
      void *B = Sharded.allocate(Size);
      ASSERT_NE(A, nullptr);
      ASSERT_NE(B, nullptr);
      ASSERT_EQ(offsetFromBase(A, Reference),
                offsetFromBase(B, Sharded.shard(0)))
          << "placement diverged for size " << Size;
      FromReference.push_back(A);
      FromSharded.push_back(B);
    }

  // Free every other object and allocate again: the streams must stay in
  // lockstep through frees too.
  for (size_t I = 0; I < FromReference.size(); I += 2) {
    Reference.deallocate(FromReference[I]);
    Sharded.deallocate(FromSharded[I]);
  }
  for (size_t Size : Sizes) {
    void *A = Reference.allocate(Size);
    void *B = Sharded.allocate(Size);
    ASSERT_EQ(offsetFromBase(A, Reference),
              offsetFromBase(B, Sharded.shard(0)));
  }
}

TEST(ShardedHeapTest, ElasticSingleShardMatchesDieHardHeapBitForBit) {
  // The same equivalence with elastic spans on both sides, as replicas run
  // them: span growths must happen at the same allocation on each side, so
  // the RNG streams and placements stay in lockstep across every doubling.
  DieHardOptions Plain;
  Plain.HeapSize = 96 * 1024 * 1024;
  Plain.Seed = 42;
  Plain.ElasticSpans = true;
  DieHardHeap Reference(Plain);

  ShardedHeapOptions O = smallOptions(1);
  O.Heap.ElasticSpans = true;
  ShardedHeap Sharded(O);
  ASSERT_TRUE(Reference.isValid());
  ASSERT_TRUE(Sharded.isValid());
  ASSERT_EQ(Sharded.numShards(), 1u);

  // 120 rounds leave at least 120 live objects per class: two doublings
  // of the 64-slot initial span (32 live at M = 2), to 256 slots.
  const size_t Sizes[] = {8, 24, 100, 512, 16, 2048, 8000, 16384, 1, 333};
  auto allocateRounds = [&](int Rounds, std::vector<void *> *KeepReference,
                            std::vector<void *> *KeepSharded) {
    for (int Round = 0; Round < Rounds; ++Round)
      for (size_t Size : Sizes) {
        void *A = Reference.allocate(Size);
        void *B = Sharded.allocate(Size);
        ASSERT_NE(A, nullptr);
        ASSERT_NE(B, nullptr);
        ASSERT_EQ(offsetFromBase(A, Reference),
                  offsetFromBase(B, Sharded.shard(0)))
            << "placement diverged for size " << Size << " in round "
            << Round;
        if (KeepReference != nullptr) {
          KeepReference->push_back(A);
          KeepSharded->push_back(B);
        }
      }
  };
  std::vector<void *> FromReference, FromSharded;
  allocateRounds(120, &FromReference, &FromSharded);
  std::vector<size_t> SpanAfterFirst;
  for (size_t Size : Sizes) {
    int C = SizeClass::sizeToClass(Size);
    SpanAfterFirst.push_back(Reference.partition(C).activeSlots());
    EXPECT_GE(SpanAfterFirst.back(),
              4 * RandomizedPartition::InitialSpanSlots)
        << "size " << Size << " must have crossed two span growths";
    EXPECT_EQ(Sharded.shard(0).partition(C).activeSlots(),
              SpanAfterFirst.back());
  }

  // Free every other object and allocate again: the streams must stay in
  // lockstep through frees too. With ten sizes per round, "every other"
  // empties the classes of sizes 8, 100, 16, 8000 and 1, which refill
  // inside their grown spans, while the classes of the other five keep
  // their objects and must grow again.
  const uint64_t GrowthsAfterFirst = Reference.stats().SpanGrowths;
  for (size_t I = 0; I < FromReference.size(); I += 2) {
    Reference.deallocate(FromReference[I]);
    Sharded.deallocate(FromSharded[I]);
  }
  allocateRounds(120, nullptr, nullptr);
  for (size_t I = 1; I < std::size(Sizes); I += 2) {
    int C = SizeClass::sizeToClass(Sizes[I]);
    EXPECT_GT(Reference.partition(C).activeSlots(), SpanAfterFirst[I])
        << "size " << Sizes[I] << " must grow again during the refill";
  }
  for (size_t Size : Sizes) {
    int C = SizeClass::sizeToClass(Size);
    EXPECT_EQ(Sharded.shard(0).partition(C).activeSlots(),
              Reference.partition(C).activeSlots());
  }
  EXPECT_GT(Reference.stats().SpanGrowths, GrowthsAfterFirst);
  EXPECT_EQ(Sharded.stats().SpanGrowths, Reference.stats().SpanGrowths);
}

TEST(ShardedHeapTest, ResolvesShardCountAndDerivesSeeds) {
  ShardedHeap H(smallOptions(4));
  ASSERT_TRUE(H.isValid());
  EXPECT_EQ(H.numShards(), 4u);
  EXPECT_EQ(H.shard(0).seed(), 42u);
  for (size_t I = 1; I < H.numShards(); ++I)
    EXPECT_NE(H.shard(I).seed(), H.shard(0).seed())
        << "shard " << I << " must not share shard 0's stream";
}

TEST(ShardedHeapTest, ShardCountZeroUsesHardwareConcurrency) {
  ShardedHeap H(smallOptions(0));
  EXPECT_EQ(H.numShards(), ShardedHeap::defaultShardCount());
  EXPECT_GE(H.numShards(), 1u);
}

TEST(ShardedHeapTest, ClampsAbsurdShardCounts) {
  ShardedHeapOptions O = smallOptions(100000);
  O.Heap.HeapSize = 512 * 1024 * 1024; // Keep per-shard partitions usable.
  ShardedHeap H(O);
  EXPECT_EQ(H.numShards(), ShardedHeap::MaxShards);
}

TEST(ShardedHeapTest, EveryShardKeepsTheFullReservation) {
  // Hoard-style sizing: each shard reserves the full configured size, so a
  // single-threaded process does not lose capacity to sharding. Reference:
  // a lone DieHardHeap with the same options.
  DieHardOptions Plain;
  Plain.HeapSize = 96 * 1024 * 1024;
  Plain.Seed = 42;
  DieHardHeap Reference(Plain);

  ShardedHeap H(smallOptions(4));
  for (size_t I = 0; I < H.numShards(); ++I) {
    EXPECT_EQ(H.shard(I).heapBytes(), Reference.heapBytes());
    for (int C = 0; C < SizeClass::NumClasses; ++C)
      EXPECT_EQ(H.shard(I).thresholdForClass(C),
                Reference.thresholdForClass(C));
  }
}

TEST(ShardedHeapTest, CrossThreadFreeReturnsToOwningShard) {
  ShardedHeap H(smallOptions(4));
  ASSERT_TRUE(H.isValid());

  constexpr int Count = 500;
  std::vector<void *> Owned;
  for (int I = 0; I < Count; ++I) {
    void *P = H.allocate(64);
    ASSERT_NE(P, nullptr);
    std::memset(P, 0x5A, 64);
    Owned.push_back(P);
  }
  size_t Owner = H.shardIndexOf(Owned.front());
  ASSERT_LT(Owner, H.numShards());

  // Free everything from a different thread (which has a different home
  // shard token); the frees must land on the owner, not the freeing
  // thread's shard.
  std::thread Freer([&] {
    for (void *P : Owned) {
      EXPECT_EQ(H.shardIndexOf(P), Owner);
      H.deallocate(P);
    }
  });
  Freer.join();

  // The cross-shard frees ride the lock-free sidecars; materialize them
  // before auditing the live gauges.
  H.drainRemoteFrees();
  DieHardStats S = H.stats();
  EXPECT_EQ(S.Allocations, static_cast<uint64_t>(Count));
  EXPECT_EQ(S.Frees, static_cast<uint64_t>(Count));
  EXPECT_EQ(S.IgnoredFrees, 0u);
  EXPECT_EQ(H.bytesLive(), 0u);
}

TEST(ShardedHeapTest, ConsecutiveThreadsCoverEveryShard) {
  ShardedHeap H(smallOptions(4));
  // Thread tokens are handed out round-robin, so a run of numShards()
  // threads created back to back must land on numShards() distinct shards.
  std::vector<size_t> Homes;
  for (size_t I = 0; I < H.numShards(); ++I) {
    std::thread T([&] {
      void *P = H.allocate(128);
      ASSERT_NE(P, nullptr);
      Homes.push_back(H.shardIndexOf(P));
      H.deallocate(P);
    });
    T.join(); // Sequential: no races on Homes, tokens stay consecutive.
  }
  std::vector<bool> Seen(H.numShards(), false);
  for (size_t Home : Homes) {
    ASSERT_LT(Home, H.numShards());
    Seen[Home] = true;
  }
  for (size_t I = 0; I < Seen.size(); ++I)
    EXPECT_TRUE(Seen[I]) << "no thread was assigned shard " << I;
}

TEST(ShardedHeapTest, ThreadChurnBeyondShardCount) {
  ShardedHeap H(smallOptions(2));
  ASSERT_TRUE(H.isValid());

  // Waves of short-lived threads, many more than there are shards: token
  // assignment must wrap and every thread's traffic must stay intact.
  constexpr int Waves = 4;
  constexpr int ThreadsPerWave = 12;
  std::atomic<int> Failures{0};
  for (int Wave = 0; Wave < Waves; ++Wave) {
    std::vector<std::thread> Threads;
    for (int T = 0; T < ThreadsPerWave; ++T)
      Threads.emplace_back([&H, &Failures, Wave, T] {
        struct Obj {
          unsigned char *Ptr;
          size_t Size;
          unsigned char Tag;
        };
        unsigned State = static_cast<unsigned>(Wave * 131 + T + 1);
        std::vector<Obj> Live;
        for (int Step = 0; Step < 400; ++Step) {
          State = State * 1664525u + 1013904223u;
          if (State % 2 == 0 || Live.empty()) {
            size_t Size = 1 + State % 1024;
            auto Tag = static_cast<unsigned char>(State >> 24);
            auto *P = static_cast<unsigned char *>(H.allocate(Size));
            if (P == nullptr) {
              ++Failures;
              return;
            }
            std::memset(P, Tag, Size);
            Live.push_back(Obj{P, Size, Tag});
          } else {
            Obj O = Live.back();
            Live.pop_back();
            for (size_t I = 0; I < O.Size; ++I)
              if (O.Ptr[I] != O.Tag) {
                ++Failures;
                return;
              }
            H.deallocate(O.Ptr);
          }
        }
        for (Obj &O : Live)
          H.deallocate(O.Ptr);
      });
    for (std::thread &T : Threads)
      T.join();
  }
  EXPECT_EQ(Failures.load(), 0);
  DieHardStats S = H.stats();
  EXPECT_EQ(S.Allocations, S.Frees);
  EXPECT_EQ(H.bytesLive(), 0u);
}

TEST(ShardedHeapTest, StatsAggregateAcrossShardsAndLargePath) {
  ShardedHeap H(smallOptions(4));
  ASSERT_TRUE(H.isValid());

  constexpr size_t PerThread = 50;
  std::vector<std::thread> Threads;
  std::mutex PtrLock;
  std::vector<void *> All;
  for (int T = 0; T < 4; ++T)
    Threads.emplace_back([&] {
      std::vector<void *> Mine;
      for (size_t I = 0; I < PerThread; ++I) {
        void *P = H.allocate(256);
        ASSERT_NE(P, nullptr);
        Mine.push_back(P);
      }
      std::lock_guard<std::mutex> G(PtrLock);
      All.insert(All.end(), Mine.begin(), Mine.end());
    });
  for (std::thread &T : Threads)
    T.join();

  void *Large = H.allocate(SizeClass::MaxObjectSize + 1);
  ASSERT_NE(Large, nullptr);

  DieHardStats S = H.stats();
  EXPECT_EQ(S.Allocations, 4 * PerThread);
  EXPECT_EQ(S.LargeAllocations, 1u);
  EXPECT_EQ(H.liveLargeObjects(), 1u);

  uint64_t PerShardSum = 0;
  for (size_t I = 0; I < H.numShards(); ++I)
    PerShardSum += H.shard(I).stats().Allocations;
  EXPECT_EQ(PerShardSum, S.Allocations)
      << "aggregate must equal the sum of the shards";

  for (void *P : All)
    H.deallocate(P);
  H.deallocate(Large);
  H.drainRemoteFrees(); // Materialize the sidecar-parked cross-shard frees.
  EXPECT_EQ(H.bytesLive(), 0u);
  EXPECT_EQ(H.stats().LargeFrees, 1u);
}

TEST(ShardedHeapTest, LargeObjectsBypassShards) {
  ShardedHeap H(smallOptions(4));
  constexpr size_t Size = 64 * 1024;
  auto *P = static_cast<char *>(H.allocate(Size));
  ASSERT_NE(P, nullptr);
  EXPECT_EQ(H.shardIndexOf(P), H.numShards()) << "large owner id expected";
  EXPECT_EQ(H.getObjectSize(P), Size);
  std::memset(P, 0x42, Size);
  H.deallocate(P);
  EXPECT_EQ(H.getObjectSize(P), 0u);
  H.deallocate(P); // Double free: validated and ignored.
  EXPECT_EQ(H.stats().IgnoredFrees, 1u);
}

TEST(ShardedHeapTest, ForeignPointersAreIgnored) {
  ShardedHeap H(smallOptions(2));
  int Local = 0;
  EXPECT_EQ(H.shardIndexOf(&Local), SIZE_MAX);
  EXPECT_EQ(H.getObjectSize(&Local), 0u);
  H.deallocate(&Local);
  EXPECT_EQ(H.stats().IgnoredFrees, 1u);
}

TEST(ShardedHeapTest, CrossThreadReallocPreservesData) {
  ShardedHeap H(smallOptions(4));
  auto *P = static_cast<unsigned char *>(H.allocate(100));
  ASSERT_NE(P, nullptr);
  for (int I = 0; I < 100; ++I)
    P[I] = static_cast<unsigned char>(I);
  size_t HomeOfMain = H.shardIndexOf(P);

  unsigned char *Q = nullptr;
  std::thread Grower([&] {
    // Growing past the rounded class size forces a move; the fresh block
    // comes from this thread's home shard.
    Q = static_cast<unsigned char *>(H.reallocate(P, 4096));
  });
  Grower.join();
  ASSERT_NE(Q, nullptr);
  for (int I = 0; I < 100; ++I)
    ASSERT_EQ(Q[I], static_cast<unsigned char>(I));
  EXPECT_LT(H.shardIndexOf(Q), H.numShards());
  (void)HomeOfMain; // The old slot is freed on its owner either way.
  H.deallocate(Q);
  H.drainRemoteFrees(); // Both frees crossed shards via the sidecars.
  EXPECT_EQ(H.bytesLive(), 0u);
}

TEST(ShardedHeapTest, ReallocSemanticsMatchDieHardHeap) {
  ShardedHeap H(smallOptions(2));
  // realloc(nullptr, n) allocates.
  void *P = H.reallocate(nullptr, 64);
  ASSERT_NE(P, nullptr);
  // Small shrink within the class stays in place.
  EXPECT_EQ(H.reallocate(P, 40), P);
  // realloc(p, 0) frees.
  EXPECT_EQ(H.reallocate(P, 0), nullptr);
  EXPECT_EQ(H.bytesLive(), 0u);
  // Foreign pointers are refused.
  int Local = 0;
  EXPECT_EQ(H.reallocate(&Local, 32), nullptr);
}

TEST(ShardedHeapTest, ZeroedAllocationIsZeroFilled) {
  ShardedHeap H(smallOptions(2));
  auto *P = static_cast<unsigned char *>(H.allocateZeroed(16, 32));
  ASSERT_NE(P, nullptr);
  for (int I = 0; I < 16 * 32; ++I)
    ASSERT_EQ(P[I], 0u);
  H.deallocate(P);
  EXPECT_EQ(H.allocateZeroed(SIZE_MAX / 2, 4), nullptr) << "overflow check";
}

TEST(ShardedHeapTest, TooSmallReservationTurnsInvalid) {
  ShardedHeapOptions O = smallOptions(8);
  O.Heap.HeapSize = 64 * 1024; // Far below 8 usable shards.
  ShardedHeap H(O);
  EXPECT_FALSE(H.isValid());
  EXPECT_EQ(H.allocate(64), nullptr);
}

TEST(ShardedHeapTest, SameShardDifferentClassesRunConcurrently) {
  // The point of per-partition locks: threads that share a home shard but
  // allocate different size classes must be able to proceed independently.
  // One shard forces every thread onto the same DieHardHeap; each thread
  // hammers its own size class. Correctness (and TSan cleanliness in the
  // sanitizer lanes) is the assertion.
  ShardedHeap H(smallOptions(1));
  ASSERT_TRUE(H.isValid());

  constexpr int Threads = 6;
  constexpr int Rounds = 2000;
  std::atomic<int> Failures{0};
  std::vector<std::thread> Workers;
  for (int T = 0; T < Threads; ++T)
    Workers.emplace_back([&H, &Failures, T] {
      // Thread T owns size class T+2 (32 B .. 1 KB): distinct partitions,
      // distinct locks, zero cross-thread aliasing by construction.
      size_t Size = SizeClass::classToSize(T + 2);
      auto Tag = static_cast<unsigned char>(0xA0 + T);
      std::vector<unsigned char *> Live;
      for (int R = 0; R < Rounds; ++R) {
        auto *P = static_cast<unsigned char *>(H.allocate(Size));
        if (P == nullptr) {
          ++Failures;
          return;
        }
        std::memset(P, Tag, Size);
        Live.push_back(P);
        if (Live.size() > 64) {
          unsigned char *Old = Live.front();
          Live.erase(Live.begin());
          for (size_t I = 0; I < Size; ++I)
            if (Old[I] != Tag) {
              ++Failures;
              return;
            }
          H.deallocate(Old);
        }
      }
      for (unsigned char *P : Live)
        H.deallocate(P);
    });
  for (std::thread &W : Workers)
    W.join();

  EXPECT_EQ(Failures.load(), 0);
  DieHardStats S = H.stats();
  EXPECT_EQ(S.Allocations, static_cast<uint64_t>(Threads) * Rounds);
  EXPECT_EQ(S.Allocations, S.Frees);
  EXPECT_EQ(H.bytesLive(), 0u);
  // Exactly the six driven partitions saw traffic.
  for (int T = 0; T < Threads; ++T)
    EXPECT_EQ(H.shard(0).partition(T + 2).stats().Allocations,
              static_cast<uint64_t>(Rounds));
}

/// Tiny two-shard heap where one class's threshold is reachable in a few
/// allocations (partition = 64 KB, so the 4 KB class has 16 slots and a 1/M
/// threshold of 8).
ShardedHeapOptions tinyTwoShardOptions(bool Overflow) {
  ShardedHeapOptions O;
  O.Heap.HeapSize = 12 * SizeClass::MaxObjectSize * 4;
  O.Heap.Seed = 42;
  O.NumShards = 2;
  O.OverflowRouting = Overflow;
  return O;
}

TEST(ShardedHeapTest, OverflowRoutesToLeastLoadedSibling) {
  ShardedHeap H(tinyTwoShardOptions(/*Overflow=*/true));
  ASSERT_TRUE(H.isValid());
  int C = SizeClass::sizeToClass(4096);
  size_t Home = H.homeShardIndex();
  size_t Sibling = 1 - Home;
  size_t Threshold = H.shard(Home).thresholdForClass(C);
  ASSERT_GT(Threshold, 0u);

  // Saturate the home partition exactly to its 1/M bound.
  std::vector<void *> Held;
  for (size_t I = 0; I < Threshold; ++I) {
    void *P = H.allocate(4096);
    ASSERT_NE(P, nullptr);
    EXPECT_EQ(H.shardIndexOf(P), Home) << "below threshold stays home";
    Held.push_back(P);
  }
  EXPECT_EQ(H.partitionFill(Home, C), 1.0);
  EXPECT_EQ(H.overflowAllocations(), 0u);

  // The next allocation would previously have returned nullptr; with
  // routing it lands on the sibling's same-class partition.
  void *Borrowed = H.allocate(4096);
  ASSERT_NE(Borrowed, nullptr) << "overflow must borrow sibling capacity";
  EXPECT_EQ(H.shardIndexOf(Borrowed), Sibling);
  EXPECT_EQ(H.overflowAllocations(), 1u);
  EXPECT_EQ(H.stats().OverflowAllocations, 1u);
  EXPECT_EQ(H.shard(Sibling).liveInClass(C), 1u);
  EXPECT_EQ(H.stats().FailedAllocations, 0u)
      << "a detour that succeeds is not a failed allocation";

  // The borrowed object frees back to its owner like any cross-shard free
  // (a sidecar push; drain to materialize it before reading the gauge).
  H.deallocate(Borrowed);
  // Even without the cache tier, the cross-shard free must have gone
  // through the owner's sidecar — never the remote partition mutex.
  EXPECT_EQ(H.remoteFrees(), 1u);
  H.drainRemoteFrees();
  EXPECT_EQ(H.shard(Sibling).liveInClass(C), 0u);
  for (void *P : Held)
    H.deallocate(P);
  EXPECT_EQ(H.bytesLive(), 0u);
}

TEST(ShardedHeapTest, OverflowDisabledRestoresStrictPerShardBound) {
  ShardedHeap H(tinyTwoShardOptions(/*Overflow=*/false));
  ASSERT_TRUE(H.isValid());
  int C = SizeClass::sizeToClass(4096);
  size_t Home = H.homeShardIndex();
  size_t Threshold = H.shard(Home).thresholdForClass(C);

  std::vector<void *> Held;
  for (size_t I = 0; I < Threshold; ++I) {
    void *P = H.allocate(4096);
    ASSERT_NE(P, nullptr);
    Held.push_back(P);
  }
  // Strict 1/M semantics: saturation fails even though the sibling has
  // room, exactly as a lone DieHardHeap would.
  EXPECT_EQ(H.allocate(4096), nullptr);
  EXPECT_EQ(H.overflowAllocations(), 0u);
  EXPECT_GE(H.stats().FailedAllocations, 1u);
  for (void *P : Held)
    H.deallocate(P);
}

TEST(ShardedHeapTest, OverflowStopsWhenEverySiblingIsSaturated) {
  ShardedHeap H(tinyTwoShardOptions(/*Overflow=*/true));
  ASSERT_TRUE(H.isValid());
  int C = SizeClass::sizeToClass(4096);
  size_t Threshold = H.shard(0).thresholdForClass(C);

  // Both shards share one threshold, so 2*threshold allocations saturate
  // the class everywhere (the second half arriving via overflow routing)…
  std::vector<void *> Held;
  for (size_t I = 0; I < 2 * Threshold; ++I) {
    void *P = H.allocate(4096);
    ASSERT_NE(P, nullptr) << "allocation " << I;
    Held.push_back(P);
  }
  EXPECT_EQ(H.overflowAllocations(), static_cast<uint64_t>(Threshold));
  EXPECT_EQ(H.partitionFill(0, C), 1.0);
  EXPECT_EQ(H.partitionFill(1, C), 1.0);
  // …and the 1/M invariant then holds globally: no partition may exceed
  // its bound, so the next request fails — counted exactly once, as one
  // failed malloc, not once per probed partition.
  EXPECT_EQ(H.allocate(4096), nullptr);
  EXPECT_EQ(H.stats().FailedAllocations, 1u);
  // Other classes are untouched by the saturation.
  void *Other = H.allocate(64);
  EXPECT_NE(Other, nullptr);
  H.deallocate(Other);
  for (void *P : Held)
    H.deallocate(P);
  H.drainRemoteFrees(); // Half of Held lived on the sibling shard.
  EXPECT_EQ(H.bytesLive(), 0u);
}

TEST(ShardedHeapTest, AdapterDrivesWorkloadsThroughTheShards) {
  // The ShardedHeapAdapter facade lets the workload/bench harnesses drive
  // the full sharded front end; the checksum must match the system
  // allocator's run of the same script (allocator-independent semantics).
  ShardedHeap H(smallOptions(4));
  ShardedHeapAdapter Adapter(H);
  EXPECT_STREQ(Adapter.getName(), "diehard-sharded");

  WorkloadParams P;
  P.Name = "sharded";
  P.MemoryOps = 20000;
  P.MinSize = 8;
  P.MaxSize = 2048;
  P.MaxLive = 500;
  P.Seed = 9;
  SyntheticWorkload W(P);
  uint64_t Sharded = W.run(Adapter).Checksum;
  SystemAllocator System;
  EXPECT_EQ(Sharded, W.run(System).Checksum);
  EXPECT_EQ(H.bytesLive(), 0u);
}

TEST(ShardedHeapTest, ConcurrentMixedStress) {
  // The all-in-one race hunt for the sanitizer lanes: small and large
  // traffic, cross-thread frees through a shared exchange, reallocs and
  // queries, all concurrent.
  ShardedHeap H(smallOptions(4, 7));
  ASSERT_TRUE(H.isValid());

  std::mutex ExchangeLock;
  std::vector<std::pair<unsigned char *, size_t>> Exchange;
  std::atomic<int> Failures{0};

  auto Worker = [&](unsigned Id) {
    unsigned State = Id * 2654435761u + 1;
    auto Next = [&State] {
      State = State * 1664525u + 1013904223u;
      return State;
    };
    std::vector<std::pair<unsigned char *, size_t>> Live;
    for (int Step = 0; Step < 3000; ++Step) {
      unsigned Op = Next() % 100;
      if (Op < 40 || Live.empty()) {
        size_t Size = (Op % 10 == 0) ? 17 * 1024 + Next() % 4096
                                     : 1 + Next() % 2048;
        auto *P = static_cast<unsigned char *>(H.allocate(Size));
        if (P == nullptr) {
          ++Failures;
          return;
        }
        std::memset(P, static_cast<int>(Id), Size);
        Live.emplace_back(P, Size);
      } else if (Op < 55) {
        auto [P, Size] = Live.back();
        Live.pop_back();
        std::lock_guard<std::mutex> G(ExchangeLock);
        Exchange.emplace_back(P, Size);
      } else if (Op < 70) {
        std::unique_lock<std::mutex> G(ExchangeLock);
        if (!Exchange.empty()) {
          auto [P, Size] = Exchange.back();
          Exchange.pop_back();
          G.unlock();
          // Freed cross-thread: the registry must route to the owner.
          if (H.getObjectSize(P) == 0)
            ++Failures;
          H.deallocate(P);
        }
      } else if (Op < 80 && !Live.empty()) {
        auto &[P, Size] = Live.back();
        size_t NewSize = 1 + Next() % 4096;
        auto *Q = static_cast<unsigned char *>(H.reallocate(P, NewSize));
        if (Q == nullptr) {
          ++Failures;
          return;
        }
        P = Q;
        Size = NewSize;
        std::memset(P, static_cast<int>(Id), Size);
      } else if (!Live.empty()) {
        auto [P, Size] = Live.back();
        Live.pop_back();
        for (size_t I = 0; I < Size; ++I)
          if (P[I] != static_cast<unsigned char>(Id)) {
            ++Failures;
            break;
          }
        H.deallocate(P);
      }
    }
    for (auto &[P, Size] : Live)
      H.deallocate(P);
  };

  std::vector<std::thread> Threads;
  for (unsigned T = 0; T < 8; ++T)
    Threads.emplace_back(Worker, T + 1);
  for (std::thread &T : Threads)
    T.join();
  for (auto &[P, Size] : Exchange)
    H.deallocate(P);

  EXPECT_EQ(Failures.load(), 0);
  H.drainRemoteFrees(); // Exchange frees crossed shards via the sidecars.
  DieHardStats S = H.stats();
  EXPECT_EQ(S.Allocations, S.Frees);
  EXPECT_EQ(S.LargeAllocations, S.LargeFrees);
  EXPECT_EQ(H.bytesLive(), 0u);
  EXPECT_EQ(H.liveLargeObjects(), 0u);
}

//===----------------------------------------------------------------------===//
// Elastic spans
//===----------------------------------------------------------------------===//

ShardedHeapOptions elasticOptions(size_t NumShards, size_t CacheSlots,
                                  uint64_t Seed = 42) {
  ShardedHeapOptions O = smallOptions(NumShards, Seed);
  O.Heap.ElasticSpans = true;
  O.ThreadCacheSlots = CacheSlots;
  return O;
}

/// True if every partition of every shard holds at most
/// floor(activeSlots / M) live objects (claimed and pending slots count).
bool elasticBoundHolds(const ShardedHeap &H) {
  double M = H.options().Heap.M;
  for (size_t S = 0; S < H.numShards(); ++S)
    for (int C = 0; C < DieHardHeap::NumPartitions; ++C) {
      const RandomizedPartition &P = H.shard(S).partition(C);
      if (P.live() > static_cast<size_t>(
                         static_cast<double>(P.activeSlots()) / M))
        return false;
    }
  return true;
}

TEST(ShardedHeapTest, ElasticHomePartitionGrowsInsteadOfOverflowing) {
  // The routing gate asks whether the home partition can still accept,
  // growing if needed: an elastic home below its ceiling must grow, not
  // detour to a sibling the moment its current span is at 1/M.
  ShardedHeap H(elasticOptions(2, /*CacheSlots=*/0));
  ASSERT_TRUE(H.isValid());
  int C = SizeClass::sizeToClass(64);
  size_t Home = H.homeShardIndex();
  std::vector<void *> Held;
  for (int I = 0; I < 300; ++I) {
    void *P = H.allocate(64);
    ASSERT_NE(P, nullptr);
    EXPECT_EQ(H.shardIndexOf(P), Home) << "allocation " << I;
    Held.push_back(P);
  }
  EXPECT_EQ(H.overflowAllocations(), 0u);
  EXPECT_EQ(H.shard(Home).partition(C).activeSlots(), 1024u);
  EXPECT_EQ(H.stats().SpanGrowths, 4u);
  for (void *P : Held)
    H.deallocate(P);
  EXPECT_EQ(H.bytesLive(), 0u);
}

TEST(ShardedHeapTest, ElasticCachedBoundHoldsAfterEveryOperation) {
  // With the thread cache on, claimed slots count toward live: the 1/M
  // bound against the current span must hold after every operation, and
  // refills must keep growing the span rather than failing.
  ShardedHeap H(elasticOptions(2, /*CacheSlots=*/8, 0xCAC4E));
  ASSERT_TRUE(H.isValid());
  Rng Rand(3);
  std::vector<void *> Live;
  bool SawCachedSlots = false;
  for (int Step = 0; Step < 20000; ++Step) {
    if (Live.size() < 2000 && (Live.empty() || Rand.nextBounded(5) < 3)) {
      void *P = H.allocate(1 + Rand.nextBounded(512));
      ASSERT_NE(P, nullptr) << "step " << Step;
      Live.push_back(P);
    } else {
      size_t I = Rand.nextBounded(static_cast<uint32_t>(Live.size()));
      H.deallocate(Live[I]);
      Live[I] = Live.back();
      Live.pop_back();
    }
    ASSERT_TRUE(elasticBoundHolds(H)) << "step " << Step;
    SawCachedSlots = SawCachedSlots || H.cachedSlots() > 0;
  }
  EXPECT_TRUE(SawCachedSlots);
  EXPECT_GT(H.stats().SpanGrowths, 0u);
  EXPECT_EQ(H.stats().FailedAllocations, 0u);
  for (void *P : Live)
    H.deallocate(P);
  H.flushThreadCache();
  EXPECT_TRUE(elasticBoundHolds(H));
  DieHardStats S = H.stats();
  EXPECT_EQ(S.Allocations, S.Frees);
  EXPECT_EQ(S.IgnoredFrees, 0u);
}

TEST(ShardedHeapTest, ElasticGrowthAcrossClassesRunsConcurrently) {
  // Growth happens one partition at a time under that partition's lock:
  // four threads repeatedly force growth in four different classes of one
  // shard, which must neither corrupt each other's objects nor serialize
  // through shared state (TSan checks the latter in the sanitizer lanes).
  ShardedHeap H(elasticOptions(1, /*CacheSlots=*/0, 13));
  ASSERT_TRUE(H.isValid());
  constexpr int Threads = 4;
  constexpr int PerThread = 600; // 64 initial slots -> five doublings.
  std::atomic<int> Failures{0};
  std::vector<std::thread> Workers;
  for (int T = 0; T < Threads; ++T)
    Workers.emplace_back([&H, &Failures, T] {
      size_t Size = SizeClass::classToSize(T + 1); // 16 B .. 128 B
      auto Tag = static_cast<unsigned char>(0x40 + T);
      std::vector<unsigned char *> Mine;
      for (int I = 0; I < PerThread; ++I) {
        auto *P = static_cast<unsigned char *>(H.allocate(Size));
        if (P == nullptr) {
          ++Failures;
          return;
        }
        std::memset(P, Tag, Size);
        Mine.push_back(P);
      }
      for (unsigned char *P : Mine) {
        for (size_t B = 0; B < Size; ++B)
          if (P[B] != Tag) {
            ++Failures;
            return;
          }
        H.deallocate(P);
      }
    });
  for (std::thread &W : Workers)
    W.join();

  EXPECT_EQ(Failures.load(), 0);
  DieHardStats S = H.stats();
  EXPECT_EQ(S.Allocations, static_cast<uint64_t>(Threads) * PerThread);
  EXPECT_EQ(S.Frees, S.Allocations);
  EXPECT_EQ(S.SpanGrowths, static_cast<uint64_t>(Threads) * 5)
      << "every driven class must have grown 64 -> 2048";
  for (int T = 0; T < Threads; ++T)
    EXPECT_EQ(H.shard(0).liveInClass(T + 1), 0u);
}

TEST(ShardedHeapTest, ElasticSameClassConcurrentChurnKeepsAccounting) {
  // The other contention shape: several threads in *one* class, so every
  // operation, growth included, serializes on that partition's lock. The
  // 1/M bound and the counters must hold throughout.
  ShardedHeap H(elasticOptions(1, /*CacheSlots=*/0, 17));
  ASSERT_TRUE(H.isValid());
  constexpr int Threads = 4;
  int C = SizeClass::sizeToClass(64);
  const RandomizedPartition &Part = H.shard(0).partition(C);
  std::atomic<int> Failures{0};
  std::atomic<int> InvariantViolations{0};
  std::vector<std::thread> Workers;
  for (int T = 0; T < Threads; ++T)
    Workers.emplace_back([&, T] {
      unsigned State = static_cast<unsigned>(T) * 2654435761u + 1;
      std::vector<void *> Live;
      for (int Step = 0; Step < 1500; ++Step) {
        State = State * 1664525u + 1013904223u;
        // Two allocations per free on average (the LCG's high bits; its
        // low bit merely alternates), so the class keeps growing.
        if ((State >> 16) % 3 != 0 || Live.empty()) {
          void *P = H.allocate(64);
          if (P == nullptr) {
            ++Failures;
            return;
          }
          Live.push_back(P);
        } else {
          H.deallocate(Live.back());
          Live.pop_back();
        }
        if (Step % 100 == 0) {
          // Sample the bound while the class is under load. The live
          // count and the span are independent relaxed atomics, so a
          // sampler can pair a newer live count with an older span; a
          // slack of one in-flight allocation per thread absorbs that.
          size_t LiveNow = Part.live();
          size_t SpanNow = Part.activeSlots();
          if (LiveNow > SpanNow / 2 + Threads)
            ++InvariantViolations;
        }
      }
      for (void *P : Live)
        H.deallocate(P);
    });
  for (std::thread &W : Workers)
    W.join();

  EXPECT_EQ(Failures.load(), 0);
  EXPECT_EQ(InvariantViolations.load(), 0)
      << "live count exceeded activeSlots/M while the class was under load";
  DieHardStats S = H.stats();
  EXPECT_EQ(S.Allocations, S.Frees);
  EXPECT_EQ(S.IgnoredFrees, 0u);
  EXPECT_GT(S.SpanGrowths, 0u);
  EXPECT_EQ(Part.live(), 0u);
}

} // namespace
} // namespace diehard
