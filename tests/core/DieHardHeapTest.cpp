//===- tests/core/DieHardHeapTest.cpp -------------------------------------===//
//
// Part of the DieHard reproduction (Berger & Zorn, PLDI 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the randomized DieHard heap: placement, 1/M thresholds,
/// free validation, per-seed determinism, and elastic spans (the Section 9
/// adaptive variant).
///
//===----------------------------------------------------------------------===//

#include "core/DieHardHeap.h"

#include "analysis/Probability.h"
#include "baselines/DieHardAllocator.h"
#include "support/Rng.h"
#include "workloads/SyntheticWorkload.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <set>
#include <vector>

namespace diehard {
namespace {

DieHardOptions testOptions(double M = 2.0, uint64_t Seed = 42,
                           size_t HeapSize = 48 * 1024 * 1024) {
  DieHardOptions O;
  O.HeapSize = HeapSize;
  O.M = M;
  O.Seed = Seed;
  return O;
}

TEST(DieHardHeapTest, ConstructsValid) {
  DieHardHeap H(testOptions());
  EXPECT_TRUE(H.isValid());
  EXPECT_EQ(H.seed(), 42u);
}

TEST(DieHardHeapTest, AllocateReturnsWritableMemory) {
  DieHardHeap H(testOptions());
  void *P = H.allocate(100);
  ASSERT_NE(P, nullptr);
  std::memset(P, 0xCD, 100);
  EXPECT_EQ(static_cast<unsigned char *>(P)[99], 0xCD);
  H.deallocate(P);
}

TEST(DieHardHeapTest, ZeroSizeReturnsNull) {
  DieHardHeap H(testOptions());
  EXPECT_EQ(H.allocate(0), nullptr);
}

TEST(DieHardHeapTest, DistinctLiveObjectsNeverOverlap) {
  DieHardHeap H(testOptions());
  std::vector<std::pair<char *, size_t>> Objects;
  for (int I = 0; I < 2000; ++I) {
    size_t Size = 8 + (I % 200);
    char *P = static_cast<char *>(H.allocate(Size));
    ASSERT_NE(P, nullptr);
    Objects.push_back({P, SizeClass::roundUp(Size)});
  }
  // Tag each object, then verify no tag was clobbered by a later write.
  for (size_t I = 0; I < Objects.size(); ++I)
    std::memset(Objects[I].first, static_cast<int>(I & 0xFF),
                Objects[I].second);
  for (size_t I = 0; I < Objects.size(); ++I)
    for (size_t B = 0; B < Objects[I].second; ++B)
      ASSERT_EQ(static_cast<unsigned char>(Objects[I].first[B]),
                static_cast<unsigned char>(I & 0xFF))
          << "object " << I << " byte " << B;
  for (auto &[P, S] : Objects)
    H.deallocate(P);
}

TEST(DieHardHeapTest, FreeMakesSlotReusableEventually) {
  DieHardHeap H(testOptions());
  void *P = H.allocate(64);
  ASSERT_NE(P, nullptr);
  EXPECT_EQ(H.liveInClass(SizeClass::sizeToClass(64)), 1u);
  H.deallocate(P);
  EXPECT_EQ(H.liveInClass(SizeClass::sizeToClass(64)), 0u);
}

TEST(DieHardHeapTest, DoubleFreeIsIgnored) {
  DieHardHeap H(testOptions());
  void *P = H.allocate(32);
  ASSERT_NE(P, nullptr);
  H.deallocate(P);
  uint64_t Before = H.stats().IgnoredFrees;
  H.deallocate(P); // Double free: must be silently ignored.
  EXPECT_EQ(H.stats().IgnoredFrees, Before + 1);
  EXPECT_EQ(H.stats().Frees, 1u);
}

TEST(DieHardHeapTest, InvalidInteriorFreeIsIgnored) {
  DieHardHeap H(testOptions());
  char *P = static_cast<char *>(H.allocate(1024));
  ASSERT_NE(P, nullptr);
  uint64_t Before = H.stats().IgnoredFrees;
  H.deallocate(P + 8); // Wrong offset within the object: not slot-aligned.
  EXPECT_EQ(H.stats().IgnoredFrees, Before + 1);
  EXPECT_EQ(H.getObjectSize(P), 1024u) << "object must still be live";
  H.deallocate(P);
}

TEST(DieHardHeapTest, ForeignPointerFreeIsIgnored) {
  DieHardHeap H(testOptions());
  int Stack;
  static int Global;
  H.deallocate(&Stack);
  H.deallocate(&Global);
  int *Foreign = new int(7);
  H.deallocate(Foreign);
  delete Foreign;
  EXPECT_EQ(H.stats().IgnoredFrees, 3u);
  EXPECT_EQ(H.stats().Frees, 0u);
}

TEST(DieHardHeapTest, NullFreeIsNoop) {
  DieHardHeap H(testOptions());
  H.deallocate(nullptr);
  EXPECT_EQ(H.stats().IgnoredFrees, 0u);
}

TEST(DieHardHeapTest, ThresholdEnforcedPerClass) {
  // Tiny heap so the 1/M threshold is reachable quickly.
  DieHardHeap H(testOptions(2.0, 7, 12 * SizeClass::MaxObjectSize * 4));
  ASSERT_TRUE(H.isValid());
  int C = SizeClass::sizeToClass(4096);
  size_t Threshold = H.thresholdForClass(C);
  ASSERT_GT(Threshold, 0u);
  std::vector<void *> Held;
  for (size_t I = 0; I < Threshold; ++I) {
    void *P = H.allocate(4096);
    ASSERT_NE(P, nullptr) << "allocation " << I << " of " << Threshold;
    Held.push_back(P);
  }
  // At threshold: no more memory (Figure 2).
  EXPECT_EQ(H.allocate(4096), nullptr);
  EXPECT_GE(H.stats().FailedAllocations, 1u);
  // Other classes are unaffected.
  void *Other = H.allocate(8);
  EXPECT_NE(Other, nullptr);
  H.deallocate(Other);
  // Freeing one slot re-enables allocation.
  H.deallocate(Held.back());
  Held.pop_back();
  void *Again = H.allocate(4096);
  EXPECT_NE(Again, nullptr);
  H.deallocate(Again);
  for (void *P : Held)
    H.deallocate(P);
}

TEST(DieHardHeapTest, HeapNeverFillsBeyondHalfWithDefaultM) {
  DieHardHeap H(testOptions(2.0, 9, 12 * SizeClass::MaxObjectSize * 4));
  int C = SizeClass::sizeToClass(64);
  size_t Slots = H.slotsInClass(C);
  EXPECT_LE(H.thresholdForClass(C), Slots / 2);
}

TEST(DieHardHeapTest, DifferentSeedsGiveDifferentLayouts) {
  DieHardHeap A(testOptions(2.0, 1));
  DieHardHeap B(testOptions(2.0, 2));
  // Compare the sequence of allocation offsets relative to each heap's
  // first object: identical seeds reproduce it, different seeds must not.
  char *BaseA = static_cast<char *>(A.allocate(128));
  char *BaseB = static_cast<char *>(B.allocate(128));
  ASSERT_NE(BaseA, nullptr);
  ASSERT_NE(BaseB, nullptr);
  int SameSlot = 0;
  for (int I = 0; I < 64; ++I) {
    char *PA = static_cast<char *>(A.allocate(128));
    char *PB = static_cast<char *>(B.allocate(128));
    ASSERT_NE(PA, nullptr);
    ASSERT_NE(PB, nullptr);
    SameSlot += (PA - BaseA) == (PB - BaseB) ? 1 : 0;
  }
  EXPECT_LT(SameSlot, 8) << "layouts should differ across seeds";
}

TEST(DieHardHeapTest, SameSeedGivesSameLayout) {
  DieHardHeap A(testOptions(2.0, 5));
  DieHardHeap B(testOptions(2.0, 5));
  char *BaseA = static_cast<char *>(A.allocate(8));
  char *BaseB = static_cast<char *>(B.allocate(8));
  ASSERT_NE(BaseA, nullptr);
  ASSERT_NE(BaseB, nullptr);
  for (int I = 0; I < 256; ++I) {
    char *PA = static_cast<char *>(A.allocate(256));
    char *PB = static_cast<char *>(B.allocate(256));
    ASSERT_EQ(PA - BaseA, PB - BaseB) << "allocation " << I;
  }
}

TEST(DieHardHeapTest, PlacementIsUniformAcrossPartition) {
  // Chi-squared-style sanity check: slot indices of many allocations into
  // one class should cover the partition roughly uniformly.
  DieHardHeap H(testOptions(2.0, 31337));
  int C = SizeClass::sizeToClass(1024);
  size_t Slots = H.slotsInClass(C);
  constexpr int N = 2000;
  std::vector<char *> Ptrs;
  std::set<size_t> Buckets;
  char *First = static_cast<char *>(H.allocate(1024));
  char *PartitionProbe = static_cast<char *>(H.getObjectStart(First));
  ASSERT_NE(PartitionProbe, nullptr);
  Ptrs.push_back(First);
  for (int I = 1; I < N; ++I) {
    char *P = static_cast<char *>(H.allocate(1024));
    ASSERT_NE(P, nullptr);
    Ptrs.push_back(P);
  }
  // Bucket the slot index space into 16 ranges; all must be hit.
  char *Lo = *std::min_element(Ptrs.begin(), Ptrs.end());
  for (char *P : Ptrs) {
    size_t Slot = static_cast<size_t>(P - Lo) / 1024;
    Buckets.insert(Slot * 16 / Slots);
  }
  EXPECT_GE(Buckets.size(), 14u)
      << "random placement must spread across the partition";
  for (char *P : Ptrs)
    H.deallocate(P);
}

TEST(DieHardHeapTest, ProbeCountMatchesExpectation) {
  // E[probes] = 1/(1 - 1/M) = 2 for M = 2 at full load; far lower when the
  // heap is nearly empty. Load the class to its threshold and measure.
  DieHardHeap H(testOptions(2.0, 77, 12 * SizeClass::MaxObjectSize * 16));
  int C = SizeClass::sizeToClass(8);
  size_t Threshold = H.thresholdForClass(C);
  for (size_t I = 0; I < Threshold; ++I)
    ASSERT_NE(H.allocate(8), nullptr);
  double MeanProbes = static_cast<double>(H.stats().Probes) /
                      static_cast<double>(H.stats().Allocations);
  // Averaged over fill levels 0..1/2, the expectation is -M ln(1-1/M)
  // ≈ 1.386 for M = 2; allow generous slack.
  EXPECT_GT(MeanProbes, 1.0);
  EXPECT_LT(MeanProbes, expectedProbes(2.0));
}

TEST(DieHardHeapTest, GetObjectSizeRoundsToClass) {
  DieHardHeap H(testOptions());
  void *P = H.allocate(100);
  ASSERT_NE(P, nullptr);
  EXPECT_EQ(H.getObjectSize(P), 128u);
  H.deallocate(P);
  EXPECT_EQ(H.getObjectSize(P), 0u) << "freed objects have no size";
}

TEST(DieHardHeapTest, GetObjectStartHandlesInteriorPointers) {
  DieHardHeap H(testOptions());
  char *P = static_cast<char *>(H.allocate(512));
  ASSERT_NE(P, nullptr);
  EXPECT_EQ(H.getObjectStart(P), P);
  EXPECT_EQ(H.getObjectStart(P + 1), P);
  EXPECT_EQ(H.getObjectStart(P + 511), P);
  H.deallocate(P);
  EXPECT_EQ(H.getObjectStart(P), nullptr);
}

TEST(DieHardHeapTest, ReallocGrowsAndPreservesContents) {
  DieHardHeap H(testOptions());
  char *P = static_cast<char *>(H.allocate(64));
  ASSERT_NE(P, nullptr);
  for (int I = 0; I < 64; ++I)
    P[I] = static_cast<char>(I);
  char *Q = static_cast<char *>(H.reallocate(P, 4096));
  ASSERT_NE(Q, nullptr);
  for (int I = 0; I < 64; ++I)
    EXPECT_EQ(Q[I], static_cast<char>(I));
  H.deallocate(Q);
}

TEST(DieHardHeapTest, ReallocNullActsAsMalloc) {
  DieHardHeap H(testOptions());
  void *P = H.reallocate(nullptr, 128);
  EXPECT_NE(P, nullptr);
  H.deallocate(P);
}

TEST(DieHardHeapTest, ReallocZeroActsAsFree) {
  DieHardHeap H(testOptions());
  void *P = H.allocate(128);
  ASSERT_NE(P, nullptr);
  EXPECT_EQ(H.reallocate(P, 0), nullptr);
  EXPECT_EQ(H.getObjectSize(P), 0u);
}

TEST(DieHardHeapTest, ReallocShrinkInPlaceWithinClass) {
  DieHardHeap H(testOptions());
  void *P = H.allocate(120);
  ASSERT_NE(P, nullptr);
  // 100 still rounds to 128: same class, same pointer.
  EXPECT_EQ(H.reallocate(P, 100), P);
  H.deallocate(P);
}

TEST(DieHardHeapTest, CallocZeroesAndChecksOverflow) {
  DieHardHeap H(testOptions());
  auto *P = static_cast<unsigned char *>(H.allocateZeroed(16, 16));
  ASSERT_NE(P, nullptr);
  for (int I = 0; I < 256; ++I)
    EXPECT_EQ(P[I], 0u);
  H.deallocate(P);
  EXPECT_EQ(H.allocateZeroed(SIZE_MAX / 2, 4), nullptr)
      << "count*size overflow must fail";
}

TEST(DieHardHeapTest, RandomFillMakesFreshObjectsNonZero) {
  DieHardOptions O = testOptions();
  O.RandomFillObjects = true;
  DieHardHeap H(O);
  auto *P = static_cast<uint32_t *>(H.allocate(1024));
  ASSERT_NE(P, nullptr);
  int NonZero = 0;
  for (int I = 0; I < 256; ++I)
    NonZero += P[I] != 0 ? 1 : 0;
  EXPECT_GT(NonZero, 200) << "replicated mode fills objects randomly";
  H.deallocate(P);
}

TEST(DieHardHeapTest, RandomFillDiffersAcrossSeeds) {
  DieHardOptions A = testOptions(2.0, 100);
  DieHardOptions B = testOptions(2.0, 200);
  A.RandomFillObjects = B.RandomFillObjects = true;
  DieHardHeap HA(A), HB(B);
  auto *PA = static_cast<uint32_t *>(HA.allocate(64));
  auto *PB = static_cast<uint32_t *>(HB.allocate(64));
  ASSERT_NE(PA, nullptr);
  ASSERT_NE(PB, nullptr);
  // An uninitialized read returns different values in different replicas.
  bool Different = false;
  for (int I = 0; I < 16; ++I)
    Different |= PA[I] != PB[I];
  EXPECT_TRUE(Different);
  HA.deallocate(PA);
  HB.deallocate(PB);
}

TEST(DieHardHeapTest, StressRandomAllocFreeKeepsAccounting) {
  DieHardHeap H(testOptions());
  Rng Rand(555);
  std::vector<std::pair<void *, size_t>> Live;
  for (int Step = 0; Step < 50000; ++Step) {
    if (Live.empty() || (Rand.next() & 1)) {
      size_t Size = 1 + Rand.nextBounded(2048);
      void *P = H.allocate(Size);
      if (P != nullptr)
        Live.push_back({P, Size});
    } else {
      size_t I = Rand.nextBounded(static_cast<uint32_t>(Live.size()));
      H.deallocate(Live[I].first);
      Live[I] = Live.back();
      Live.pop_back();
    }
  }
  size_t TotalLive = 0;
  for (int C = 0; C < SizeClass::NumClasses; ++C)
    TotalLive += H.liveInClass(C);
  EXPECT_EQ(TotalLive, Live.size());
  for (auto &[P, S] : Live)
    H.deallocate(P);
  TotalLive = 0;
  for (int C = 0; C < SizeClass::NumClasses; ++C)
    TotalLive += H.liveInClass(C);
  EXPECT_EQ(TotalLive, 0u);
  EXPECT_EQ(H.bytesLive(), 0u);
  EXPECT_EQ(H.stats().IgnoredFrees, 0u);
}

TEST(DieHardHeapTest, StatsFoldPendingRemoteFrees) {
  // An embedder driving the sidecar through DieHardHeap directly gets the
  // same books as the sharded layer: undrained pushes count as Frees (the
  // user's free already happened), so Allocations == Frees holds with
  // entries still parked, and draining moves them without double count.
  DieHardHeap H(testOptions());
  int Class = SizeClass::sizeToClass(64);
  void *A = H.allocate(64);
  void *B = H.allocate(64);
  ASSERT_NE(A, nullptr);
  ASSERT_NE(B, nullptr);
  H.remoteFree(Class, A);
  H.remoteFree(Class, B);

  DieHardStats S = H.stats();
  EXPECT_EQ(S.RemoteFrees, 2u);
  EXPECT_EQ(S.Allocations, 2u);
  EXPECT_EQ(S.Frees, 2u) << "pending sidecar entries must fold into Frees";
  EXPECT_EQ(S.SidecarDrains, 0u);

  EXPECT_EQ(H.drainRemoteFrees(Class), 2u);
  S = H.stats();
  EXPECT_EQ(S.Frees, 2u);
  EXPECT_EQ(S.SidecarDrains, 1u);
  EXPECT_EQ(S.IgnoredFrees, 0u);
  EXPECT_EQ(H.bytesLive(), 0u);
}

/// Property sweep over M: the threshold honours 1/M for every class.
class ExpansionSweep : public ::testing::TestWithParam<double> {};

TEST_P(ExpansionSweep, ThresholdIsSlotsOverM) {
  double M = GetParam();
  DieHardHeap H(testOptions(M, 3));
  ASSERT_TRUE(H.isValid());
  for (int C = 0; C < SizeClass::NumClasses; ++C) {
    size_t Slots = H.slotsInClass(C);
    EXPECT_EQ(H.thresholdForClass(C),
              static_cast<size_t>(static_cast<double>(Slots) / M))
        << "class " << C;
  }
}

INSTANTIATE_TEST_SUITE_P(Factors, ExpansionSweep,
                         ::testing::Values(1.5, 2.0, 3.0, 4.0, 8.0));

/// Property sweep: allocation in every size class lands inside the heap,
/// is class-aligned, and survives a write of its full rounded size.
class PerClassBehaviour : public ::testing::TestWithParam<int> {};

TEST_P(PerClassBehaviour, AllocWriteFreeAcrossClass) {
  int C = GetParam();
  DieHardHeap H(testOptions());
  size_t Size = SizeClass::classToSize(C);
  void *P = H.allocate(Size);
  ASSERT_NE(P, nullptr);
  EXPECT_TRUE(H.isInHeap(P));
  EXPECT_EQ(H.getObjectSize(P), Size);
  std::memset(P, 0x5A, Size);
  H.deallocate(P);
  EXPECT_EQ(H.getObjectSize(P), 0u);
}

INSTANTIATE_TEST_SUITE_P(AllClasses, PerClassBehaviour,
                         ::testing::Range(0, SizeClass::NumClasses));

//===----------------------------------------------------------------------===//
// Elastic spans
//===----------------------------------------------------------------------===//

DieHardOptions elasticOptions(double M = 2.0, uint64_t Seed = 7) {
  DieHardOptions O = testOptions(M, Seed);
  O.ElasticSpans = true;
  return O;
}

/// True if every class holds at most floor(activeSlots / M) live objects.
bool boundHolds(const DieHardHeap &H, double M) {
  for (int C = 0; C < SizeClass::NumClasses; ++C) {
    const RandomizedPartition &P = H.partition(C);
    if (P.live() > static_cast<size_t>(
                       static_cast<double>(P.activeSlots()) / M))
      return false;
  }
  return true;
}

TEST(DieHardHeapTest, ElasticSpansStartAtTheInitialSpan) {
  DieHardHeap Fixed(testOptions());
  EXPECT_EQ(Fixed.activeBytes(), Fixed.heapBytes());

  DieHardHeap H(elasticOptions());
  ASSERT_TRUE(H.isValid());
  EXPECT_EQ(H.heapBytes(), Fixed.heapBytes()) << "same reservation";
  size_t Expected = 0;
  for (int C = 0; C < SizeClass::NumClasses; ++C) {
    EXPECT_EQ(H.partition(C).activeSlots(),
              RandomizedPartition::InitialSpanSlots);
    EXPECT_EQ(H.liveInClass(C), 0u);
    Expected += RandomizedPartition::InitialSpanSlots *
                SizeClass::classToSize(C);
  }
  EXPECT_EQ(H.activeBytes(), Expected);
}

TEST(DieHardHeapTest, ElasticFirstAllocationLandsInTheInitialSpan) {
  // The first object lands inside its class's initial span, no growth.
  DieHardHeap H(elasticOptions());
  int C = SizeClass::sizeToClass(64);
  void *P = H.allocate(64);
  ASSERT_NE(P, nullptr);
  auto Offset = static_cast<size_t>(
      static_cast<const char *>(P) -
      static_cast<const char *>(H.partition(C).base()));
  EXPECT_LT(Offset, RandomizedPartition::InitialSpanSlots * 64);
  EXPECT_EQ(H.stats().SpanGrowths, 0u);
  H.deallocate(P);
}

TEST(DieHardHeapTest, ElasticGrowthKeepsObjectsInPlace) {
  // Growth only widens the span inside the same reservation: live objects
  // never move, and their contents survive every doubling.
  DieHardHeap H(elasticOptions(2.0, 5));
  std::vector<std::pair<unsigned char *, int>> Objects;
  for (int I = 0; I < 200; ++I) {
    auto *P = static_cast<unsigned char *>(H.allocate(256));
    ASSERT_NE(P, nullptr);
    std::memset(P, I & 0xFF, 256);
    Objects.push_back({P, I & 0xFF});
  }
  int C = SizeClass::sizeToClass(256);
  EXPECT_EQ(H.partition(C).activeSlots(), 512u) << "64 -> 128 -> 256 -> 512";
  DieHardStats S = H.stats();
  EXPECT_EQ(S.SpanGrowths, 3u) << "growths fold into the heap stats";
  EXPECT_EQ(S.FailedAllocations, 0u);
  for (auto &[P, Tag] : Objects)
    for (int B = 0; B < 256; ++B)
      ASSERT_EQ(P[B], Tag);
  for (auto &[P, Tag] : Objects)
    H.deallocate(P);
  EXPECT_EQ(H.bytesLive(), 0u);
}

TEST(DieHardHeapTest, ElasticSpanValidatesFrees) {
  DieHardHeap H(elasticOptions());
  void *P = H.allocate(32);
  ASSERT_NE(P, nullptr);
  H.deallocate(P);
  H.deallocate(P); // Double free.
  int Stack;
  H.deallocate(&Stack); // Foreign pointer.
  auto *Q = static_cast<char *>(H.allocate(1024));
  ASSERT_NE(Q, nullptr);
  H.deallocate(Q + 8); // Misaligned interior pointer.
  // A slot-aligned address past the active span was never handed out.
  int C = SizeClass::sizeToClass(1024);
  char *Beyond =
      static_cast<char *>(const_cast<void *>(H.partition(C).base())) +
      100 * 1024;
  H.deallocate(Beyond);
  EXPECT_EQ(H.stats().IgnoredFrees, 4u);
  EXPECT_EQ(H.getObjectSize(Q), 1024u);
  H.deallocate(Q);
  EXPECT_EQ(H.bytesLive(), 0u);
}

TEST(DieHardHeapTest, ElasticObjectQueriesWork) {
  DieHardHeap H(elasticOptions());
  auto *P = static_cast<char *>(H.allocate(100));
  ASSERT_NE(P, nullptr);
  EXPECT_EQ(H.getObjectSize(P), 128u);
  EXPECT_EQ(H.getObjectStart(P + 77), P);
  // A slot past the active span answers like a free slot.
  int C = SizeClass::sizeToClass(128);
  char *Beyond =
      static_cast<char *>(const_cast<void *>(H.partition(C).base())) +
      100 * 128;
  EXPECT_EQ(H.getObjectSize(Beyond), 0u);
  EXPECT_EQ(H.getObjectStart(Beyond), nullptr);
  H.deallocate(P);
  EXPECT_EQ(H.getObjectSize(P), 0u);
  EXPECT_EQ(H.getObjectStart(P), nullptr);
}

TEST(DieHardHeapTest, ElasticBoundHoldsUnderChurn) {
  DieHardHeap H(elasticOptions(4.0, 9));
  Rng Rand(1);
  std::vector<void *> Live;
  for (int Step = 0; Step < 20000; ++Step) {
    if (Live.empty() || (Rand.next() & 1)) {
      void *P = H.allocate(1 + Rand.nextBounded(1024));
      ASSERT_NE(P, nullptr) << "step " << Step;
      Live.push_back(P);
    } else {
      size_t I = Rand.nextBounded(static_cast<uint32_t>(Live.size()));
      H.deallocate(Live[I]);
      Live[I] = Live.back();
      Live.pop_back();
    }
    ASSERT_TRUE(boundHolds(H, 4.0)) << "step " << Step;
  }
  EXPECT_GT(H.stats().SpanGrowths, 0u);
  for (void *P : Live)
    H.deallocate(P);
  EXPECT_EQ(H.bytesLive(), 0u);
}

TEST(DieHardHeapTest, ElasticActiveBytesTrackDemand) {
  // The adaptive variant's point: a small live set places objects over a
  // span proportional to its demand, not over the whole reservation.
  DieHardAllocator A(elasticOptions(2.0, 11));
  WorkloadParams P;
  P.Name = "small";
  P.MemoryOps = 20000;
  P.MinSize = 8;
  P.MaxSize = 256;
  P.MaxLive = 200;
  P.Seed = 12;
  SyntheticWorkload W(P);
  WorkloadResult R = W.run(A);
  EXPECT_EQ(R.FailedAllocations, 0u);
  EXPECT_LT(A.heap().activeBytes(), size_t(4) << 20)
      << "a 200-object live set must not spread over many megabytes";
  EXPECT_GT(A.heap().stats().SpanGrowths, 0u);
}

TEST(DieHardHeapTest, ElasticChecksumMatchesFixedHeap) {
  WorkloadParams P;
  P.Name = "check";
  P.MemoryOps = 30000;
  P.MinSize = 8;
  P.MaxSize = 2048;
  P.MaxLive = 1000;
  P.Seed = 5;
  SyntheticWorkload W(P);
  DieHardAllocator Elastic(elasticOptions(2.0, 21));
  DieHardAllocator Fixed(testOptions(2.0, 21));
  SystemAllocator System;
  uint64_t Expected = W.run(System).Checksum;
  EXPECT_EQ(W.run(Elastic).Checksum, Expected);
  EXPECT_EQ(W.run(Fixed).Checksum, Expected);
}

TEST(DieHardHeapTest, ElasticRandomFillCoversGrownSpan) {
  DieHardOptions O = elasticOptions();
  O.RandomFillObjects = true;
  DieHardHeap H(O);
  std::vector<void *> Held;
  for (int I = 0; I < 100; ++I) // Past the first growth of the class.
    Held.push_back(H.allocate(256));
  ASSERT_GT(H.stats().SpanGrowths, 0u);
  auto *P = static_cast<uint32_t *>(Held.back());
  ASSERT_NE(P, nullptr);
  int NonZero = 0;
  for (int I = 0; I < 64; ++I)
    NonZero += P[I] != 0 ? 1 : 0;
  EXPECT_GT(NonZero, 50);
  for (void *Ptr : Held)
    H.deallocate(Ptr);
}

/// Property sweep over M: an elastic class keeps live <= activeSlots / M
/// after every allocation while it grows.
class ElasticExpansionSweep : public ::testing::TestWithParam<double> {};

TEST_P(ElasticExpansionSweep, BoundRespectedWhileGrowing) {
  double M = GetParam();
  DieHardHeap H(elasticOptions(M, 31));
  int C = SizeClass::sizeToClass(64);
  std::vector<void *> Held;
  for (int I = 0; I < 500; ++I) {
    void *P = H.allocate(64);
    ASSERT_NE(P, nullptr);
    Held.push_back(P);
    ASSERT_LE(static_cast<double>(H.liveInClass(C)),
              static_cast<double>(H.partition(C).activeSlots()) / M + 1e-9)
        << "allocation " << I;
  }
  EXPECT_GT(H.stats().SpanGrowths, 0u);
  for (void *P : Held)
    H.deallocate(P);
}

INSTANTIATE_TEST_SUITE_P(Factors, ElasticExpansionSweep,
                         ::testing::Values(1.5, 2.0, 3.0, 4.0, 8.0));

} // namespace
} // namespace diehard
