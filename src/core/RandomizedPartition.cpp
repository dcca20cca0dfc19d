//===- core/RandomizedPartition.cpp ---------------------------------------===//
//
// Part of the DieHard reproduction (Berger & Zorn, PLDI 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Implementation of the per-size-class randomized partition: the Figure 2
/// probe/fallback placement discipline and validated frees, scoped to one
/// region.
///
//===----------------------------------------------------------------------===//

#include "core/RandomizedPartition.h"

#include <cassert>

namespace diehard {

size_t claimRandomSlot(Bitmap &Bits, Rng &Rand, size_t Span,
                       uint64_t &Probes, uint64_t &Fallbacks) {
  assert(Span != 0 && Span <= Bits.size() && "bitmap must cover the span");
  // Probe for a free slot, like probing into a hash table. Since the region
  // is at most 1/M full, the expected probe count is 1/(1 - 1/M); a bounded
  // number of random probes followed by a linear fallback guarantees
  // termination without measurably biasing placement.
  for (int Attempt = 0; Attempt < 64; ++Attempt) {
    ++Probes;
    size_t Index = Rand.nextBounded(static_cast<uint32_t>(Span));
    if (Bits.trySet(Index))
      return Index;
  }
  ++Fallbacks;
  size_t Start = Rand.nextBounded(static_cast<uint32_t>(Span));
  size_t Index = Bits.findNextClear(Start, Span);
  if (Index == Span)
    Index = Bits.findNextClear(0, Span);
  if (Index == Span)
    return Span; // Every slot taken; the 1/M threshold makes this unreachable.
  Bits.trySet(Index);
  return Index;
}

void randomFillWords(Rng &Rand, void *Ptr, size_t Bytes) {
  auto *Words = static_cast<uint32_t *>(Ptr);
  for (size_t I = 0; I < Bytes / sizeof(uint32_t); ++I)
    Words[I] = Rand.next();
}

bool RandomizedPartition::init(void *RegionBase, size_t ObjectBytes,
                               size_t NumSlots, double M, uint64_t Seed,
                               bool FillAllocate, bool FillFree,
                               bool Elastic) {
  assert(M > 1.0 && "expansion factor M must exceed 1");
  Base = static_cast<char *>(RegionBase);
  ObjectSize = ObjectBytes;
  Slots = NumSlots;
  // The region is allowed to become at most 1/M full (Section 4.1); an
  // elastic partition applies the same bound to its growing span.
  Expansion = M;
  Ceiling = thresholdFor(NumSlots);
  size_t Span =
      Elastic && NumSlots > InitialSpanSlots ? InitialSpanSlots : NumSlots;
  ActiveSlots.store(Span, std::memory_order_relaxed);
  Threshold.store(thresholdFor(Span), std::memory_order_relaxed);
  StreamSeed = Seed;
  FillOnAllocate = FillAllocate;
  FillOnFree = FillFree;
  Rand.setSeed(Seed);
  IsAllocated.reset(NumSlots);
  // The sidecar link array: one word per slot, demand-zero (0 = not
  // pending), committed only for slots remote frees actually touch. The
  // slot-in-a-uint32 encoding needs two sentinel values; refuse (in
  // release builds too) a partition whose slot indices would not fit —
  // the probe discipline's nextBounded() casts share the same limit, so
  // such a partition was never usable anyway.
  if (NumSlots >= SidecarTail - 1)
    return false;
  SidecarHead.store(0, std::memory_order_relaxed);
  RemotePushes.store(0, std::memory_order_relaxed);
  RemoteRejects.store(0, std::memory_order_relaxed);
  RemoteDrained.store(0, std::memory_order_relaxed);
  if (!SidecarLinks.map(NumSlots * sizeof(uint32_t)))
    return false;

  // Page-return geometry: only pages lying entirely inside the data region
  // are ever released. Partition bases are 4K-aligned in practice, making
  // that the whole region; on systems with larger pages the edge pages
  // shared with neighbours are simply never returned.
  const size_t Page = MmapRegion::pageSize();
  auto RegionBegin = reinterpret_cast<uintptr_t>(Base);
  uintptr_t RegionEnd = RegionBegin + NumSlots * ObjectBytes;
  uintptr_t AlignedBegin = (RegionBegin + Page - 1) & ~(Page - 1);
  uintptr_t AlignedEnd = RegionEnd & ~(Page - 1);
  FirstPage = reinterpret_cast<char *>(AlignedBegin);
  NumDataPages =
      AlignedBegin < AlignedEnd ? (AlignedEnd - AlignedBegin) / Page : 0;
  ReleasedPages.store(0, std::memory_order_relaxed);
  LastScanFreeStamp.store(0, std::memory_order_relaxed);
  if (NumDataPages != 0 &&
      !ReleasedSummary.map(((NumDataPages + 63) / 64) * sizeof(uint64_t)))
    return false;
  return IsAllocated.size() == NumSlots;
}

void RandomizedPartition::randomFill(void *Ptr, size_t Bytes) {
  randomFillWords(Rand, Ptr, Bytes);
}

bool RandomizedPartition::growSpan() {
  size_t Span = ActiveSlots.load(std::memory_order_relaxed);
  size_t Live = InUse.load(std::memory_order_relaxed);
  if (Span == Slots)
    return false;
  // Doubling keeps the number of growths logarithmic in the live set and
  // the cost per allocation amortized O(1). The bitmap, sidecar links and
  // data pages of the new half already exist (the whole region was
  // reserved at init), so growth is two stores.
  do {
    Span = Span > Slots / 2 ? Slots : 2 * Span;
    ++Stats.SpanGrowths;
  } while (Span < Slots && thresholdFor(Span) <= Live);
  ActiveSlots.store(Span, std::memory_order_relaxed);
  Threshold.store(thresholdFor(Span), std::memory_order_relaxed);
  return thresholdFor(Span) > Live;
}

size_t RandomizedPartition::claimCleanSlot(uint64_t &Probes,
                                           uint64_t &Fallbacks) {
  const size_t Span = ActiveSlots.load(std::memory_order_relaxed);
  for (;;) {
    size_t Index = claimRandomSlot(IsAllocated, Rand, Span, Probes, Fallbacks);
    if (Index == Span)
      return Slots;
    // Reject a slot with an in-flight sidecar entry: that push is a stale
    // (double) free of the slot's previous life, and handing the slot out
    // now would let the next drain free the new occupant. Give the bit
    // back, consume the stale entry (bit clear -> counted IgnoredFree),
    // and probe again. One relaxed load on the common (clean) path.
    std::atomic_ref<uint32_t> Link(sidecarLink(Index));
    if (Link.load(std::memory_order_relaxed) == 0)
      return Index;
    IsAllocated.tryClear(Index);
    drainRemoteFrees();
  }
}

void *RandomizedPartition::allocate() {
  if (InUse.load(std::memory_order_relaxed) >=
          Threshold.load(std::memory_order_relaxed) &&
      !growSpan()) {
    // At threshold with nowhere to grow: the 1/M bound says no more memory
    // for this class.
    ++Stats.FailedAllocations;
    return nullptr;
  }
  uint64_t Probes = 0, Fallbacks = 0;
  size_t Index = claimCleanSlot(Probes, Fallbacks);
  Stats.Probes += Probes;
  Stats.ProbeFallbacks += Fallbacks;
  if (Index == Slots) {
    ++Stats.FailedAllocations;
    return nullptr;
  }
  InUse.fetch_add(1, std::memory_order_relaxed);
  ++Stats.Allocations;
  LiveBytes.fetch_add(ObjectSize, std::memory_order_relaxed);
  // One relaxed load is all the hot path pays for partial page return; the
  // per-page bookkeeping runs only while released pages actually exist.
  // Measured: with the summary fully populated the
  // alloc/free pair costs the same ns/op as with the gate short-circuiting
  // (deltas within run noise, min-of-runs identical), so the clearing
  // stays here rather than deferring to the sweeper — deferral would need
  // a pending-clear queue whose bookkeeping costs more than the two bit
  // flips it saves.
  if (ReleasedPages.load(std::memory_order_relaxed) != 0)
    clearReleasedForSlot(Index);
  char *Ptr = Base + Index * ObjectSize;
  if (FillOnAllocate)
    randomFill(Ptr, ObjectSize);
  return Ptr;
}

size_t RandomizedPartition::claimRandomSlots(void **Out, size_t MaxCount) {
  size_t Live = InUse.load(std::memory_order_relaxed);
  if (Live >= Threshold.load(std::memory_order_relaxed) && !growSpan())
    return 0; // Saturated: no refusal counted, the caller owns that call.
  size_t Want = Threshold.load(std::memory_order_relaxed) - Live;
  if (Want > MaxCount)
    Want = MaxCount;

  // Each claim runs the exact allocate() probe discipline, so the i-th
  // claimed slot is uniform over the slots free after the first i-1 claims
  // — the same process as i consecutive allocate() calls.
  uint64_t Probes = 0, Fallbacks = 0;
  size_t N = 0;
  while (N < Want) {
    size_t Index = claimCleanSlot(Probes, Fallbacks);
    if (Index == Slots)
      break; // Unreachable below the threshold; stay defensive.
    if (ReleasedPages.load(std::memory_order_relaxed) != 0)
      clearReleasedForSlot(Index);
    Out[N++] = Base + Index * ObjectSize;
  }
  Stats.Probes += Probes;
  Stats.ProbeFallbacks += Fallbacks;
  Stats.ClaimedSlots += N;
  InUse.fetch_add(N, std::memory_order_relaxed);
  LiveBytes.fetch_add(N * ObjectSize, std::memory_order_relaxed);

  // Shuffle so the order a cache hands slots out is independent of the
  // order they were claimed (Fisher-Yates from this partition's stream).
  for (size_t I = N; I > 1; --I) {
    size_t J = Rand.nextBounded(static_cast<uint32_t>(I));
    void *Tmp = Out[I - 1];
    Out[I - 1] = Out[J];
    Out[J] = Tmp;
  }
  if (FillOnAllocate)
    for (size_t I = 0; I < N; ++I)
      randomFill(Out[I], ObjectSize);
  return N;
}

void RandomizedPartition::reclaimSlots(void *const *Ptrs, size_t Count) {
  for (size_t I = 0; I < Count; ++I) {
    assert(contains(Ptrs[I]) && "reclaimed slot must be in this partition");
    size_t Offset =
        static_cast<size_t>(static_cast<char *>(Ptrs[I]) - Base);
    assert(Offset % ObjectSize == 0 && "reclaimed slot must be aligned");
    bool WasSet = IsAllocated.tryClear(Offset / ObjectSize);
    assert(WasSet && "reclaimed slot must still be claimed");
    (void)WasSet;
  }
  Stats.ReturnedSlots += Count;
  InUse.fetch_sub(Count, std::memory_order_relaxed);
  LiveBytes.fetch_sub(Count * ObjectSize, std::memory_order_relaxed);
}

size_t RandomizedPartition::deallocateBatch(void *const *Ptrs,
                                            size_t Count) {
  size_t Freed = 0;
  for (size_t I = 0; I < Count; ++I)
    if (deallocate(Ptrs[I]))
      ++Freed;
  return Freed;
}

void RandomizedPartition::remoteFree(void *Ptr) {
  assert(contains(Ptr) && "caller routes only pointers in this partition");
  size_t Offset = static_cast<size_t>(static_cast<char *>(Ptr) - Base);
  if (Offset % ObjectSize != 0) {
    // Validity check 1 (a correct slot offset) needs only immutable
    // geometry, so the invalid free is detected right here, lock-free.
    RemoteRejects.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  auto Slot = static_cast<uint32_t>(Offset / ObjectSize);

  // Claim the slot's link word. Failure means the slot is already pending:
  // a second free of the same object raced in before the owner drained the
  // first — a double free, detected at push time. (The claim is also what
  // makes concurrent double frees unable to corrupt the chain.)
  std::atomic_ref<uint32_t> Link(sidecarLink(Slot));
  uint32_t Expected = 0;
  if (!Link.compare_exchange_strong(Expected, SidecarTail,
                                    std::memory_order_acq_rel,
                                    std::memory_order_relaxed)) {
    RemoteRejects.fetch_add(1, std::memory_order_relaxed);
    return;
  }

  // Treiber push: point the claimed link at the current chain and swing
  // the head. The release CAS publishes the link word (and the pusher's
  // prior writes) to the draining owner's acquire exchange.
  uint32_t Head = SidecarHead.load(std::memory_order_relaxed);
  do {
    Link.store(Head == 0 ? SidecarTail : Head, std::memory_order_relaxed);
  } while (!SidecarHead.compare_exchange_weak(Head, Slot + 1,
                                              std::memory_order_release,
                                              std::memory_order_relaxed));
  RemotePushes.fetch_add(1, std::memory_order_relaxed);
}

size_t RandomizedPartition::drainRemoteFrees() {
  if (SidecarHead.load(std::memory_order_relaxed) == 0)
    return 0; // Cheap empty check: one relaxed load on the common path.
  uint32_t Head = SidecarHead.exchange(0, std::memory_order_acquire);
  size_t N = 0;
  while (Head != 0) {
    uint32_t Slot = Head - 1;
    std::atomic_ref<uint32_t> Link(sidecarLink(Slot));
    uint32_t Next = Link.load(std::memory_order_relaxed);
    // Validity checks 2 and 3 (live slot, not already freed) run exactly
    // as for a locked free — detection deferred to drain time, not lost.
    deallocate(Base + static_cast<size_t>(Slot) * ObjectSize);
    // Reopen the link only AFTER the free materializes: a double free
    // racing this drain then fails its claim and is rejected at push
    // time, instead of entering the sidecar as a pending entry for a
    // slot this lock hold may immediately reallocate — which would make
    // the next drain free the slot's NEXT occupant. A push landing after
    // the reopen finds the bit already clear and is rejected by the next
    // drain's validation; claimCleanSlot() refuses to hand out any slot
    // whose link is still claimed, so a stale push cannot alias a
    // reallocation. (What remains is the ambiguity every allocator has:
    // a free of an address whose slot was already freed, drained AND
    // re-handed-out is indistinguishable from a valid free of the new
    // object.)
    Link.store(0, std::memory_order_release);
    ++N;
    Head = Next == SidecarTail ? 0 : Next;
  }
  RemoteDrained.fetch_add(N, std::memory_order_relaxed);
  ++Stats.SidecarDrains;
  return N;
}

void RandomizedPartition::clearReleasedForSlot(size_t Index) {
  // Pages the slot's bytes overlap, clamped to the releasable data pages.
  // A slot straddling a page boundary un-marks both sides: any page about
  // to hold live data must be considered resident again so a later scan
  // can re-advise it once the neighbourhood goes quiet.
  const size_t Page = MmapRegion::pageSize();
  auto First = reinterpret_cast<uintptr_t>(FirstPage);
  uintptr_t SlotBegin = reinterpret_cast<uintptr_t>(Base) + Index * ObjectSize;
  uintptr_t SlotLast = SlotBegin + ObjectSize - 1;
  if (SlotLast < First)
    return;
  size_t P0 = SlotBegin > First ? (SlotBegin - First) / Page : 0;
  size_t P1 = (SlotLast - First) / Page;
  if (P1 >= NumDataPages)
    P1 = NumDataPages - 1; // Caller guarantees NumDataPages != 0.
  for (size_t P = P0; P <= P1 && P < NumDataPages; ++P) {
    uint64_t Mask = uint64_t(1) << (P % 64);
    uint64_t &Word = releasedWord(P);
    if (Word & Mask) {
      Word &= ~Mask;
      ReleasedPages.fetch_sub(1, std::memory_order_relaxed);
    }
  }
}

void RandomizedPartition::scanAndReleaseSpans(MaintainOutcome &Out) {
  const size_t Page = MmapRegion::pageSize();
  auto First = reinterpret_cast<uintptr_t>(FirstPage);
  auto RegionBegin = reinterpret_cast<uintptr_t>(Base);
  size_t Pages = 0, Spans = 0;
  // Slots past the active span were never handed out, so their pages were
  // never touched: the scan stops at the span's end.
  const size_t Span = ActiveSlots.load(std::memory_order_relaxed);
  size_t SlotFrom = 0;
  while (SlotFrom < Span) {
    size_t RunBegin = IsAllocated.findNextClear(SlotFrom, Span);
    if (RunBegin == Span)
      break;
    size_t RunEnd = IsAllocated.findNextSet(RunBegin, Span);
    SlotFrom = RunEnd;
    // Clip the free run's byte range inward to whole pages. A page
    // overlapped by any set slot (live, cache-claimed, or sidecar-pending)
    // lies inside no clear run, so objects straddling page boundaries are
    // respected by construction.
    uintptr_t ByteBegin = RegionBegin + RunBegin * ObjectSize;
    uintptr_t ByteEnd = RegionBegin + RunEnd * ObjectSize;
    uintptr_t PageBegin = (ByteBegin + Page - 1) & ~(Page - 1);
    uintptr_t PageEnd = ByteEnd & ~(Page - 1);
    if (PageBegin >= PageEnd)
      continue;
    size_t P = (PageBegin - First) / Page;
    size_t RunPagesEnd = (PageEnd - First) / Page;
    if (RunPagesEnd > NumDataPages)
      RunPagesEnd = NumDataPages;
    // Advise each maximal sub-run of not-yet-released pages in one call.
    // The summary keeps the scan idempotent per span: an idle partition's
    // next sweep finds every bit set and issues no syscall.
    while (P < RunPagesEnd) {
      while (P < RunPagesEnd && releasedBit(P))
        ++P;
      size_t SubBegin = P;
      while (P < RunPagesEnd && !releasedBit(P))
        ++P;
      if (P == SubBegin)
        continue;
      size_t Bytes = MmapRegion::releasePageRange(FirstPage + SubBegin * Page,
                                                  (P - SubBegin) * Page);
      if (Bytes == 0)
        continue; // Policy off or the kernel refused: nothing to record.
      size_t N = Bytes / Page;
      for (size_t I = SubBegin; I < SubBegin + N; ++I)
        releasedWord(I) |= uint64_t(1) << (I % 64);
      ReleasedPages.fetch_add(N, std::memory_order_relaxed);
      Pages += N;
      ++Spans;
    }
  }
  if (Pages != 0) {
    ++Stats.PartialReturns;
    Stats.PagesReturned += Pages;
    Stats.SpansReleased += Spans;
  }
  Out.PagesReturned += Pages;
  Out.SpansReleased += Spans;
}

RandomizedPartition::MaintainOutcome RandomizedPartition::maintain() {
  MaintainOutcome Out;
  Out.Drained = drainRemoteFrees();
  Stats.SweeperDrained += Out.Drained;
  // Partial page return. The bitmap walk is gated on the free-stamp: an
  // unchanged stamp means no bit has been cleared since the last scan, so
  // there is nothing new to release — repeated sweeps of an idle heap cost
  // two relaxed loads here and no syscall. Replicated-fill partitions skip
  // data-page return entirely (a demand-zero refault would destroy the
  // pre-randomized contents FillOnAllocate hands out).
  if (NumDataPages != 0 && !FillOnAllocate) {
    uint64_t Stamp = Stats.Frees + Stats.ReturnedSlots;
    if (Stamp != LastScanFreeStamp.load(std::memory_order_relaxed)) {
      scanAndReleaseSpans(Out);
      LastScanFreeStamp.store(Stamp, std::memory_order_relaxed);
    }
  }
  return Out;
}

bool RandomizedPartition::deallocate(void *Ptr) {
  assert(contains(Ptr) && "caller routes only pointers in this partition");
  size_t Offset = static_cast<size_t>(static_cast<char *>(Ptr) - Base);
  // Validity check 1: the offset must be an exact multiple of the object
  // size. Validity check 2: the slot must currently be allocated. Anything
  // else is an invalid or double free and is ignored.
  if (Offset % ObjectSize != 0) {
    ++Stats.IgnoredFrees;
    return false;
  }
  size_t Index = Offset / ObjectSize;
  if (!IsAllocated.tryClear(Index)) {
    ++Stats.IgnoredFrees;
    return false;
  }
  assert(InUse.load(std::memory_order_relaxed) > 0 &&
         "bitmap and counter out of sync");
  InUse.fetch_sub(1, std::memory_order_relaxed);
  ++Stats.Frees;
  LiveBytes.fetch_sub(ObjectSize, std::memory_order_relaxed);
  if (FillOnFree)
    randomFill(Ptr, ObjectSize);
  return true;
}

size_t RandomizedPartition::objectSize(const void *Ptr) const {
  assert(contains(Ptr) && "caller routes only pointers in this partition");
  size_t Offset =
      static_cast<size_t>(static_cast<const char *>(Ptr) - Base);
  size_t Index = Offset / ObjectSize;
  return IsAllocated.test(Index) ? ObjectSize : 0;
}

void *RandomizedPartition::objectStart(const void *Ptr) const {
  assert(contains(Ptr) && "caller routes only pointers in this partition");
  size_t Offset =
      static_cast<size_t>(static_cast<const char *>(Ptr) - Base);
  size_t Index = Offset / ObjectSize;
  return IsAllocated.test(Index) ? Base + Index * ObjectSize : nullptr;
}

} // namespace diehard
