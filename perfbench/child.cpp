//===- perfbench/child.cpp - one measured process of the benchmark --------===//
//
// Part of the DieHard reproduction (Berger & Zorn, PLDI 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The workload child of the repository benchmark (see README.md). run.py
/// fork+execs it once per measurement and reads the one result line it
/// prints. A child runs one fixed, seed-determined workload against one
/// rung of the layer ladder:
///
///   malloc    the process allocator: glibc when exec'd plain, the DieHard
///             shim when run.py LD_PRELOADs libdiehard.so
///   tcache    an in-process ShardedHeap with thread caches (K = 32)
///   sharded   the same ShardedHeap with the cache tier off (K = 0)
///   heap      one DieHardHeap behind the benchmark's own timed lock
///   lea       the in-tree Lea allocator behind a lock (reference only)
///
/// Every allocator call goes through TimedAllocator, the benchmark's
/// adapter, which has two timing modes:
///
///   sample    every 8th malloc is timed together with the first write to
///             the returned object, so first-touch page faults land in
///             the latency tail; every 8th free is timed on its own
///   trace     every call is a span; spans are folded into per-thread
///             totals (count and nanoseconds, split at 16 KB into the
///             small-object and large-object paths, plus lock waits)
///
/// All per-thread state lives in one mmap'd arena that is touched before
/// the timed region, because malloc is the system under test. Nothing
/// inside src/ is instrumented; the heap counters come from the heaps'
/// own stats() after the run.
///
/// Usage:
///   perfbench_child <workload> <rung> <seed> <sample|trace> [corrupt-every]
///
/// corrupt-every > 0 makes the adapter hand every Nth allocation of a thread
/// that thread's scratch buffer instead of fresh memory, so live objects
/// overlap and the workload checksum changes. The
/// tests use it to prove the correctness gate fails a corrupting
/// allocator; it is race-free only on workloads whose frees stay on the
/// allocating thread (cfrac-app, fragment-mixed).
///
//===----------------------------------------------------------------------===//

#include "apps/MiniCfrac.h"
#include "baselines/LeaAllocator.h"
#include "core/HeapAdapter.h"
#include "core/SizeClass.h"
#include "support/Rng.h"
#include "workloads/WorkloadDriver.h"

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <sys/mman.h>

using namespace diehard;

namespace {

/// The shim's default seed is fixed for every shim child (run.py sets
/// DIEHARD_SEED to this); the in-process rungs use the same value.
constexpr uint64_t HeapSeed = 23459;

/// Thread caches of the tcache rung, as the shim's default configuration.
constexpr size_t ThreadCacheK = 32;

constexpr int MaxThreads = 16;
constexpr uint64_t SamplePeriod = 8;
constexpr size_t ScratchBytes = 64 * 1024;
constexpr size_t TouchBytes = 16;

uint64_t nowNs() {
  timespec Ts;
  clock_gettime(CLOCK_MONOTONIC, &Ts);
  return static_cast<uint64_t>(Ts.tv_sec) * 1000000000ULL +
         static_cast<uint64_t>(Ts.tv_nsec);
}

/// Log-bucket latency histogram with 128 linear sub-buckets per octave:
/// exact to 1 ns below 256 ns and within 1/128 of the value above, so a
/// one-bucket flip moves a percentile by under 1% (the repository's
/// LatencyHistogram has 8 sub-buckets per octave, a 12.5% step).
class FineHistogram {
public:
  static constexpr int SubBits = 7;
  static constexpr int NumOctaves = 40;
  static constexpr size_t NumBuckets = size_t(NumOctaves) << SubBits;

  void record(uint64_t Ns) { ++Counts[bucketOf(Ns)]; }

  void merge(const FineHistogram &Other) {
    for (size_t I = 0; I < NumBuckets; ++I)
      Counts[I] += Other.Counts[I];
  }

  /// Prints the non-empty buckets as a JSON member of [low, width, count]
  /// triples, in nanoseconds; run.py pools them over all children of a run.
  void print(const char *Name) const {
    std::printf(",\"%s\":[", Name);
    const char *Sep = "";
    for (size_t I = 0; I < NumBuckets; ++I) {
      if (Counts[I] == 0)
        continue;
      std::printf("%s[%" PRIu64 ",%" PRIu64 ",%" PRIu64 "]", Sep,
                  bucketLow(I), bucketHigh(I) - bucketLow(I) + 1, Counts[I]);
      Sep = ",";
    }
    std::printf("]");
  }

private:
  static size_t bucketOf(uint64_t Ns) {
    constexpr uint64_t Exact = uint64_t(1) << SubBits;
    if (Ns < Exact)
      return static_cast<size_t>(Ns);
    int Msb = 63 - __builtin_clzll(Ns);
    int Octave = Msb - SubBits + 1;
    if (Octave >= NumOctaves - 1)
      return NumBuckets - 1;
    uint64_t Sub = (Ns >> (Msb - SubBits)) & (Exact - 1);
    return (static_cast<size_t>(Octave) << SubBits) + static_cast<size_t>(Sub);
  }

  static uint64_t bucketLow(size_t Index) {
    constexpr uint64_t Exact = uint64_t(1) << SubBits;
    if (Index < Exact)
      return Index;
    size_t Octave = Index >> SubBits;
    uint64_t Base = uint64_t(1) << (Octave + SubBits - 1);
    return Base + (Index & (Exact - 1)) * (Base >> SubBits);
  }

  static uint64_t bucketHigh(size_t Index) {
    if (Index < (size_t(1) << SubBits))
      return Index;
    size_t Octave = Index >> SubBits;
    uint64_t Width = (uint64_t(1) << (Octave + SubBits - 1)) >> SubBits;
    return bucketLow(Index) + Width - 1;
  }

  uint64_t Counts[NumBuckets];
};

/// Call totals of one path (small or large objects) in trace mode.
struct SpanTotals {
  uint64_t Calls;
  uint64_t Ns;

  void add(uint64_t Duration) {
    ++Calls;
    Ns += Duration;
  }
  void merge(const SpanTotals &Other) {
    Calls += Other.Calls;
    Ns += Other.Ns;
  }
};

/// Everything one worker thread records. All-zero bytes are the initial
/// state, so the arena needs no constructor calls.
struct ThreadState {
  FineHistogram MallocLatency;
  FineHistogram FreeLatency;
  SpanTotals SmallMalloc, SmallFree, LargeMalloc, LargeFree, LockWait;
  uint64_t Mallocs, Frees, Failed;
  uint64_t MallocSeq, FreeSeq, CorruptSeq;
  char Scratch[ScratchBytes];
};

ThreadState *Arena = nullptr;
std::atomic<int> NextThreadSlot{0};
thread_local int ThreadSlot = -1;

ThreadState &threadState() {
  if (ThreadSlot < 0) {
    ThreadSlot = NextThreadSlot.fetch_add(1, std::memory_order_relaxed);
    if (ThreadSlot >= MaxThreads) {
      std::fprintf(stderr, "perfbench_child: more than %d threads\n",
                   MaxThreads);
      std::abort();
    }
  }
  return Arena[ThreadSlot];
}

/// Maps and touches the per-thread arena before the timed region.
void setUpArena() {
  size_t Bytes = sizeof(ThreadState) * MaxThreads;
  void *Mem = ::mmap(nullptr, Bytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (Mem == MAP_FAILED) {
    std::perror("perfbench_child: mmap");
    std::exit(2);
  }
  std::memset(Mem, 0, Bytes);
  Arena = static_cast<ThreadState *>(Mem);
}

enum class Timing { Sample, Trace };

/// The benchmark's adapter around one rung. \p Lock, when set, serializes
/// the rung (heap, lea); the time to acquire it is recorded as lock wait
/// and kept out of the call's own span or latency sample.
class TimedAllocator final : public Allocator {
public:
  TimedAllocator(Allocator &Target, std::mutex *RungLock, Timing TimingMode,
                 uint64_t CorruptPeriod)
      : Inner(Target), Lock(RungLock), Mode(TimingMode),
        CorruptEvery(CorruptPeriod) {}

  void *allocate(size_t Size) override {
    ThreadState &T = threadState();
    if (CorruptEvery != 0 && Size <= ScratchBytes &&
        ++T.CorruptSeq % CorruptEvery == 0) {
      ++T.Mallocs;
      return T.Scratch;
    }
    bool Timed = Mode == Timing::Trace || T.MallocSeq++ % SamplePeriod == 0;
    lock(T);
    uint64_t Start = Timed ? nowNs() : 0;
    void *Ptr = Inner.allocate(Size);
    if (Mode == Timing::Sample && Timed && Ptr != nullptr)
      *static_cast<volatile char *>(Ptr) = 0; // The first write.
    uint64_t Ns = Timed ? nowNs() - Start : 0;
    unlock();
    if (Mode == Timing::Trace)
      (Size > SizeClass::MaxObjectSize ? T.LargeMalloc : T.SmallMalloc)
          .add(Ns);
    else if (Timed)
      T.MallocLatency.record(Ns);
    ++(Ptr != nullptr ? T.Mallocs : T.Failed);
    return Ptr;
  }

  void deallocate(void *Ptr) override { release(Ptr, 0); }

  /// Frees \p Ptr; \p Size, when known, routes the span to the large path.
  /// Unsized frees (runGauntlet's and cfrac's) count as small: neither of
  /// those workloads requests more than 16 KB, which run.py checks by
  /// requiring large mallocs == large frees.
  void release(void *Ptr, size_t Size) {
    if (Ptr == nullptr)
      return;
    ThreadState &T = threadState();
    ++T.Frees;
    if (isScratch(Ptr))
      return;
    bool Timed = Mode == Timing::Trace || T.FreeSeq++ % SamplePeriod == 0;
    lock(T);
    uint64_t Start = Timed ? nowNs() : 0;
    Inner.deallocate(Ptr);
    uint64_t Ns = Timed ? nowNs() - Start : 0;
    unlock();
    if (Mode == Timing::Trace)
      (Size > SizeClass::MaxObjectSize ? T.LargeFree : T.SmallFree).add(Ns);
    else if (Timed)
      T.FreeLatency.record(Ns);
  }

  const char *getName() const override { return "perfbench-timed"; }

private:
  void lock(ThreadState &T) {
    if (Lock == nullptr)
      return;
    uint64_t Start = nowNs();
    Lock->lock();
    T.LockWait.add(nowNs() - Start);
  }
  void unlock() {
    if (Lock != nullptr)
      Lock->unlock();
  }

  static bool isScratch(const void *Ptr) {
    auto P = reinterpret_cast<uintptr_t>(Ptr);
    auto Begin = reinterpret_cast<uintptr_t>(Arena);
    return P >= Begin && P < Begin + sizeof(ThreadState) * MaxThreads;
  }

  Allocator &Inner;
  std::mutex *Lock;
  Timing Mode;
  uint64_t CorruptEvery;
};

/// Worker threads of the multithreaded workloads: 3, so one CPU of a
/// 4-CPU machine stays free for the parent and the kernel, and never more
/// than the machine has.
int workerThreads() {
  unsigned Cpus = std::thread::hardware_concurrency();
  return static_cast<int>(std::clamp(Cpus, 1u, 3u));
}

/// larson-server: runGauntlet's Larson shape, unchanged.
uint64_t runLarson(TimedAllocator &A, uint64_t Seed) {
  GauntletParams P;
  P.Kind = GauntletKind::Larson;
  P.Threads = workerThreads();
  P.OpsPerThread = 2000000;
  P.MinSize = 8;
  P.MaxSize = 1024;
  P.SlotsPerThread = 512;
  P.TouchBytes = TouchBytes;
  P.SamplePeriod = INT_MAX; // The adapter does the timing.
  P.Seed = Seed;
  return runGauntlet(P, A).Checksum;
}

/// cfrac-app: the paper's cfrac stand-in at 60x the bench_real_apps size.
uint64_t runCfrac(TimedAllocator &A, uint64_t Seed) {
  return runCfracWorkload(A, 3600, 260, Seed);
}

/// fragment-mixed: the gauntlet Fragment shape (fill, free all but every
/// 16th slot, churn into the holes with log-spread sizes over all twelve
/// classes, thread-local frees), plus one request in LargeOdds drawn from
/// (16 KB, 64 KB] for the large-object path. runGauntlet's size picker
/// cannot make that share small enough, hence this copy of the shape.
constexpr uint64_t FragmentOpsPerThread = 400000;
constexpr uint32_t FragmentLargeOdds = 64;
constexpr size_t FragmentSlots = 2048;
constexpr size_t FragmentPinnedStride = 16;

size_t fragmentSize(Rng &Rand) {
  constexpr size_t Max = SizeClass::MaxObjectSize;
  if (Rand.nextBounded(FragmentLargeOdds) == 0)
    return Max + 1 + Rand.nextBounded(3 * Max);
  // Bands [2^b, 2^(b+1)) for b = 3..14, clipped to 16 KB: every class.
  size_t Base = size_t(1) << (3 + Rand.nextBounded(12));
  size_t Limit = std::min(Max, Base * 2 - 1);
  return Base + Rand.nextBounded(static_cast<uint32_t>(Limit - Base + 1));
}

struct FragmentSlot {
  void *Ptr = nullptr;
  size_t Size = 0;
};

void fragmentWorker(TimedAllocator &A, uint64_t Seed, int Thread,
                    uint64_t &Checksum) {
  Rng Rand(Rng::deriveStream(Seed, static_cast<uint64_t>(Thread) + 1));
  std::vector<FragmentSlot> Slots(FragmentSlots);
  uint64_t Sum = 0;
  auto Fill = [&](FragmentSlot &S) {
    size_t Size = fragmentSize(Rand);
    uint32_t Tag = Rand.next();
    void *Ptr = A.allocate(Size);
    if (Ptr != nullptr)
      stampObject(Ptr, Size, Tag, TouchBytes);
    S = {Ptr, Size};
  };
  auto Drop = [&](FragmentSlot &S) {
    if (S.Ptr == nullptr)
      return;
    Sum += hashObject(S.Ptr, S.Size, TouchBytes);
    A.release(S.Ptr, S.Size);
    S.Ptr = nullptr;
  };
  for (FragmentSlot &S : Slots)
    Fill(S);
  for (size_t I = 0; I < FragmentSlots; ++I)
    if (I % FragmentPinnedStride != 0)
      Drop(Slots[I]);
  for (uint64_t I = FragmentSlots; I < FragmentOpsPerThread; ++I) {
    size_t Index = Rand.nextBounded(static_cast<uint32_t>(FragmentSlots));
    if (Index % FragmentPinnedStride == 0)
      ++Index; // Pinned survivors stay for the whole run.
    Drop(Slots[Index]);
    Fill(Slots[Index]);
  }
  for (FragmentSlot &S : Slots)
    Drop(S);
  Checksum = Sum;
}

uint64_t runFragment(TimedAllocator &A, uint64_t Seed) {
  int Threads = workerThreads();
  std::vector<uint64_t> Sums(static_cast<size_t>(Threads));
  std::vector<std::thread> Workers;
  for (int T = 0; T < Threads; ++T)
    Workers.emplace_back(fragmentWorker, std::ref(A), Seed, T,
                         std::ref(Sums[static_cast<size_t>(T)]));
  for (std::thread &W : Workers)
    W.join();
  uint64_t Checksum = 0;
  for (uint64_t S : Sums)
    Checksum += S;
  return Checksum;
}

void printStats(const DieHardStats &S) {
  std::printf(",\"stats\":{\"allocations\":%" PRIu64 ",\"frees\":%" PRIu64
              ",\"large_allocations\":%" PRIu64 ",\"large_frees\":%" PRIu64
              ",\"failed\":%" PRIu64 ",\"probes\":%" PRIu64
              ",\"probe_fallbacks\":%" PRIu64 ",\"overflow\":%" PRIu64
              ",\"cache_refills\":%" PRIu64 ",\"cache_flushes\":%" PRIu64
              ",\"remote_frees\":%" PRIu64 ",\"sidecar_drains\":%" PRIu64
              "}",
              S.Allocations, S.Frees, S.LargeAllocations, S.LargeFrees,
              S.FailedAllocations, S.Probes, S.ProbeFallbacks,
              S.OverflowAllocations, S.CacheRefills, S.CacheFlushes,
              S.RemoteFrees, S.SidecarDrains);
}

void printSpans(const char *Name, const SpanTotals &S) {
  std::printf(",\"%s_calls\":%" PRIu64 ",\"%s_ns\":%" PRIu64, Name, S.Calls,
              Name, S.Ns);
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_child <larson-server|cfrac-app|"
               "fragment-mixed> <malloc|tcache|sharded|heap|lea> <seed> "
               "<sample|trace> [corrupt-every]\n");
  return 2;
}

} // namespace

int main(int argc, char **argv) {
  if (argc != 5 && argc != 6)
    return usage();
  std::string Workload = argv[1], Rung = argv[2], TimingName = argv[4];
  uint64_t Seed = std::strtoull(argv[3], nullptr, 10);
  uint64_t CorruptEvery = argc == 6 ? std::strtoull(argv[5], nullptr, 10) : 0;
  uint64_t (*Run)(TimedAllocator &, uint64_t) = nullptr;
  if (Workload == "larson-server")
    Run = runLarson;
  else if (Workload == "cfrac-app")
    Run = runCfrac;
  else if (Workload == "fragment-mixed")
    Run = runFragment;
  if (Run == nullptr || (TimingName != "sample" && TimingName != "trace"))
    return usage();
  Timing Mode = TimingName == "trace" ? Timing::Trace : Timing::Sample;

  // The rung under test; only the objects the chosen rung needs are built.
  ShardedHeapOptions ShardedOpts;
  ShardedOpts.Heap.Seed = HeapSeed;
  // The heap rung gets the reservation of all the sharded rung's shards
  // together, so it holds the same live set under its 1/M bound.
  DieHardOptions HeapOpts;
  HeapOpts.Seed = HeapSeed;
  HeapOpts.HeapSize *= std::clamp<size_t>(std::thread::hardware_concurrency(),
                                          1, ShardedHeap::MaxShards);
  std::unique_ptr<ShardedHeap> Sharded;
  std::unique_ptr<DieHardHeap> Heap;
  std::unique_ptr<Allocator> Target;
  std::mutex RungLock;
  std::mutex *Lock = nullptr;
  if (Rung == "malloc") {
    Target = std::make_unique<SystemAllocator>();
  } else if (Rung == "tcache" || Rung == "sharded") {
    ShardedOpts.ThreadCacheSlots = Rung == "tcache" ? ThreadCacheK : 0;
    Sharded = std::make_unique<ShardedHeap>(ShardedOpts);
    Target = std::make_unique<ShardedHeapAdapter>(*Sharded);
  } else if (Rung == "heap") {
    Heap = std::make_unique<DieHardHeap>(HeapOpts);
    Target = std::make_unique<HeapAdapter>(*Heap);
    Lock = &RungLock;
  } else if (Rung == "lea") {
    Target = std::make_unique<LeaAllocator>(size_t(512) << 20);
    Lock = &RungLock;
  } else {
    return usage();
  }
  setUpArena();
  TimedAllocator Adapter(*Target, Lock, Mode, CorruptEvery);

  uint64_t Start = nowNs();
  uint64_t Checksum = Run(Adapter, Seed);
  uint64_t End = nowNs();

  // Main-thread caches (cfrac-app runs on the main thread) go back before
  // the counters are read, so Allocations == Frees is exact.
  if (Sharded)
    Sharded->flushThreadCache();

  ThreadState Total;
  std::memset(&Total, 0, sizeof(Total));
  int Threads = NextThreadSlot.load();
  for (int T = 0; T < Threads; ++T) {
    const ThreadState &S = Arena[T];
    Total.MallocLatency.merge(S.MallocLatency);
    Total.FreeLatency.merge(S.FreeLatency);
    Total.SmallMalloc.merge(S.SmallMalloc);
    Total.SmallFree.merge(S.SmallFree);
    Total.LargeMalloc.merge(S.LargeMalloc);
    Total.LargeFree.merge(S.LargeFree);
    Total.LockWait.merge(S.LockWait);
    Total.Mallocs += S.Mallocs;
    Total.Frees += S.Frees;
    Total.Failed += S.Failed;
  }

  std::printf("PERFBENCH_CHILD {\"workload\":\"%s\",\"rung\":\"%s\","
              "\"timing\":\"%s\",\"threads\":%d,\"checksum\":%" PRIu64
              ",\"mallocs\":%" PRIu64 ",\"frees\":%" PRIu64
              ",\"failed\":%" PRIu64 ",\"t_start_ns\":%" PRIu64
              ",\"t_end_ns\":%" PRIu64,
              Workload.c_str(), Rung.c_str(), TimingName.c_str(), Threads,
              Checksum, Total.Mallocs, Total.Frees, Total.Failed, Start, End);
  Total.MallocLatency.print("malloc_latency");
  Total.FreeLatency.print("free_latency");
  printSpans("small_malloc", Total.SmallMalloc);
  printSpans("small_free", Total.SmallFree);
  printSpans("large_malloc", Total.LargeMalloc);
  printSpans("large_free", Total.LargeFree);
  printSpans("lock_wait", Total.LockWait);
  if (Sharded)
    printStats(Sharded->stats());
  else if (Heap)
    printStats(Heap->stats());
  std::printf("}\n");
  return 0;
}
