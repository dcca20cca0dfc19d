//===- tests/interpose/MtShardVictim.cpp - sharded shim stress victim -----===//
//
// Part of the DieHard reproduction (Berger & Zorn, PLDI 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A standalone victim binary executed under LD_PRELOAD by the interpose
/// tests to stress the sharded heap end to end. It goes beyond MtVictim in
/// exactly the ways sharding can break:
///
///   1. Cross-thread frees: producer threads allocate and tag objects,
///      consumer threads verify and free them, so nearly every free happens
///      on a thread (and shard) other than the allocating one.
///   2. Thread churn: waves of short-lived threads, far more than any sane
///      shard count, so thread-token assignment has to wrap.
///   3. Large objects and malloc_usable_size across threads.
///   4. Thread-cache hygiene: when running under the shim with the
///      thread-cache tier enabled, the shim's observability hooks (looked
///      up via dlsym, absent when not preloaded) must report zero cached
///      slots once every worker thread has joined and the main thread has
///      flushed — i.e. thread-exit flushing leaks nothing.
///   5. Sweeper liveness: with DIEHARD_SWEEPER=1 the background epoch
///      sweeper must complete at least one pass while the victim waits
///      after the stress; its hooks must be callable regardless.
///
/// Prints "MT-SHARD-OK" and exits 0 when every check passes.
///
//===----------------------------------------------------------------------===//

#include <dlfcn.h>
#include <malloc.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <thread>
#include <vector>

namespace {

struct Obj {
  unsigned char *Ptr;
  size_t Size;
  unsigned char Tag;
};

/// Bounded multi-producer multi-consumer handoff queue.
class Handoff {
public:
  void push(const Obj &O) {
    std::unique_lock<std::mutex> G(Lock);
    NotFull.wait(G, [this] { return Items.size() < 512; });
    Items.push_back(O);
    NotEmpty.notify_one();
  }

  bool pop(Obj &O) {
    std::unique_lock<std::mutex> G(Lock);
    NotEmpty.wait(G, [this] { return !Items.empty() || Closed; });
    if (Items.empty())
      return false;
    O = Items.back();
    Items.pop_back();
    NotFull.notify_one();
    return true;
  }

  void close() {
    std::lock_guard<std::mutex> G(Lock);
    Closed = true;
    NotEmpty.notify_all();
  }

private:
  std::mutex Lock;
  std::condition_variable NotEmpty, NotFull;
  std::vector<Obj> Items;
  bool Closed = false;
};

std::atomic<int> Failures{0};

unsigned nextRand(unsigned &State) {
  State = State * 1664525u + 1013904223u;
  return State;
}

/// Phase 1 producer: allocates tagged objects (occasionally large or
/// calloc'd) and hands every one of them to the consumers.
void producer(Handoff &Q, unsigned Id, int Count) {
  unsigned State = Id * 2654435761u + 1;
  for (int I = 0; I < Count; ++I) {
    unsigned R = nextRand(State);
    size_t Size = (R % 16 == 0) ? 17000 + R % 50000 : 1 + R % 2048;
    unsigned char *P;
    if (R % 5 == 0) {
      P = static_cast<unsigned char *>(std::calloc(1, Size));
      if (P != nullptr)
        for (size_t J = 0; J < Size; ++J)
          if (P[J] != 0) {
            ++Failures;
            break;
          }
    } else {
      P = static_cast<unsigned char *>(std::malloc(Size));
    }
    if (P == nullptr) {
      ++Failures;
      return;
    }
    if (::malloc_usable_size(P) < Size) {
      ++Failures;
      std::free(P);
      return;
    }
    auto Tag = static_cast<unsigned char>(nextRand(State));
    std::memset(P, Tag, Size);
    Q.push(Obj{P, Size, Tag});
  }
}

/// Phase 1 consumer: verifies and frees objects allocated by the producers
/// — on a different thread, hence (with several shards) usually a
/// different shard than the one that owns the object.
void consumer(Handoff &Q) {
  Obj O;
  while (Q.pop(O)) {
    for (size_t I = 0; I < O.Size; ++I)
      if (O.Ptr[I] != O.Tag) {
        ++Failures;
        break;
      }
    std::free(O.Ptr);
  }
}

/// Phase 2 worker: self-contained malloc/realloc/free churn, run in waves
/// of short-lived threads to cycle through shard tokens.
void churn(unsigned Id) {
  unsigned State = Id * 48271u + 7;
  std::vector<Obj> Live;
  for (int Step = 0; Step < 2000; ++Step) {
    unsigned Op = nextRand(State) % 100;
    if (Op < 50 || Live.empty()) {
      size_t Size = 1 + nextRand(State) % 1024;
      auto *P = static_cast<unsigned char *>(std::malloc(Size));
      if (P == nullptr) {
        ++Failures;
        return;
      }
      auto Tag = static_cast<unsigned char>(nextRand(State));
      std::memset(P, Tag, Size);
      Live.push_back(Obj{P, Size, Tag});
    } else if (Op < 60) {
      Obj &O = Live[nextRand(State) % Live.size()];
      size_t NewSize = 1 + nextRand(State) % 2048;
      auto *Q = static_cast<unsigned char *>(std::realloc(O.Ptr, NewSize));
      if (Q == nullptr) {
        ++Failures;
        return;
      }
      size_t Check = O.Size < NewSize ? O.Size : NewSize;
      for (size_t I = 0; I < Check; ++I)
        if (Q[I] != O.Tag) {
          ++Failures;
          return;
        }
      std::memset(Q, O.Tag, NewSize);
      O.Ptr = Q;
      O.Size = NewSize;
    } else {
      size_t Index = nextRand(State) % Live.size();
      Obj O = Live[Index];
      for (size_t I = 0; I < O.Size; ++I)
        if (O.Ptr[I] != O.Tag) {
          ++Failures;
          return;
        }
      std::free(O.Ptr);
      Live[Index] = Live.back();
      Live.pop_back();
    }
  }
  for (Obj &O : Live)
    std::free(O.Ptr);
}

} // namespace

int main() {
  // Phase 1: cross-thread free through a producer/consumer handoff.
  {
    Handoff Q;
    constexpr int Producers = 4;
    constexpr int Consumers = 4;
    constexpr int PerProducer = 5000;
    std::vector<std::thread> Threads;
    for (int P = 0; P < Producers; ++P)
      Threads.emplace_back(producer, std::ref(Q),
                           static_cast<unsigned>(P) + 1, PerProducer);
    std::vector<std::thread> Eaters;
    for (int C = 0; C < Consumers; ++C)
      Eaters.emplace_back(consumer, std::ref(Q));
    for (std::thread &T : Threads)
      T.join();
    Q.close();
    for (std::thread &T : Eaters)
      T.join();
  }

  // Phase 2: thread churn, several waves of short-lived threads.
  for (int Wave = 0; Wave < 3; ++Wave) {
    std::vector<std::thread> Threads;
    for (int T = 0; T < 12; ++T)
      Threads.emplace_back(churn,
                           static_cast<unsigned>(Wave * 100 + T) + 1);
    for (std::thread &T : Threads)
      T.join();
  }

  // Phase 3: thread-cache hygiene. Every worker has joined (their exit
  // destructors flushed their caches); after flushing the main thread's
  // own cache, no claimed slot may remain parked anywhere. The hooks only
  // resolve when the DieHard shim is preloaded — run stand-alone, this
  // phase is a no-op.
  auto FlushCache = reinterpret_cast<void (*)()>(
      ::dlsym(RTLD_DEFAULT, "diehard_flush_thread_cache"));
  auto CachedSlots = reinterpret_cast<size_t (*)()>(
      ::dlsym(RTLD_DEFAULT, "diehard_cached_slots"));
  if (FlushCache != nullptr && CachedSlots != nullptr) {
    FlushCache();
    size_t Leaked = CachedSlots();
    if (Leaked != 0) {
      std::printf("MT-SHARD-FAIL: %zu cached slots leaked past joins\n",
                  Leaked);
      return 1;
    }
  }

  // Sidecar observability hook: diehard_remote_frees() counts cross-shard
  // frees pushed lock-free (0 is legal — with one shard there is nothing
  // to cross).
  auto RemoteFrees = reinterpret_cast<size_t (*)()>(
      ::dlsym(RTLD_DEFAULT, "diehard_remote_frees"));
  if (RemoteFrees != nullptr)
    (void)RemoteFrees(); // Must be callable and lock-free at any time.

  // Sweeper observability hooks: always callable; with DIEHARD_SWEEPER=1
  // the background thread must complete at least one pass within a few
  // intervals of all this allocator traffic going quiet.
  auto SweepPasses = reinterpret_cast<size_t (*)()>(
      ::dlsym(RTLD_DEFAULT, "diehard_sweep_passes"));
  auto AgedCaches = reinterpret_cast<size_t (*)()>(
      ::dlsym(RTLD_DEFAULT, "diehard_aged_caches"));
  auto PagesReturned = reinterpret_cast<size_t (*)()>(
      ::dlsym(RTLD_DEFAULT, "diehard_pages_returned"));
  if (SweepPasses != nullptr && AgedCaches != nullptr &&
      PagesReturned != nullptr) {
    (void)AgedCaches();    // Must be callable and lock-free at any time.
    (void)PagesReturned();
    const char *Sweeper = std::getenv("DIEHARD_SWEEPER");
    const char *Replicated = std::getenv("DIEHARD_REPLICATED");
    // Replicated mode forces the sweeper off (determinism), so no pass
    // will ever complete there no matter what the env asks for.
    bool Replicating = Replicated != nullptr && Replicated[0] == '1';
    if (Sweeper != nullptr && Sweeper[0] == '1' && !Replicating) {
      bool Swept = false;
      for (int Tick = 0; Tick < 400 && !Swept; ++Tick) {
        Swept = SweepPasses() > 0;
        if (!Swept)
          std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
      if (!Swept) {
        std::puts("MT-SHARD-FAIL: sweeper enabled but no pass completed");
        return 1;
      }
    }
  }

  if (Failures.load() != 0) {
    std::puts("MT-SHARD-FAIL");
    return 1;
  }
  std::puts("MT-SHARD-OK");
  return 0;
}
