//===- support/RelaxedCounter.h - lock-written counter ----------*- C++ -*-===//
//
// Part of the DieHard reproduction (Berger & Zorn, PLDI 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A counter written under its owner's lock and read by anyone without it.
///
//===----------------------------------------------------------------------===//

#ifndef DIEHARD_SUPPORT_RELAXEDCOUNTER_H
#define DIEHARD_SUPPORT_RELAXEDCOUNTER_H

#include <atomic>
#include <cstdint>

namespace diehard {

/// A counter mutated only under an external lock (a partition lock, the
/// large-object lock) but readable by anyone without it. The store
/// and load are relaxed atomics — on mainstream hardware a plain move — so
/// the mutation stays as cheap as a non-atomic increment while unlocked
/// readers (statsApprox(), the shim's stats dump) stay race-free. NOT an
/// atomic counter: concurrent unsynchronized writers would lose updates,
/// which is exactly why writes require the owner's lock.
class RelaxedCounter {
public:
  RelaxedCounter() = default;
  RelaxedCounter(const RelaxedCounter &) = delete;
  RelaxedCounter &operator=(const RelaxedCounter &) = delete;

  RelaxedCounter &operator++() {
    add(1);
    return *this;
  }
  RelaxedCounter &operator+=(uint64_t N) {
    add(N);
    return *this;
  }
  RelaxedCounter &operator-=(uint64_t N) {
    Value.store(Value.load(std::memory_order_relaxed) - N,
                std::memory_order_relaxed);
    return *this;
  }
  /// Lock-free read.
  operator uint64_t() const { return Value.load(std::memory_order_relaxed); }

private:
  void add(uint64_t N) {
    Value.store(Value.load(std::memory_order_relaxed) + N,
                std::memory_order_relaxed);
  }
  std::atomic<uint64_t> Value{0};
};

} // namespace diehard

#endif // DIEHARD_SUPPORT_RELAXEDCOUNTER_H
