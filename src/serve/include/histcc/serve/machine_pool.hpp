#ifndef HISTCC_SERVE_MACHINE_POOL_HPP
#define HISTCC_SERVE_MACHINE_POOL_HPP

/// \file machine_pool.hpp
/// A pool of persistent, reusable SPMD machines.
///
/// A `Machine` parks its worker threads between programs, so consecutive
/// jobs on a slot pay a condition-variable wakeup instead of thread
/// creations.  acquire(p) hands out an idle slot as a RAII lease,
/// preferring a slot that already holds a machine of the requested size.
/// Each slot keeps a small cache of warm machines, one per distinct
/// virtual-processor count, up to `machines_per_slot` entries with the
/// least-recently-used machine evicted when a new size needs room — so
/// under a mixed-width job mix a slot serves every recurring width
/// without rebuilding (size-heterogeneous mode).  machines_per_slot == 1
/// reproduces the original one-machine-per-slot behaviour exactly.
/// machines_built() counts every construction, first builds and rebuilds
/// alike, so tests and benchmarks can assert that a steady workload stops
/// churning.  When every slot is busy, acquire blocks — the pool is the
/// concurrency limiter; the bounded JobQueue in front of it is the memory
/// limiter.

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "histcc/splitc/machine.hpp"

namespace histcc::serve {

class MachinePool {
 public:
  /// \param slots             concurrently leasable machines (>= 1).
  /// \param max_procs         largest virtual-processor count a lease may
  ///                          ask for (power of two).
  /// \param machines_per_slot warm machines each slot caches (>= 1), one
  ///                          per distinct size, LRU-evicted.
  /// \param spread_layout     allocation mode every pooled machine is
  ///                          built with (packed by default; strided is
  ///                          the differential oracle).
  // NOLINTNEXTLINE(bugprone-easily-swappable-parameters): declaration-only;
  // the definition checks the three independently (no joint expression).
  MachinePool(std::uint32_t slots, std::uint32_t max_procs,
              std::uint32_t machines_per_slot = 1,
              splitc::SpreadLayout spread_layout =
                  splitc::SpreadLayout::kPacked);

  MachinePool(const MachinePool&) = delete;
  MachinePool& operator=(const MachinePool&) = delete;

  /// Exclusive use of one pooled machine; releases the slot on
  /// destruction.  Movable, not copyable.
  class Lease {
   public:
    Lease(Lease&& other) noexcept
        : pool_(std::exchange(other.pool_, nullptr)),
          slot_(std::exchange(other.slot_, 0)),
          machine_(std::exchange(other.machine_, nullptr)) {}
    Lease& operator=(Lease&&) = delete;
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    ~Lease() { release(); }

    [[nodiscard]] splitc::Machine& machine() const noexcept {
      return *machine_;
    }

    /// Give the slot back early (idempotent; the destructor also does —
    /// and a moved-from lease is fully inert: no pool, slot, or machine).
    void release() noexcept;

   private:
    friend class MachinePool;
    Lease(MachinePool* pool, std::size_t slot,
          splitc::Machine* machine) noexcept
        : pool_(pool), slot_(slot), machine_(machine) {}

    MachinePool* pool_;
    std::size_t slot_;
    splitc::Machine* machine_;
  };

  /// Lease a warm machine with exactly `procs` virtual processors
  /// (a power of two <= max_procs), blocking until a slot is free.
  [[nodiscard]] Lease acquire(std::uint32_t procs);

  [[nodiscard]] std::uint32_t slots() const noexcept {
    return static_cast<std::uint32_t>(slots_.size());
  }
  [[nodiscard]] std::uint32_t max_procs() const noexcept { return max_procs_; }
  [[nodiscard]] std::uint32_t machines_per_slot() const noexcept {
    return machines_per_slot_;
  }
  /// Allocation mode pooled machines are built with.
  [[nodiscard]] splitc::SpreadLayout spread_layout() const noexcept {
    return spread_layout_;
  }

  /// Machines constructed so far, first builds and rebuilds alike.  A
  /// steady workload converges: once every slot holds the sizes the mix
  /// needs, this stops moving.
  [[nodiscard]] std::uint64_t machines_built() const;

  /// Slots not currently leased.
  [[nodiscard]] std::uint32_t idle() const;

 private:
  /// One cached warm machine and its LRU stamp.
  struct Entry {
    std::unique_ptr<splitc::Machine> machine;
    std::uint64_t last_used = 0;
  };
  struct Slot {
    std::vector<Entry> cache;  ///< distinct sizes, <= machines_per_slot_
    bool busy = false;
  };

  void release_slot(std::size_t index) noexcept;

  mutable std::mutex mutex_;
  std::condition_variable slot_free_;
  std::vector<Slot> slots_;
  std::uint32_t max_procs_;
  std::uint32_t machines_per_slot_;
  splitc::SpreadLayout spread_layout_;
  std::uint64_t built_ = 0;
  std::uint64_t tick_ = 0;  ///< LRU clock, bumped per acquire
};

}  // namespace histcc::serve

#endif  // HISTCC_SERVE_MACHINE_POOL_HPP
