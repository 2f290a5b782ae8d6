#include "histcc/serve/machine_pool.hpp"

#include <algorithm>

#include "histcc/util/math.hpp"
#include "histcc/util/require.hpp"

namespace histcc::serve {

MachinePool::MachinePool(std::uint32_t slots, std::uint32_t max_procs,
                         std::uint32_t machines_per_slot,
                         splitc::SpreadLayout spread_layout)
    : slots_(slots), max_procs_(max_procs),
      machines_per_slot_(machines_per_slot),
      spread_layout_(spread_layout) {
  HISTCC_REQUIRE(slots >= 1, "pool needs at least one slot");
  HISTCC_REQUIRE(max_procs >= 1 && util::is_pow2(max_procs),
                 "max_procs must be a power of two");
  HISTCC_REQUIRE(machines_per_slot >= 1,
                 "each slot caches at least one machine");
}

MachinePool::Lease MachinePool::acquire(std::uint32_t procs) {
  HISTCC_REQUIRE(procs >= 1 && util::is_pow2(procs) && procs <= max_procs_,
                 "lease size must be a power of two within max_procs");
  std::unique_lock lock(mutex_);
  for (;;) {
    // Best idle slot: one already caching an exact-size machine beats one
    // with spare cache room beats one that must evict its LRU entry.
    std::size_t chosen = slots_.size();
    bool chosen_exact = false;
    bool chosen_spare = false;
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      const Slot& slot = slots_[i];
      if (slot.busy) continue;
      const bool exact = std::any_of(
          slot.cache.begin(), slot.cache.end(), [&](const Entry& e) {
            return e.machine->nprocs() == procs;
          });
      if (exact) {
        chosen = i;
        chosen_exact = true;
        break;
      }
      const bool spare = slot.cache.size() < machines_per_slot_;
      if (chosen == slots_.size() || (spare && !chosen_spare)) {
        chosen = i;
        chosen_spare = spare;
      }
    }
    if (chosen < slots_.size()) {
      Slot& slot = slots_[chosen];
      Entry* entry = nullptr;
      if (chosen_exact) {
        for (Entry& e : slot.cache) {
          if (e.machine->nprocs() == procs) {
            entry = &e;
            break;
          }
        }
      } else if (slot.cache.size() < machines_per_slot_) {
        entry = &slot.cache.emplace_back();
      } else {
        // Evict the least-recently-used size to make room.
        entry = &*std::min_element(
            slot.cache.begin(), slot.cache.end(),
            [](const Entry& a, const Entry& b) {
              return a.last_used < b.last_used;
            });
        entry->machine.reset();
      }
      if (!entry->machine) {
        entry->machine = std::make_unique<splitc::Machine>(procs);
        entry->machine->set_spread_layout(spread_layout_);
        built_ += 1;
      }
      entry->last_used = ++tick_;
      slot.busy = true;
      return Lease(this, chosen, entry->machine.get());
    }
    slot_free_.wait(lock);
  }
}

void MachinePool::release_slot(std::size_t index) noexcept {
  {
    std::scoped_lock lock(mutex_);
    slots_[index].busy = false;
  }
  slot_free_.notify_one();
}

void MachinePool::Lease::release() noexcept {
  if (pool_ == nullptr) return;
  pool_->release_slot(slot_);
  pool_ = nullptr;
  machine_ = nullptr;
}

std::uint64_t MachinePool::machines_built() const {
  std::scoped_lock lock(mutex_);
  return built_;
}

std::uint32_t MachinePool::idle() const {
  std::scoped_lock lock(mutex_);
  std::uint32_t n = 0;
  for (const Slot& slot : slots_) n += slot.busy ? 0u : 1u;
  return n;
}

}  // namespace histcc::serve
