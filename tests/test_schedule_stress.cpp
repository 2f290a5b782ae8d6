// Schedule-perturbation stress: Machine::set_schedule_perturbation injects
// seeded pre-barrier delays per rank, shuffling which interleavings the OS
// realises.  Two properties must hold across seeds:
//
//   1. The paper's algorithms are schedule-independent: identical results
//      and zero ledger conflicts under every perturbation seed.
//   2. The ledger's *detection* is schedule-independent — the gap TSan
//      leaves.  A protocol-racy program yields the identical diagnostic
//      under every seed, because the check keys on (rank, barrier epoch),
//      not on physical timing.
//
// Seed selection: the fixed catalog below runs everywhere (deterministic,
// reproducible).  Setting HISTCC_STRESS_RANDOM=1 switches to freshly
// drawn random seeds — the nightly CI mode, which walks a different part
// of the schedule space on every run.  HISTCC_STRESS_SEEDS sets how many
// (default 8).  Every seed is printed, and every assertion names its
// seed, so a nightly failure is replayable with the fixed catalog
// temporarily extended by the printed value.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "histcc/cc/parallel_cc.hpp"
#include "histcc/cc_seq/bfs_label.hpp"
#include "histcc/hist/histogram.hpp"
#include "histcc/image/generators.hpp"
#include "histcc/splitc/machine.hpp"
#include "histcc/splitc/race_ledger.hpp"
#include "histcc/splitc/spread.hpp"
#include "stress_seeds.hpp"

namespace cc = histcc::cc;
namespace ccseq = histcc::ccseq;
namespace hist = histcc::hist;
namespace im = histcc::img;
namespace sc = histcc::splitc;

namespace {

constexpr std::uint64_t kFixedSeeds[] = {1,          2,       42,
                                         0xDEADBEEF, 7777777, 987654321012345ull};

/// The seed sweep for this process (stress_seeds.hpp), drawn once so both
/// tests see the same seeds.
const std::vector<std::uint64_t>& stress_seeds() {
  static const std::vector<std::uint64_t> seeds = stress_seed_sweep(kFixedSeeds);
  return seeds;
}

void await(const std::atomic<int>& flag, int want) {
  while (flag.load(std::memory_order_acquire) != want) {
    std::this_thread::yield();
  }
}

}  // namespace

TEST(ScheduleStress, AlgorithmsAreScheduleIndependent) {
  const auto image = im::make_test_pattern(im::TestPattern::kDualSpiral, 64);
  const auto want_labels = ccseq::label_components_bfs(image);
  const auto want_hist = hist::histogram_seq(image, 2);

  for (const std::uint64_t seed : stress_seeds()) {
    sc::Machine machine(16);  // RacePolicy::kThrow: conflicts abort the run
    machine.set_schedule_perturbation(seed);

    const auto labels =
        cc::connected_components_parallel(machine, image, cc::CcOptions{});
    ASSERT_EQ(labels.pixels().size(), want_labels.pixels().size());
    for (std::size_t i = 0; i < labels.pixels().size(); ++i) {
      ASSERT_EQ(labels.pixels()[i], want_labels.pixels()[i])
          << "seed " << seed << " pixel " << i;
    }

    EXPECT_EQ(hist::histogram_parallel(machine, image, 2), want_hist)
        << "seed " << seed;

    if (sc::Machine::race_ledger_compiled()) {
      EXPECT_EQ(machine.race_ledger()->conflict_count(), 0u)
          << "seed " << seed;
    }
  }
}

TEST(ScheduleStress, DetectionIsScheduleIndependent) {
  if (!sc::Machine::race_ledger_compiled()) {
    GTEST_SKIP() << "built without HISTCC_RACE_LEDGER";
  }
  for (const std::uint64_t seed : stress_seeds()) {
    sc::Machine machine(4);
    machine.set_race_policy(sc::RacePolicy::kRecord);
    machine.set_schedule_perturbation(seed);
    sc::Spread<std::uint32_t> data(machine, 8, "stress_racy");

    // The same flag-sequenced protocol race as the ledger suite: no C++
    // data race, but a write-write conflict in epoch 1.
    std::atomic<int> turn{0};
    machine.run([&](sc::Proc& self) {
      if (self.rank() == 0) {
        data.put(self, 2, 5, 111u);
        turn.store(1, std::memory_order_release);
      } else if (self.rank() == 1) {
        await(turn, 1);
        data.put(self, 2, 5, 222u);
      }
      self.barrier();
    });

    auto* ledger = machine.race_ledger();
    ASSERT_EQ(ledger->conflict_count(), 1u) << "seed " << seed;
    const auto diags = ledger->diagnostics();
    ASSERT_EQ(diags.size(), 1u) << "seed " << seed;
    const auto& d = diags.front();
    EXPECT_EQ(d.array, "stress_racy") << "seed " << seed;
    EXPECT_EQ(d.owner, 2u);
    EXPECT_EQ(d.offset, 5u);
    EXPECT_EQ(d.epoch, 1u);
    EXPECT_EQ(d.first_rank, 0u);
    EXPECT_EQ(d.second_rank, 1u);
  }
}

TEST(ScheduleStress, PerturbationOffByDefaultAndResettable) {
  sc::Machine machine(4);
  // Seed 0 explicitly turns perturbation off again after a seeded run.
  machine.set_schedule_perturbation(123);
  machine.run([](sc::Proc& self) { self.barrier(); });
  machine.set_schedule_perturbation(0);
  machine.run([](sc::Proc& self) {
    self.barrier();
    EXPECT_EQ(self.epoch(), 2u);
  });
}
