// Tests of the barrier-epoch race ledger (race_ledger.hpp): a deliberately
// protocol-violating program must be detected with a full diagnostic —
// array name, element index, both ranks, and epoch — while the repo's real
// algorithms run clean at several machine sizes.
//
// The racy programs sequence their conflicting accesses with an atomic
// flag, so the two accesses are *physically* ordered on every run: there
// is no C++ data race (ThreadSanitizer stays silent) and no UB.  They
// still violate the publication protocol — same element, different ranks,
// no barrier in between — which is exactly the property the ledger checks,
// and why its detection is deterministic where TSan's is scheduling luck.
//
// Every deliberate-race test runs under both shadow stores (the sharded
// default and the PR-1 mutex oracle) and expects identical diagnostics:
// the sharded store is a performance representation, not a new checker.
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <span>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "histcc/cc/parallel_cc.hpp"
#include "histcc/hist/histogram.hpp"
#include "histcc/image/generators.hpp"
#include "histcc/splitc/machine.hpp"
#include "histcc/splitc/race_ledger.hpp"
#include "histcc/splitc/spread.hpp"

namespace cc = histcc::cc;
namespace im = histcc::img;
namespace sc = histcc::splitc;

namespace {

/// Spin until `flag` reaches `want`; yields so single-CPU hosts make
/// progress.
void await(const std::atomic<int>& flag, int want) {
  while (flag.load(std::memory_order_acquire) != want) {
    std::this_thread::yield();
  }
}

/// Order-insensitive fingerprint of a diagnostic list.  The two shadow
/// stores interleave their per-element checks differently, so equality is
/// up to ordering — exactly the acceptance criterion.
using DiagKey = std::tuple<std::string, std::uint32_t, std::size_t,
                           std::uint64_t, std::uint32_t, int, std::uint32_t,
                           int, int>;

std::multiset<DiagKey> diag_keys(const std::vector<sc::RaceDiagnostic>& ds) {
  std::multiset<DiagKey> keys;
  for (const auto& d : ds) {
    keys.insert({d.array, d.owner, d.offset, d.epoch, d.first_rank,
                 static_cast<int>(d.first_kind), d.second_rank,
                 static_cast<int>(d.second_kind),
                 static_cast<int>(d.target)});
  }
  return keys;
}

std::string mode_name(const ::testing::TestParamInfo<sc::LedgerMode>& info) {
  return info.param == sc::LedgerMode::kSharded ? "Sharded" : "Mutex";
}

}  // namespace

TEST(RaceLedger, CompileFlagIsReportedConsistently) {
  sc::Machine machine(2);
  if (sc::Machine::race_ledger_compiled()) {
    EXPECT_NE(machine.race_ledger(), nullptr);
  } else {
    EXPECT_EQ(machine.race_ledger(), nullptr);
  }
}

TEST(RaceLedger, EpochStartsAtOneAndCountsBarriers) {
  sc::Machine machine(4);
  machine.run([](sc::Proc& self) {
    EXPECT_EQ(self.epoch(), 1u);
    self.barrier();
    EXPECT_EQ(self.epoch(), 2u);
    self.barrier();
    self.barrier();
    EXPECT_EQ(self.epoch(), 4u);
  });
}

// ---------------------------------------------------------------------------
// Deliberate races, parameterized over the shadow-store implementation.

class RaceLedgerModes : public ::testing::TestWithParam<sc::LedgerMode> {
 protected:
  void SetUp() override {
    if (!sc::Machine::race_ledger_compiled()) {
      GTEST_SKIP() << "built without HISTCC_RACE_LEDGER";
    }
  }
};

TEST_P(RaceLedgerModes, WriteWriteConflictIsDetectedWithFullDiagnostic) {
  sc::Machine machine(4);
  machine.set_race_policy(sc::RacePolicy::kRecord);
  machine.set_race_ledger_mode(GetParam());
  sc::Spread<std::uint32_t> data(machine, 8, "racy_buf");

  // Ranks 0 and 1 both put to element 5 of rank 2's block in epoch 1,
  // physically ordered by the flag: a protocol race, not a C++ one.
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
  ASSERT_NE(ledger, nullptr);
  ASSERT_GE(ledger->conflict_count(), 1u);
  const auto diags = ledger->diagnostics();
  ASSERT_FALSE(diags.empty());
  const auto& d = diags.front();
  EXPECT_EQ(d.array, "racy_buf");
  EXPECT_EQ(d.owner, 2u);
  EXPECT_EQ(d.offset, 5u);
  EXPECT_EQ(d.epoch, 1u);
  EXPECT_EQ(d.first_rank, 0u);
  EXPECT_EQ(d.second_rank, 1u);
  EXPECT_EQ(d.first_kind, sc::RaceAccess::kWrite);
  EXPECT_EQ(d.second_kind, sc::RaceAccess::kWrite);
  EXPECT_EQ(d.target, sc::RaceTarget::kPayload);

  // The rendered message names everything a user needs to find the bug.
  const std::string msg = d.to_string();
  EXPECT_NE(msg.find("racy_buf"), std::string::npos) << msg;
  EXPECT_NE(msg.find("element 5"), std::string::npos) << msg;
  EXPECT_NE(msg.find("rank 0"), std::string::npos) << msg;
  EXPECT_NE(msg.find("rank 1"), std::string::npos) << msg;
  EXPECT_NE(msg.find("epoch 1"), std::string::npos) << msg;
}

TEST_P(RaceLedgerModes, ReadOfUnpublishedWriteIsDetected) {
  sc::Machine machine(2);
  machine.set_race_policy(sc::RacePolicy::kRecord);
  machine.set_race_ledger_mode(GetParam());
  sc::Spread<std::uint32_t> data(machine, 4, "unpublished");

  // Rank 0 writes its own block; rank 1 reads it in the same epoch —
  // the missing-barrier bug the publication discipline forbids.
  std::atomic<int> turn{0};
  machine.run([&](sc::Proc& self) {
    if (self.rank() == 0) {
      data.local(self)[0] = 7;
      data.note_local_write(self, 0, 1);
      turn.store(1, std::memory_order_release);
    } else {
      await(turn, 1);
      (void)data.get(self, 0, 0);
    }
    self.barrier();
  });

  auto* ledger = machine.race_ledger();
  ASSERT_NE(ledger, nullptr);
  ASSERT_GE(ledger->conflict_count(), 1u);
  const auto diags = ledger->diagnostics();
  ASSERT_FALSE(diags.empty());
  const auto& d = diags.front();
  EXPECT_EQ(d.array, "unpublished");
  EXPECT_EQ(d.owner, 0u);
  EXPECT_EQ(d.offset, 0u);
  EXPECT_EQ(d.first_kind, sc::RaceAccess::kWrite);
  EXPECT_EQ(d.second_kind, sc::RaceAccess::kRead);
}

TEST_P(RaceLedgerModes, ThrowPolicyRaisesViolationFromRun) {
  sc::Machine machine(2);
  machine.set_race_ledger_mode(GetParam());
  sc::Spread<std::uint32_t> data(machine, 2, "throwing");
  std::atomic<int> turn{0};
  EXPECT_THROW(machine.run([&](sc::Proc& self) {
    if (self.rank() == 0) {
      data.put(self, 1, 0, 1u);
      turn.store(1, std::memory_order_release);
    } else {
      await(turn, 1);
      data.put(self, 1, 0, 2u);
    }
    self.barrier();
  }),
               sc::RaceLedgerViolation);
}

// A size published on a different barrier than its probe: the owner
// resizes (note_local_write republishes the size) and a peer calls
// size_of in the same epoch.  The payload is never read, so only the new
// size pseudo-cell can catch this.
TEST_P(RaceLedgerModes, SizeProbeDesyncIsDetected) {
  sc::Machine machine(2);
  machine.set_race_policy(sc::RacePolicy::kRecord);
  machine.set_race_ledger_mode(GetParam());
  sc::SpreadVec<std::uint32_t> chg(machine, "chg");

  std::atomic<int> turn{0};
  machine.run([&](sc::Proc& self) {
    if (self.rank() == 0) {
      chg.local(self).assign(5, 42u);
      chg.note_local_write(self);
      turn.store(1, std::memory_order_release);
    } else {
      await(turn, 1);
      (void)chg.size_of(self, 0);  // probes the un-barriered size
    }
    self.barrier();
  });

  auto* ledger = machine.race_ledger();
  ASSERT_NE(ledger, nullptr);
  ASSERT_EQ(ledger->conflict_count(), 1u);
  const auto diags = ledger->diagnostics();
  ASSERT_FALSE(diags.empty());
  const auto& d = diags.front();
  EXPECT_EQ(d.array, "chg");
  EXPECT_EQ(d.owner, 0u);
  EXPECT_EQ(d.epoch, 1u);
  EXPECT_EQ(d.target, sc::RaceTarget::kSize);
  EXPECT_EQ(d.first_rank, 0u);
  EXPECT_EQ(d.first_kind, sc::RaceAccess::kWrite);
  EXPECT_EQ(d.second_rank, 1u);
  EXPECT_EQ(d.second_kind, sc::RaceAccess::kRead);

  const std::string msg = d.to_string();
  EXPECT_NE(msg.find("size of rank 0's block"), std::string::npos) << msg;
  EXPECT_NE(msg.find("epoch 1"), std::string::npos) << msg;
}

TEST_P(RaceLedgerModes, SizePublishedAcrossBarrierIsClean) {
  sc::Machine machine(2);
  machine.set_race_ledger_mode(GetParam());
  sc::SpreadVec<std::uint32_t> chg(machine, "chg_clean");
  machine.run([&](sc::Proc& self) {
    chg.local(self).assign(3 + self.rank(), self.rank());
    chg.note_local_write(self);
    self.barrier();  // publishes payload *and* size
    const std::uint32_t peer = 1 - self.rank();
    EXPECT_EQ(chg.size_of(self, peer), 3 + peer);
    self.sync();
    self.barrier();
  });
  EXPECT_EQ(machine.race_ledger()->conflict_count(), 0u);
}

// Host-side block() taken while the SPMD program runs bypasses the Proc
// access paths; the ledger records it under the host pseudo-rank at the
// machine's current barrier generation and diagnoses the conflict.
TEST_P(RaceLedgerModes, HostBlockProbeDuringRunIsDetected) {
  sc::Machine machine(2);
  machine.set_race_policy(sc::RacePolicy::kRecord);
  machine.set_race_ledger_mode(GetParam());
  sc::Spread<std::uint32_t> data(machine, 4, "host_probed");

  std::atomic<int> turn{0};
  machine.run([&](sc::Proc& self) {
    if (self.rank() == 0) {
      data.local(self)[2] = 9u;
      data.note_local_write(self, 2, 1);
      turn.store(1, std::memory_order_release);
    } else {
      await(turn, 1);
      // A host-style probe of rank 0's block from inside the run — the
      // bypass the instrumented access paths used to miss entirely.
      (void)data.block(0);
    }
    self.barrier();
  });

  auto* ledger = machine.race_ledger();
  ASSERT_NE(ledger, nullptr);
  ASSERT_GE(ledger->conflict_count(), 1u);
  const auto diags = ledger->diagnostics();
  ASSERT_FALSE(diags.empty());
  const auto& d = diags.front();
  EXPECT_EQ(d.array, "host_probed");
  EXPECT_EQ(d.owner, 0u);
  EXPECT_EQ(d.offset, 2u);
  EXPECT_EQ(d.epoch, 1u);
  EXPECT_EQ(d.first_rank, 0u);
  EXPECT_EQ(d.second_rank, sc::kHostRank);
  const std::string msg = d.to_string();
  EXPECT_NE(msg.find("the host"), std::string::npos) << msg;
}

TEST_P(RaceLedgerModes, HostBlockProbeOutsideRunIsFree) {
  sc::Machine machine(2);
  machine.set_race_ledger_mode(GetParam());
  sc::Spread<std::uint32_t> data(machine, 4, "host_outside");
  data.block(0)[0] = 1u;  // before the run: host owns everything
  machine.run([&](sc::Proc& self) {
    data.note_local_write(self);
    self.barrier();
  });
  EXPECT_EQ(data.block(0)[0], 1u);  // after the run: equally free
  EXPECT_EQ(machine.race_ledger()->conflict_count(), 0u);
}

// Overlapping multi-element races: both stores must agree element by
// element (as a multiset — their check interleavings differ).
TEST(RaceLedger, ShardedAndMutexAgreeOnOverlappingRaces) {
  if (!sc::Machine::race_ledger_compiled()) {
    GTEST_SKIP() << "built without HISTCC_RACE_LEDGER";
  }
  auto run_racy = [](sc::LedgerMode mode) {
    sc::Machine machine(4);
    machine.set_race_policy(sc::RacePolicy::kRecord);
    machine.set_race_ledger_mode(mode);
    sc::Spread<std::uint32_t> data(machine, 16, "mode_cmp");
    std::vector<std::uint32_t> buf(8, 1u);
    std::atomic<int> turn{0};
    machine.run([&](sc::Proc& self) {
      if (self.rank() == 0) {
        data.put_block(self, 3, 0, std::span<const std::uint32_t>(buf).first(6));
        turn.store(1, std::memory_order_release);
      } else if (self.rank() == 1) {
        await(turn, 1);
        data.put_block(self, 3, 4, std::span<const std::uint32_t>(buf).first(4));
        turn.store(2, std::memory_order_release);
      } else if (self.rank() == 2) {
        await(turn, 2);
        std::vector<std::uint32_t> dst(4);
        data.prefetch(self, dst, 3, 6, 4);
      }
      self.barrier();
    });
    return diag_keys(machine.race_ledger()->diagnostics());
  };

  const auto sharded = run_racy(sc::LedgerMode::kSharded);
  const auto mutex = run_racy(sc::LedgerMode::kMutex);
  // Writes [0,6) and [4,8) overlap on {4,5}; the read [6,10) overlaps the
  // second write on {6,7}: two WW and two WR diagnostics.
  EXPECT_EQ(sharded.size(), 4u);
  EXPECT_EQ(sharded, mutex);
}

// ledger_checks metering must stay exact under sharding: every recorded
// element is one check, size probes count one each, in both stores.
TEST(RaceLedger, CheckMeteringIsExactInBothModes) {
  if (!sc::Machine::race_ledger_compiled()) {
    GTEST_SKIP() << "built without HISTCC_RACE_LEDGER";
  }
  for (const auto mode : {sc::LedgerMode::kSharded, sc::LedgerMode::kMutex}) {
    sc::Machine machine(2);
    machine.set_race_ledger_mode(mode);
    sc::Spread<std::uint32_t> data(machine, 4, "metered");
    machine.run([&](sc::Proc& self) {
      data.note_local_write(self, 0, 4);  // 4 checks
      self.barrier();
      (void)data.get(self, 1 - self.rank(), 0);  // 1 check
      self.sync();
      self.barrier();
    });
    EXPECT_EQ(machine.race_ledger()->check_count(), 2u * (4u + 1u));
    EXPECT_EQ(machine.stats(0).ledger_checks, 5u);
    EXPECT_EQ(machine.stats(1).ledger_checks, 5u);
  }
}

INSTANTIATE_TEST_SUITE_P(ShadowStores, RaceLedgerModes,
                         ::testing::Values(sc::LedgerMode::kSharded,
                                           sc::LedgerMode::kMutex),
                         mode_name);

// ---------------------------------------------------------------------------

TEST(RaceLedger, BarrierSeparatedAccessesAreClean) {
  if (!sc::Machine::race_ledger_compiled()) {
    GTEST_SKIP() << "built without HISTCC_RACE_LEDGER";
  }
  sc::Machine machine(4);
  sc::Spread<std::uint32_t> data(machine, 4, "published");
  // The correct version of the protocol: write, barrier, then read.
  machine.run([&](sc::Proc& self) {
    data.local(self)[0] = self.rank();
    data.note_local_write(self, 0, 1);
    self.barrier();
    const std::uint32_t next = (self.rank() + 1) % machine.nprocs();
    EXPECT_EQ(data.get(self, next, 0), next);
    self.sync();
    self.barrier();
  });
  auto* ledger = machine.race_ledger();
  ASSERT_NE(ledger, nullptr);
  EXPECT_EQ(ledger->conflict_count(), 0u);
  EXPECT_GT(ledger->check_count(), 0u);
}

TEST(RaceLedger, LedgerStateResetsBetweenRuns) {
  if (!sc::Machine::race_ledger_compiled()) {
    GTEST_SKIP() << "built without HISTCC_RACE_LEDGER";
  }
  sc::Machine machine(2);
  machine.set_race_policy(sc::RacePolicy::kRecord);
  sc::Spread<std::uint32_t> data(machine, 2, "reset_me");
  std::atomic<int> turn{0};
  machine.run([&](sc::Proc& self) {
    if (self.rank() == 0) {
      data.put(self, 1, 0, 1u);
      turn.store(1, std::memory_order_release);
    } else {
      await(turn, 1);
      data.put(self, 1, 0, 2u);
    }
    self.barrier();
  });
  ASSERT_GE(machine.race_ledger()->conflict_count(), 1u);

  // A clean follow-up program must start from a blank ledger: neither the
  // old diagnostics nor the old shadow cells may leak into this run.
  machine.run([&](sc::Proc& self) {
    data.local(self)[0] = 9;
    data.note_local_write(self, 0, 1);
    self.barrier();
  });
  EXPECT_EQ(machine.race_ledger()->conflict_count(), 0u);
}

// The acceptance gate: the paper's algorithms, which follow the
// publication discipline, must produce zero conflicts — no false
// positives — at several machine sizes, under the throwing policy.  This
// now also exercises the size-probe tracking: parallel_cc's merge phase
// probes SpreadVec sizes every round.
class RaceLedgerCleanAlgorithms : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(RaceLedgerCleanAlgorithms, ParallelCcRunsClean) {
  const std::uint32_t p = GetParam();
  sc::Machine machine(p);  // RacePolicy::kThrow is the default
  const auto image = im::make_test_pattern(im::TestPattern::kDualSpiral, 64);
  EXPECT_NO_THROW({
    (void)cc::connected_components_parallel(machine, image, cc::CcOptions{});
  });
  if (sc::Machine::race_ledger_compiled()) {
    EXPECT_EQ(machine.race_ledger()->conflict_count(), 0u);
    EXPECT_GT(machine.race_ledger()->check_count(), 0u);
  }
}

TEST_P(RaceLedgerCleanAlgorithms, HistogramRunsClean) {
  const std::uint32_t p = GetParam();
  sc::Machine machine(p);
  const auto image = im::make_test_pattern(im::TestPattern::kCircles, 64);
  EXPECT_NO_THROW({ (void)histcc::hist::histogram_parallel(machine, image, 64); });
  if (sc::Machine::race_ledger_compiled()) {
    EXPECT_EQ(machine.race_ledger()->conflict_count(), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(MachineSizes, RaceLedgerCleanAlgorithms,
                         ::testing::Values(1u, 4u, 16u));
