// Tests for the SPMD runtime: machine lifecycle, barriers, spread arrays,
// split-phase semantics, BDM cost accounting, and error propagation.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>

#include "histcc/splitc/machine.hpp"
#include "histcc/splitc/profile.hpp"
#include "histcc/splitc/spread.hpp"
#include "histcc/util/require.hpp"

namespace sc = histcc::splitc;

TEST(MachineTest, RejectsNonPowerOfTwo) {
  EXPECT_THROW(sc::Machine m(3), histcc::util::contract_error);
  EXPECT_THROW(sc::Machine m(0), histcc::util::contract_error);
  EXPECT_THROW(sc::Machine m(12), histcc::util::contract_error);
}

TEST(MachineTest, GridShape) {
  sc::Machine m(8);
  EXPECT_EQ(m.nprocs(), 8u);
  EXPECT_EQ(m.grid().rows, 2u);
  EXPECT_EQ(m.grid().cols, 4u);
}

TEST(MachineTest, RunsAllRanksExactlyOnce) {
  sc::Machine m(16);
  std::vector<std::atomic<int>> counts(16);
  m.run([&](sc::Proc& self) { counts[self.rank()]++; });
  for (const auto& c : counts) EXPECT_EQ(c.load(), 1);
}

TEST(MachineTest, SingleProcessorRunsInline) {
  sc::Machine m(1);
  const auto host_thread = std::this_thread::get_id();
  std::thread::id seen;
  m.run([&](sc::Proc& self) {
    seen = std::this_thread::get_id();
    EXPECT_EQ(self.rank(), 0u);
    EXPECT_EQ(self.nprocs(), 1u);
    self.barrier();  // must not deadlock with one participant
  });
  EXPECT_TRUE(seen == host_thread);
}

TEST(MachineTest, GridPositionRowMajor) {
  sc::Machine m(8);  // 2 x 4
  m.run([&](sc::Proc& self) {
    EXPECT_EQ(self.grid_row(), self.rank() / 4);
    EXPECT_EQ(self.grid_col(), self.rank() % 4);
  });
}

TEST(MachineTest, BarrierSynchronizes) {
  sc::Machine m(8);
  std::atomic<int> before{0};
  std::atomic<bool> violated{false};
  m.run([&](sc::Proc& self) {
    before++;
    self.barrier();
    if (before.load() != 8) violated = true;
  });
  EXPECT_FALSE(violated.load());
}

TEST(MachineTest, ManyConsecutiveBarriers) {
  sc::Machine m(8);
  std::atomic<long> sum{0};
  m.run([&](sc::Proc&) {
    for (int i = 0; i < 200; ++i) sum++;
  });
  // Sanity only; the real check is that this pattern terminates.
  sc::Machine m2(4);
  std::vector<int> counter(4, 0);
  m2.run([&](sc::Proc& self) {
    for (int i = 0; i < 100; ++i) {
      self.barrier();
      counter[self.rank()]++;
    }
  });
  for (int c : counter) EXPECT_EQ(c, 100);
}

TEST(MachineTest, ExceptionPropagatesToHost) {
  sc::Machine m(4);
  EXPECT_THROW(m.run([&](sc::Proc& self) {
    if (self.rank() == 2) throw std::runtime_error("boom");
    // Peers head to a barrier; the abort must release them rather than
    // deadlock the join.
    self.barrier();
  }),
               std::runtime_error);
}

TEST(MachineTest, MachineUsableAfterAbortedRun) {
  sc::Machine m(4);
  EXPECT_THROW(m.run([&](sc::Proc& self) {
    if (self.rank() == 0) throw std::runtime_error("first");
    self.barrier();
  }),
               std::runtime_error);
  std::atomic<int> ok{0};
  m.run([&](sc::Proc& self) {
    self.barrier();
    ok++;
    self.barrier();
  });
  EXPECT_EQ(ok.load(), 4);
}

TEST(SpreadTest, LocalBlocksAreIndependent) {
  sc::Machine m(8);
  sc::Spread<std::uint32_t> a(m, 16);
  m.run([&](sc::Proc& self) {
    auto block = a.local(self);
    ASSERT_EQ(block.size(), 16u);
    for (auto& x : block) x = self.rank();
  });
  for (std::uint32_t rank = 0; rank < 8; ++rank) {
    for (const auto x : a.block(rank)) EXPECT_EQ(x, rank);
  }
}

TEST(SpreadTest, PrefetchMovesRemoteBlock) {
  sc::Machine m(4);
  sc::Spread<std::uint32_t> src(m, 8);
  sc::Spread<std::uint32_t> dst(m, 8);
  for (std::uint32_t rank = 0; rank < 4; ++rank) {
    auto b = src.block(rank);
    std::iota(b.begin(), b.end(), rank * 100);
  }
  m.run([&](sc::Proc& self) {
    const std::uint32_t from = (self.rank() + 1) % 4;
    auto mine = dst.local(self);
    src.prefetch(self, mine, from, 0, 8);
    self.sync();
    for (std::size_t i = 0; i < 8; ++i) {
      EXPECT_EQ(mine[i], from * 100 + i);
    }
  });
}

TEST(SpreadTest, GetPutSingleElements) {
  sc::Machine m(4);
  sc::Spread<std::uint32_t> a(m, 4);
  m.run([&](sc::Proc& self) {
    // Everybody writes slot `rank` of processor (rank+1)%4.
    a.put(self, (self.rank() + 1) % 4, self.rank(), self.rank() + 7);
    self.barrier();
    // Processor (rank+3)%4's slot (rank+2)%4 was written by writer
    // (rank+2)%4 with value (rank+2)%4 + 7.
    const auto value = a.get(self, (self.rank() + 3) % 4, (self.rank() + 2) % 4);
    EXPECT_EQ(value, ((self.rank() + 2) % 4) + 7);
  });
}

TEST(SpreadTest, BoundsAreChecked) {
  sc::Machine m(2);
  sc::Spread<std::uint32_t> a(m, 4);
  EXPECT_THROW((void)a.block(2), histcc::util::contract_error);
  m.run([&](sc::Proc& self) {
    std::vector<std::uint32_t> buf(8);
    EXPECT_THROW(a.prefetch(self, buf, 5, 0, 4), histcc::util::contract_error);
    EXPECT_THROW(a.prefetch(self, buf, 0, 2, 4), histcc::util::contract_error);
    EXPECT_THROW((void)a.get(self, 0, 99), histcc::util::contract_error);
  });
}

TEST(StatsTest, LocalAccessIsFree) {
  sc::Machine m(2);
  sc::Spread<std::uint32_t> a(m, 8);
  m.run([&](sc::Proc& self) {
    std::vector<std::uint32_t> buf(8);
    a.prefetch(self, buf, self.rank(), 0, 8);  // local
    self.sync();
  });
  EXPECT_EQ(m.total_stats().words, 0u);
  EXPECT_EQ(m.total_stats().messages, 0u);
}

TEST(StatsTest, RemoteWordsCounted) {
  sc::Machine m(2);
  sc::Spread<std::uint32_t> a(m, 8);
  m.run([&](sc::Proc& self) {
    if (self.rank() == 0) {
      std::vector<std::uint32_t> buf(8);
      a.prefetch(self, buf, 1, 0, 8);
      self.sync();
    }
    self.barrier();
  });
  EXPECT_EQ(m.stats(0).words, 8u);     // 8 x uint32 = 8 words
  EXPECT_EQ(m.stats(0).messages, 1u);
  EXPECT_EQ(m.stats(1).words, 0u);
}

TEST(StatsTest, BatchingFollowsSyncs) {
  sc::Machine m(2);
  sc::Spread<std::uint32_t> a(m, 4);
  m.run([&](sc::Proc& self) {
    if (self.rank() == 0) {
      std::vector<std::uint32_t> buf(4);
      // Two prefetches, one sync: one pipelined batch.
      a.prefetch(self, buf, 1, 0, 2);
      a.prefetch(self, buf, 1, 2, 2);
      self.sync();
      // One prefetch, one sync: a second batch.
      a.prefetch(self, buf, 1, 0, 4);
      self.sync();
      // Empty sync: no batch.
      self.sync();
    }
    self.barrier();
  });
  EXPECT_EQ(m.stats(0).batches, 2u);
  EXPECT_EQ(m.stats(0).messages, 3u);
  EXPECT_EQ(m.stats(0).words, 8u);
}

TEST(StatsTest, SmallElementsRoundUpToWords) {
  sc::Machine m(2);
  sc::Spread<std::uint8_t> bytes(m, 16);
  m.run([&](sc::Proc& self) {
    if (self.rank() == 0) {
      std::vector<std::uint8_t> buf(16);
      bytes.prefetch(self, buf, 1, 0, 16);
      self.sync();
    }
    self.barrier();
  });
  // A uint8_t still occupies (at least) one BDM word per element.
  EXPECT_EQ(m.stats(0).words, 16u);
}

TEST(StatsTest, AggregatesAndReset) {
  sc::Machine m(4);
  sc::Spread<std::uint32_t> a(m, 4);
  m.run([&](sc::Proc& self) {
    std::vector<std::uint32_t> buf(4);
    a.prefetch(self, buf, (self.rank() + 1) % 4, 0, 4);
    self.sync();
    self.barrier();
  });
  EXPECT_EQ(m.total_stats().words, 16u);
  EXPECT_EQ(m.max_stats().words, 4u);
  EXPECT_EQ(m.max_stats().barriers, 1u);
  m.reset_stats();
  EXPECT_EQ(m.total_stats().words, 0u);
}

TEST(SpreadVecTest, ResizePublishRead) {
  sc::Machine m(4);
  sc::SpreadVec<std::uint32_t> v(m);
  m.run([&](sc::Proc& self) {
    auto& mine = v.local(self);
    mine.assign(self.rank() + 1, self.rank());
    self.barrier();
    const std::uint32_t peer = (self.rank() + 1) % 4;
    const std::size_t len = v.size_of(self, peer);
    EXPECT_EQ(len, peer + 1);
    std::vector<std::uint32_t> buf(len);
    v.prefetch(self, buf, peer, 0, len);
    self.sync();
    for (const auto x : buf) EXPECT_EQ(x, peer);
  });
}

TEST(ProfileTest, PaperMachinesResolvable) {
  for (const char* name : {"CM-5", "SP-1", "SP-2", "CS-2", "Paragon"}) {
    const auto prof = sc::profile_by_name(name);
    EXPECT_EQ(prof.name, name);
    EXPECT_GT(prof.bandwidth_MBps, 0.0);
    EXPECT_GT(prof.latency_us, 0.0);
    EXPECT_LE(prof.bandwidth_MBps, prof.peak_MBps);
  }
}

TEST(ProfileTest, CommModelScalesWithWordsAndBatches) {
  const auto cm5 = sc::cm5();
  const double one_batch = cm5.comm_seconds(1, 1000);
  const double two_batches = cm5.comm_seconds(2, 1000);
  const double more_words = cm5.comm_seconds(1, 2000);
  EXPECT_GT(two_batches, one_batch);
  EXPECT_GT(more_words, one_batch);
  // Latency term: exactly one extra tau.
  EXPECT_NEAR(two_batches - one_batch, cm5.latency_us * 1e-6, 1e-12);
}

TEST(ProfileTest, ModeledTimesFromStats) {
  sc::CommStats stats;
  stats.batches = 10;
  stats.words = 1000;
  stats.barriers = 5;
  stats.local_ops = 1000000;
  const auto prof = sc::sp2();
  EXPECT_GT(stats.modeled_comm_seconds(prof), 0.0);
  EXPECT_GT(stats.modeled_comp_seconds(prof), 0.0);
  // Word term alone: 1000 words * 4 bytes at 24.8 MB/s.
  const double words_only = 1000.0 * 4.0 / (24.8e6);
  EXPECT_GT(stats.modeled_comm_seconds(prof), words_only);
}

TEST(ServedWordsTest, SourceSideAccounting) {
  sc::Machine m(4);
  sc::Spread<std::uint32_t> a(m, 8);
  m.run([&](sc::Proc& self) {
    // Every processor pulls all 8 words from processor 2 (rank 2's pull
    // is local and free).
    std::vector<std::uint32_t> buf(8);
    a.prefetch(self, buf, 2, 0, 8);
    self.sync();
  });
  EXPECT_EQ(m.served_words(2), 3u * 8u);
  EXPECT_EQ(m.served_words(0), 0u);
  // Port load at rank 2: served 24, moved 0; everyone else moved 8.
  EXPECT_EQ(m.max_port_words(), 24u);
}

TEST(ServedWordsTest, ResetBetweenRuns) {
  sc::Machine m(2);
  sc::Spread<std::uint32_t> a(m, 4);
  m.run([&](sc::Proc& self) {
    if (self.rank() == 0) {
      std::vector<std::uint32_t> buf(4);
      a.prefetch(self, buf, 1, 0, 4);
      self.sync();
    }
    self.barrier();
  });
  EXPECT_EQ(m.served_words(1), 4u);
  m.run([](sc::Proc& self) { self.barrier(); });
  EXPECT_EQ(m.served_words(1), 0u);
}

// ---------------------------------------------------------------------------
// Machine reuse.  The serving pool (histcc/serve/machine_pool.hpp) keeps
// machines warm across jobs, so nothing may leak from one run() to the
// next: ledgers, served counters, barrier state, epochs, diagnostics.

TEST(MachineReuseTest, StatsFullyResetBetweenRuns) {
  sc::Machine m(4);
  sc::Spread<std::uint32_t> a(m, 8);
  m.run([&](sc::Proc& self) {
    std::vector<std::uint32_t> buf(8);
    a.prefetch(self, buf, (self.rank() + 1) % 4, 0, 8);
    self.sync();
    self.barrier();
  });
  EXPECT_GT(m.total_stats().words, 0u);
  EXPECT_GT(m.total_stats().messages, 0u);
  EXPECT_GT(m.max_port_words(), 0u);

  m.run([](sc::Proc&) {});
  const auto total = m.total_stats();
  EXPECT_EQ(total.words, 0u);
  EXPECT_EQ(total.messages, 0u);
  EXPECT_EQ(total.batches, 0u);
  EXPECT_EQ(total.barriers, 0u);
  EXPECT_EQ(total.local_ops, 0u);
  EXPECT_EQ(m.max_port_words(), 0u);
  for (std::uint32_t rank = 0; rank < 4; ++rank) {
    EXPECT_EQ(m.served_words(rank), 0u);
  }
}

TEST(MachineReuseTest, EpochRestartsAtOneEachRun) {
  sc::Machine m(4);
  std::atomic<std::uint64_t> max_epoch{0};
  m.run([&](sc::Proc& self) {
    EXPECT_EQ(self.epoch(), 1u);
    self.barrier();
    self.barrier();
    std::uint64_t seen = max_epoch.load();
    while (seen < self.epoch() &&
           !max_epoch.compare_exchange_weak(seen, self.epoch())) {
    }
  });
  EXPECT_EQ(max_epoch.load(), 3u);
  // The second program must not inherit the first one's barrier count.
  m.run([&](sc::Proc& self) { EXPECT_EQ(self.epoch(), 1u); });
}

TEST(MachineReuseTest, LedgerDiagnosticsClearedBetweenRuns) {
  if (!sc::Machine::race_ledger_compiled()) {
    GTEST_SKIP() << "race ledger not compiled in";
  }
  sc::Machine m(2);
  m.set_race_policy(sc::RacePolicy::kRecord);
  sc::Spread<std::uint32_t> a(m, 4);
  m.run([&](sc::Proc& self) {
    // Both ranks write the same remote element in the same epoch: a
    // deliberate write-write conflict.
    a.put(self, 0, 0, self.rank());
    self.barrier();
  });
  auto* ledger = m.race_ledger_registry();
  ASSERT_NE(ledger, nullptr);
  EXPECT_GT(ledger->conflict_count(), 0u);

  // A clean follow-up program on the same machine: the previous run's
  // shadow cells and diagnostics must all be gone.
  m.run([&](sc::Proc& self) {
    a.put(self, self.rank(), 0, 7u);
    self.barrier();
  });
  EXPECT_EQ(ledger->conflict_count(), 0u);
  EXPECT_TRUE(ledger->diagnostics().empty());
}

// ---------------------------------------------------------------------------
// Persistent workers: one parked thread per rank, started by the first
// run() instead of spawned and joined per run.

TEST(PersistentModeTest, WorkerThreadsPersistAcrossRuns) {
  sc::Machine m(4);
  std::vector<std::thread::id> first(4), second(4);
  m.run([&](sc::Proc& self) {
    first[self.rank()] = std::this_thread::get_id();
  });
  m.run([&](sc::Proc& self) {
    second[self.rank()] = std::this_thread::get_id();
  });
  // Same parked thread serves the same rank in both programs — the whole
  // point of persistent workers: no per-run thread churn.
  EXPECT_EQ(first, second);
  for (std::uint32_t i = 0; i < 4; ++i) {
    for (std::uint32_t j = i + 1; j < 4; ++j) {
      EXPECT_NE(first[i], first[j]);
    }
  }
}

TEST(PersistentModeTest, UsableAfterException) {
  sc::Machine m(4);
  EXPECT_THROW(m.run([&](sc::Proc& self) {
    if (self.rank() == 1) throw std::runtime_error("job failed");
    self.barrier();
  }),
               std::runtime_error);
  std::atomic<int> ok{0};
  m.run([&](sc::Proc& self) {
    self.barrier();
    ok++;
    self.barrier();
  });
  EXPECT_EQ(ok.load(), 4);
}

TEST(PersistentModeTest, ManyConsecutiveRuns) {
  sc::Machine m(8);
  std::atomic<int> total{0};
  for (int i = 0; i < 32; ++i) {
    m.run([&](sc::Proc& self) {
      self.barrier();
      total++;
    });
  }
  EXPECT_EQ(total.load(), 32 * 8);
}
