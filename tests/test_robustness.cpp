// Robustness and deep-property tests: fuzzing the PGM reader, brute-force
// cross-checks of the border-graph kernel, exhaustive layout/schedule
// sweeps, runtime misuse guards, and spread put_block semantics.
#include <gtest/gtest.h>

#include <sys/resource.h>

#include <cstdlib>
#include <limits>
#include <set>
#include <sstream>
#include <string>
#include <string_view>

#include "histcc/histcc.hpp"

using namespace histcc;

// ---- Runtime misuse guards ----

TEST(RuntimeGuardTest, NestedRunIsRejected) {
  splitc::Machine machine(2);
  EXPECT_THROW(machine.run([&](splitc::Proc& self) {
    if (self.rank() == 0) {
      machine.run([](splitc::Proc&) {});  // reentrant: must throw
    }
    self.barrier();
  }),
               util::contract_error);
  // And the machine still works afterwards.
  machine.run([](splitc::Proc& self) { self.barrier(); });
}

TEST(RuntimeGuardTest, SequentialRunsAfterGuard) {
  splitc::Machine machine(4);
  for (int i = 0; i < 3; ++i) {
    machine.run([](splitc::Proc& self) { self.barrier(); });
  }
}

// ---- Spread put_block (the push-style transfer) ----

TEST(SpreadPutBlockTest, PushesToRemote) {
  splitc::Machine machine(4);
  splitc::Spread<std::uint32_t> a(machine, 8);
  machine.run([&](splitc::Proc& self) {
    // Everyone pushes 4 values into the upper half of the next rank.
    std::vector<std::uint32_t> data(4, self.rank() + 100);
    a.put_block(self, (self.rank() + 1) % 4, 4, data);
    self.barrier();
    auto mine = a.local(self);
    const std::uint32_t pusher = (self.rank() + 3) % 4;
    for (std::size_t e = 4; e < 8; ++e) EXPECT_EQ(mine[e], pusher + 100);
  });
  EXPECT_EQ(machine.stats(0).words, 4u);
}

TEST(SpreadPutBlockTest, BoundsChecked) {
  splitc::Machine machine(2);
  splitc::Spread<std::uint32_t> a(machine, 4);
  machine.run([&](splitc::Proc& self) {
    std::vector<std::uint32_t> data(8, 0);
    EXPECT_THROW(a.put_block(self, 0, 0, data), util::contract_error);
    EXPECT_THROW(a.put_block(self, 9, 0, std::span<const std::uint32_t>(
                                             data.data(), 2)),
                 util::contract_error);
  });
}

// ---- Spread/SpreadVec range checks must not wrap: off + len can
// overflow size_t, so both a huge offset and a huge length are probed.

constexpr std::size_t kMax = std::numeric_limits<std::size_t>::max();

TEST(SpreadRangeTest, SpreadVecPrefetchRejectsWrappingRange) {
  splitc::Machine machine(1);
  splitc::SpreadVec<std::uint32_t> v(machine);
  v.block(0).assign(4, 7u);
  machine.run([&](splitc::Proc& self) {
    std::vector<std::uint32_t> dst(4);
    EXPECT_THROW(v.prefetch(self, dst, 0, kMax, 2), util::contract_error);
    EXPECT_THROW(v.prefetch(self, dst, 0, 2, kMax - 1), util::contract_error);
  });
}

TEST(SpreadRangeTest, SpreadNoteLocalWriteRejectsWrappingRange) {
  splitc::Machine machine(1);
  splitc::Spread<std::uint32_t> a(machine, 4);
  machine.run([&](splitc::Proc& self) {
    EXPECT_THROW(a.note_local_write(self, kMax, 2), util::contract_error);
    EXPECT_THROW(a.note_local_write(self, 2, kMax - 1), util::contract_error);
    a.note_local_write(self, 2);  // the rest of the block stays legal
  });
}

TEST(SpreadRangeTest, SpreadVecNoteLocalWriteRejectsWrappingRange) {
  splitc::Machine machine(1);
  splitc::SpreadVec<std::uint32_t> v(machine);
  machine.run([&](splitc::Proc& self) {
    v.local(self).assign(4, 7u);
    EXPECT_THROW(v.note_local_write(self, kMax, 2), util::contract_error);
    EXPECT_THROW(v.note_local_write(self, 2, kMax - 1), util::contract_error);
    v.note_local_write(self, 2);
  });
}

TEST(SpreadTest, WideElementsCountMoreWords) {
  struct Wide {
    std::uint64_t a, b;  // 16 bytes = 4 words
  };
  splitc::Machine machine(2);
  splitc::Spread<Wide> a(machine, 4);
  machine.run([&](splitc::Proc& self) {
    if (self.rank() == 0) {
      std::vector<Wide> buf(4);
      a.prefetch(self, buf, 1, 0, 4);
      self.sync();
    }
    self.barrier();
  });
  EXPECT_EQ(machine.stats(0).words, 16u);  // 4 elements x 4 words
}

// ---- PGM reader fuzzing: arbitrary bytes must either parse or throw,
// never crash or hang.
TEST(PgmFuzzTest, RandomBytesNeverCrash) {
  util::Rng rng(2024);
  int parsed = 0, rejected = 0;
  for (int trial = 0; trial < 300; ++trial) {
    std::string junk;
    const std::size_t len = rng.next_below(64);
    for (std::size_t i = 0; i < len; ++i) {
      junk.push_back(static_cast<char>(rng.next_below(256)));
    }
    // Bias some trials towards near-valid headers.
    if (trial % 3 == 0) junk = "P5\n" + junk;
    if (trial % 7 == 0) junk = "P2 4 4 255 " + junk;
    std::stringstream stream(junk);
    try {
      const auto image = img::read_pgm(stream);
      ++parsed;
      EXPECT_GT(image.size(), 0u);
    } catch (const util::contract_error&) {
      ++rejected;
    }
  }
  EXPECT_GT(rejected, 0);
  (void)parsed;
}

TEST(PgmFuzzTest, HeaderEdgeCases) {
  // 65536 x 65536 is 2^32 pixels, one past the 32-bit label space: it
  // must be rejected before the 4 GiB allocation.
  for (const char* bad : {"", "P", "P5", "P5\n0 4\n255\n", "P5\n4 0\n255\n",
                          "P5\n4 4\n0\n", "P6\n4 4\n255\n", "P5\n-1 4\n255\n",
                          "P5\n65536 65536\n255\n"}) {
    std::stringstream stream(bad);
    EXPECT_THROW((void)img::read_pgm(stream), util::contract_error)
        << "input: " << bad;
  }
}

// A header may promise far more pixels than the stream holds.  The reader
// must fail on the missing bytes, not on allocating what the header
// claims: under a 1 GiB address-space cap a 65535 x 65535 header (4 GiB)
// on a 29-byte stream still ends in contract_error.  So must the same
// header followed by 16 MiB of pixels: the buffer may grow with the bytes
// read, but not run ahead of them to the header's 4 GiB.  Sanitizers
// reserve terabytes of shadow address space, so the cap cannot apply
// under them.
TEST(PgmDeathTest, HugeHeaderOnShortStreamFailsOnMissingBytes) {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "an address-space cap breaks ASan/TSan shadow memory";
#endif
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  const auto read_capped = [] {
    const std::string long_p5 =
        "P5\n65535 65535\n255\n" + std::string(std::size_t{16} << 20, '\x7f');
    const rlimit cap{rlim_t{1} << 30, rlim_t{1} << 30};
    if (setrlimit(RLIMIT_AS, &cap) != 0) std::_Exit(3);
    for (const std::string_view stream_text :
         {std::string_view("P5\n65535 65535\n255\n0123456789"),
          std::string_view("P2\n65535 65535\n255\n1 2 3 4 5 "),
          std::string_view(long_p5)}) {
      std::stringstream stream{std::string(stream_text)};
      try {
        (void)img::read_pgm(stream);
        std::_Exit(1);  // cannot parse: the stream is short
      } catch (const util::contract_error&) {
        // the expected failure: missing pixel data
      } catch (...) {
        std::_Exit(2);  // e.g. std::bad_alloc from the header's claim
      }
    }
    std::_Exit(0);
  };
  EXPECT_EXIT(read_capped(), ::testing::ExitedWithCode(0), "");
}

// ---- Border graph vs brute force: build the two strips as a 2 x s image,
// label it sequentially, and check merge_border's change array produces
// the identical final labels.
TEST(BorderGraphBruteForce, RandomStripsMatchSequentialLabeling) {
  util::Rng rng(555);
  for (int trial = 0; trial < 50; ++trial) {
    const std::uint32_t s = 4 + static_cast<std::uint32_t>(rng.next_below(60));
    // Build a 2 x s image; rows are the two border strips.
    img::GreyImage strip_pair(2, s);
    for (auto& px : strip_pair.pixels()) {
      px = rng.next_bool(0.65)
               ? static_cast<std::uint8_t>(1 + rng.next_below(3))
               : 0;
    }
    for (const auto conn :
         {ccseq::Connectivity::kFour, ccseq::Connectivity::kEight}) {
      for (const auto rule :
           {ccseq::ColourRule::kBinary, ccseq::ColourRule::kSameColour}) {
        // "Region labels": label each row independently (the state before
        // a merge), with row 1 labels offset so they are globally unique.
        img::GreyImage row0(1, s), row1(1, s);
        for (std::uint32_t j = 0; j < s; ++j) {
          row0(0, j) = strip_pair(0, j);
          row1(0, j) = strip_pair(1, j);
        }
        auto lab0 = ccseq::label_components_bfs(row0, conn, rule);
        auto lab1 = ccseq::label_components_bfs(row1, conn, rule);
        for (auto& l : lab1.pixels()) {
          if (l != 0) l += s;  // unique vs row0
        }

        // The algorithm under test.
        const auto changes = cc::merge_border(
            cc::BorderSide{row0.pixels(), lab0.pixels()},
            cc::BorderSide{row1.pixels(), lab1.pixels()}, conn, rule);
        img::LabelImage merged(2, s);
        for (std::uint32_t j = 0; j < s; ++j) {
          merged(0, j) = cc::apply_changes(changes, lab0(0, j));
          merged(1, j) = cc::apply_changes(changes, lab1(0, j));
        }

        // Brute force: label the 2 x s image from scratch; partitions
        // must agree.
        const auto reference =
            ccseq::label_components_bfs(strip_pair, conn, rule);
        EXPECT_TRUE(ccseq::partitions_equal(merged, reference))
            << "trial " << trial << " s=" << s << " conn "
            << static_cast<int>(conn) << " rule " << static_cast<int>(rule);
      }
    }
  }
}

// ---- Exhaustive layout and schedule sweeps ----

TEST(LayoutSweepTest, LabelsUniqueAndCoverEveryPixel) {
  for (const std::uint32_t p : {1u, 2u, 4u, 8u, 16u, 32u, 64u, 128u, 256u}) {
    const std::uint32_t n = 64;
    const img::TileLayout layout(n, p);
    std::set<std::uint32_t> seen;
    for (std::uint32_t rank = 0; rank < p; ++rank) {
      for (std::uint32_t i = 0; i < layout.tile_rows(rank); ++i) {
        for (std::uint32_t j = 0; j < layout.tile_cols(rank); ++j) {
          const auto label = layout.initial_label(rank, i, j);
          EXPECT_TRUE(seen.insert(label).second)
              << "duplicate label at p=" << p;
          EXPECT_GE(label, 1u);
          EXPECT_LE(label, n * n);
        }
      }
    }
    EXPECT_EQ(seen.size(), static_cast<std::size_t>(n) * n) << "p=" << p;
  }
}

TEST(LayoutSweepTest, RaggedLabelsUniqueAndCoverEveryPixel) {
  const std::pair<std::uint32_t, std::uint32_t> shapes[] = {
      {1, 1}, {7, 513}, {100, 32}, {1000, 3}, {97, 63}};
  for (const std::uint32_t p : {1u, 4u, 16u, 64u}) {
    for (const auto& [h, w] : shapes) {
      const img::TileLayout layout(h, w, p);
      std::set<std::uint32_t> seen;
      for (std::uint32_t rank = 0; rank < p; ++rank) {
        for (std::uint32_t i = 0; i < layout.tile_rows(rank); ++i) {
          for (std::uint32_t j = 0; j < layout.tile_cols(rank); ++j) {
            const auto label = layout.initial_label(rank, i, j);
            EXPECT_TRUE(seen.insert(label).second)
                << "duplicate label at " << h << "x" << w << " p=" << p;
            EXPECT_GE(label, 1u);
            EXPECT_LE(label, h * w);
          }
        }
      }
      EXPECT_EQ(seen.size(), static_cast<std::size_t>(h) * w)
          << h << "x" << w << " p=" << p;
    }
  }
}

TEST(ScheduleSweepTest, LargeGridsStayConsistent) {
  for (unsigned d = 0; d <= 16; ++d) {
    const std::uint32_t p = 1u << d;
    const auto grid = util::grid_shape(p);
    const auto schedule = cc::merge_schedule(grid);
    EXPECT_EQ(schedule.size(), d);
    std::uint32_t area = 1;
    for (const auto& phase : schedule) {
      EXPECT_EQ(phase.region_rows * phase.region_cols, area);
      area *= 2;
      EXPECT_EQ(phase.group_rows * phase.group_cols, area);
      EXPECT_LE(phase.group_rows, grid.rows);
      EXPECT_LE(phase.group_cols, grid.cols);
    }
    if (d > 0) {
      EXPECT_EQ(schedule.back().group_rows, grid.rows);
      EXPECT_EQ(schedule.back().group_cols, grid.cols);
    }
  }
}

// ---- Equalization map properties on random histograms ----
TEST(EqualizeMapProperty, MonotoneAndInRange) {
  util::Rng rng(8);
  for (int trial = 0; trial < 100; ++trial) {
    const std::size_t k = std::size_t{1} << (1 + rng.next_below(8));  // 2..256
    std::vector<std::uint32_t> counts(k);
    std::uint64_t total = 0;
    for (auto& c : counts) {
      c = static_cast<std::uint32_t>(rng.next_below(1000));
      total += c;
    }
    if (total == 0) {
      counts[0] = 1;
      total = 1;
    }
    const auto map = hist::equalization_map(counts, total);
    ASSERT_EQ(map.size(), k);
    for (std::size_t g = 1; g < k; ++g) {
      EXPECT_LE(map[g - 1], map[g]);
      EXPECT_LE(map[g], k - 1);
    }
  }
}
