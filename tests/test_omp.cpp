// Tests for the shared-memory (OpenMP) host backend: exact agreement with
// the sequential references across workloads, connectivities, and colour
// rules, strip-boundary edge cases, explicit team sizes, teams OpenMP
// grants smaller than requested (nested and dynamic), and the
// barrier-epoch checker (epoch_check.hpp) — including a deliberately racy
// OpenMP program that must be detected with full diagnostics.
#include <gtest/gtest.h>

#ifdef _OPENMP
#include <omp.h>
#endif

#include <atomic>
#include <thread>
#include <vector>

#include "hist_reference.hpp"
#include "histcc/cc_seq/bfs_label.hpp"
#include "histcc/hist/histogram.hpp"
#include "histcc/image/generators.hpp"
#include "histcc/omp/epoch_check.hpp"
#include "histcc/omp/parallel_host.hpp"
#include "histcc/splitc/race_ledger.hpp"
#include "histcc/util/require.hpp"

namespace cs = histcc::ccseq;
namespace hh = histcc::hist;
namespace im = histcc::img;
namespace ho = histcc::omp;
namespace sc = histcc::splitc;

namespace {

/// Spin until `flag` reaches `want`.
void await(const std::atomic<int>& flag, int want) {
  while (flag.load(std::memory_order_acquire) != want) {
    std::this_thread::yield();
  }
}

/// RAII toggle for the built-in algorithms' self-instrumentation.
struct ScopedEpochCheck {
  ScopedEpochCheck() { ho::set_epoch_check_enabled(true); }
  ~ScopedEpochCheck() { ho::set_epoch_check_enabled(false); }
};

#ifdef _OPENMP
/// Runs `kernel` on every thread of a two-thread parallel region, as a
/// caller that is itself parallel would, and returns each thread's result.
/// The kernel's own region is then nested, and OpenMP grants it one
/// thread unless nested parallelism is enabled.
template <class Kernel>
auto call_from_parallel_region(const Kernel& kernel) {
  std::vector<decltype(kernel())> results(2);
  std::size_t team = 1;
#pragma omp parallel num_threads(2)
  {
    const auto t = static_cast<std::size_t>(omp_get_thread_num());
    results[t] = kernel();
    if (t == 0) team = static_cast<std::size_t>(omp_get_num_threads());
  }
  results.resize(team);
  return results;
}

/// RAII switch for OpenMP's dynamic adjustment of team sizes, under which
/// the runtime may grant fewer threads than a region requests.
struct ScopedDynamicTeams {
  int previous = omp_get_dynamic();
  ScopedDynamicTeams() { omp_set_dynamic(1); }
  ~ScopedDynamicTeams() { omp_set_dynamic(previous); }
};

/// A team request larger than dynamic adjustment grants: libgomp caps a
/// dynamic team at the processor count.
unsigned oversubscribed_team() {
  return 4 * static_cast<unsigned>(omp_get_num_procs());
}
#endif  // _OPENMP

}  // namespace

TEST(OmpBackendTest, ReportsThreads) {
  EXPECT_GE(ho::backend_threads(), 1u);
}

class OmpHistSweep
    : public ::testing::TestWithParam<std::tuple<std::uint32_t, std::uint32_t>> {
};

TEST_P(OmpHistSweep, MatchesSequential) {
  const auto [n, k] = GetParam();
  const auto image = im::make_random_grey(n, k, n * 3 + k);
  EXPECT_EQ(ho::histogram_omp(image, k), reference_histogram(image, k));
}

INSTANTIATE_TEST_SUITE_P(Sweep, OmpHistSweep,
                         ::testing::Combine(::testing::Values(32u, 64u, 257u),
                                            ::testing::Values(2u, 16u, 256u)));

TEST(OmpHistTest, RejectsBadInputs) {
  const auto image = im::make_random_grey(32, 256, 1);
  EXPECT_THROW((void)ho::histogram_omp(image, 3),
               histcc::util::contract_error);
  EXPECT_THROW((void)ho::histogram_omp(image, 16),  // pixels >= 16 exist
               histcc::util::contract_error);
  // 7 x 513 = 3591 pixels, not a multiple of 4, with the bad pixel last.
  // With 1 or 3 threads the last chunk (3591 or 1197 pixels) is not one
  // either, so the bad pixel is counted past the tally's four-lane loop.
  im::GreyImage ragged(7, 513, 0);
  ragged(6, 512) = 16;
  for (const unsigned threads : {0u, 1u, 3u}) {
    EXPECT_THROW((void)ho::histogram_omp(ragged, 16, threads),
                 histcc::util::contract_error)
        << "threads=" << threads;
  }
}

#ifdef _OPENMP
TEST(OmpHistTest, NestedCallMatchesReference) {
  if (ho::tsan_active()) {
    GTEST_SKIP() << "libgomp teams are not TSan-instrumented";
  }
  const auto image = im::make_random_grey(256, 256, 21);
  const auto want = reference_histogram(image, 256);
  const auto got = call_from_parallel_region(
      [&] { return ho::histogram_omp(image, 256, 4); });
  for (std::size_t t = 0; t < got.size(); ++t) {
    EXPECT_EQ(got[t], want) << "outer thread " << t;
  }
}

TEST(OmpHistTest, DynamicTeamMatchesReference) {
  const ScopedDynamicTeams dynamic;
  const auto image = im::make_random_grey(256, 256, 22);
  EXPECT_EQ(ho::histogram_omp(image, 256, oversubscribed_team()),
            reference_histogram(image, 256));
}
#endif  // _OPENMP

class OmpCcSweep : public ::testing::TestWithParam<int> {};

TEST_P(OmpCcSweep, MatchesBfsOnCatalog) {
  const auto pattern = static_cast<im::TestPattern>(GetParam());
  for (const std::uint32_t n : {64u, 127u, 128u}) {  // odd size too
    const auto image = im::make_test_pattern(pattern, n);
    for (const auto conn :
         {cs::Connectivity::kFour, cs::Connectivity::kEight}) {
      EXPECT_EQ(ho::connected_components_omp(image, conn),
                cs::label_components_bfs(image, conn))
          << im::pattern_name(pattern) << " n=" << n;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Catalog, OmpCcSweep, ::testing::Range(1, 10));

TEST(OmpCcTest, GreyRule) {
  const auto image = im::make_darpa_like(96, 77);
  EXPECT_EQ(ho::connected_components_omp(image, cs::Connectivity::kEight,
                                         cs::ColourRule::kSameColour),
            cs::label_components_bfs(image, cs::Connectivity::kEight,
                                     cs::ColourRule::kSameColour));
}

TEST(OmpCcTest, PercolationSweep) {
  for (const double occ : {0.3, 0.592746, 0.9}) {
    const auto image = im::make_percolation(128, occ, 11);
    EXPECT_EQ(ho::connected_components_omp(image),
              cs::label_components_bfs(image)) << occ;
  }
}

TEST(OmpCcTest, ComponentsSpanningStripBoundaries) {
  // Vertical lines cross every strip boundary; one component per column.
  im::GreyImage image(64, 64, 0);
  for (std::uint32_t i = 0; i < 64; ++i) {
    for (std::uint32_t j = 0; j < 64; j += 4) image(i, j) = 1;
  }
  EXPECT_EQ(ho::connected_components_omp(image, cs::Connectivity::kFour),
            cs::label_components_bfs(image, cs::Connectivity::kFour));
}

TEST(OmpCcTest, TinyImages) {
  for (const std::uint32_t n : {1u, 2u, 3u}) {
    im::GreyImage image(n, n, 1);
    const auto labels = ho::connected_components_omp(image);
    for (const auto l : labels.pixels()) EXPECT_EQ(l, 1u);
  }
  const im::GreyImage empty_row(1, 8, 0);
  const auto labels = ho::connected_components_omp(empty_row);
  for (const auto l : labels.pixels()) EXPECT_EQ(l, 0u);
}

TEST(OmpCcTest, DeterministicAcrossRuns) {
  const auto image = im::make_darpa_like(128, 4);
  const auto first = ho::connected_components_omp(
      image, cs::Connectivity::kEight, cs::ColourRule::kSameColour);
  for (int round = 0; round < 5; ++round) {
    EXPECT_EQ(ho::connected_components_omp(image, cs::Connectivity::kEight,
                                           cs::ColourRule::kSameColour),
              first);
  }
}

TEST(OmpCcTest, ExplicitTeamSizesMatchSequential) {
  const auto image = im::make_percolation(97, 0.58, 13);  // odd side
  const auto want = cs::label_components_bfs(image);
  for (const unsigned threads : {1u, 3u, 7u, 16u}) {
    EXPECT_EQ(ho::connected_components_omp(image, cs::Connectivity::kEight,
                                           cs::ColourRule::kBinary, threads),
              want)
        << "threads=" << threads;
  }
  for (const unsigned threads : {1u, 3u, 7u, 16u}) {
    EXPECT_EQ(ho::histogram_omp(image, 2, threads),
              hh::histogram_seq(image, 2))
        << "threads=" << threads;
  }
}

#ifdef _OPENMP
TEST(OmpCcTest, NestedCallMatchesBfs) {
  if (ho::tsan_active()) {
    GTEST_SKIP() << "libgomp teams are not TSan-instrumented";
  }
  const auto image = im::make_percolation(256, 0.58, 23);
  const auto want = cs::label_components_bfs(image);
  const auto got = call_from_parallel_region([&] {
    return ho::connected_components_omp(image, cs::Connectivity::kEight,
                                        cs::ColourRule::kBinary, 4);
  });
  for (std::size_t t = 0; t < got.size(); ++t) {
    EXPECT_EQ(got[t], want) << "outer thread " << t;
  }
}

TEST(OmpCcTest, DynamicTeamMatchesBfs) {
  const ScopedDynamicTeams dynamic;
  const auto image = im::make_percolation(256, 0.58, 24);
  EXPECT_EQ(ho::connected_components_omp(image, cs::Connectivity::kEight,
                                         cs::ColourRule::kBinary,
                                         oversubscribed_team()),
            cs::label_components_bfs(image));
}
#endif  // _OPENMP

// ---------------------------------------------------------------------------
// Barrier-epoch checking of the OpenMP mirror (epoch_check.hpp).

TEST(OmpEpochCheck, BuiltInAlgorithmsSelfVerifyClean) {
  ScopedEpochCheck guard;
  const auto image = im::make_test_pattern(im::TestPattern::kDualSpiral, 64);
  // Under the checker both algorithms annotate every shared access and
  // throw on a protocol violation — so completing is the assertion; the
  // results must also still be exact.
  for (const unsigned threads : {1u, 3u, 4u, 7u}) {
    EXPECT_EQ(ho::connected_components_omp(image, cs::Connectivity::kEight,
                                           cs::ColourRule::kBinary, threads),
              cs::label_components_bfs(image))
        << "threads=" << threads;
    EXPECT_EQ(ho::histogram_omp(image, 2, threads),
              hh::histogram_seq(image, 2))
        << "threads=" << threads;
  }
}

TEST(OmpEpochCheck, EpochCheckDisabledByDefault) {
  EXPECT_FALSE(ho::epoch_check_enabled());
}

// A deliberately racy program checked through the EpochChecker directly:
// thread 1 reads thread 0's slot in the same epoch thread 0 wrote it —
// no barrier between.  The accesses are flag-sequenced (no C++ data race,
// TSan silent); the protocol violation must still be diagnosed with the
// array name, both thread ids, the element, and the epoch.
TEST(OmpEpochCheck, RacyProgramIsDetectedWithFullDiagnostics) {
  ho::EpochChecker chk(2);
  auto shadow = chk.attach("omp_shared");
  std::vector<std::uint32_t> shared(2, 0);
  std::atomic<int> turn{0};

  auto worker = [&](unsigned tid) {
    if (tid == 0) {
      shared[0] = 7;
      chk.note_write(*shadow, 0, 0, 1);
      turn.store(1, std::memory_order_release);
    } else {
      await(turn, 1);
      shared[1] = shared[0];  // reads slot 0 with no barrier since its write
      chk.note_write(*shadow, 1, 1, 1);
      chk.note_read(*shadow, 1, 0, 1);
    }
  };
  std::thread t0(worker, 0);
  std::thread t1(worker, 1);
  t0.join();
  t1.join();

  ASSERT_EQ(chk.conflict_count(), 1u);
  const auto diags = chk.diagnostics();
  ASSERT_EQ(diags.size(), 1u);
  const auto& d = diags.front();
  EXPECT_EQ(d.array, "omp_shared");
  EXPECT_EQ(d.offset, 0u);
  EXPECT_EQ(d.epoch, 1u);
  EXPECT_EQ(d.first_rank, 0u);
  EXPECT_EQ(d.first_kind, sc::RaceAccess::kWrite);
  EXPECT_EQ(d.second_rank, 1u);
  EXPECT_EQ(d.second_kind, sc::RaceAccess::kRead);
  const auto msg = d.to_string();
  EXPECT_NE(msg.find("omp_shared"), std::string::npos) << msg;
  EXPECT_NE(msg.find("rank 0"), std::string::npos) << msg;
  EXPECT_NE(msg.find("rank 1"), std::string::npos) << msg;
  EXPECT_NE(msg.find("epoch 1"), std::string::npos) << msg;
  EXPECT_THROW(chk.throw_if_conflicts(), sc::RaceLedgerViolation);
}

#ifdef _OPENMP
// The same protocol bug inside a real `#pragma omp parallel` region, and
// its fix: with `epoch_barrier` between the write and the read phases the
// program is clean; without it, every cross-thread read is flagged.
TEST(OmpEpochCheck, OmpParallelRegionRaceAndFix) {
  if (ho::tsan_active()) {
    // This test opens a raw multi-threaded `omp parallel` region, whose
    // libgomp fork/join barriers TSan cannot see (false positives).
    GTEST_SKIP() << "libgomp teams are not TSan-instrumented";
  }
  constexpr unsigned kTeam = 4;
  for (const bool use_barrier : {true, false}) {
    ho::EpochChecker chk(kTeam);
    auto shadow = chk.attach("omp_slots");
    std::vector<std::uint32_t> slots(kTeam, 0);
    std::atomic<unsigned> ready{0};
    unsigned team = kTeam;

#pragma omp parallel num_threads(kTeam)
    {
      const auto tid = static_cast<unsigned>(omp_get_thread_num());
#pragma omp single
      team = static_cast<unsigned>(omp_get_num_threads());

      slots[tid] = tid + 1;
      chk.note_write(*shadow, tid, tid, 1);
      if (use_barrier) {
        chk.epoch_barrier(tid);
      } else {
        // Physically sequence the phases without a *protocol* barrier, so
        // the reads below are data-race-free yet still epoch-conflicting.
        ready.fetch_add(1, std::memory_order_acq_rel);
        while (ready.load(std::memory_order_acquire) < team) {
          std::this_thread::yield();
        }
      }
      std::uint32_t sum = 0;
      for (unsigned t = 0; t < team; ++t) sum += slots[t];
      chk.note_read(*shadow, tid, 0, team);
      EXPECT_EQ(sum, team * (team + 1) / 2);
    }

    if (team < 2) GTEST_SKIP() << "OpenMP provided a single thread";
    if (use_barrier) {
      EXPECT_EQ(chk.conflict_count(), 0u);
    } else {
      EXPECT_GE(chk.conflict_count(), 1u);
      const auto diags = chk.diagnostics();
      ASSERT_FALSE(diags.empty());
      EXPECT_EQ(diags.front().array, "omp_slots");
      EXPECT_EQ(diags.front().epoch, 1u);
    }
  }
}
#endif  // _OPENMP

TEST(OmpEpochCheck, AdvanceEpochAllOrdersForkJoinTransitions) {
  ho::EpochChecker chk(3);
  auto shadow = chk.attach("staged");
  // Parallel write epoch 1 (disjoint), join, serial full pass as thread 0
  // in epoch 2, fork, parallel read epoch 3: the components_omp shape.
  for (unsigned tid = 0; tid < 3; ++tid) chk.note_write(*shadow, tid, tid, 1);
  chk.advance_epoch_all();
  chk.note_write(*shadow, 0, 0, 3);
  chk.advance_epoch_all();
  EXPECT_EQ(chk.epoch(1), 3u);
  for (unsigned tid = 0; tid < 3; ++tid) chk.note_read(*shadow, tid, 0, 3);
  EXPECT_EQ(chk.conflict_count(), 0u);
  EXPECT_EQ(chk.check_count(), 3u + 3u + 9u);
}
