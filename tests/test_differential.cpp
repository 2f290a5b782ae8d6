// Differential conformance suite: every implementation in the library —
// the paper's splitc parallel algorithm, the OpenMP mirror, the
// replicated baseline, the three sequential labelers, and jobs routed
// through the serving pipeline's machine pool — must agree on every
// image, machine size, and thread count.
//
// All labelers emit the library-wide *canonical* labeling (each component
// labeled by its minimum pixel index + 1), so label isomorphism collapses
// to pixel-for-pixel equality and the comparison below is exact.
//
// Thread/processor sweep: the splitc machine models the paper and
// requires a power-of-two p, so it runs at p in {1, 4, 16}; the OpenMP
// mirror takes any team size and covers the non-power-of-two counts
// {3, 7} (plus 1, 4, 16).  Awkward shapes come from the image sides:
// 96 = 2^5 * 3 and the 97 x 63 comb (both sides odd and prime-ish) —
// the ragged tile layout hosts every one of them on every machine size.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "cc_differential.hpp"
#include "hist_reference.hpp"
#include "histcc/cc/parallel_cc.hpp"
#include "histcc/cc/replicated.hpp"
#include "histcc/cc_seq/bfs_label.hpp"
#include "histcc/cc_seq/hoshen_kopelman.hpp"
#include "histcc/cc_seq/union_find.hpp"
#include "histcc/hist/histogram.hpp"
#include "histcc/image/generators.hpp"
#include "histcc/omp/parallel_host.hpp"
#include "histcc/serve/pipeline.hpp"
#include "histcc/splitc/machine.hpp"

namespace cc = histcc::cc;
namespace ccseq = histcc::ccseq;
namespace hist = histcc::hist;
namespace im = histcc::img;
namespace omp = histcc::omp;
namespace sc = histcc::splitc;

namespace {

// p sweep requested by the conformance plan; the splitc machine uses the
// power-of-two subset, the OpenMP mirror uses all of them.
constexpr std::uint32_t kSplitcProcs[] = {1, 4, 16};
constexpr unsigned kOmpThreads[] = {1, 3, 4, 7, 16};

struct CcCase {
  std::string name;
  im::GreyImage image;
  ccseq::Connectivity conn;
  ccseq::ColourRule rule;
};

std::vector<CcCase> cc_cases() {
  std::vector<CcCase> cases;
  cases.push_back({"random_percolation", im::make_percolation(96, 0.55, 42),
                   ccseq::Connectivity::kEight, ccseq::ColourRule::kBinary});
  cases.push_back({"random_percolation_4conn",
                   im::make_percolation(96, 0.62, 7),
                   ccseq::Connectivity::kFour, ccseq::ColourRule::kBinary});
  cases.push_back({"darpa_like_grey", im::make_darpa_like(96),
                   ccseq::Connectivity::kEight,
                   ccseq::ColourRule::kSameColour});
  cases.push_back({"dual_spiral",
                   im::make_test_pattern(im::TestPattern::kDualSpiral, 96),
                   ccseq::Connectivity::kEight, ccseq::ColourRule::kBinary});
  cases.push_back({"comb_97x63", make_comb(97, 63),
                   ccseq::Connectivity::kEight, ccseq::ColourRule::kBinary});
  return cases;
}

class DifferentialCc : public ::testing::TestWithParam<std::size_t> {};

}  // namespace

TEST_P(DifferentialCc, AllImplementationsAgree) {
  const auto test = cc_cases()[GetParam()];

  // Sequential references: BFS is the anchor; the other two must match it
  // exactly (all three emit the canonical labeling).
  const auto reference =
      ccseq::label_components_bfs(test.image, test.conn, test.rule);
  expect_labels_equal(
      ccseq::label_components_unionfind(test.image, test.conn, test.rule),
      reference, test.name + "/unionfind");
  expect_labels_equal(
      ccseq::label_components_hoshen_kopelman(test.image, test.conn,
                                              test.rule),
      reference, test.name + "/hoshen_kopelman");

  // OpenMP mirror at every requested team size, including the
  // non-power-of-two counts the splitc machine cannot model.
  for (const unsigned threads : kOmpThreads) {
    expect_labels_equal(
        omp::connected_components_omp(test.image, test.conn, test.rule,
                                      threads),
        reference, test.name + "/omp_t" + std::to_string(threads));
  }

  // The paper's algorithm and the replicated baseline on the virtual
  // machine (power-of-two p; the ragged layout hosts every image shape).
  for (const std::uint32_t p : kSplitcProcs) {
    sc::Machine machine(p);
    cc::CcOptions options;
    options.connectivity = test.conn;
    options.rule = test.rule;
    expect_labels_equal(
        cc::connected_components_parallel(machine, test.image, options),
        reference, test.name + "/parallel_p" + std::to_string(p));
    expect_labels_equal(
        cc::connected_components_replicated(machine, test.image, test.conn,
                                            test.rule),
        reference, test.name + "/replicated_p" + std::to_string(p));
  }
}

INSTANTIATE_TEST_SUITE_P(Catalog, DifferentialCc,
                         ::testing::Range<std::size_t>(0, cc_cases().size()),
                         [](const auto& suite_info) {
                           return cc_cases()[suite_info.param].name;
                         });

namespace {

struct HistCase {
  std::string name;
  im::GreyImage image;
  std::uint32_t k;
};

std::vector<HistCase> hist_cases() {
  std::vector<HistCase> cases;
  cases.push_back({"random_grey_k8", im::make_random_grey(96, 8, 99), 8});
  cases.push_back({"random_grey_k64", im::make_random_grey(96, 64, 5), 64});
  cases.push_back({"darpa_like_k256", im::make_darpa_like(96), 256});
  cases.push_back({"banded_k16", im::make_banded_grey(96, 16), 16});
  return cases;
}

class DifferentialHist : public ::testing::TestWithParam<std::size_t> {};

}  // namespace

TEST_P(DifferentialHist, AllImplementationsAgree) {
  const auto test = hist_cases()[GetParam()];
  const auto reference = reference_histogram(test.image, test.k);

  EXPECT_EQ(hist::histogram_seq(test.image, test.k), reference)
      << test.name << "/seq";
  for (const unsigned threads : kOmpThreads) {
    EXPECT_EQ(omp::histogram_omp(test.image, test.k, threads), reference)
        << test.name << "/omp_t" << threads;
  }
  for (const std::uint32_t p : kSplitcProcs) {
    sc::Machine machine(p);
    EXPECT_EQ(hist::histogram_parallel(machine, test.image, test.k),
              reference)
        << test.name << "/parallel_p" << p;
  }
}

INSTANTIATE_TEST_SUITE_P(Catalog, DifferentialHist,
                         ::testing::Range<std::size_t>(0, hist_cases().size()),
                         [](const auto& suite_info) {
                           return hist_cases()[suite_info.param].name;
                         });

// ---------------------------------------------------------------------------
// Serving pipeline vs direct calls: a job routed through the pool at a
// pinned p must agree exactly with a direct call on a standalone machine
// of the same width, at every machine size in the sweep.  Each job must
// complete kOk — in race-ledger builds the pooled machines keep the
// default RacePolicy::kThrow, so a clean status also certifies that the
// pipeline's warm-machine reuse stays ledger-clean under
// LedgerMode::kSharded.

TEST_P(DifferentialCc, PipelineAgreesWithDirectCalls) {
  const auto test = cc_cases()[GetParam()];
  const auto reference =
      ccseq::label_components_bfs(test.image, test.conn, test.rule);
  histcc::serve::Pipeline pipeline;
  for (const std::uint32_t p : kSplitcProcs) {
    cc::CcOptions options;
    options.connectivity = test.conn;
    options.rule = test.rule;
    histcc::serve::JobOptions job;
    job.force_procs = p;
    auto pending = pipeline.submit_components(test.image, options, job);
    auto result = pending.result.get();
    EXPECT_EQ(result.status, histcc::serve::JobStatus::kOk)
        << test.name << "/pipeline_p" << p << ": " << result.error;
    EXPECT_EQ(result.procs, p) << test.name << "/pipeline_p" << p;
    ASSERT_TRUE(result.has_value()) << test.name << "/pipeline_p" << p;
    expect_labels_equal(*result.value, reference,
                        test.name + "/pipeline_p" + std::to_string(p));
  }
}

TEST_P(DifferentialHist, PipelineAgreesWithDirectCalls) {
  const auto test = hist_cases()[GetParam()];
  const auto reference = hist::histogram_seq(test.image, test.k);
  histcc::serve::Pipeline pipeline;
  for (const std::uint32_t p : kSplitcProcs) {
    histcc::serve::JobOptions job;
    job.force_procs = p;
    auto pending = pipeline.submit_histogram(test.image, test.k, job);
    auto result = pending.result.get();
    EXPECT_EQ(result.status, histcc::serve::JobStatus::kOk)
        << test.name << "/pipeline_p" << p << ": " << result.error;
    EXPECT_EQ(result.procs, p) << test.name << "/pipeline_p" << p;
    ASSERT_TRUE(result.has_value()) << test.name << "/pipeline_p" << p;
    EXPECT_EQ(*result.value, reference) << test.name << "/pipeline_p" << p;
  }
}
