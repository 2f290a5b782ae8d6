// Shape-sweep differential suite for the ragged tile layout: arbitrary
// H x W images — degenerate (1 x 1), wide (7 x 513), tall (1000 x 3),
// odd/prime-sided (97 x 63) — through the paper's parallel connected
// components at p in {1, 4, 16}, checked pixel-for-pixel against all
// three sequential labelers (BFS anchor, union-find, Hoshen-Kopelman).
//
// Under the race-ledger preset these tests also certify the protocol:
// the pooled machines keep RacePolicy::kThrow, so any unsynchronized
// Spread access on a ragged shape (empty tiles, unequal halo lines)
// fails the test rather than merely racing.
//
// The heavyweight VGA-frame sweep lives in test_shapes_slow.cpp
// (labelled `slow-ledger`); this binary is the quick `shapes` label.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "hist_reference.hpp"
#include "histcc/cc/parallel_cc.hpp"
#include "histcc/cc_seq/bfs_label.hpp"
#include "histcc/cc_seq/hoshen_kopelman.hpp"
#include "histcc/cc_seq/union_find.hpp"
#include "histcc/hist/histogram.hpp"
#include "histcc/image/generators.hpp"
#include "histcc/image/layout.hpp"
#include "histcc/splitc/machine.hpp"

namespace cc = histcc::cc;
namespace ccseq = histcc::ccseq;
namespace hist = histcc::hist;
namespace im = histcc::img;
namespace sc = histcc::splitc;

namespace {

constexpr std::pair<std::uint32_t, std::uint32_t> kShapes[] = {
    {1, 1},    // a single pixel: every rank but one owns an empty tile
    {7, 513},  // wide: more grid columns than image rows at p = 16
    {1000, 3}, // tall: empty trailing grid columns
    {97, 63},  // both sides odd, every tile boundary ragged
    {96, 64},  // divisible rectangle: the easy non-square case
};

/// Deterministic splitmix-style fill with values in [0, k).
im::GreyImage make_random_shape(std::uint32_t h, std::uint32_t w,
                                std::uint32_t k, std::uint32_t seed) {
  im::GreyImage image(h, w);
  std::uint64_t state = seed;
  for (std::uint32_t i = 0; i < h; ++i) {
    for (std::uint32_t j = 0; j < w; ++j) {
      state += 0x9e3779b97f4a7c15ull;
      std::uint64_t z = state;
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
      image(i, j) = static_cast<std::uint8_t>((z ^ (z >> 31)) % k);
    }
  }
  return image;
}

void expect_labels_equal(const im::LabelImage& got, const im::LabelImage& want,
                         const std::string& what) {
  ASSERT_EQ(got.height(), want.height()) << what;
  ASSERT_EQ(got.width(), want.width()) << what;
  const auto g = got.pixels();
  const auto w = want.pixels();
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < g.size(); ++i) {
    if (g[i] != w[i]) {
      if (++mismatches <= 3) {
        ADD_FAILURE() << what << ": label mismatch at pixel " << i << ": got "
                      << g[i] << ", want " << w[i];
      }
    }
  }
  EXPECT_EQ(mismatches, 0u) << what;
}

class ShapeSweep : public ::testing::TestWithParam<std::uint32_t> {};

}  // namespace

TEST_P(ShapeSweep, BinaryComponentsMatchAllSequentialLabelers) {
  const std::uint32_t p = GetParam();
  for (const auto& [h, w] : kShapes) {
    const auto image = make_random_shape(h, w, 2, h * 1000 + w);
    const std::string what =
        std::to_string(h) + "x" + std::to_string(w) + "_p" + std::to_string(p);
    for (const auto conn :
         {ccseq::Connectivity::kFour, ccseq::Connectivity::kEight}) {
      cc::CcOptions options;
      options.connectivity = conn;
      options.rule = ccseq::ColourRule::kBinary;
      const auto reference =
          ccseq::label_components_bfs(image, conn, options.rule);
      expect_labels_equal(
          ccseq::label_components_unionfind(image, conn, options.rule),
          reference, what + "/unionfind");
      expect_labels_equal(
          ccseq::label_components_hoshen_kopelman(image, conn, options.rule),
          reference, what + "/hoshen_kopelman");
      sc::Machine machine(p);
      expect_labels_equal(
          cc::connected_components_parallel(machine, image, options),
          reference, what + "/parallel");
    }
  }
}

TEST_P(ShapeSweep, GreyComponentsMatchBfsReference) {
  const std::uint32_t p = GetParam();
  for (const auto& [h, w] : kShapes) {
    const auto image = make_random_shape(h, w, 4, h * 77 + w);
    cc::CcOptions options;
    options.rule = ccseq::ColourRule::kSameColour;
    const auto reference = ccseq::label_components_bfs(
        image, options.connectivity, options.rule);
    sc::Machine machine(p);
    expect_labels_equal(
        cc::connected_components_parallel(machine, image, options), reference,
        std::to_string(h) + "x" + std::to_string(w) + "_grey_p" +
            std::to_string(p));
  }
}

TEST_P(ShapeSweep, HistogramMatchesSequentialReference) {
  const std::uint32_t p = GetParam();
  for (const auto& [h, w] : kShapes) {
    const auto image = make_random_shape(h, w, 16, h + w);
    const auto reference = reference_histogram(image, 16);
    EXPECT_EQ(hist::histogram_seq(image, 16), reference) << h << "x" << w;
    sc::Machine machine(p);
    EXPECT_EQ(hist::histogram_parallel(machine, image, 16), reference)
        << h << "x" << w << " p=" << p;
  }
}

INSTANTIATE_TEST_SUITE_P(Procs, ShapeSweep, ::testing::Values(1, 4, 16));

// Ledger certification at p = 4 (the ISSUE's pinned width): the default
// RacePolicy::kThrow turns any publication-protocol violation on a
// ragged shape into a test failure under the race-ledger preset; in
// plain builds this is a correctness smoke over the same shapes.
TEST(ShapeLedger, RaggedShapesRunLedgerCleanAtP4) {
  for (const auto& [h, w] : kShapes) {
    sc::Machine machine(4);  // RacePolicy::kThrow is the default
    const auto image = make_random_shape(h, w, 2, h * 31 + w);
    EXPECT_NO_THROW({
      (void)cc::connected_components_parallel(machine, image,
                                              cc::CcOptions{});
    }) << h << "x" << w;
    EXPECT_NO_THROW({ (void)hist::histogram_parallel(machine, image, 2); })
        << h << "x" << w;
  }
}
