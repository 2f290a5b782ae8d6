// Tests for the sequential labelers (Section 5.1 BFS and the union-find
// baseline): known tiny cases, connectivity/colour-rule semantics, the
// canonical labeling property, and cross-validation of the two labelers.
#include <gtest/gtest.h>

#include "histcc/cc_seq/analysis.hpp"
#include "histcc/cc_seq/bfs_label.hpp"
#include "histcc/cc_seq/union_find.hpp"
#include "histcc/image/generators.hpp"

namespace cs = histcc::ccseq;
namespace im = histcc::img;

namespace {

im::GreyImage from_rows(const std::vector<std::vector<int>>& rows) {
  im::GreyImage image(static_cast<std::uint32_t>(rows.size()),
                      static_cast<std::uint32_t>(rows[0].size()));
  for (std::uint32_t i = 0; i < image.height(); ++i) {
    for (std::uint32_t j = 0; j < image.width(); ++j) {
      image(i, j) = static_cast<std::uint8_t>(rows[i][j]);
    }
  }
  return image;
}

}  // namespace

TEST(BfsLabelTest, EmptyImageAllBackground) {
  const im::GreyImage image(4, 4, 0);
  const auto labels = cs::label_components_bfs(image);
  for (const auto l : labels.pixels()) EXPECT_EQ(l, 0u);
}

TEST(BfsLabelTest, SingleComponentGetsSeedLabel) {
  const im::GreyImage image(3, 3, 1);
  const auto labels = cs::label_components_bfs(image);
  for (const auto l : labels.pixels()) EXPECT_EQ(l, 1u);  // seed at (0,0)
}

TEST(BfsLabelTest, CanonicalLabelsAreMinIndexPlusOne) {
  const auto image = from_rows({{1, 0, 1},   //
                                {0, 0, 0},   //
                                {1, 0, 1}});
  const auto labels = cs::label_components_bfs(image, cs::Connectivity::kFour);
  EXPECT_EQ(labels(0, 0), 1u);  // index 0
  EXPECT_EQ(labels(0, 2), 3u);  // index 2
  EXPECT_EQ(labels(2, 0), 7u);  // index 6
  EXPECT_EQ(labels(2, 2), 9u);  // index 8
  EXPECT_EQ(cs::count_components(labels), 4u);
}

TEST(BfsLabelTest, DiagonalConnectivityDiffers) {
  const auto image = from_rows({{1, 0},  //
                                {0, 1}});
  const auto four = cs::label_components_bfs(image, cs::Connectivity::kFour);
  const auto eight = cs::label_components_bfs(image, cs::Connectivity::kEight);
  EXPECT_EQ(cs::count_components(four), 2u);
  EXPECT_EQ(cs::count_components(eight), 1u);
  EXPECT_EQ(eight(1, 1), eight(0, 0));
}

TEST(BfsLabelTest, ColourRuleSeparatesGreyLevels) {
  const auto image = from_rows({{1, 2},  //
                                {2, 1}});
  const auto binary = cs::label_components_bfs(image, cs::Connectivity::kEight,
                                               cs::ColourRule::kBinary);
  const auto grey = cs::label_components_bfs(image, cs::Connectivity::kEight,
                                             cs::ColourRule::kSameColour);
  EXPECT_EQ(cs::count_components(binary), 1u);
  EXPECT_EQ(cs::count_components(grey), 2u);
  EXPECT_EQ(grey(0, 0), grey(1, 1));
  EXPECT_EQ(grey(0, 1), grey(1, 0));
  EXPECT_NE(grey(0, 0), grey(0, 1));
}

TEST(BfsLabelTest, SnakeComponentIsOne) {
  const auto image = from_rows({{1, 1, 1, 1, 1},
                                {0, 0, 0, 0, 1},
                                {1, 1, 1, 1, 1},
                                {1, 0, 0, 0, 0},
                                {1, 1, 1, 1, 1}});
  const auto labels = cs::label_components_bfs(image, cs::Connectivity::kFour);
  EXPECT_EQ(cs::count_components(labels), 1u);
}

TEST(UnionFindTest, MatchesBfsExactlyOnPatterns) {
  for (int id = 1; id <= im::kNumTestPatterns; ++id) {
    const auto image =
        im::make_test_pattern(static_cast<im::TestPattern>(id), 64);
    for (const auto conn :
         {cs::Connectivity::kFour, cs::Connectivity::kEight}) {
      const auto bfs = cs::label_components_bfs(image, conn);
      const auto uf = cs::label_components_unionfind(image, conn);
      EXPECT_EQ(bfs, uf) << "pattern " << id << " conn "
                         << static_cast<int>(conn);
    }
  }
}

TEST(UnionFindTest, MatchesBfsOnGreyImages) {
  const auto image = im::make_darpa_like(96, 11);
  for (const auto conn : {cs::Connectivity::kFour, cs::Connectivity::kEight}) {
    const auto bfs = cs::label_components_bfs(image, conn,
                                              cs::ColourRule::kSameColour);
    const auto uf = cs::label_components_unionfind(
        image, conn, cs::ColourRule::kSameColour);
    EXPECT_EQ(bfs, uf);
  }
}

TEST(UnionFindTest, MatchesBfsOnPercolation) {
  for (const double occ : {0.2, 0.4, 0.592746, 0.8}) {
    const auto image = im::make_percolation(80, occ, 21);
    const auto bfs = cs::label_components_bfs(image);
    const auto uf = cs::label_components_unionfind(image);
    EXPECT_EQ(bfs, uf) << "occupancy " << occ;
  }
}

TEST(DisjointSetsTest, RootIsMinimumMember) {
  cs::DisjointSets sets(10);
  sets.unite(3, 7);
  sets.unite(7, 5);
  sets.unite(9, 3);
  EXPECT_EQ(sets.find(7), 3u);
  EXPECT_EQ(sets.find(5), 3u);
  EXPECT_EQ(sets.find(9), 3u);
  EXPECT_EQ(sets.find(0), 0u);
  sets.unite(5, 1);
  EXPECT_EQ(sets.find(9), 1u);
  for (std::uint32_t x = 0; x < 10; ++x) {
    EXPECT_EQ(sets.root(x), sets.find(x)) << "x=" << x;
  }
}

TEST(AnalysisTest, ComponentSizesSorted) {
  const auto image = from_rows({{1, 1, 0, 1},  //
                                {1, 0, 0, 0},  //
                                {0, 0, 0, 0}});
  const auto labels = cs::label_components_bfs(image, cs::Connectivity::kFour);
  const auto sizes = cs::component_sizes(labels);
  ASSERT_EQ(sizes.size(), 2u);
  EXPECT_EQ(sizes[0].pixels, 3u);
  EXPECT_EQ(sizes[1].pixels, 1u);
  EXPECT_EQ(sizes[1].label, 4u);  // the singleton at index 3
}

TEST(AnalysisTest, PartitionsEqualDetectsMismatch) {
  const auto image = from_rows({{1, 0, 1}});
  auto a = cs::label_components_bfs(image);
  auto b = a;
  EXPECT_TRUE(cs::partitions_equal(a, b));
  // Renaming labels consistently keeps partitions equal.
  for (auto& l : b.pixels()) {
    if (l != 0) l += 100;
  }
  EXPECT_TRUE(cs::partitions_equal(a, b));
  // Merging two labels into one breaks it.
  auto c = a;
  c(0, 2) = c(0, 0);
  EXPECT_FALSE(cs::partitions_equal(a, c));
  // And so does disagreeing about background.
  auto d = a;
  d(0, 1) = 99;
  EXPECT_FALSE(cs::partitions_equal(a, d));
}

TEST(AnalysisTest, IsValidLabelingAcceptsAndRejects) {
  const auto image = im::make_test_pattern(im::TestPattern::kFourSquares, 64);
  auto labels = cs::label_components_bfs(image);
  EXPECT_TRUE(cs::is_valid_labeling(image, labels, cs::Connectivity::kEight,
                                    cs::ColourRule::kBinary));
  labels(8, 8) = 77777;  // breaks component constancy
  EXPECT_FALSE(cs::is_valid_labeling(image, labels, cs::Connectivity::kEight,
                                     cs::ColourRule::kBinary));
}

TEST(AnalysisTest, RelabelConsecutive) {
  const auto image = from_rows({{1, 0, 1, 0, 1}});
  auto labels = cs::label_components_bfs(image);
  const auto count = cs::relabel_consecutive(labels);
  EXPECT_EQ(count, 3u);
  EXPECT_EQ(labels(0, 0), 1u);
  EXPECT_EQ(labels(0, 2), 2u);
  EXPECT_EQ(labels(0, 4), 3u);
}

// Known component counts for the catalog patterns at n = 64 are locked in
// as regression anchors (stripe width 4 at n = 64).
TEST(CatalogComponents, HorizontalBarsCount) {
  const auto image =
      im::make_test_pattern(im::TestPattern::kHorizontalBars, 64);
  const auto labels = cs::label_components_bfs(image);
  // Bars at i/4 even: 8 stripes.
  EXPECT_EQ(cs::count_components(labels), 8u);
}

TEST(CatalogComponents, VerticalBarsCount) {
  const auto image = im::make_test_pattern(im::TestPattern::kVerticalBars, 64);
  EXPECT_EQ(cs::count_components(cs::label_components_bfs(image)), 8u);
}

TEST(CatalogComponents, CrossAndDiscAreSingle) {
  for (const auto id : {im::TestPattern::kCross, im::TestPattern::kDisc}) {
    const auto image = im::make_test_pattern(id, 64);
    EXPECT_EQ(cs::count_components(cs::label_components_bfs(image)), 1u);
  }
}

TEST(CatalogComponents, FourSquaresAreFour) {
  const auto image = im::make_test_pattern(im::TestPattern::kFourSquares, 64);
  EXPECT_EQ(cs::count_components(cs::label_components_bfs(image)), 4u);
}

TEST(CatalogComponents, DualSpiralIsTwoArms) {
  const auto image = im::make_test_pattern(im::TestPattern::kDualSpiral, 256);
  EXPECT_EQ(cs::count_components(cs::label_components_bfs(image)), 2u);
}

// ---- Hoshen-Kopelman cross-checks ----
#include "histcc/cc_seq/hoshen_kopelman.hpp"

TEST(HoshenKopelmanTest, MatchesBfsOnPatterns) {
  for (int id = 1; id <= im::kNumTestPatterns; ++id) {
    const auto image =
        im::make_test_pattern(static_cast<im::TestPattern>(id), 64);
    for (const auto conn :
         {cs::Connectivity::kFour, cs::Connectivity::kEight}) {
      EXPECT_EQ(cs::label_components_hoshen_kopelman(image, conn),
                cs::label_components_bfs(image, conn))
          << "pattern " << id;
    }
  }
}

TEST(HoshenKopelmanTest, MatchesBfsOnPercolationSweep) {
  for (const double occ : {0.2, 0.5, 0.592746, 0.8, 1.0}) {
    const auto image = im::make_percolation(96, occ, 31);
    EXPECT_EQ(cs::label_components_hoshen_kopelman(image),
              cs::label_components_bfs(image))
        << "occupancy " << occ;
  }
}

TEST(HoshenKopelmanTest, GreyColourRule) {
  const auto image = im::make_darpa_like(96, 13);
  for (const auto conn : {cs::Connectivity::kFour, cs::Connectivity::kEight}) {
    EXPECT_EQ(cs::label_components_hoshen_kopelman(
                  image, conn, cs::ColourRule::kSameColour),
              cs::label_components_bfs(image, conn,
                                       cs::ColourRule::kSameColour));
  }
}

TEST(HoshenKopelmanTest, UShapeMergesAcrossScan) {
  // The classic HK stress: two arms discovered separately, merged at the
  // bottom of the U; canonical label must be the first arm's.
  const auto image = from_rows({{1, 0, 1},  //
                                {1, 0, 1},  //
                                {1, 1, 1}});
  const auto labels = cs::label_components_hoshen_kopelman(image);
  for (std::uint32_t i = 0; i < 3; ++i) {
    for (std::uint32_t j = 0; j < 3; ++j) {
      if (image(i, j)) {
        EXPECT_EQ(labels(i, j), 1u);
      }
    }
  }
}

// ---- Section 3 augmentation semantics: images 1-4, 7, 9 are "augmented"
// (component count grows with n), images 5, 6, 8 are "scaled" (constant).
TEST(CatalogComponents, AugmentedBarsGrowWithN) {
  auto bars = [](std::uint32_t n) {
    return cs::count_components(cs::label_components_bfs(
        im::make_test_pattern(im::TestPattern::kHorizontalBars, n)));
  };
  EXPECT_EQ(bars(64), 8u);
  EXPECT_EQ(bars(128), 16u);
  EXPECT_EQ(bars(256), 32u);
}

TEST(CatalogComponents, ScaledShapesStayConstant) {
  for (const auto id : {im::TestPattern::kCross, im::TestPattern::kDisc}) {
    for (const std::uint32_t n : {64u, 128u, 256u}) {
      EXPECT_EQ(cs::count_components(cs::label_components_bfs(
                    im::make_test_pattern(id, n))),
                1u)
          << "pattern " << static_cast<int>(id) << " n=" << n;
    }
  }
  auto squares = [](std::uint32_t n) {
    return cs::count_components(cs::label_components_bfs(
        im::make_test_pattern(im::TestPattern::kFourSquares, n)));
  };
  EXPECT_EQ(squares(64), 4u);
  EXPECT_EQ(squares(256), 4u);
}

TEST(CatalogComponents, AugmentedCirclesGrowWithN) {
  auto rings = [](std::uint32_t n) {
    return cs::count_components(cs::label_components_bfs(
        im::make_test_pattern(im::TestPattern::kCircles, n)));
  };
  EXPECT_GT(rings(256), rings(64));
}

TEST(CatalogComponents, SpiralStaysTwoArmsAtLargeSizes) {
  for (const std::uint32_t n : {512u, 1024u}) {
    EXPECT_EQ(cs::count_components(cs::label_components_bfs(
                  im::make_test_pattern(im::TestPattern::kDualSpiral, n))),
              2u)
        << "n=" << n;
  }
}
