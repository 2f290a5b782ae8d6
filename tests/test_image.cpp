// Tests for the image container, tile layout (Section 3), the nine catalog
// generators (Figure 1), the DARPA-like generator, and PGM I/O.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "histcc/image/generators.hpp"
#include "histcc/image/image.hpp"
#include "histcc/image/layout.hpp"
#include "histcc/image/pgm_io.hpp"
#include "histcc/splitc/machine.hpp"
#include "histcc/util/require.hpp"

namespace im = histcc::img;
namespace sc = histcc::splitc;

TEST(ImageTest, ConstructionAndAccess) {
  im::GreyImage image(4, 6, 9);
  EXPECT_EQ(image.height(), 4u);
  EXPECT_EQ(image.width(), 6u);
  EXPECT_EQ(image.size(), 24u);
  EXPECT_EQ(image(3, 5), 9);
  image(2, 1) = 42;
  EXPECT_EQ(image.at(2, 1), 42);
  EXPECT_THROW((void)image.at(4, 0), histcc::util::contract_error);
  EXPECT_THROW((void)image.at(0, 6), histcc::util::contract_error);
  // Adopting a pixel vector requires exactly height * width pixels.
  EXPECT_EQ(im::GreyImage(2, 3, std::vector<std::uint8_t>(6, 9)),
            im::GreyImage(2, 3, 9));
  EXPECT_THROW(im::GreyImage(2, 3, std::vector<std::uint8_t>(5)),
               histcc::util::contract_error);
}

TEST(ImageTest, Equality) {
  im::GreyImage a(3, 3, 1), b(3, 3, 1);
  EXPECT_EQ(a, b);
  b(1, 1) = 2;
  EXPECT_FALSE(a == b);
  im::GreyImage c(3, 4, 1);
  EXPECT_FALSE(a == c);
}

TEST(LayoutTest, PaperGeometry) {
  // 512 x 512 on p = 32: 4 x 8 grid, 128 x 64 tiles (the Figure 4 example).
  const im::TileLayout layout(512, 32);
  EXPECT_EQ(layout.grid_rows(), 4u);
  EXPECT_EQ(layout.grid_cols(), 8u);
  EXPECT_EQ(layout.max_tile_rows(), 128u);
  EXPECT_EQ(layout.max_tile_cols(), 64u);
  EXPECT_EQ(layout.max_tile_size(), 128u * 64u);
  // Divisible shape: every rank's tile is full-size.
  for (std::uint32_t rank = 0; rank < 32; ++rank) {
    EXPECT_EQ(layout.tile_rows(rank), 128u);
    EXPECT_EQ(layout.tile_cols(rank), 64u);
  }
  EXPECT_EQ(layout.height(), 512u);
  EXPECT_EQ(layout.width(), 512u);
  EXPECT_EQ(layout.pixels(), 512ull * 512);
}

TEST(LayoutTest, RaggedCeilPartition) {
  // 100 x 100 on p = 32 (4 x 8 grid): qmax = 25, rmax = ceil(100/8) = 13;
  // the last grid column gets the 9-wide remainder.
  const im::TileLayout layout(100, 32);
  EXPECT_EQ(layout.max_tile_rows(), 25u);
  EXPECT_EQ(layout.max_tile_cols(), 13u);
  for (std::uint32_t gr = 0; gr < 4; ++gr) EXPECT_EQ(layout.rows_in(gr), 25u);
  for (std::uint32_t gc = 0; gc < 7; ++gc) EXPECT_EQ(layout.cols_in(gc), 13u);
  EXPECT_EQ(layout.cols_in(7), 100u - 7u * 13u);  // 9
  // Rank 0 owns the largest tile.
  EXPECT_EQ(layout.tile_size(0), layout.max_tile_size());
  // Per-rank sizes cover the image exactly.
  std::uint64_t covered = 0;
  for (std::uint32_t rank = 0; rank < 32; ++rank) {
    covered += layout.tile_size(rank);
  }
  EXPECT_EQ(covered, layout.pixels());
}

TEST(LayoutTest, EmptyTrailingTiles) {
  // 1000 x 3 on p = 16 (4 x 4 grid): rmax = 1, grid column 3 is empty.
  const im::TileLayout layout(1000, 3, 16);
  EXPECT_EQ(layout.max_tile_rows(), 250u);
  EXPECT_EQ(layout.max_tile_cols(), 1u);
  EXPECT_EQ(layout.cols_in(3), 0u);
  EXPECT_EQ(layout.tile_size(layout.rank_at(0, 3)), 0u);
  EXPECT_GT(layout.tile_size(0), 0u);
  // 1 x 1 on p = 16: only rank 0 owns the pixel.
  const im::TileLayout tiny(1, 1, 16);
  EXPECT_EQ(tiny.tile_size(0), 1u);
  std::uint64_t covered = 0;
  for (std::uint32_t rank = 0; rank < 16; ++rank) {
    covered += tiny.tile_size(rank);
  }
  EXPECT_EQ(covered, 1u);
}

TEST(LayoutTest, RowMajorProcessorAssignment) {
  const im::TileLayout layout(512, 32);
  EXPECT_EQ(layout.proc_row(0), 0u);
  EXPECT_EQ(layout.proc_col(7), 7u);
  EXPECT_EQ(layout.proc_row(8), 1u);
  EXPECT_EQ(layout.proc_col(8), 0u);
  EXPECT_EQ(layout.rank_at(3, 7), 31u);
}

TEST(LayoutTest, GlobalCoordinates) {
  const im::TileLayout layout(512, 32);
  // Processor 9 sits at grid (1, 1): rows 128.., cols 64..
  EXPECT_EQ(layout.global_row(9, 0), 128u);
  EXPECT_EQ(layout.global_col(9, 0), 64u);
  EXPECT_EQ(layout.global_row(9, 127), 255u);
  EXPECT_EQ(layout.global_col(9, 63), 127u);
}

TEST(LayoutTest, InitialLabelFormula) {
  // (I*q + i)*n + (J*r + j) + 1 (Section 5.1).
  const im::TileLayout layout(512, 32);
  EXPECT_EQ(layout.initial_label(0, 0, 0), 1u);
  EXPECT_EQ(layout.initial_label(9, 2, 3), (128u + 2) * 512 + 64 + 3 + 1);
  // 65535 x 65537 = 2^32 - 1 pixels, the largest label space: the last
  // pixel takes the top 32-bit label.
  const im::TileLayout widest(65535, 65537, 4);
  EXPECT_EQ(widest.initial_label(3, widest.tile_rows(3) - 1,
                                 widest.tile_cols(3) - 1),
            0xFFFFFFFFu);
}

TEST(LayoutTest, RejectsBadShapes) {
  // Non-divisible and non-square shapes are fine now; only a non-power-of-
  // two processor count, an empty image, or one of 2^32 or more pixels
  // (whose last label would wrap to 0, the background) is rejected.
  EXPECT_NO_THROW(im::TileLayout(100, 32));
  EXPECT_NO_THROW(im::TileLayout(97, 63, 4));
  EXPECT_THROW(im::TileLayout(512, 31), histcc::util::contract_error);
  EXPECT_THROW(im::TileLayout(0, 4), histcc::util::contract_error);
  EXPECT_THROW(im::TileLayout(512, 0, 4), histcc::util::contract_error);
  EXPECT_THROW(im::TileLayout(65536, 65536, 4), histcc::util::contract_error);
}

class ScatterGatherTest : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(ScatterGatherTest, RoundTripsExactly) {
  const std::uint32_t p = GetParam();
  const std::uint32_t n = 64;
  sc::Machine machine(p);
  const im::TileLayout layout(n, p);
  auto image = im::make_darpa_like(n, 5);
  sc::Spread<std::uint8_t> tiles(machine, layout.max_tile_size());
  layout.scatter(image, tiles);
  EXPECT_EQ(layout.gather(tiles), image);
}

INSTANTIATE_TEST_SUITE_P(Procs, ScatterGatherTest,
                         ::testing::Values(1, 2, 4, 8, 16, 32));

class RaggedScatterGatherTest
    : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(RaggedScatterGatherTest, RoundTripsNonSquareShapes) {
  const std::uint32_t p = GetParam();
  sc::Machine machine(p);
  const std::pair<std::uint32_t, std::uint32_t> shapes[] = {
      {1, 1}, {7, 513}, {640, 480}, {1000, 3}, {97, 63}};
  for (const auto& [h, w] : shapes) {
    const im::TileLayout layout(h, w, p);
    im::GreyImage image(h, w);
    // Labels use all 32 bits, as CC's label gather does.
    im::LabelImage labels(h, w);
    std::uint32_t seed = 1;
    for (std::uint32_t i = 0; i < h; ++i) {
      for (std::uint32_t j = 0; j < w; ++j) {
        seed = seed * 1664525u + 1013904223u;
        image(i, j) = static_cast<std::uint8_t>(seed >> 24);
        labels(i, j) = seed;
      }
    }
    sc::Spread<std::uint8_t> tiles(machine, layout.max_tile_size());
    layout.scatter(image, tiles);
    EXPECT_EQ(layout.gather(tiles), image) << h << "x" << w << " p=" << p;
    sc::Spread<std::uint32_t> label_tiles(machine, layout.max_tile_size());
    layout.scatter(labels, label_tiles);
    EXPECT_EQ(layout.gather(label_tiles), labels)
        << h << "x" << w << " p=" << p << " (labels)";
  }
}

INSTANTIATE_TEST_SUITE_P(Procs, RaggedScatterGatherTest,
                         ::testing::Values(1, 4, 16));

// Where each pixel lands, not just that gather undoes scatter: a stride
// bug shared by both would still round-trip.  Blocks are uniform
// max_tile_size() arrays, so every rank but 0 may have padding.
TEST(ScatterTest, TilePixelsRowMajor) {
  struct Case {
    std::uint32_t h, w, p, empty_tiles;
  };
  // 8 x 8 at p = 4: 2 x 2 grid of 4 x 4 tiles.  7 x 513 at p = 4: ragged
  // last grid row and column.  1000 x 3 at p = 16: grid column 3 is empty.
  for (const auto& [h, w, p, want_empty] :
       {Case{8, 8, 4, 0}, Case{7, 513, 4, 0}, Case{1000, 3, 16, 4}}) {
    sc::Machine machine(p);
    const im::TileLayout layout(h, w, p);
    im::GreyImage image(h, w);
    for (std::uint32_t i = 0; i < h; ++i) {
      for (std::uint32_t j = 0; j < w; ++j) {
        image(i, j) = static_cast<std::uint8_t>(1 + (i * w + j) % 255);
      }
    }
    sc::Spread<std::uint8_t> tiles(machine, layout.max_tile_size());
    layout.scatter(image, tiles);
    std::uint32_t empty_tiles = 0;
    for (std::uint32_t rank = 0; rank < p; ++rank) {
      const auto block = std::as_const(tiles).block(rank);
      const std::uint32_t r = layout.tile_cols(rank);
      for (std::uint32_t i = 0; i < layout.tile_rows(rank); ++i) {
        for (std::uint32_t j = 0; j < r; ++j) {
          ASSERT_EQ(block[static_cast<std::size_t>(i) * r + j],
                    image(layout.global_row(rank, i),
                          layout.global_col(rank, j)))
              << h << "x" << w << " p=" << p << " rank " << rank << " (" << i
              << ", " << j << ")";
        }
      }
      // Padding past the tile, and all of an empty tile's block, stay zero.
      for (std::size_t idx = layout.tile_size(rank); idx < block.size();
           ++idx) {
        ASSERT_EQ(block[idx], 0)
            << h << "x" << w << " p=" << p << " rank " << rank << " slot "
            << idx;
      }
      if (layout.tile_size(rank) == 0) ++empty_tiles;
    }
    EXPECT_EQ(empty_tiles, want_empty) << h << "x" << w;
  }
}

class PatternTest : public ::testing::TestWithParam<int> {};

TEST_P(PatternTest, BinaryScalableDeterministic) {
  const auto pattern = static_cast<im::TestPattern>(GetParam());
  for (const std::uint32_t n : {32u, 64u, 128u}) {
    const auto image = im::make_test_pattern(pattern, n);
    EXPECT_EQ(image.height(), n);
    EXPECT_EQ(image.width(), n);
    std::size_t foreground = 0;
    for (const auto px : image.pixels()) {
      ASSERT_LE(px, 1) << "catalog images are binary";
      foreground += px;
    }
    // Every pattern has both foreground and background.
    EXPECT_GT(foreground, 0u) << im::pattern_name(pattern) << " n=" << n;
    EXPECT_LT(foreground, image.size()) << im::pattern_name(pattern);
    // Deterministic.
    EXPECT_EQ(im::make_test_pattern(pattern, n), image);
  }
}

INSTANTIATE_TEST_SUITE_P(Catalog, PatternTest, ::testing::Range(1, 10));

TEST(PatternTest, NamesAreDistinct) {
  std::set<std::string_view> names;
  for (int id = 1; id <= im::kNumTestPatterns; ++id) {
    names.insert(im::pattern_name(static_cast<im::TestPattern>(id)));
  }
  EXPECT_EQ(names.size(), static_cast<std::size_t>(im::kNumTestPatterns));
}

TEST(PatternTest, RejectsTinyImages) {
  EXPECT_THROW((void)im::make_test_pattern(im::TestPattern::kCross, 16),
               histcc::util::contract_error);
}

TEST(PatternTest, CrossIsSymmetricAndCentred) {
  const auto image = im::make_test_pattern(im::TestPattern::kCross, 64);
  EXPECT_EQ(image(32, 0), 1);   // horizontal bar reaches the edge
  EXPECT_EQ(image(0, 32), 1);   // vertical bar reaches the edge
  EXPECT_EQ(image(0, 0), 0);    // corners are background
  EXPECT_EQ(image(63, 63), 0);
}

TEST(PatternTest, DiscIsFilledAndRound) {
  const std::uint32_t n = 128;
  const auto image = im::make_test_pattern(im::TestPattern::kDisc, n);
  EXPECT_EQ(image(n / 2, n / 2), 1);  // centre
  EXPECT_EQ(image(0, 0), 0);          // corner
  EXPECT_EQ(image(n / 2, 0), 0);      // radius is n/3 < n/2
}

TEST(DarpaLikeTest, GreyLevelsAndDeterminism) {
  const auto image = im::make_darpa_like(128, 99);
  EXPECT_EQ(image.height(), 128u);
  bool has_big_grey = false;
  for (const auto px : image.pixels()) {
    if (px >= 32) has_big_grey = true;
  }
  EXPECT_TRUE(has_big_grey);
  EXPECT_EQ(im::make_darpa_like(128, 99), image);
  EXPECT_FALSE(im::make_darpa_like(128, 100) == image);
}

TEST(PercolationTest, OccupancyIsRespected) {
  const auto sparse = im::make_percolation(128, 0.1, 3);
  const auto dense = im::make_percolation(128, 0.9, 3);
  auto count = [](const im::GreyImage& image) {
    std::size_t fg = 0;
    for (const auto px : image.pixels()) fg += px;
    return fg;
  };
  const double total = 128.0 * 128.0;
  EXPECT_NEAR(static_cast<double>(count(sparse)) / total, 0.1, 0.03);
  EXPECT_NEAR(static_cast<double>(count(dense)) / total, 0.9, 0.03);
  EXPECT_EQ(count(im::make_percolation(64, 0.0, 1)), 0u);
  EXPECT_EQ(count(im::make_percolation(64, 1.0, 1)), 64u * 64u);
}

TEST(IsingTest, TwoPhasesOnly) {
  const auto image = im::make_ising(64, 0.6);
  for (const auto px : image.pixels()) {
    ASSERT_TRUE(px == 1 || px == 2);
  }
}

TEST(RandomGreyTest, RespectsLevelBound) {
  const auto image = im::make_random_grey(64, 16, 4);
  for (const auto px : image.pixels()) ASSERT_LT(px, 16);
  EXPECT_THROW((void)im::make_random_grey(64, 257, 1),
               histcc::util::contract_error);
}

TEST(BandedGreyTest, ExactAreaPerLevel) {
  const std::uint32_t n = 64, k = 8;
  const auto image = im::make_banded_grey(n, k);
  std::vector<std::size_t> counts(k, 0);
  for (const auto px : image.pixels()) counts[px]++;
  for (const auto c : counts) EXPECT_EQ(c, n * n / k);
}

namespace {

/// A non-square image of more pixels than read_pgm reads per step (1 MiB),
/// so reading it crosses a step boundary mid-row.
im::GreyImage two_step_image() {
  im::GreyImage image(1031, 1153);
  for (std::size_t i = 0; i < image.size(); ++i) {
    image.pixels()[i] = static_cast<std::uint8_t>(i * 7 % 251);
  }
  return image;
}

}  // namespace

TEST(PgmIoTest, BinaryRoundTrip) {
  for (const auto& image : {im::make_darpa_like(64, 7), two_step_image()}) {
    std::stringstream stream;
    im::write_pgm(stream, image);
    const std::string bytes = stream.str();
    std::stringstream whole(bytes);
    EXPECT_EQ(im::read_pgm(whole), image);
    std::stringstream short_by_one(bytes.substr(0, bytes.size() - 1));
    EXPECT_THROW((void)im::read_pgm(short_by_one),
                 histcc::util::contract_error);
  }
}

TEST(PgmIoTest, ReadsAsciiP2) {
  std::stringstream stream("P2\n# a comment\n2 2\n255\n0 7\n128 255\n");
  const auto image = im::read_pgm(stream);
  EXPECT_EQ(image.height(), 2u);
  EXPECT_EQ(image.width(), 2u);
  EXPECT_EQ(image(0, 0), 0);
  EXPECT_EQ(image(0, 1), 7);
  EXPECT_EQ(image(1, 0), 128);
  EXPECT_EQ(image(1, 1), 255);

  const auto large = two_step_image();
  std::ostringstream text;
  text << "P2\n" << large.width() << ' ' << large.height() << "\n255\n";
  for (const auto px : large.pixels()) text << int{px} << ' ';
  std::stringstream large_stream(text.str());
  EXPECT_EQ(im::read_pgm(large_stream), large);
}

TEST(PgmIoTest, RejectsMalformedInput) {
  std::stringstream not_pgm("JUNK");
  EXPECT_THROW((void)im::read_pgm(not_pgm), histcc::util::contract_error);
  std::stringstream truncated("P5\n4 4\n255\nab");
  EXPECT_THROW((void)im::read_pgm(truncated), histcc::util::contract_error);
  std::stringstream deep("P5\n2 2\n70000\n....");
  EXPECT_THROW((void)im::read_pgm(deep), histcc::util::contract_error);
}

TEST(PgmIoTest, LabelPpmHasHeaderAndSize) {
  im::LabelImage labels(2, 2, 0);
  labels(0, 0) = 5;
  std::stringstream stream;
  im::write_label_ppm(stream, labels);
  const std::string data = stream.str();
  EXPECT_EQ(data.substr(0, 2), "P6");
  // header + 4 pixels * 3 bytes
  EXPECT_GE(data.size(), 12u);
  // Background pixel must be black: last 3 bytes are the (1,1) pixel.
  EXPECT_EQ(data[data.size() - 1], '\0');
  EXPECT_EQ(data[data.size() - 2], '\0');
  EXPECT_EQ(data[data.size() - 3], '\0');
}
