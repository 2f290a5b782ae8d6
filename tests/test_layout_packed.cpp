// Differential proof of SpreadLayout::kPacked: every parallel kernel must
// produce byte-identical results whether Spread blocks are padded to the
// uniform max_tile_size() stride (kStrided, the PR-5 contract, kept as the
// oracle) or sized exactly per rank from the TileLayout prefix-sum table
// (kPacked, the default).  The sweep runs the ragged-shape catalog at
// p in {1, 4, 16}; the allocation-accounting tests then pin down *why*
// packed exists: strictly fewer payload bytes on ragged shapes, exactly
// equal bytes when the grid divides the image evenly.
//
// Labelled `shapes`; under the race-ledger preset the p = 4 ledger tests
// additionally certify both modes follow the publication protocol.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <memory>
#include <utility>
#include <vector>

#include "histcc/cc/label_prop.hpp"
#include "histcc/cc/parallel_cc.hpp"
#include "histcc/cc/region_graph.hpp"
#include "histcc/cc/stats_parallel.hpp"
#include "histcc/cc_seq/analysis.hpp"
#include "histcc/cc_seq/bfs_label.hpp"
#include "histcc/hist/equalize.hpp"
#include "histcc/hist/histogram.hpp"
#include "histcc/image/layout.hpp"
#include "histcc/morph/morphology.hpp"
#include "histcc/splitc/machine.hpp"
#include "histcc/splitc/spread.hpp"

namespace cc = histcc::cc;
namespace ccseq = histcc::ccseq;
namespace hist = histcc::hist;
namespace im = histcc::img;
namespace morph = histcc::morph;
namespace sc = histcc::splitc;

namespace {

// The ISSUE's ragged catalog.  640 x 480 is the expensive VGA frame: it
// runs through cc + histogram only (the cheap subset), the smaller shapes
// through every kernel.
constexpr std::pair<std::uint32_t, std::uint32_t> kShapes[] = {
    {1, 1}, {7, 513}, {1000, 3}, {97, 63}, {96, 64}, {640, 480},
};

constexpr bool is_cheap_subset_only(std::uint32_t h, std::uint32_t w) {
  return h >= 640 || w >= 640;
}

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

std::unique_ptr<sc::Machine> make_machine(std::uint32_t p,
                                          sc::SpreadLayout mode) {
  // Pin the mode explicitly: the suite must compare both layouts even
  // when CI exported HISTCC_SPREAD_LAYOUT for the rest of the matrix.
  // (unique_ptr because Machine is neither copyable nor movable.)
  auto machine = std::make_unique<sc::Machine>(p);
  machine->set_spread_layout(mode);
  return machine;
}

constexpr sc::SpreadLayout kModes[] = {sc::SpreadLayout::kStrided,
                                       sc::SpreadLayout::kPacked};

std::string shape_tag(std::uint32_t h, std::uint32_t w, std::uint32_t p) {
  return std::to_string(h) + "x" + std::to_string(w) + "_p" +
         std::to_string(p);
}

/// True when the grid divides the image evenly, i.e. every rank's tile has
/// the maximal size and packing reclaims nothing.
bool evenly_divisible(const im::TileLayout& layout) {
  for (std::uint32_t rank = 0; rank < layout.nprocs(); ++rank) {
    if (layout.tile_size(rank) != layout.max_tile_size()) return false;
  }
  return true;
}

class PackedDifferential : public ::testing::TestWithParam<std::uint32_t> {};

}  // namespace

// ---- Kernel-by-kernel equivalence: run in each mode, compare outputs.

TEST_P(PackedDifferential, ConnectedComponentsIdenticalAcrossModes) {
  const std::uint32_t p = GetParam();
  for (const auto& [h, w] : kShapes) {
    const auto image = make_random_shape(h, w, 4, h * 1000 + w);
    cc::CcOptions options;
    options.rule = ccseq::ColourRule::kSameColour;
    std::vector<im::LabelImage> results;
    for (const auto mode : kModes) {
      const auto owner = make_machine(p, mode);
      sc::Machine& machine = *owner;
      results.push_back(
          cc::connected_components_parallel(machine, image, options));
    }
    EXPECT_EQ(results[0], results[1]) << shape_tag(h, w, p);
    // Both modes must also still be *correct*, not merely consistent.
    EXPECT_EQ(results[1],
              ccseq::label_components_bfs(image, options.connectivity,
                                          options.rule))
        << shape_tag(h, w, p);
  }
}

TEST_P(PackedDifferential, HistogramIdenticalAcrossModes) {
  const std::uint32_t p = GetParam();
  for (const auto& [h, w] : kShapes) {
    const auto image = make_random_shape(h, w, 64, h * 31 + w);
    std::vector<std::vector<std::uint32_t>> results;
    for (const auto mode : kModes) {
      const auto owner = make_machine(p, mode);
      sc::Machine& machine = *owner;
      results.push_back(hist::histogram_parallel(machine, image, 64));
    }
    EXPECT_EQ(results[0], results[1]) << shape_tag(h, w, p);
    EXPECT_EQ(results[1], hist::histogram_seq(image, 64))
        << shape_tag(h, w, p);
  }
}

TEST_P(PackedDifferential, EqualizeIdenticalAcrossModes) {
  const std::uint32_t p = GetParam();
  for (const auto& [h, w] : kShapes) {
    if (is_cheap_subset_only(h, w)) continue;
    const auto image = make_random_shape(h, w, 256, h * 7 + w);
    std::vector<im::GreyImage> results;
    for (const auto mode : kModes) {
      const auto owner = make_machine(p, mode);
      sc::Machine& machine = *owner;
      const im::TileLayout layout(h, w, p);
      sc::Spread<std::uint8_t> tiles(machine, layout.tile_sizes(),
                                     "eq_tiles");
      layout.scatter(image, tiles);
      hist::equalize_parallel(machine, layout, tiles, 256);
      results.push_back(layout.gather(tiles));
    }
    EXPECT_EQ(results[0], results[1]) << shape_tag(h, w, p);
  }
}

TEST_P(PackedDifferential, LabelPropIdenticalAcrossModes) {
  const std::uint32_t p = GetParam();
  for (const auto& [h, w] : kShapes) {
    if (is_cheap_subset_only(h, w)) continue;  // label-prop is O(diameter)
    const auto image = make_random_shape(h, w, 2, h * 13 + w);
    std::vector<im::LabelImage> results;
    for (const auto mode : kModes) {
      const auto owner = make_machine(p, mode);
      sc::Machine& machine = *owner;
      results.push_back(cc::connected_components_label_prop(machine, image));
    }
    EXPECT_EQ(results[0], results[1]) << shape_tag(h, w, p);
  }
}

TEST_P(PackedDifferential, RegionGraphAndStatsIdenticalAcrossModes) {
  const std::uint32_t p = GetParam();
  for (const auto& [h, w] : kShapes) {
    if (is_cheap_subset_only(h, w)) continue;
    const auto image = make_random_shape(h, w, 3, h * 3 + w);
    const auto labels = ccseq::label_components_bfs(
        image, ccseq::Connectivity::kEight, ccseq::ColourRule::kSameColour);
    std::vector<std::vector<cc::RegionEdge>> edges;
    std::vector<std::vector<ccseq::ComponentStats>> stats;
    for (const auto mode : kModes) {
      const auto owner = make_machine(p, mode);
      sc::Machine& machine = *owner;
      edges.push_back(cc::region_adjacency_parallel(machine, labels));
      stats.push_back(cc::component_stats_parallel(machine, image, labels));
    }
    EXPECT_EQ(edges[0], edges[1]) << shape_tag(h, w, p);
    ASSERT_EQ(stats[0].size(), stats[1].size()) << shape_tag(h, w, p);
    for (std::size_t i = 0; i < stats[0].size(); ++i) {
      const auto& a = stats[0][i];
      const auto& b = stats[1][i];
      EXPECT_EQ(a.label, b.label) << shape_tag(h, w, p);
      EXPECT_EQ(a.colour, b.colour) << shape_tag(h, w, p);
      EXPECT_EQ(a.pixels, b.pixels) << shape_tag(h, w, p);
      EXPECT_EQ(a.min_row, b.min_row) << shape_tag(h, w, p);
      EXPECT_EQ(a.min_col, b.min_col) << shape_tag(h, w, p);
      EXPECT_EQ(a.max_row, b.max_row) << shape_tag(h, w, p);
      EXPECT_EQ(a.max_col, b.max_col) << shape_tag(h, w, p);
      EXPECT_EQ(a.sum_row, b.sum_row) << shape_tag(h, w, p);
      EXPECT_EQ(a.sum_col, b.sum_col) << shape_tag(h, w, p);
    }
  }
}

TEST_P(PackedDifferential, MorphologyIdenticalAcrossModes) {
  const std::uint32_t p = GetParam();
  for (const auto& [h, w] : kShapes) {
    if (is_cheap_subset_only(h, w)) continue;
    const auto image = make_random_shape(h, w, 2, h * 57 + w);
    std::vector<im::GreyImage> eroded;
    std::vector<im::GreyImage> dilated;
    for (const auto mode : kModes) {
      const auto owner = make_machine(p, mode);
      sc::Machine& machine = *owner;
      const im::TileLayout layout(h, w, p);
      sc::Spread<std::uint8_t> tiles(machine, layout.tile_sizes(),
                                     "morph_tiles");
      sc::Spread<std::uint8_t> out(machine, layout.tile_sizes(),
                                   "morph_out");
      layout.scatter(image, tiles);
      morph::erode_parallel(machine, layout, tiles, out);
      eroded.push_back(layout.gather(out));
      morph::dilate_parallel(machine, layout, tiles, out);
      dilated.push_back(layout.gather(out));
    }
    EXPECT_EQ(eroded[0], eroded[1]) << shape_tag(h, w, p);
    EXPECT_EQ(dilated[0], dilated[1]) << shape_tag(h, w, p);
  }
}

INSTANTIATE_TEST_SUITE_P(Procs, PackedDifferential,
                         ::testing::Values(1, 4, 16));

// ---- Ledger certification at p = 4: under the race-ledger preset both
// allocation modes must follow the publication protocol on every shape
// (RacePolicy::kThrow turns a violation into a test failure); in plain
// builds this is a both-modes correctness smoke.
TEST(PackedLedger, BothModesRunLedgerCleanAtP4) {
  for (const auto mode : kModes) {
    for (const auto& [h, w] : kShapes) {
      const auto owner = make_machine(4, mode);
      sc::Machine& machine = *owner;
      const auto image = make_random_shape(h, w, 2, h * 31 + w);
      EXPECT_NO_THROW({
        (void)cc::connected_components_parallel(machine, image,
                                                cc::CcOptions{});
      }) << h << "x" << w;
      EXPECT_NO_THROW({ (void)hist::histogram_parallel(machine, image, 2); })
          << h << "x" << w;
    }
  }
}

// ---- Allocation accounting: packing must reclaim bytes exactly where the
// layout is ragged and nowhere else.

TEST(PackedFootprint, SpreadFootprintMatchesTheLayoutArithmetic) {
  for (const auto& [h, w] : kShapes) {
    for (const std::uint32_t p : {1u, 4u, 16u}) {
      const im::TileLayout layout(h, w, p);
      std::size_t packed_sum = 0;
      for (std::uint32_t rank = 0; rank < p; ++rank) {
        packed_sum += layout.tile_size(rank);
      }
      const auto packed = make_machine(p, sc::SpreadLayout::kPacked);
      sc::Spread<std::uint32_t> a(*packed, layout.tile_sizes(), "a");
      EXPECT_EQ(a.footprint_bytes(), packed_sum * sizeof(std::uint32_t))
          << shape_tag(h, w, p);

      const auto strided = make_machine(p, sc::SpreadLayout::kStrided);
      sc::Spread<std::uint32_t> b(*strided, layout.tile_sizes(), "b");
      EXPECT_EQ(b.footprint_bytes(),
                std::size_t{p} * layout.max_tile_size() *
                    sizeof(std::uint32_t))
          << shape_tag(h, w, p);

      EXPECT_LE(a.footprint_bytes(), b.footprint_bytes())
          << shape_tag(h, w, p);
      EXPECT_EQ(a.footprint_bytes() == b.footprint_bytes(),
                evenly_divisible(layout))
          << shape_tag(h, w, p);
      // per_proc() still reports the uniform stride in both modes, so
      // capacity reasoning against the old contract stays valid.
      EXPECT_EQ(a.per_proc(), layout.max_tile_size());
      EXPECT_EQ(b.per_proc(), layout.max_tile_size());
    }
  }
}

namespace {

/// Spread payload bytes a full cc + histogram pipeline allocates on a
/// fresh machine in `mode`.
std::uint64_t pipeline_alloc_bytes(std::uint32_t h, std::uint32_t w,
                                   std::uint32_t p, sc::SpreadLayout mode) {
  const auto owner = make_machine(p, mode);
  sc::Machine& machine = *owner;
  const auto image = make_random_shape(h, w, 4, h * 11 + w);
  machine.reset_alloc_stats();
  (void)cc::connected_components_parallel(machine, image, cc::CcOptions{});
  (void)hist::histogram_parallel(machine, image, 16);
  return machine.spread_bytes_allocated();
}

}  // namespace

TEST(PackedFootprint, KernelRunsNeverAllocateMoreThanStrided) {
  for (const auto& [h, w] : kShapes) {
    if (is_cheap_subset_only(h, w)) continue;
    for (const std::uint32_t p : {1u, 4u, 16u}) {
      const auto packed =
          pipeline_alloc_bytes(h, w, p, sc::SpreadLayout::kPacked);
      const auto strided =
          pipeline_alloc_bytes(h, w, p, sc::SpreadLayout::kStrided);
      EXPECT_LE(packed, strided) << shape_tag(h, w, p);
      // At p = 1 the single block IS the image: nothing to reclaim.
      if (p == 1) {
        EXPECT_EQ(packed, strided) << shape_tag(h, w, p);
      }
    }
  }
}

TEST(PackedFootprint, RaggedShapesReclaimStrictly) {
  // The ISSUE's acceptance shapes: very wide and very tall at p = 4 carry
  // real max_tile_size() padding, so packed must land strictly below.
  for (const auto& [h, w] :
       {std::pair{7u, 513u}, std::pair{1000u, 3u}, std::pair{97u, 63u}}) {
    const auto packed =
        pipeline_alloc_bytes(h, w, 4, sc::SpreadLayout::kPacked);
    const auto strided =
        pipeline_alloc_bytes(h, w, 4, sc::SpreadLayout::kStrided);
    EXPECT_LT(packed, strided) << h << "x" << w;
  }
}

TEST(PackedFootprint, DivisibleShapesAllocateIdentically) {
  // 96 x 64 divides evenly on the 2 x 2 and 4 x 4 grids: every tile is
  // maximal, packing reclaims nothing, and the two modes must agree to
  // the byte — the "equality exactly on divisible shapes" half of the
  // accounting contract.
  for (const std::uint32_t p : {4u, 16u}) {
    ASSERT_TRUE(evenly_divisible(im::TileLayout(96, 64, p)));
    EXPECT_EQ(pipeline_alloc_bytes(96, 64, p, sc::SpreadLayout::kPacked),
              pipeline_alloc_bytes(96, 64, p, sc::SpreadLayout::kStrided))
        << "p=" << p;
  }
}

TEST(PackedFootprint, AllocCountersSurviveRunsAndResetExplicitly) {
  const auto owner = make_machine(4, sc::SpreadLayout::kPacked);
  sc::Machine& machine = *owner;
  EXPECT_EQ(machine.spread_bytes_allocated(), 0u);
  const im::TileLayout layout(97, 63, 4);
  sc::Spread<std::uint8_t> tiles(machine, layout.tile_sizes(), "tiles");
  EXPECT_EQ(machine.spread_bytes_allocated(), tiles.footprint_bytes());
  // run() keeps the counters (footprints are per-workload, not per-run) …
  machine.run([&](sc::Proc& self) { (void)tiles.local(self); });
  EXPECT_EQ(machine.spread_bytes_allocated(), tiles.footprint_bytes());
  // … and only the explicit reset clears them.
  machine.reset_alloc_stats();
  EXPECT_EQ(machine.spread_bytes_allocated(), 0u);
}
