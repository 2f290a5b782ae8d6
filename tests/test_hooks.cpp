// Tests for tile hooks (Procedure 2, Figure 5), border-only updating, and
// the final total-consistency update (hooks into the component table, one
// interior sweep) — the paper's core novelty.
#include <gtest/gtest.h>

#include "histcc/cc/hooks.hpp"
#include "histcc/cc_seq/bfs_label.hpp"
#include "histcc/cc_seq/union_find.hpp"

namespace cc = histcc::cc;
namespace cs = histcc::ccseq;

namespace {

/// Label a rows x cols tile with labels = row-major seed index + 1.
std::vector<std::uint32_t> label(const std::vector<std::uint8_t>& px,
                                 std::uint32_t rows, std::uint32_t cols) {
  std::vector<std::uint32_t> lb(px.size());
  cs::BfsScratch scratch;
  cs::label_tile(
      px, lb, rows, cols, cs::Connectivity::kEight, cs::ColourRule::kBinary,
      [cols](std::uint32_t i, std::uint32_t j) { return i * cols + j + 1; },
      scratch);
  return lb;
}

/// Seed labels of init_tile are kBase + row-major seed index + 1, so they
/// never equal a component id.
constexpr std::uint32_t kBase = 1000;

/// A tile as connected_components_parallel holds it after initialization:
/// tile_components' component ids, the border ring rewritten to labels,
/// and the table of each id's initial label.
struct InitTile {
  std::vector<std::uint32_t> labels;
  std::vector<std::uint32_t> table;
  std::vector<std::uint32_t> border;
};

InitTile init_tile(const std::vector<std::uint8_t>& px, std::uint32_t rows,
                   std::uint32_t cols,
                   cs::Connectivity conn = cs::Connectivity::kEight) {
  InitTile tile{std::vector<std::uint32_t>(px.size()), {},
                cc::tile_border_offsets(rows, cols)};
  cs::tile_components(
      px, tile.labels, rows, cols, conn, cs::ColourRule::kBinary,
      [cols](std::uint32_t i, std::uint32_t j) {
        return kBase + i * cols + j + 1;
      },
      tile.table);
  for (const auto offset : tile.border) {
    tile.labels[offset] = tile.table[tile.labels[offset]];
  }
  return tile;
}

}  // namespace

TEST(BorderOffsetsTest, CountsAndUniqueness) {
  const auto offsets = cc::tile_border_offsets(4, 6);
  EXPECT_EQ(offsets.size(), 2u * (4 + 6) - 4);
  std::set<std::uint32_t> unique(offsets.begin(), offsets.end());
  EXPECT_EQ(unique.size(), offsets.size());
  for (const auto off : offsets) {
    const auto i = off / 6;
    const auto j = off % 6;
    EXPECT_TRUE(i == 0 || i == 3 || j == 0 || j == 5) << off;
  }
}

TEST(BorderOffsetsTest, DegenerateTiles) {
  EXPECT_EQ(cc::tile_border_offsets(1, 5).size(), 5u);
  EXPECT_EQ(cc::tile_border_offsets(5, 1).size(), 5u);
  EXPECT_EQ(cc::tile_border_offsets(1, 1).size(), 1u);
  EXPECT_EQ(cc::tile_border_offsets(2, 2).size(), 4u);
}

TEST(TileHooksTest, OneHookPerBorderComponent) {
  // 4x4 tile: component A occupies the top row, component B the bottom
  // row; a third component sits strictly inside no tile this small, so add
  // a bigger example below.
  const std::vector<std::uint8_t> px{1, 1, 1, 1,  //
                                     0, 0, 0, 0,  //
                                     0, 0, 0, 0,  //
                                     1, 1, 1, 1};
  const auto lb = label(px, 4, 4);
  const auto offsets = cc::tile_border_offsets(4, 4);
  const auto hooks = cc::make_tile_hooks(px, lb, offsets);
  ASSERT_EQ(hooks.size(), 2u);
  EXPECT_EQ(hooks[0].label, 1u);   // top row, seed (0,0)
  EXPECT_EQ(hooks[1].label, 13u);  // bottom row, seed (3,0)
  // Hook offsets point at border pixels of the right component.
  EXPECT_EQ(lb[hooks[0].offset], 1u);
  EXPECT_EQ(lb[hooks[1].offset], 13u);
}

TEST(TileHooksTest, InteriorComponentsGetNoHook) {
  // 5x5 tile with an isolated centre pixel: it touches no border.
  std::vector<std::uint8_t> px(25, 0);
  px[12] = 1;        // centre (2,2)
  px[0] = 1;         // corner component
  const auto lb = label(px, 5, 5);
  const auto hooks =
      cc::make_tile_hooks(px, lb, cc::tile_border_offsets(5, 5));
  ASSERT_EQ(hooks.size(), 1u);
  EXPECT_EQ(hooks[0].label, 1u);
}

TEST(TileHooksTest, HooksAreSortedByLabel) {
  std::vector<std::uint8_t> px(64, 0);
  // Components at the four corners of an 8x8 tile.
  px[0] = px[7] = px[56] = px[63] = 1;
  const auto lb = label(px, 8, 8);
  const auto hooks =
      cc::make_tile_hooks(px, lb, cc::tile_border_offsets(8, 8));
  ASSERT_EQ(hooks.size(), 4u);
  for (std::size_t i = 1; i < hooks.size(); ++i) {
    EXPECT_LT(hooks[i - 1].label, hooks[i].label);
  }
}

TEST(UpdateBordersTest, OnlyBorderPixelsChange) {
  // 4x4 all-foreground tile, single component labeled 1 everywhere.
  std::vector<std::uint8_t> px(16, 1);
  auto lb = label(px, 4, 4);
  const std::vector<cc::ChangePair> changes{{1, 42}};
  cc::update_border_labels(lb, px, cc::tile_border_offsets(4, 4), changes);
  // Border pixels now 42; the four interior pixels still 1.
  EXPECT_EQ(lb[0], 42u);
  EXPECT_EQ(lb[3], 42u);
  EXPECT_EQ(lb[12], 42u);
  EXPECT_EQ(lb[5], 1u);
  EXPECT_EQ(lb[6], 1u);
  EXPECT_EQ(lb[9], 1u);
  EXPECT_EQ(lb[10], 1u);
}

TEST(UpdateBordersTest, BackgroundAndUnlistedLabelsUntouched) {
  std::vector<std::uint8_t> px{1, 0, 1, 1};
  std::vector<std::uint32_t> lb{5, 0, 9, 9};
  const std::vector<cc::ChangePair> changes{{5, 2}};
  cc::update_border_labels(lb, px, cc::tile_border_offsets(2, 2), changes);
  EXPECT_EQ(lb, (std::vector<std::uint32_t>{2, 0, 9, 9}));
}

TEST(UpdateAllTest, EveryPixelChanges) {
  std::vector<std::uint8_t> px(16, 1);
  auto lb = label(px, 4, 4);
  const std::vector<cc::ChangePair> changes{{1, 42}};
  cc::update_all_labels(lb, px, changes);
  for (const auto l : lb) EXPECT_EQ(l, 42u);
}

// The total-consistency update over a tile in the state the parallel
// algorithm leaves it after initialization: ids inside, labels on the ring.

TEST(RelabelInteriorTest, StaleInteriorIsFixed) {
  // All-foreground 4x4 tile: one component; border updated to 42; the
  // final pass must pull the interior to 42 via the hook.
  std::vector<std::uint8_t> px(16, 1);
  auto tile = init_tile(px, 4, 4);
  const auto hooks = cc::make_tile_hooks(px, tile.labels, tile.border);
  cc::update_border_labels(tile.labels, px, tile.border,
                           {{cc::ChangePair{kBase + 1, 42}}});
  cc::consistency_update(tile.labels, 4, 4, hooks, tile.table);
  for (std::size_t i = 0; i < 16; ++i) EXPECT_EQ(tile.labels[i], 42u) << i;
}

TEST(RelabelInteriorTest, UnchangedComponentsAreSkipped) {
  std::vector<std::uint8_t> px(16, 1);
  auto tile = init_tile(px, 4, 4);
  const auto hooks = cc::make_tile_hooks(px, tile.labels, tile.border);
  cc::consistency_update(tile.labels, 4, 4, hooks, tile.table);
  for (const auto l : tile.labels) EXPECT_EQ(l, kBase + 1);
}

TEST(RelabelInteriorTest, MultipleComponentsIndependently) {
  // Three components of a 6x5 tile: the top row (seed 0), the bottom two
  // rows (seed 20, with interior pixels in row 4) and an interior-only
  // pixel at (2, 2) (seed 12); only the bottom one was merged away.
  const std::vector<std::uint8_t> px{1, 1, 1, 1, 1,  //
                                     0, 0, 0, 0, 0,  //
                                     0, 0, 1, 0, 0,  //
                                     0, 0, 0, 0, 0,  //
                                     1, 1, 1, 1, 1,  //
                                     1, 1, 1, 1, 1};
  auto tile = init_tile(px, 6, 5);
  const auto hooks = cc::make_tile_hooks(px, tile.labels, tile.border);
  ASSERT_EQ(hooks.size(), 2u);
  cc::update_border_labels(tile.labels, px, tile.border,
                           {{cc::ChangePair{kBase + 21, 500}}});
  cc::consistency_update(tile.labels, 6, 5, hooks, tile.table);
  for (std::uint32_t j = 0; j < 5; ++j) {
    EXPECT_EQ(tile.labels[j], kBase + 1);
    EXPECT_EQ(tile.labels[20 + j], 500u);
    EXPECT_EQ(tile.labels[25 + j], 500u);
  }
  EXPECT_EQ(tile.labels[12], kBase + 13);  // interior-only, no hook
  EXPECT_EQ(tile.labels[11], 0u);
}

TEST(RelabelInteriorTest, UShapedComponentFullyRelabeled) {
  // A U whose two interior arms (columns 1 and 4) connect only through the
  // bottom border row: one component, one id, so one table entry relabels
  // both arms.
  const std::vector<std::uint8_t> px{0, 0, 0, 0, 0, 0,  //
                                     0, 1, 0, 0, 1, 0,  //
                                     0, 1, 0, 0, 1, 0,  //
                                     0, 1, 0, 0, 1, 0,  //
                                     0, 1, 0, 0, 1, 0,  //
                                     0, 0, 1, 1, 0, 0};
  auto tile = init_tile(px, 6, 6);
  ASSERT_EQ(tile.table.size(), 2u);  // background + one component
  const auto hooks = cc::make_tile_hooks(px, tile.labels, tile.border);
  ASSERT_EQ(hooks.size(), 1u);
  EXPECT_EQ(hooks[0].label, kBase + 8);  // seed (1, 1)
  cc::update_border_labels(tile.labels, px, tile.border,
                           {{cc::ChangePair{kBase + 8, 77}}});
  cc::consistency_update(tile.labels, 6, 6, hooks, tile.table);
  for (std::size_t i = 0; i < px.size(); ++i) {
    EXPECT_EQ(tile.labels[i], px[i] != 0 ? 77u : 0u) << i;
  }
}

TEST(RelabelInteriorTest, FourConnectivityRespected) {
  // A corner pixel and an interior 2x2 block that touch only diagonally:
  // under 4-connectivity the block is its own interior-only component, so
  // relabeling the corner's component must not leak into it; under
  // 8-connectivity they are one component and the block follows.
  const std::vector<std::uint8_t> px{1, 0, 0, 0, 0,  //
                                     0, 1, 1, 0, 0,  //
                                     0, 1, 1, 0, 0,  //
                                     0, 0, 0, 0, 0,  //
                                     0, 0, 0, 0, 0};
  const std::size_t block[] = {6, 7, 11, 12};
  for (const auto conn : {cs::Connectivity::kFour, cs::Connectivity::kEight}) {
    auto tile = init_tile(px, 5, 5, conn);
    const auto hooks = cc::make_tile_hooks(px, tile.labels, tile.border);
    ASSERT_EQ(hooks.size(), 1u);
    cc::update_border_labels(tile.labels, px, tile.border,
                             {{cc::ChangePair{kBase + 1, 99}}});
    cc::consistency_update(tile.labels, 5, 5, hooks, tile.table);
    EXPECT_EQ(tile.labels[0], 99u);
    const std::uint32_t want =
        conn == cs::Connectivity::kFour ? kBase + 7 : 99u;
    for (const auto idx : block) EXPECT_EQ(tile.labels[idx], want) << idx;
  }
}
