#ifndef HISTCC_CC_HOOKS_HPP
#define HISTCC_CC_HOOKS_HPP

/// \file hooks.hpp
/// Tile hooks and the paper's drastically-limited label updating.
///
/// The key novelty of the paper's connected-components algorithm is that
/// merge iterations never relabel tile interiors: each processor keeps one
/// *hook* per local component that touches its tile border — the
/// component's initial label plus the offset of one of its border pixels
/// (Procedure 2, Figure 5).  During the log p merges only border-pixel
/// labels are kept current (binary search over the change array); after
/// the final merge the "total consistency update" brings the stale
/// interiors up to date from the hooks.  The paper does that with one
/// breadth-first relabeling per changed hook.  Here the tile interior
/// holds component ids (ccseq::tile_components) instead of labels, so the
/// update writes each hook's merged label into the component table and
/// relabels the interior in one sweep, label = table[id].

#include <cstdint>
#include <span>
#include <vector>

#include "histcc/cc/border_graph.hpp"

namespace histcc::cc {

/// One hook: a component's initial label and the tile offset of one of its
/// border pixels.
struct TileHook {
  std::uint32_t label;   ///< label the component had after initialization
  std::uint32_t offset;  ///< row-major tile offset of a border pixel of it
  friend bool operator==(const TileHook&, const TileHook&) = default;
};

/// Row-major offsets of every pixel on the boundary of a rows x cols tile
/// (each corner once).
[[nodiscard]] std::vector<std::uint32_t> tile_border_offsets(
    std::uint32_t rows, std::uint32_t cols);

/// Procedure 2: one hook per distinct label among the coloured border
/// pixels of the tile, sorted by label (radix sort + unique scan).
[[nodiscard]] std::vector<TileHook> make_tile_hooks(
    std::span<const std::uint8_t> pixels, std::span<const std::uint32_t> labels,
    std::span<const std::uint32_t> border_offsets);

/// Per-merge-iteration update: binary search each coloured border pixel's
/// label in the alpha-sorted change array and replace it.  O(B log C) for
/// B border pixels and C changes.
void update_border_labels(std::span<std::uint32_t> labels,
                          std::span<const std::uint8_t> pixels,
                          std::span<const std::uint32_t> border_offsets,
                          std::span<const ChangePair> changes);

/// Ablation variant: relabel *every* tile pixel against the change array —
/// what the paper's "drastically limited updating" avoids.  O(qr log C).
void update_all_labels(std::span<std::uint32_t> labels,
                       std::span<const std::uint8_t> pixels,
                       std::span<const ChangePair> changes);

/// Final total-consistency update of a rows x cols tile whose border ring
/// holds labels and whose interior holds component ids into `table`, as
/// ccseq::tile_components numbered them.  `hooks` are the tile's hooks
/// (make_tile_hooks, sorted by initial label) and table[1..] must still
/// hold the initial labels, ascending.  Each hook writes the current label
/// of its border pixel into its component's table entry, then one sweep
/// label = table[id] relabels every interior pixel.  All border pixels of
/// a tile component carry one label after every merge (a change array
/// maps labels, not pixels), so the hook's label is the component's.
void consistency_update(std::span<std::uint32_t> labels, std::uint32_t rows,
                        std::uint32_t cols, std::span<const TileHook> hooks,
                        std::span<std::uint32_t> table);

}  // namespace histcc::cc

#endif  // HISTCC_CC_HOOKS_HPP
