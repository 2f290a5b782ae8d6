#ifndef HISTCC_CC_SEQ_UNION_FIND_HPP
#define HISTCC_CC_SEQ_UNION_FIND_HPP

/// \file union_find.hpp
/// Two-pass union-find connected-components labeling, and the tile
/// labeler every tile-labeling backend runs.
///
/// The first pass (Rosenfeld-Pfaltz style, `union_rows`) unites each pixel
/// with its already-scanned neighbours in a disjoint-set forest; the
/// second resolves each pixel to its set (Gupta et al., arXiv:1606.05973).
/// `label_components_unionfind` is the sequential baseline: it must
/// produce exactly the canonical labeling of the paper's BFS labeler,
/// which the test suite exploits, and it anchors the sequential-time
/// denominator in the efficiency numbers the benchmarks report.  The
/// OpenMP backend (omp::connected_components_omp) runs `union_rows` once
/// per row strip.  `tile_components` labels one tile into component ids
/// and a table of their labels; the virtual-machine algorithms (parallel,
/// label propagation, replicated) label their tiles with it.

#include <cstdint>
#include <numeric>
#include <span>
#include <vector>

#include "histcc/cc_seq/common.hpp"
#include "histcc/image/image.hpp"
#include "histcc/util/require.hpp"

namespace histcc::ccseq {

/// Disjoint-set forest with path halving and union by index (smaller
/// index wins), over caller storage of one slot per element.
class DisjointSets {
 public:
  /// Make every element of `parent` its own set.  The storage must
  /// outlive the forest.
  explicit DisjointSets(std::span<std::uint32_t> parent) : parent_(parent) {
    std::iota(parent_.begin(), parent_.end(), std::uint32_t{0});
  }

  /// Root of x's set, with path halving.
  [[nodiscard]] std::uint32_t find(std::uint32_t x) noexcept {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }

  /// Root of x's set, without path halving.  It writes nothing, so any
  /// number of threads may call it at once, as long as no thread runs
  /// find or unite meanwhile.  Same result as find.
  [[nodiscard]] std::uint32_t root(std::uint32_t x) const noexcept {
    while (parent_[x] != x) x = parent_[x];
    return x;
  }

  /// Merge the sets of a and b; the smaller root index becomes the root,
  /// so the root of every set is its minimum member — this is what makes
  /// the final labeling canonical.  With path halving it also keeps every
  /// parent at or below its element's index.
  void unite(std::uint32_t a, std::uint32_t b) noexcept {
    a = find(a);
    b = find(b);
    if (a == b) return;
    if (a < b) {
      parent_[b] = a;
    } else {
      parent_[a] = b;
    }
  }

 private:
  std::span<std::uint32_t> parent_;
};

/// The labeler's first pass over rows [row_begin, row_end) of the
/// row-major image `pixels`, `cols` wide: unites each foreground pixel
/// with its already-scanned west, north-west, north and north-east
/// neighbours that `conn` and `rule` let it join, in a forest with one
/// slot per pixel.  Rows after the first link north; the first does only
/// if `link_up` (and never row 0).  Without `link_up` a call reads and
/// writes only its own rows' slots, so calls over disjoint row ranges may
/// run concurrently on one forest.
/// Defined in the header so it inlines into every caller's loop: an
/// out-of-line copy measured slower in the sequential labeler.
inline void union_rows(std::span<const std::uint8_t> pixels,
                       std::uint32_t cols, DisjointSets& sets,
                       std::uint32_t row_begin, std::uint32_t row_end,
                       bool link_up, Connectivity conn, ColourRule rule) {
  const bool eight = conn == Connectivity::kEight;
  const bool same_colour = rule == ColourRule::kSameColour;

  for (std::uint32_t i = row_begin; i < row_end; ++i) {
    const bool north = i > 0 && (link_up || i > row_begin);
    for (std::uint32_t j = 0; j < cols; ++j) {
      const std::size_t idx = static_cast<std::size_t>(i) * cols + j;
      const std::uint8_t colour = pixels[idx];
      if (colour == 0) continue;
      auto try_union = [&](std::size_t nidx) {
        if (pixels[nidx] == 0) return;
        if (same_colour && pixels[nidx] != colour) return;
        sets.unite(static_cast<std::uint32_t>(idx),
                   static_cast<std::uint32_t>(nidx));
      };
      if (j > 0) try_union(idx - 1);                       // west
      if (north) {
        try_union(idx - cols);                             // north
        if (eight) {
          if (j > 0) try_union(idx - cols - 1);            // north-west
          if (j + 1 < cols) try_union(idx - cols + 1);     // north-east
        }
      }
    }
  }
}

/// Label the rows x cols tile `pixels` (row-major) with union-find, using
/// `forest` (at least rows*cols slots) as the disjoint-set storage.  On
/// return forest[idx] holds the pixel's component id: 0 for background,
/// else 1, 2, ... numbered in the scan order of each component's first
/// pixel.  `table` is overwritten with one entry per id: table[0] =
/// kBackgroundLabel and table[id] = seed_label(i, j) of that component's
/// first pixel (i, j).  So table[forest[idx]] is exactly what the BFS
/// tile labeler (bfs_label.hpp) writes for the same seed_label, and a
/// seed_label that grows in scan order leaves table[1..] ascending.
/// The second pass flattens the forest in place in one forward sweep:
/// union by smaller index with path halving keeps every parent at or
/// below its pixel's index, so a non-root pixel's parent already holds
/// the component's id when the sweep reaches it.
template <typename LabelFn>
void tile_components(std::span<const std::uint8_t> pixels,
                     std::span<std::uint32_t> forest, std::uint32_t rows,
                     std::uint32_t cols, Connectivity conn, ColourRule rule,
                     LabelFn&& seed_label, std::vector<std::uint32_t>& table) {
  const std::size_t count = static_cast<std::size_t>(rows) * cols;
  HISTCC_REQUIRE(pixels.size() >= count && forest.size() >= count,
                 "tile spans too small");
  DisjointSets sets(forest.first(count));
  union_rows(pixels, cols, sets, 0, rows, /*link_up=*/false, conn, rule);

  table.assign(1, kBackgroundLabel);
  std::size_t idx = 0;
  for (std::uint32_t i = 0; i < rows; ++i) {
    for (std::uint32_t j = 0; j < cols; ++j, ++idx) {
      if (pixels[idx] == 0) {
        forest[idx] = kBackgroundLabel;
      } else if (forest[idx] == idx) {  // root: the component's first pixel
        forest[idx] = static_cast<std::uint32_t>(table.size());
        table.push_back(seed_label(i, j));
      } else {
        forest[idx] = forest[forest[idx]];
      }
    }
  }
}

/// Label a whole image with the canonical labeling via two-pass union-find.
[[nodiscard]] img::LabelImage label_components_unionfind(
    const img::GreyImage& image, Connectivity conn = Connectivity::kEight,
    ColourRule rule = ColourRule::kBinary);

}  // namespace histcc::ccseq

#endif  // HISTCC_CC_SEQ_UNION_FIND_HPP
