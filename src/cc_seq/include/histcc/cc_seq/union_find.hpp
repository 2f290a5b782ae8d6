#ifndef HISTCC_CC_SEQ_UNION_FIND_HPP
#define HISTCC_CC_SEQ_UNION_FIND_HPP

/// \file union_find.hpp
/// Classical two-pass union-find connected-components labeler.
///
/// This is the standard sequential algorithm (Rosenfeld-Pfaltz style first
/// pass + union-find equivalence resolution) included as an independent
/// baseline: it must produce exactly the same canonical labeling as the
/// paper's BFS labeler, which the test suite exploits, and it anchors the
/// sequential-time denominator in the efficiency numbers the benchmark
/// harness reports.  The OpenMP backend (omp::connected_components_omp)
/// runs the same first pass, `union_rows`, once per row strip.

#include <cstdint>
#include <vector>

#include "histcc/cc_seq/common.hpp"
#include "histcc/image/image.hpp"

namespace histcc::ccseq {

/// Array-based disjoint-set forest with path halving and union by index
/// (smaller index wins), sized for one slot per pixel.
class DisjointSets {
 public:
  explicit DisjointSets(std::size_t n) : parent_(n) {
    for (std::size_t i = 0; i < n; ++i) {
      parent_[i] = static_cast<std::uint32_t>(i);
    }
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
  /// the final labeling canonical.
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

  [[nodiscard]] std::size_t size() const noexcept { return parent_.size(); }

 private:
  std::vector<std::uint32_t> parent_;
};

/// The labeler's first pass over rows [row_begin, row_end): unites each
/// foreground pixel with its already-scanned west, north-west, north and
/// north-east neighbours that `conn` and `rule` let it join, in a forest
/// with one slot per pixel (row-major).  Rows after the first link north;
/// the first does only if `link_up` (and never row 0).  Without `link_up`
/// a call reads and writes only its own rows' slots, so calls over
/// disjoint row ranges may run concurrently on one forest.
/// Defined in the header so it inlines into both callers' loops: an
/// out-of-line copy measured slower in the sequential labeler.
inline void union_rows(const img::GreyImage& image, DisjointSets& sets,
                       std::uint32_t row_begin, std::uint32_t row_end,
                       bool link_up, Connectivity conn, ColourRule rule) {
  const std::uint32_t cols = image.width();
  const auto pixels = image.pixels();
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

/// Label a whole image with the canonical labeling via two-pass union-find.
[[nodiscard]] img::LabelImage label_components_unionfind(
    const img::GreyImage& image, Connectivity conn = Connectivity::kEight,
    ColourRule rule = ColourRule::kBinary);

}  // namespace histcc::ccseq

#endif  // HISTCC_CC_SEQ_UNION_FIND_HPP
