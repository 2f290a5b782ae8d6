#ifndef HISTCC_CC_SEQ_BFS_LABEL_HPP
#define HISTCC_CC_SEQ_BFS_LABEL_HPP

/// \file bfs_label.hpp
/// The paper's sequential connected-components labeler (Section 5.1).
///
/// Pixels are examined in row-major order; each unmarked foreground pixel
/// seeds a breadth-first search that labels every like-coloured connected
/// pixel with a label derived from the seed's position.  Because the seed
/// is the first component pixel in scan order, the resulting labeling is
/// the canonical one described in common.hpp.  Runs in O(|V| + |E|) =
/// O(rows * cols).
///
/// `label_tile` is the reusable core: it labels a rows x cols pixel block
/// and lets the caller choose the label each seed position produces (the
/// whole-image wrapper passes row*width + col + 1).  The paper labels each
/// tile of its parallel algorithm this way, and the modeled costs charge
/// that BFS; the library's parallel backends label their tiles with
/// union-find instead (ccseq::tile_components, same labels).  BFS stays
/// as the independent oracle the differential suites anchor on.

#include <cstdint>
#include <span>
#include <vector>

#include "histcc/cc_seq/common.hpp"
#include "histcc/image/image.hpp"
#include "histcc/util/require.hpp"

namespace histcc::ccseq {

/// Reusable BFS scratch (queue) so tile labeling does not allocate per call.
class BfsScratch {
 public:
  std::vector<std::uint32_t> queue;
};

/// Label the rows x cols block `pixels` (row-major) into `labels`
/// (pre-sized, will be overwritten; background pixels get 0).  The label of
/// each component is seed_label(i, j) evaluated at the component's first
/// pixel in row-major order.
template <typename LabelFn>
void label_tile(std::span<const std::uint8_t> pixels,
                std::span<std::uint32_t> labels, std::uint32_t rows,
                std::uint32_t cols, Connectivity conn, ColourRule rule,
                LabelFn&& seed_label, BfsScratch& scratch) {
  const std::size_t count = static_cast<std::size_t>(rows) * cols;
  HISTCC_REQUIRE(pixels.size() >= count && labels.size() >= count,
                 "tile spans too small");
  std::fill(labels.begin(), labels.begin() + static_cast<std::ptrdiff_t>(count),
            kBackgroundLabel);
  auto& queue = scratch.queue;
  queue.clear();

  const bool eight = conn == Connectivity::kEight;
  const bool same_colour = rule == ColourRule::kSameColour;

  for (std::uint32_t si = 0; si < rows; ++si) {
    for (std::uint32_t sj = 0; sj < cols; ++sj) {
      const std::size_t seed = static_cast<std::size_t>(si) * cols + sj;
      if (pixels[seed] == 0 || labels[seed] != kBackgroundLabel) continue;

      const std::uint32_t label = seed_label(si, sj);
      const std::uint8_t colour = pixels[seed];
      labels[seed] = label;
      queue.clear();
      queue.push_back(static_cast<std::uint32_t>(seed));
      for (std::size_t head = 0; head < queue.size(); ++head) {
        const std::uint32_t idx = queue[head];
        const std::uint32_t i = idx / cols;
        const std::uint32_t j = idx % cols;
        auto visit = [&](std::uint32_t ni, std::uint32_t nj) {
          const std::size_t nidx = static_cast<std::size_t>(ni) * cols + nj;
          if (pixels[nidx] == 0 || labels[nidx] != kBackgroundLabel) return;
          if (same_colour && pixels[nidx] != colour) return;
          labels[nidx] = label;
          queue.push_back(static_cast<std::uint32_t>(nidx));
        };
        const bool has_n = i > 0;
        const bool has_s = i + 1 < rows;
        const bool has_w = j > 0;
        const bool has_e = j + 1 < cols;
        if (has_n) visit(i - 1, j);
        if (has_s) visit(i + 1, j);
        if (has_w) visit(i, j - 1);
        if (has_e) visit(i, j + 1);
        if (eight) {
          if (has_n && has_w) visit(i - 1, j - 1);
          if (has_n && has_e) visit(i - 1, j + 1);
          if (has_s && has_w) visit(i + 1, j - 1);
          if (has_s && has_e) visit(i + 1, j + 1);
        }
      }
    }
  }
}

/// Label a whole image with the canonical labeling (common.hpp).
[[nodiscard]] img::LabelImage label_components_bfs(
    const img::GreyImage& image, Connectivity conn = Connectivity::kEight,
    ColourRule rule = ColourRule::kBinary);

}  // namespace histcc::ccseq

#endif  // HISTCC_CC_SEQ_BFS_LABEL_HPP
