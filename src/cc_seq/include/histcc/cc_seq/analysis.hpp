#ifndef HISTCC_CC_SEQ_ANALYSIS_HPP
#define HISTCC_CC_SEQ_ANALYSIS_HPP

/// \file analysis.hpp
/// Inspection helpers over labelings: component counting, size statistics,
/// labeling validity, and partition equivalence.  These serve the paper's
/// correctness arguments (Section 3: "Verifying the connected components
/// algorithm is more difficult") and the application examples.

#include <cstdint>
#include <vector>

#include "histcc/cc_seq/common.hpp"
#include "histcc/image/image.hpp"

namespace histcc::ccseq {

/// Number of distinct nonzero labels.
[[nodiscard]] std::size_t count_components(const img::LabelImage& labels);

/// (label, pixel count) for every component, sorted by descending size then
/// ascending label.
struct ComponentSize {
  std::uint32_t label;
  std::uint64_t pixels;
  friend bool operator==(const ComponentSize&, const ComponentSize&) = default;
};
[[nodiscard]] std::vector<ComponentSize> component_sizes(
    const img::LabelImage& labels);

/// True iff the two labelings induce the same partition of pixels: equal
/// zero sets and a label bijection between them.  Weaker than equality —
/// used to compare labelers that pick different representatives.
[[nodiscard]] bool partitions_equal(const img::LabelImage& a,
                                    const img::LabelImage& b);

/// True iff `labels` is a *valid* connected-components labeling of `image`
/// under the given connectivity and colour rule: zero exactly on
/// background, constant on each connected region, and distinct across
/// regions that are not connected.  Verified independently (by BFS over the
/// image), so it can vet any labeler.
[[nodiscard]] bool is_valid_labeling(const img::GreyImage& image,
                                     const img::LabelImage& labels,
                                     Connectivity conn, ColourRule rule);

/// Per-component object statistics — the measurements the DARPA Image
/// Understanding benchmark asks of each recognized piece (the paper cites
/// connected components as "an important object recognition problem" in
/// those benchmarks).
struct ComponentStats {
  std::uint32_t label = 0;
  std::uint8_t colour = 0;      ///< the component's grey level
  std::uint64_t pixels = 0;     ///< area
  std::uint32_t min_row = 0;    ///< bounding box
  std::uint32_t min_col = 0;
  std::uint32_t max_row = 0;    ///< inclusive
  std::uint32_t max_col = 0;
  double sum_row = 0;           ///< centroid accumulators
  double sum_col = 0;

  [[nodiscard]] double centroid_row() const noexcept {
    return pixels == 0 ? 0.0 : sum_row / static_cast<double>(pixels);
  }
  [[nodiscard]] double centroid_col() const noexcept {
    return pixels == 0 ? 0.0 : sum_col / static_cast<double>(pixels);
  }

  /// Fold another partial record for the same component into this one.
  void merge(const ComponentStats& o) noexcept;
};

/// Statistics of every component of a labeled image, sorted by label.
/// `image` supplies the colours; shapes must match.
[[nodiscard]] std::vector<ComponentStats> component_stats(
    const img::GreyImage& image, const img::LabelImage& labels);

}  // namespace histcc::ccseq

#endif  // HISTCC_CC_SEQ_ANALYSIS_HPP
