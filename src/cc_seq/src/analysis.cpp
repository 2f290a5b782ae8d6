#include "histcc/cc_seq/analysis.hpp"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "histcc/cc_seq/bfs_label.hpp"
#include "histcc/util/require.hpp"

namespace histcc::ccseq {

std::size_t count_components(const img::LabelImage& labels) {
  std::unordered_set<std::uint32_t> seen;
  for (const auto label : labels.pixels()) {
    if (label != kBackgroundLabel) seen.insert(label);
  }
  return seen.size();
}

std::vector<ComponentSize> component_sizes(const img::LabelImage& labels) {
  std::unordered_map<std::uint32_t, std::uint64_t> counts;
  for (const auto label : labels.pixels()) {
    if (label != kBackgroundLabel) ++counts[label];
  }
  std::vector<ComponentSize> sizes;
  sizes.reserve(counts.size());
  for (const auto& [label, pixels] : counts) {
    sizes.push_back(ComponentSize{label, pixels});
  }
  std::sort(sizes.begin(), sizes.end(),
            [](const ComponentSize& a, const ComponentSize& b) {
              if (a.pixels != b.pixels) return a.pixels > b.pixels;
              return a.label < b.label;
            });
  return sizes;
}

bool partitions_equal(const img::LabelImage& a, const img::LabelImage& b) {
  if (a.height() != b.height() || a.width() != b.width()) return false;
  std::unordered_map<std::uint32_t, std::uint32_t> a_to_b;
  std::unordered_map<std::uint32_t, std::uint32_t> b_to_a;
  const auto pa = a.pixels();
  const auto pb = b.pixels();
  for (std::size_t idx = 0; idx < pa.size(); ++idx) {
    const std::uint32_t la = pa[idx];
    const std::uint32_t lb = pb[idx];
    if ((la == kBackgroundLabel) != (lb == kBackgroundLabel)) return false;
    if (la == kBackgroundLabel) continue;
    if (const auto [it, inserted] = a_to_b.try_emplace(la, lb);
        !inserted && it->second != lb) {
      return false;
    }
    if (const auto [it, inserted] = b_to_a.try_emplace(lb, la);
        !inserted && it->second != la) {
      return false;
    }
  }
  return true;
}

bool is_valid_labeling(const img::GreyImage& image,
                       const img::LabelImage& labels, Connectivity conn,
                       ColourRule rule) {
  if (image.height() != labels.height() || image.width() != labels.width()) {
    return false;
  }
  // Background must map to 0 and foreground must not.
  const auto px = image.pixels();
  const auto lb = labels.pixels();
  for (std::size_t idx = 0; idx < px.size(); ++idx) {
    if ((px[idx] == 0) != (lb[idx] == kBackgroundLabel)) return false;
  }
  // An independently computed reference partition must match.
  return partitions_equal(labels, label_components_bfs(image, conn, rule));
}

void ComponentStats::merge(const ComponentStats& o) noexcept {
  if (o.pixels == 0) return;
  if (pixels == 0) {
    *this = o;
    return;
  }
  pixels += o.pixels;
  min_row = std::min(min_row, o.min_row);
  min_col = std::min(min_col, o.min_col);
  max_row = std::max(max_row, o.max_row);
  max_col = std::max(max_col, o.max_col);
  sum_row += o.sum_row;
  sum_col += o.sum_col;
}

std::vector<ComponentStats> component_stats(const img::GreyImage& image,
                                            const img::LabelImage& labels) {
  HISTCC_REQUIRE(image.height() == labels.height() &&
                     image.width() == labels.width(),
                 "image/labels shape mismatch");
  std::unordered_map<std::uint32_t, ComponentStats> by_label;
  for (std::uint32_t i = 0; i < labels.height(); ++i) {
    for (std::uint32_t j = 0; j < labels.width(); ++j) {
      const std::uint32_t label = labels(i, j);
      if (label == kBackgroundLabel) continue;
      auto& s = by_label[label];
      if (s.pixels == 0) {
        s.label = label;
        s.colour = image(i, j);
        s.min_row = s.max_row = i;
        s.min_col = s.max_col = j;
      } else {
        s.min_row = std::min(s.min_row, i);
        s.min_col = std::min(s.min_col, j);
        s.max_row = std::max(s.max_row, i);
        s.max_col = std::max(s.max_col, j);
      }
      s.pixels += 1;
      s.sum_row += i;
      s.sum_col += j;
    }
  }
  std::vector<ComponentStats> stats;
  stats.reserve(by_label.size());
  for (const auto& [label, s] : by_label) stats.push_back(s);
  std::sort(stats.begin(), stats.end(),
            [](const ComponentStats& a, const ComponentStats& b) {
              return a.label < b.label;
            });
  return stats;
}

}  // namespace histcc::ccseq
