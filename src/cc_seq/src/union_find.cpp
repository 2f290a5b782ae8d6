#include "histcc/cc_seq/union_find.hpp"

namespace histcc::ccseq {

img::LabelImage label_components_unionfind(const img::GreyImage& image,
                                           Connectivity conn,
                                           ColourRule rule) {
  const std::uint32_t rows = image.height();
  const std::uint32_t cols = image.width();
  img::LabelImage labels(rows, cols);
  if (image.empty()) return labels;

  std::vector<std::uint32_t> parent(static_cast<std::size_t>(rows) * cols);
  DisjointSets sets(parent);
  union_rows(image.pixels(), cols, sets, 0, rows, /*link_up=*/false, conn,
             rule);

  // Second pass: the root of each set is its minimum pixel index (union by
  // index), so root + 1 is exactly the canonical label.
  const auto pixels = image.pixels();
  auto out = labels.pixels();
  for (std::size_t idx = 0; idx < pixels.size(); ++idx) {
    out[idx] = pixels[idx] == 0
                   ? kBackgroundLabel
                   : sets.find(static_cast<std::uint32_t>(idx)) + 1;
  }
  return labels;
}

}  // namespace histcc::ccseq
