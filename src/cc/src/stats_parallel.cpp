#include "histcc/cc/stats_parallel.hpp"

#include <unordered_map>

#include "histcc/sortutil/radix.hpp"
#include "histcc/util/require.hpp"

namespace histcc::cc {

std::vector<ccseq::ComponentStats> component_stats_parallel(
    splitc::Machine& machine, const img::TileLayout& layout,
    splitc::Spread<std::uint8_t>& tiles,
    splitc::Spread<std::uint32_t>& labels) {
  HISTCC_REQUIRE(tiles.nprocs() == machine.nprocs() &&
                     layout.spread_fits(tiles),
                 "tiles spread does not fit layout (Spread '" +
                     tiles.name() + "')");
  HISTCC_REQUIRE(labels.nprocs() == machine.nprocs() &&
                     layout.spread_fits(labels),
                 "labels spread does not fit layout (Spread '" +
                     labels.name() + "')");
  const std::uint32_t p = machine.nprocs();

  splitc::SpreadVec<ccseq::ComponentStats> partials(machine,
                                                    "stats_partials");
  std::vector<ccseq::ComponentStats> merged;

  machine.run([&](splitc::Proc& self) {
    const std::uint32_t rank = self.rank();
    const std::uint32_t q = layout.tile_rows(rank);
    const std::uint32_t r = layout.tile_cols(rank);
    auto px = tiles.local(self);
    auto lb = labels.local(self);

    // Fold my tile into per-label partial records in global coordinates.
    std::unordered_map<std::uint32_t, ccseq::ComponentStats> by_label;
    for (std::uint32_t i = 0; i < q; ++i) {
      const std::uint32_t gi = layout.global_row(rank, i);
      for (std::uint32_t j = 0; j < r; ++j) {
        const std::size_t idx = static_cast<std::size_t>(i) * r + j;
        const std::uint32_t label = lb[idx];
        if (label == ccseq::kBackgroundLabel) continue;
        const std::uint32_t gj = layout.global_col(rank, j);
        auto& s = by_label[label];
        if (s.pixels == 0) {
          s.label = label;
          s.colour = px[idx];
          s.min_row = s.max_row = gi;
          s.min_col = s.max_col = gj;
        } else {
          s.min_row = std::min(s.min_row, gi);
          s.min_col = std::min(s.min_col, gj);
          s.max_row = std::max(s.max_row, gi);
          s.max_col = std::max(s.max_col, gj);
        }
        s.pixels += 1;
        s.sum_row += gi;
        s.sum_col += gj;
      }
    }
    auto& mine = partials.local(self);
    mine.clear();
    mine.reserve(by_label.size());
    for (const auto& [label, s] : by_label) mine.push_back(s);
    // Sort so the merged gather is deterministic regardless of hash order.
    sortutil::hybrid_sort_by(
        mine, [](const ccseq::ComponentStats& s) { return s.label; });
    partials.note_local_write(self);  // race-ledger epoch annotation
    self.charge_ops(2 * layout.tile_size(rank));
    self.barrier();  // publish partials

    // Root collects every partial list circularly and merges by label.
    if (rank == 0) {
      std::vector<ccseq::ComponentStats> all;
      for (std::uint32_t loop = 0; loop < p; ++loop) {
        const std::uint32_t from = loop % p;
        const std::size_t count = partials.size_of(self, from);
        const std::size_t base = all.size();
        all.resize(base + count);
        partials.prefetch(self,
                          std::span<ccseq::ComponentStats>(all).subspan(
                              base, count),
                          from, 0, count);
      }
      self.sync();
      // Procedure 1 idiom: sort by label, fold equal-label runs.
      sortutil::hybrid_sort_by(
          all, [](const ccseq::ComponentStats& s) { return s.label; });
      for (const auto& s : all) {
        if (merged.empty() || merged.back().label != s.label) {
          merged.push_back(s);
        } else {
          merged.back().merge(s);
        }
      }
      self.charge_ops(3 * all.size());
    }
    self.barrier();
  });
  return merged;
}

std::vector<ccseq::ComponentStats> component_stats_parallel(
    splitc::Machine& machine, const img::GreyImage& image,
    const img::LabelImage& labels) {
  const img::TileLayout layout(image.height(), image.width(),
                               machine.nprocs());
  splitc::Spread<std::uint8_t> tiles(machine, layout.tile_sizes(),
                                     "stats_tiles");
  splitc::Spread<std::uint32_t> label_blocks(machine, layout.tile_sizes(),
                                             "stats_labels");
  layout.scatter(image, tiles);
  layout.scatter(labels, label_blocks);
  return component_stats_parallel(machine, layout, tiles, label_blocks);
}

}  // namespace histcc::cc
