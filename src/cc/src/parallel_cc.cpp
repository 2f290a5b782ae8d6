#include "histcc/cc/parallel_cc.hpp"

#include <algorithm>
#include <vector>

#include "histcc/bdm/primitives.hpp"
#include "histcc/cc/border_graph.hpp"
#include "histcc/cc/hooks.hpp"
#include "histcc/cc/merge_schedule.hpp"
#include "histcc/cc_seq/union_find.hpp"
#include "histcc/trace/trace.hpp"
#include "histcc/util/require.hpp"

namespace histcc::cc {
namespace {

// Abstract RAM operations charged per unit of work, so modeled Tcomp is
// comparable with the calibrated per-op costs in splitc::MachineProfile
// (one op = one histogram-tally pixel visit).  The labeling constants
// charge the paper's BFS, not the union-find labeler and table sweep the
// host runs (DESIGN.md, Substitutions), so the modeled figures stay the
// paper's: a BFS pixel visit touches the queue, the mark, and up to eight
// neighbours; sorting and graph construction cost a few ops per element.
constexpr std::uint64_t kOpsPerLabeledPixel = 12;      // paper's BFS + hooks
constexpr std::uint64_t kOpsPerSortedBorderElem = 3;   // pack + radix sort
constexpr std::uint64_t kOpsPerMergedBorderElem = 10;  // graph + BFS + changes
constexpr std::uint64_t kOpsPerBorderUpdate = 4;       // binary search step
constexpr std::uint64_t kOpsPerRelabeledPixel = 6;     // paper's final BFS

/// Everything one virtual processor needs across the merge iterations.
struct ProcState {
  std::vector<std::uint32_t> border_offsets;  ///< my tile's border pixels
  std::vector<TileHook> hooks;
  std::vector<std::uint32_t> table;  ///< label of each tile component id
  // Manager-side staging for one merge.
  std::vector<std::uint8_t> lo_px, hi_px;
  std::vector<std::uint32_t> lo_lb, hi_lb;
  std::vector<std::uint32_t> lo_sorted, hi_sorted;
  std::vector<ChangePair> changes;
};

}  // namespace

void connected_components_parallel(splitc::Machine& machine,
                                   const img::TileLayout& layout,
                                   splitc::Spread<std::uint8_t>& tiles,
                                   splitc::Spread<std::uint32_t>& labels,
                                   const CcOptions& options) {
  HISTCC_REQUIRE(tiles.nprocs() == machine.nprocs() &&
                     layout.spread_fits(tiles),
                 "tiles spread does not fit layout (Spread '" +
                     tiles.name() + "')");
  HISTCC_REQUIRE(labels.nprocs() == machine.nprocs() &&
                     layout.spread_fits(labels),
                 "labels spread does not fit layout (Spread '" +
                     labels.name() + "')");
  const util::GridShape grid{layout.grid_rows(), layout.grid_cols()};
  const auto schedule = merge_schedule(grid);

  // Distributed state shared by the SPMD program.
  splitc::SpreadVec<std::uint8_t> pack_px(machine, "pack_px");   // packed border pixels
  splitc::SpreadVec<std::uint32_t> pack_lb(machine, "pack_lb");  // packed border labels
  splitc::SpreadVec<std::uint8_t> agg_px(machine, "agg_px");     // shadow's far side
  splitc::SpreadVec<std::uint32_t> agg_lb(machine, "agg_lb");
  splitc::SpreadVec<std::uint32_t> agg_sorted(machine, "agg_sorted");
  splitc::SpreadVec<ChangePair> chg(machine, "chg");        // manager's change list
  splitc::SpreadVec<ChangePair> stage(machine, "stage");    // eq. (9) staging

  machine.run([&](splitc::Proc& self) {
    ProcState st;
    const std::uint32_t rank = self.rank();
    // Ragged layout: every rank works in its own tile shape (possibly
    // empty); barriers and collective phases below stay uniform.
    const std::uint32_t q = layout.tile_rows(rank);
    const std::uint32_t r = layout.tile_cols(rank);
    const bool nonempty = q > 0 && r > 0;
    const std::uint32_t grid_row = layout.proc_row(rank);
    const std::uint32_t grid_col = layout.proc_col(rank);

    // -------- Phase 0: initialization (Section 5.1) --------
    // The labels block is the labeler's forest; it leaves component ids
    // there.  The merges read and update labels on the border ring only,
    // so only the ring is rewritten to labels now (the whole tile under
    // full_relabel_each_phase, whose merges update every pixel).
    auto my_px = tiles.local(self);
    auto my_lb = labels.local(self);
    TRACE_SPAN(self, "cc/init") {
      if (nonempty) {
        ccseq::tile_components(
            my_px, my_lb, q, r, options.connectivity, options.rule,
            [&](std::uint32_t i, std::uint32_t j) {
              return layout.initial_label(rank, i, j);
            },
            st.table);
        st.border_offsets = tile_border_offsets(q, r);
        if (options.full_relabel_each_phase) {
          for (auto& lb : my_lb.first(layout.tile_size(rank))) {
            lb = st.table[lb];
          }
        } else {
          for (const auto offset : st.border_offsets) {
            my_lb[offset] = st.table[my_lb[offset]];
          }
        }
        st.hooks = make_tile_hooks(my_px, my_lb, st.border_offsets);
        labels.note_local_write(self);  // race-ledger epoch annotation
        self.charge_ops(kOpsPerLabeledPixel * layout.tile_size(rank));
      }
      self.barrier();
    }

    // -------- log p merge iterations (Sections 5.2-5.4) --------
    for (const auto& phase : schedule) {
      const GroupInfo group = group_of(phase, grid, grid_row, grid_col);
      // Ragged geometry: the border between grid columns border_lo and
      // border_lo+1 (or grid rows, vertically) only carries pixels when
      // *both* sides own any; and each of the side_procs strips along it
      // has its own length (rows_in/cols_in of its grid row/column — zero
      // for trailing empty ones).  Both sides share the same strip
      // lengths, so merge_border's equal-length precondition holds.
      const bool live_border =
          phase.horizontal
              ? (layout.cols_in(group.border_lo) > 0 &&
                 layout.cols_in(group.border_lo + 1) > 0)
              : (layout.rows_in(group.border_lo) > 0 &&
                 layout.rows_in(group.border_lo + 1) > 0);
      auto strip_words = [&](std::uint32_t idx) -> std::size_t {
        if (!live_border) return 0;
        return phase.horizontal ? layout.rows_in(group.row0 + idx)
                                : layout.cols_in(group.col0 + idx);
      };
      std::vector<std::size_t> strip_off(group.side_procs + 1, 0);
      for (std::uint32_t idx = 0; idx < group.side_procs; ++idx) {
        strip_off[idx + 1] = strip_off[idx] + strip_words(idx);
      }
      const std::size_t side_len = strip_off[group.side_procs];

      // Pack my strip of the border, if I own one (and it is live).
      const bool is_manager = rank == group.manager;
      const bool is_shadow =
          options.use_shadow_manager && rank == group.shadow;
      TRACE_SPAN(self, "cc/border") {
        {
          auto& ppx = pack_px.local(self);
          auto& plb = pack_lb.local(self);
          ppx.clear();
          plb.clear();
          if (phase.horizontal) {
            if (live_border && nonempty && grid_col == group.border_lo) {
              // east column of my tile
              ppx.resize(q);
              plb.resize(q);
              for (std::uint32_t i = 0; i < q; ++i) {
                ppx[i] = my_px[static_cast<std::size_t>(i) * r + r - 1];
                plb[i] = my_lb[static_cast<std::size_t>(i) * r + r - 1];
              }
            } else if (live_border && nonempty &&
                       grid_col == group.border_lo + 1) {  // west column
              ppx.resize(q);
              plb.resize(q);
              for (std::uint32_t i = 0; i < q; ++i) {
                ppx[i] = my_px[static_cast<std::size_t>(i) * r];
                plb[i] = my_lb[static_cast<std::size_t>(i) * r];
              }
            }
          } else {
            if (live_border && nonempty && grid_row == group.border_lo) {
              // south row of my tile
              const std::size_t base = static_cast<std::size_t>(q - 1) * r;
              ppx.assign(my_px.begin() + static_cast<std::ptrdiff_t>(base),
                         my_px.begin() + static_cast<std::ptrdiff_t>(base + r));
              plb.assign(my_lb.begin() + static_cast<std::ptrdiff_t>(base),
                         my_lb.begin() + static_cast<std::ptrdiff_t>(base + r));
            } else if (live_border && nonempty &&
                       grid_row == group.border_lo + 1) {  // north row
              ppx.assign(my_px.begin(), my_px.begin() + r);
              plb.assign(my_lb.begin(), my_lb.begin() + r);
            }
          }
          // race-ledger epoch annotations (cover the clear() case too)
          pack_px.note_local_write(self);
          pack_lb.note_local_write(self);
        }
        self.barrier();  // publish packed strips

        // Fetch and sort the border sides.
        auto strip_owner = [&](bool lo_side, std::uint32_t idx) {
          const std::uint32_t fixed =
              lo_side ? group.border_lo : group.border_lo + 1;
          if (phase.horizontal) {
            return layout.rank_at(group.row0 + idx, fixed);
          }
          return layout.rank_at(fixed, group.col0 + idx);
        };
        auto pull_side = [&](bool lo_side, std::vector<std::uint8_t>& px,
                             std::vector<std::uint32_t>& lb) {
          px.resize(side_len);
          lb.resize(side_len);
          for (std::uint32_t idx = 0; idx < group.side_procs; ++idx) {
            const std::size_t words = strip_off[idx + 1] - strip_off[idx];
            if (words == 0) continue;  // empty strip (trailing grid row/col)
            const std::uint32_t owner = strip_owner(lo_side, idx);
            const std::size_t off = strip_off[idx];
            pack_px.prefetch(self,
                             std::span<std::uint8_t>(px).subspan(off, words),
                             owner, 0, words);
            pack_lb.prefetch(self,
                             std::span<std::uint32_t>(lb).subspan(off, words),
                             owner, 0, words);
          }
          self.sync();
        };

        if (is_manager) {
          pull_side(true, st.lo_px, st.lo_lb);
          st.lo_sorted =
              sort_side_by_label(BorderSide{st.lo_px, st.lo_lb});
          if (!options.use_shadow_manager) {
            pull_side(false, st.hi_px, st.hi_lb);
            st.hi_sorted =
                sort_side_by_label(BorderSide{st.hi_px, st.hi_lb});
          }
        }
        if (is_shadow) {
          // The shadow manager fetches and sorts its own side, then exposes
          // the results for the manager (Section 5.3).
          pull_side(false, st.hi_px, st.hi_lb);
          st.hi_sorted = sort_side_by_label(BorderSide{st.hi_px, st.hi_lb});
          agg_px.local(self) = st.hi_px;
          agg_lb.local(self) = st.hi_lb;
          agg_sorted.local(self) = st.hi_sorted;
          // race-ledger epoch annotations
          agg_px.note_local_write(self);
          agg_lb.note_local_write(self);
          agg_sorted.note_local_write(self);
          self.charge_ops(kOpsPerSortedBorderElem * side_len);
        }
        // Without a shadow manager the group manager fetches and sorts both
        // sides itself, doubling its critical-path sort work (Section 5.3).
        if (is_manager) {
          self.charge_ops(kOpsPerSortedBorderElem * side_len *
                          (options.use_shadow_manager ? 1 : 2));
        }
        self.barrier();  // publish shadow aggregates
      }

      // Manager: solve the border-graph problem, publish the change array.
      TRACE_SPAN(self, "cc/graph") {
        if (is_manager) {
          if (options.use_shadow_manager) {
            st.hi_px.resize(side_len);
            st.hi_lb.resize(side_len);
            agg_px.prefetch(self, st.hi_px, group.shadow, 0, side_len);
            agg_lb.prefetch(self, st.hi_lb, group.shadow, 0, side_len);
            const std::size_t sorted_len =
                agg_sorted.size_of(self, group.shadow);
            st.hi_sorted.resize(sorted_len);
            agg_sorted.prefetch(self, st.hi_sorted, group.shadow, 0, sorted_len);
            self.sync();
          }
          st.changes = merge_border(BorderSide{st.lo_px, st.lo_lb},
                                    st.lo_sorted,
                                    BorderSide{st.hi_px, st.hi_lb},
                                    st.hi_sorted, options.connectivity,
                                    options.rule);
          chg.local(self) = st.changes;
          chg.note_local_write(self);  // race-ledger epoch annotation
          self.charge_ops(kOpsPerMergedBorderElem * side_len);
        }
        self.barrier();  // publish change array
      }

      // Distribute the change array to the group and update borders.
      TRACE_SPAN(self, "cc/update") {
        const std::size_t total_changes = chg.size_of(self, group.manager);
        if (options.eq9_distribution) {
          const auto members = group_members(group, grid);
          const std::size_t my_index = static_cast<std::size_t>(
              std::find(members.begin(), members.end(), rank) -
              members.begin());
          HISTCC_ASSERT(my_index < members.size());
          const std::size_t root_index = static_cast<std::size_t>(
              std::find(members.begin(), members.end(), group.manager) -
              members.begin());
          bdm::scatter_group(self, members, my_index, root_index, chg, stage);
          self.barrier();  // publish staged slices
          bdm::allgather_group(self, members, my_index, total_changes, stage,
                               st.changes);
        } else {
          st.changes.resize(total_changes);
          chg.prefetch(self, st.changes, group.manager, 0, total_changes);
          self.sync();
        }

        if (nonempty) {
          if (options.full_relabel_each_phase) {
            update_all_labels(my_lb.subspan(0, layout.tile_size(rank)), my_px,
                              st.changes);
            self.charge_ops(kOpsPerBorderUpdate * layout.tile_size(rank));
          } else {
            update_border_labels(my_lb, my_px, st.border_offsets, st.changes);
            self.charge_ops(kOpsPerBorderUpdate * st.border_offsets.size());
          }
          labels.note_local_write(self);  // race-ledger epoch annotation
        }
        self.barrier();  // end of merge iteration
      }
    }

    // -------- Total consistency update --------
    TRACE_SPAN(self, "cc/final") {
      if (!options.full_relabel_each_phase && nonempty) {
        consistency_update(my_lb, q, r, st.hooks, st.table);
        labels.note_local_write(self);  // race-ledger epoch annotation
        self.charge_ops(kOpsPerRelabeledPixel * layout.tile_size(rank));
      }
      self.barrier();
    }
  });
}

img::LabelImage connected_components_parallel(splitc::Machine& machine,
                                              const img::TileLayout& layout,
                                              splitc::Spread<std::uint8_t>& tiles,
                                              const CcOptions& options) {
  splitc::Spread<std::uint32_t> labels(machine, layout.tile_sizes(),
                                       "labels");
  connected_components_parallel(machine, layout, tiles, labels, options);
  return layout.gather(labels);
}

img::LabelImage connected_components_parallel(splitc::Machine& machine,
                                              const img::GreyImage& image,
                                              const CcOptions& options) {
  const img::TileLayout layout(image.height(), image.width(),
                               machine.nprocs());
  splitc::Spread<std::uint8_t> tiles(machine, layout.tile_sizes(), "tiles");
  layout.scatter(image, tiles);
  return connected_components_parallel(machine, layout, tiles, options);
}

}  // namespace histcc::cc
