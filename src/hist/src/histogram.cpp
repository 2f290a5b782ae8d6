#include "histcc/hist/histogram.hpp"

#include <algorithm>

#include "histcc/bdm/primitives.hpp"
#include "histcc/trace/trace.hpp"
#include "histcc/util/math.hpp"
#include "histcc/util/require.hpp"

namespace histcc::hist {
namespace {

void require_k(std::uint32_t k) {
  HISTCC_REQUIRE(k >= 2 && k <= 256 && util::is_pow2(k),
                 "grey-level count must be a power of two in [2, 256]");
}

}  // namespace

Tally tally(std::span<const std::uint8_t> px) noexcept {
  std::array<Tally, 4> lanes{};
  const std::size_t n = px.size();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    ++lanes[0][px[i]];
    ++lanes[1][px[i + 1]];
    ++lanes[2][px[i + 2]];
    ++lanes[3][px[i + 3]];
  }
  for (; i < n; ++i) ++lanes[0][px[i]];
  Tally bins{};
  for (std::size_t v = 0; v < kTallyBins; ++v) {
    bins[v] = lanes[0][v] + lanes[1][v] + lanes[2][v] + lanes[3][v];
  }
  return bins;
}

void require_below(const Tally& bins, std::uint32_t k) {
  for (std::size_t v = k; v < kTallyBins; ++v) {
    HISTCC_REQUIRE(bins[v] == 0, "pixel value exceeds grey-level count");
  }
}

std::vector<std::uint32_t> histogram_seq(const img::GreyImage& image,
                                         std::uint32_t k) {
  require_k(k);
  const Tally bins = tally(image.pixels());
  require_below(bins, k);
  return std::vector<std::uint32_t>(bins.begin(), bins.begin() + k);
}

std::vector<std::uint32_t> histogram_parallel(splitc::Machine& machine,
                                              const img::TileLayout& layout,
                                              splitc::Spread<std::uint8_t>& tiles,
                                              std::uint32_t k) {
  require_k(k);
  HISTCC_REQUIRE(tiles.nprocs() == machine.nprocs() &&
                     layout.spread_fits(tiles),
                 "tiles spread does not fit layout (Spread '" +
                     tiles.name() + "')");
  const std::uint32_t p = machine.nprocs();

  // H_i[0..k): each processor's local tally.
  splitc::Spread<std::uint32_t> local_h(machine, k, "local_h");
  // Transpose destination: k/p-row blocks when k >= p, one full row (p
  // partial counts) when k < p.
  const std::size_t bars_per_proc = std::max<std::size_t>(k / p, 1);
  splitc::Spread<std::uint32_t> trans(machine, std::max<std::size_t>(k, p),
                                      "hist_trans");
  // Combined bars, ready for collection.
  splitc::Spread<std::uint32_t> combined(machine, bars_per_proc,
                                         "hist_combined");
  // The k-bar histogram, assembled on P0.
  splitc::Spread<std::uint32_t> result(machine, k, "hist_result");

  machine.run([&](splitc::Proc& self) {
    // Step 1: tally my tile.  O(n^2 / p) local work.
    TRACE_SPAN(self, kHistStepSpans[0]) {
      const std::size_t count = layout.tile_size(self.rank());
      const Tally bins = tally(tiles.local(self).first(count));
      require_below(bins, k);
      if (count > 0) {
        std::copy_n(bins.begin(), k, local_h.local(self).begin());
        local_h.note_local_write(self);  // race-ledger epoch annotation
      }
      self.charge_ops(count);
      self.barrier();
    }

    // Step 2: rearrange tallies so each grey level's partial counts share a
    // processor.
    TRACE_SPAN(self, kHistStepSpans[1]) {
      if (k >= p) {
        bdm::transpose(self, trans, local_h, k);
      } else {
        bdm::truncated_transpose(self, trans, local_h, k);
      }
      self.barrier();
    }

    // Step 3: combine partial counts locally.  O(k) per processor.
    TRACE_SPAN(self, kHistStepSpans[2]) {
      auto in = trans.local(self);
      auto out = combined.local(self);
      if (k >= p) {
        const std::size_t blk = k / p;
        for (std::size_t j = 0; j < blk; ++j) {
          std::uint32_t sum = 0;
          for (std::uint32_t r = 0; r < p; ++r) {
            sum += in[static_cast<std::size_t>(r) * blk + j];
          }
          out[j] = sum;
        }
        combined.note_local_write(self, 0, blk);  // race-ledger annotation
        self.charge_ops(k);
      } else if (self.rank() < k) {
        std::uint32_t sum = 0;
        for (std::uint32_t r = 0; r < p; ++r) sum += in[r];
        out[0] = sum;
        combined.note_local_write(self, 0, 1);  // race-ledger annotation
        self.charge_ops(p);
      }
      self.barrier();
    }

    // Step 4: P0 collects the k bars with a circular prefetch.
    const std::uint32_t nblocks = k >= p ? p : k;
    TRACE_SPAN(self, kHistStepSpans[3]) {
      bdm::gather_to_root(self, result, combined, bars_per_proc, 0, 0,
                          nblocks);
      self.barrier();
    }
  });

  auto root_block = result.block(0);
  return std::vector<std::uint32_t>(root_block.begin(), root_block.begin() + k);
}

std::vector<std::uint32_t> histogram_parallel(splitc::Machine& machine,
                                              const img::GreyImage& image,
                                              std::uint32_t k) {
  const img::TileLayout layout(image.height(), image.width(),
                               machine.nprocs());
  splitc::Spread<std::uint8_t> tiles(machine, layout.tile_sizes(),
                                     "hist_tiles");
  layout.scatter(image, tiles);
  return histogram_parallel(machine, layout, tiles, k);
}

}  // namespace histcc::hist
