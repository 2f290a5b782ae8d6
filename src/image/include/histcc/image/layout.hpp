#ifndef HISTCC_IMAGE_LAYOUT_HPP
#define HISTCC_IMAGE_LAYOUT_HPP

/// \file layout.hpp
/// The paper's data layout (Section 3), generalized to ragged H x W
/// images.  The image is cut into p tiles assigned to a v x w logical
/// processor grid in row-major order, with v = 2^floor(d/2),
/// w = 2^ceil(d/2) for p = 2^d.
///
/// Where the paper assumes n x n with v | n and w | n (every tile exactly
/// q x r), this layout ceil-partitions both axes: grid row I owns global
/// rows [I*qmax, min((I+1)*qmax, H)) with qmax = ceil(H/v), and grid
/// column J owns global columns [J*rmax, min((J+1)*rmax, W)) with
/// rmax = ceil(W/w).  Interior processors own full qmax x rmax tiles;
/// processors on the trailing grid row/column own the (possibly smaller)
/// remainder, down to *zero* rows or columns when the grid outnumbers the
/// pixels (e.g. a 1000 x 3 image on a 4 x 4 grid leaves grid column 3
/// empty).  Two invariants follow from the ceil partition and hold
/// everywhere downstream:
///
///   1. If grid row I is non-empty, every grid row before it is full
///      (qmax rows) — empty rows/columns only trail.  In particular rank
///      0 always owns the largest tile, so max_tile_size() ==
///      tile_size(0).
///   2. Tiles in one grid row share tile_rows and tiles in one grid
///      column share tile_cols, so the two sides of any tile border have
///      equal length and facing halo lines match.
///
/// `TileLayout` holds the arithmetic; `scatter`/`gather` move whole
/// images between host memory and the distributed `Spread` representation
/// used by the SPMD algorithms (tile pixels stored row-major within each
/// block).
///
/// Spread contract: a Spread backing this layout must hold at least
/// `tile_size(rank)` elements on every rank — `spread_fits()` is the
/// check.  Packed arrays (`Spread(machine, layout.tile_sizes(), ...)`
/// under SpreadLayout::kPacked) meet it exactly; strided arrays pad every
/// block to `max_tile_size()` (the PR-5 uniform contract) and each rank
/// only uses the first tile_size(rank) elements.  Blocks of empty tiles
/// stay value-initialized (all zero = background), which is what the
/// algorithms rely on when they skip work on empty ranks.  See
/// docs/layout.md.

#include <algorithm>
#include <cstdint>
#include <vector>

#include "histcc/image/image.hpp"
#include "histcc/splitc/machine.hpp"
#include "histcc/splitc/spread.hpp"
#include "histcc/util/math.hpp"
#include "histcc/util/require.hpp"

namespace histcc::img {

/// Tile geometry for an H x W image on p processors.
class TileLayout {
 public:
  /// \param height image rows (> 0); \param width image columns (> 0),
  /// with height * width < kLabelSpace;
  /// \param p processor count (power of two).  Any rectangular shape is
  /// accepted; edge tiles shrink (possibly to empty) instead of the
  /// paper's divisibility requirement.
  // NOLINTNEXTLINE(bugprone-easily-swappable-parameters): (height, width,
  // p) is the fixed problem-size order used across the library; the
  // definition never combines them in one expression.
  TileLayout(std::uint32_t height, std::uint32_t width, std::uint32_t p)
      : height_(height), width_(width), p_(p), grid_(util::grid_shape(p)) {
    HISTCC_REQUIRE(height > 0 && width > 0, "image must be non-empty");
    HISTCC_REQUIRE(pixels() < kLabelSpace,
                   "image must have fewer than 2^32 pixels");
    HISTCC_REQUIRE(util::is_pow2(p), "processor count must be a power of two");
    qmax_ = util::ceil_div(height, grid_.rows);
    rmax_ = util::ceil_div(width, grid_.cols);
  }

  /// Square convenience: an n x n image (the paper's shape).
  TileLayout(std::uint32_t n, std::uint32_t p) : TileLayout(n, n, p) {}

  [[nodiscard]] std::uint32_t height() const noexcept { return height_; }
  [[nodiscard]] std::uint32_t width() const noexcept { return width_; }
  /// Total pixels H * W.
  [[nodiscard]] std::uint64_t pixels() const noexcept {
    return static_cast<std::uint64_t>(height_) * width_;
  }
  [[nodiscard]] std::uint32_t nprocs() const noexcept { return p_; }
  /// v: rows of the logical processor grid.
  [[nodiscard]] std::uint32_t grid_rows() const noexcept { return grid_.rows; }
  /// w: columns of the logical processor grid.
  [[nodiscard]] std::uint32_t grid_cols() const noexcept { return grid_.cols; }

  /// First global image row owned by grid row I (clamped to H; grid row
  /// I's rows are [row_begin(I), row_begin(I + 1))).
  [[nodiscard]] std::uint32_t row_begin(std::uint32_t grid_row) const noexcept {
    return static_cast<std::uint32_t>(std::min<std::uint64_t>(
        static_cast<std::uint64_t>(grid_row) * qmax_, height_));
  }
  /// First global image column owned by grid column J (clamped to W).
  [[nodiscard]] std::uint32_t col_begin(std::uint32_t grid_col) const noexcept {
    return static_cast<std::uint32_t>(std::min<std::uint64_t>(
        static_cast<std::uint64_t>(grid_col) * rmax_, width_));
  }
  /// Image rows owned by grid row I (qmax interior, less — possibly 0 —
  /// on the trailing rows).
  [[nodiscard]] std::uint32_t rows_in(std::uint32_t grid_row) const noexcept {
    return row_begin(grid_row + 1) - row_begin(grid_row);
  }
  /// Image columns owned by grid column J.
  [[nodiscard]] std::uint32_t cols_in(std::uint32_t grid_col) const noexcept {
    return col_begin(grid_col + 1) - col_begin(grid_col);
  }

  /// qmax = ceil(H/v): rows of the largest tile (always rank 0's).
  [[nodiscard]] std::uint32_t max_tile_rows() const noexcept { return qmax_; }
  /// rmax = ceil(W/w): columns of the largest tile.
  [[nodiscard]] std::uint32_t max_tile_cols() const noexcept { return rmax_; }
  /// Pixels of the largest tile: the minimum Spread block size
  /// (max over ranks of tile_size(rank) == tile_size(0)).
  [[nodiscard]] std::size_t max_tile_size() const noexcept {
    return static_cast<std::size_t>(qmax_) * rmax_;
  }

  /// Rows of processor `rank`'s tile (0 on trailing empty grid rows).
  [[nodiscard]] std::uint32_t tile_rows(std::uint32_t rank) const noexcept {
    return rows_in(proc_row(rank));
  }
  /// Columns of processor `rank`'s tile.
  [[nodiscard]] std::uint32_t tile_cols(std::uint32_t rank) const noexcept {
    return cols_in(proc_col(rank));
  }
  /// Pixels of processor `rank`'s tile (0 for empty tiles).
  [[nodiscard]] std::size_t tile_size(std::uint32_t rank) const noexcept {
    return static_cast<std::size_t>(tile_rows(rank)) * tile_cols(rank);
  }

  /// The per-rank size table [tile_size(0), ..., tile_size(p-1)] — the
  /// argument for Spread's per-rank constructor.
  [[nodiscard]] std::vector<std::size_t> tile_sizes() const {
    std::vector<std::size_t> sizes(p_);
    for (std::uint32_t rank = 0; rank < p_; ++rank) {
      sizes[rank] = tile_size(rank);
    }
    return sizes;
  }

  /// The Spread contract: `spread` can back this layout — same processor
  /// count, and every rank's block holds at least its tile.
  template <typename T>
  [[nodiscard]] bool spread_fits(const splitc::Spread<T>& spread)
      const noexcept {
    if (spread.nprocs() != p_) return false;
    for (std::uint32_t rank = 0; rank < p_; ++rank) {
      if (spread.block_size(rank) < tile_size(rank)) return false;
    }
    return true;
  }

  /// Logical grid row I of processor `rank` (row-major assignment).
  [[nodiscard]] std::uint32_t proc_row(std::uint32_t rank) const noexcept {
    return rank / grid_.cols;
  }
  /// Logical grid column J of processor `rank`.
  [[nodiscard]] std::uint32_t proc_col(std::uint32_t rank) const noexcept {
    return rank % grid_.cols;
  }
  /// Rank of the processor at logical grid position (I, J).
  [[nodiscard]] std::uint32_t rank_at(std::uint32_t grid_row,
                                      std::uint32_t grid_col) const noexcept {
    return grid_row * grid_.cols + grid_col;
  }

  /// Global image row of local row i on processor `rank` (valid for
  /// i < tile_rows(rank)).
  [[nodiscard]] std::uint32_t global_row(std::uint32_t rank,
                                         std::uint32_t i) const noexcept {
    return proc_row(rank) * qmax_ + i;
  }
  /// Global image column of local column j on processor `rank`.
  [[nodiscard]] std::uint32_t global_col(std::uint32_t rank,
                                         std::uint32_t j) const noexcept {
    return proc_col(rank) * rmax_ + j;
  }

  /// The globally unique initial label of local pixel (i, j) on processor
  /// `rank`: raster order + 1, i.e. (I*qmax + i)*W + (J*rmax + j) + 1 —
  /// the paper's Section 5.1 formula with W in place of n.  Minimizing
  /// over a component therefore yields the library-wide canonical label.
  [[nodiscard]] std::uint32_t initial_label(std::uint32_t rank,
                                            std::uint32_t i,
                                            std::uint32_t j) const noexcept {
    return global_row(rank, i) * width_ + global_col(rank, j) + 1;
  }

  /// Cut a host image into tiles, one Spread block per processor, pixels
  /// row-major within the tile: each tile row is one contiguous copy from
  /// the image (stride W) into the block (stride tile_cols(rank)).
  /// Requires `spread_fits(out)` (see the Spread contract in the file
  /// comment); blocks of empty tiles are left untouched (zero).
  template <typename T>
  void scatter(const Image<T>& image, splitc::Spread<T>& out) const {
    HISTCC_REQUIRE(image.height() == height_ && image.width() == width_,
                   "image shape does not match layout");
    HISTCC_REQUIRE(spread_fits(out),
                   "spread does not fit layout (Spread '" + out.name() +
                       "')");
    for (std::uint32_t rank = 0; rank < p_; ++rank) {
      if (tile_size(rank) == 0) continue;
      const std::uint32_t q = tile_rows(rank);
      const std::uint32_t r = tile_cols(rank);
      const T* src = &image(global_row(rank, 0), global_col(rank, 0));
      T* dst = out.block(rank).data();
      for (std::size_t i = 0; i < q; ++i) {
        std::copy_n(src + i * width_, r, dst + i * r);
      }
    }
  }

  /// Reassemble a host image from tiles, one contiguous copy per tile row
  /// (same Spread contract as scatter).
  template <typename T>
  [[nodiscard]] Image<T> gather(const splitc::Spread<T>& in) const {
    HISTCC_REQUIRE(spread_fits(in),
                   "spread does not fit layout (Spread '" + in.name() +
                       "')");
    Image<T> image(height_, width_);
    for (std::uint32_t rank = 0; rank < p_; ++rank) {
      if (tile_size(rank) == 0) continue;
      const std::uint32_t q = tile_rows(rank);
      const std::uint32_t r = tile_cols(rank);
      const T* src = in.block(rank).data();
      T* dst = &image(global_row(rank, 0), global_col(rank, 0));
      for (std::size_t i = 0; i < q; ++i) {
        std::copy_n(src + i * r, r, dst + i * width_);
      }
    }
    return image;
  }

 private:
  std::uint32_t height_;
  std::uint32_t width_;
  std::uint32_t p_;
  util::GridShape grid_;
  std::uint32_t qmax_ = 0;
  std::uint32_t rmax_ = 0;
};

}  // namespace histcc::img

#endif  // HISTCC_IMAGE_LAYOUT_HPP
