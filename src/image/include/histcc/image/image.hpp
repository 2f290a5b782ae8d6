#ifndef HISTCC_IMAGE_IMAGE_HPP
#define HISTCC_IMAGE_IMAGE_HPP

/// \file image.hpp
/// Dense row-major image container.
///
/// The paper works on n x n images with k grey levels, k <= 256, where grey
/// level 0 is background and positive levels are foreground (Section 1).
/// `Image<T>` is deliberately minimal: a shaped vector with bounds-checked
/// and unchecked accessors.  `GreyImage` (8-bit pixels) holds inputs;
/// `LabelImage` (32-bit) holds connected-component labelings — initial
/// labels are (I*q + i)*n + (J*r + j) + 1 <= H*W, and every image holds
/// fewer than 2^32 pixels (kLabelSpace), so no label wraps to 0.

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "histcc/util/require.hpp"

namespace histcc::img {

/// Every image shape must satisfy H*W < kLabelSpace: a pixel's 1-based
/// raster label (at most H*W) then fits 32 bits instead of wrapping to 0,
/// the background label.
inline constexpr std::uint64_t kLabelSpace = std::uint64_t{1} << 32;

/// Row-major 2-D array of pixels.
template <typename T>
class Image {
 public:
  Image() = default;

  /// Create a height x width image filled with `fill`.  Requires
  /// height * width < kLabelSpace, checked before allocating.
  Image(std::uint32_t height, std::uint32_t width, T fill = T{})
      : height_(height),
        width_(width),
        pixels_(checked_size(height, width), fill) {}

  /// Adopt `pixels` (row-major, exactly height * width of them) without
  /// copying them.
  Image(std::uint32_t height, std::uint32_t width, std::vector<T> pixels)
      : height_(height), width_(width), pixels_(std::move(pixels)) {
    HISTCC_REQUIRE(pixels_.size() == checked_size(height, width),
                   "pixel count must equal height * width");
  }

  [[nodiscard]] std::uint32_t height() const noexcept { return height_; }
  [[nodiscard]] std::uint32_t width() const noexcept { return width_; }
  [[nodiscard]] std::size_t size() const noexcept { return pixels_.size(); }
  [[nodiscard]] bool empty() const noexcept { return pixels_.empty(); }

  /// Unchecked access (hot paths).
  [[nodiscard]] T& operator()(std::uint32_t row, std::uint32_t col) noexcept {
    return pixels_[static_cast<std::size_t>(row) * width_ + col];
  }
  [[nodiscard]] const T& operator()(std::uint32_t row,
                                    std::uint32_t col) const noexcept {
    return pixels_[static_cast<std::size_t>(row) * width_ + col];
  }

  /// Bounds-checked access (API boundary / tests).
  [[nodiscard]] T& at(std::uint32_t row, std::uint32_t col) {
    HISTCC_REQUIRE(row < height_ && col < width_, "pixel out of bounds");
    return (*this)(row, col);
  }
  [[nodiscard]] const T& at(std::uint32_t row, std::uint32_t col) const {
    HISTCC_REQUIRE(row < height_ && col < width_, "pixel out of bounds");
    return (*this)(row, col);
  }

  [[nodiscard]] std::span<T> pixels() noexcept {
    return std::span<T>(pixels_);
  }
  [[nodiscard]] std::span<const T> pixels() const noexcept {
    return std::span<const T>(pixels_);
  }

  friend bool operator==(const Image& a, const Image& b) {
    return a.height_ == b.height_ && a.width_ == b.width_ &&
           a.pixels_ == b.pixels_;
  }

 private:
  [[nodiscard]] static std::size_t checked_size(std::uint32_t height,
                                                std::uint32_t width) {
    const std::uint64_t size = std::uint64_t{height} * width;
    HISTCC_REQUIRE(size < kLabelSpace,
                   "image must have fewer than 2^32 pixels");
    return static_cast<std::size_t>(size);
  }

  std::uint32_t height_ = 0;
  std::uint32_t width_ = 0;
  std::vector<T> pixels_;
};

/// 8-bit grey-level input image (k <= 256 levels; 0 = background).
using GreyImage = Image<std::uint8_t>;

/// 32-bit component labeling (0 = background label).
using LabelImage = Image<std::uint32_t>;

}  // namespace histcc::img

#endif  // HISTCC_IMAGE_IMAGE_HPP
