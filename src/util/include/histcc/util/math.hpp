#ifndef HISTCC_UTIL_MATH_HPP
#define HISTCC_UTIL_MATH_HPP

/// \file math.hpp
/// Small integer helpers used throughout the library.  The paper assumes
/// power-of-two processor counts, grey-level counts, and image sides; these
/// helpers make those assumptions explicit and checkable.

#include <bit>
#include <concepts>
#include <cstdint>

namespace histcc::util {

/// True iff x is a power of two (x > 0).
template <std::unsigned_integral T>
[[nodiscard]] constexpr bool is_pow2(T x) noexcept {
  return std::has_single_bit(x);
}

/// floor(log2(x)) for x > 0.
template <std::unsigned_integral T>
[[nodiscard]] constexpr unsigned log2_floor(T x) noexcept {
  return static_cast<unsigned>(std::bit_width(x) - 1);
}

/// Exact log2 of a power of two.
template <std::unsigned_integral T>
[[nodiscard]] constexpr unsigned log2_exact(T x) noexcept {
  return log2_floor(x);
}

/// ceil(a / b) for b > 0.
template <std::unsigned_integral T>
[[nodiscard]] constexpr T ceil_div(T a, T b) noexcept {
  return (a + b - 1) / b;
}

/// The paper's logical processor grid (Section 3): for p = 2^d processors,
/// v = 2^floor(d/2) rows and w = 2^ceil(d/2) columns, so v*w = p and w >= v.
struct GridShape {
  std::uint32_t rows;  ///< v: number of rows of the logical processor grid
  std::uint32_t cols;  ///< w: number of columns of the logical processor grid
};

/// Compute the v x w logical grid for a power-of-two processor count.
[[nodiscard]] constexpr GridShape grid_shape(std::uint32_t p) noexcept {
  const unsigned d = log2_exact(p);
  const std::uint32_t v = std::uint32_t{1} << (d / 2);
  const std::uint32_t w = std::uint32_t{1} << (d - d / 2);
  return GridShape{v, w};
}

}  // namespace histcc::util

#endif  // HISTCC_UTIL_MATH_HPP
