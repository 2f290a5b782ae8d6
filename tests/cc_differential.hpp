#ifndef HISTCC_TESTS_CC_DIFFERENTIAL_HPP
#define HISTCC_TESTS_CC_DIFFERENTIAL_HPP

// Inputs (the comb, crops) and the exact label comparison shared by the
// connected-components test suites.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "histcc/image/image.hpp"

/// Adversarial comb: a full top spine with every other column a tooth
/// running the whole height.  One giant component whose connectivity is
/// discovered only at the strip/tile boundaries — the worst case for the
/// merge phases.
inline histcc::img::GreyImage make_comb(std::uint32_t rows,
                                        std::uint32_t cols) {
  histcc::img::GreyImage image(rows, cols);
  auto px = image.pixels();
  for (std::uint32_t j = 0; j < cols; ++j) px[j] = 1;
  for (std::uint32_t i = 1; i < rows; ++i) {
    for (std::uint32_t j = 0; j < cols; j += 2) {
      px[static_cast<std::size_t>(i) * cols + j] = 1;
    }
  }
  return image;
}

/// rows x cols centre crop of `source` (both sides at most the source's).
inline histcc::img::GreyImage crop(const histcc::img::GreyImage& source,
                                   std::uint32_t rows, std::uint32_t cols) {
  const std::uint32_t top = (source.height() - rows) / 2;
  const std::uint32_t left = (source.width() - cols) / 2;
  histcc::img::GreyImage out(rows, cols);
  for (std::uint32_t i = 0; i < rows; ++i) {
    for (std::uint32_t j = 0; j < cols; ++j) {
      out(i, j) = source(top + i, left + j);
    }
  }
  return out;
}

/// Pixel-for-pixel equality of two labelings; reports the first three
/// mismatches and their count, each tagged with `what`.
inline void expect_labels_equal(const histcc::img::LabelImage& got,
                                const histcc::img::LabelImage& want,
                                const std::string& what) {
  ASSERT_EQ(got.height(), want.height()) << what;
  ASSERT_EQ(got.width(), want.width()) << what;
  const auto g = got.pixels();
  const auto w = want.pixels();
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < g.size(); ++i) {
    if (g[i] != w[i]) {
      if (++mismatches <= 3) {
        ADD_FAILURE() << what << ": label mismatch at pixel " << i << ": got "
                      << g[i] << ", want " << w[i];
      }
    }
  }
  EXPECT_EQ(mismatches, 0u) << what;
}

#endif  // HISTCC_TESTS_CC_DIFFERENTIAL_HPP
