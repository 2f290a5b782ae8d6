#ifndef HISTCC_TESTS_HIST_REFERENCE_HPP
#define HISTCC_TESTS_HIST_REFERENCE_HPP

// The histogram oracle the tests check every backend against,
// hist::histogram_seq included: one loop, ++counts[px].  It shares no
// code with hist::tally, the kernel all three backends run.

#include <cstdint>
#include <vector>

#include "histcc/image/image.hpp"

/// H[0..k) of `image`, counted one pixel at a time.  A pixel >= k is a
/// broken test input and throws std::out_of_range.
inline std::vector<std::uint32_t> reference_histogram(
    const histcc::img::GreyImage& image, std::uint32_t k) {
  std::vector<std::uint32_t> counts(k, 0);
  for (const auto px : image.pixels()) ++counts.at(px);
  return counts;
}

#endif  // HISTCC_TESTS_HIST_REFERENCE_HPP
