#ifndef PERFBENCH_MEASURE_HPP
#define PERFBENCH_MEASURE_HPP

/// \file measure.hpp
/// Clock and summary statistics of the benchmark.
///
/// Tail percentiles follow one rule: a percentile is reported only when at
/// least kMinBeyond samples lie beyond it, on the side of the tail it
/// stands for (above a p50 or p90, below a p10), so a p90 or a p10 needs
/// 101 samples and a p99 needs 1000.  Percentiles use the nearest-rank
/// definition on integer percents, so the rule is exact arithmetic, not
/// floating point.

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <stdexcept>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;
static_assert(Clock::is_steady, "benchmark timings require a steady clock");

[[nodiscard]] inline double ms_between(Clock::time_point from,
                                       Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

inline constexpr std::size_t kMinBeyond = 10;

/// 0-based index of the nearest-rank `pct`-th percentile of n samples:
/// ceil(pct * n / 100) - 1.
[[nodiscard]] constexpr std::size_t rank_index(std::size_t n, unsigned pct) {
  const std::size_t rank = (pct * n + 99) / 100;
  return rank == 0 ? 0 : rank - 1;
}

/// Samples strictly beyond the percentile's rank: before it for a
/// percentile under 50, after it otherwise.
[[nodiscard]] constexpr std::size_t samples_beyond(std::size_t n,
                                                   unsigned pct) {
  if (n == 0) return 0;
  const std::size_t i = rank_index(n, pct);
  return pct < 50 ? i : n - (i + 1);
}

/// Fewest samples for which `pct` may be reported.
[[nodiscard]] constexpr std::size_t min_samples(unsigned pct) {
  std::size_t n = 1;
  while (samples_beyond(n, pct) < kMinBeyond) ++n;
  return n;
}

/// The `pct`-th percentile of `samples`; throws when fewer than kMinBeyond
/// samples lie beyond it.
[[nodiscard]] inline double tail_percentile(std::vector<double> samples,
                                            unsigned pct) {
  if (samples_beyond(samples.size(), pct) < kMinBeyond) {
    throw std::runtime_error("p" + std::to_string(pct) + " needs " +
                             std::to_string(min_samples(pct)) +
                             " samples, have " +
                             std::to_string(samples.size()));
  }
  const std::size_t i = rank_index(samples.size(), pct);
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<std::ptrdiff_t>(i),
                   samples.end());
  return samples[i];
}

/// Direct-phase calls per backend: enough for a p10 and a p90.
inline constexpr std::size_t kMinCalls =
    std::max(min_samples(10), min_samples(90));
/// Open-loop jobs per run: enough for a p10 and a p90.
inline constexpr std::size_t kMinJobs = kMinCalls;
/// Traced rounds per run: enough for a median.
inline constexpr std::size_t kMinTracedRounds = min_samples(50);

/// Plain median (mean of the middle pair for even counts) for summaries
/// that are not tail percentiles: set-up repetitions and per-layer times.
/// Throws on an empty set, so a layer that recorded nothing fails the run
/// instead of reading 0.
[[nodiscard]] inline double median(std::vector<double> samples,
                                   const std::string& what = "samples") {
  if (samples.empty()) {
    throw std::runtime_error("no samples of " + what);
  }
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

}  // namespace perfbench

#endif  // PERFBENCH_MEASURE_HPP
