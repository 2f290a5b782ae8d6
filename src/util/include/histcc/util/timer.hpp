#ifndef HISTCC_UTIL_TIMER_HPP
#define HISTCC_UTIL_TIMER_HPP

/// \file timer.hpp
/// Monotonic wall-clock timer used by the benchmark harness to report the
/// per-phase execution times the paper plots (computation time vs
/// communication time).

#include <chrono>
#include <cstdint>

namespace histcc::util {

/// Simple monotonic stopwatch.
class Timer {
 public:
  /// Public so users can assert the monotonicity this header promises
  /// (the bench harness static_asserts clock::is_steady).
  using clock = std::chrono::steady_clock;

  Timer() noexcept : start_(clock::now()) {}

  /// Restart the stopwatch.
  void reset() noexcept { start_ = clock::now(); }

  /// Elapsed seconds since construction or last reset().
  [[nodiscard]] double seconds() const noexcept {
    return std::chrono::duration<double>(clock::now() - start_).count();
  }

  /// Elapsed nanoseconds since construction or last reset().
  [[nodiscard]] std::int64_t nanoseconds() const noexcept {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(clock::now() -
                                                                start_)
        .count();
  }

 private:
  clock::time_point start_;
};

}  // namespace histcc::util

#endif  // HISTCC_UTIL_TIMER_HPP
