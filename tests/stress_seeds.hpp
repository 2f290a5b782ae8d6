#ifndef HISTCC_TESTS_STRESS_SEEDS_HPP
#define HISTCC_TESTS_STRESS_SEEDS_HPP

// Seed selection shared by the seeded stress tests.  The fixed catalog a
// test passes in runs everywhere (deterministic, reproducible).  Setting
// HISTCC_STRESS_RANDOM=1 switches to freshly drawn random seeds — the
// nightly CI mode, which walks a different part of the input space on
// every run; HISTCC_STRESS_SEEDS sets how many (default 8).  Drawn seeds
// are printed, so a nightly failure is replayable by appending the
// printed value to the fixed catalog.

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <random>
#include <span>
#include <string_view>
#include <vector>

/// The seed sweep for this process: `fixed`, or freshly drawn nonzero
/// seeds under HISTCC_STRESS_RANDOM=1.
inline std::vector<std::uint64_t> stress_seed_sweep(
    std::span<const std::uint64_t> fixed) {
  const char* random_mode = std::getenv("HISTCC_STRESS_RANDOM");
  if (random_mode == nullptr || std::string_view(random_mode) != "1") {
    return {fixed.begin(), fixed.end()};
  }
  std::size_t count = 8;
  if (const char* n = std::getenv("HISTCC_STRESS_SEEDS")) {
    count = std::max<std::size_t>(1, std::strtoull(n, nullptr, 10));
  }
  std::random_device device;
  std::vector<std::uint64_t> drawn(count);
  for (auto& seed : drawn) {
    seed = (static_cast<std::uint64_t>(device()) << 32) | device();
    if (seed == 0) seed = 1;  // 0 means "perturbation off" to some tests
  }
  std::cout << "[stress] HISTCC_STRESS_RANDOM=1: drew " << drawn.size()
            << " random seeds:";
  for (const auto seed : drawn) std::cout << ' ' << seed;
  std::cout << '\n';
  return drawn;
}

#endif  // HISTCC_TESTS_STRESS_SEEDS_HPP
