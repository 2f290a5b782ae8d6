// Self-tests of the benchmark itself: the oracle catches a corrupted
// histogram and labeling, an empty sample set is refused, the percentile
// rule leaves at least ten samples beyond every reported percentile, and
// workloads are a pure function of their seed.  Exit code 0 when every check holds.

#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "histcc/hist/histogram.hpp"
#include "histcc/image/generators.hpp"
#include "measure.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

int failures = 0;

void check(bool condition, const std::string& what) {
  std::printf("%s %s\n", condition ? "ok  " : "FAIL", what.c_str());
  if (!condition) ++failures;
}

Input input_of(Kind kind, img::GreyImage image, std::uint32_t k = 256) {
  Input in;
  in.kind = kind;
  in.image = std::move(image);
  in.k = k;
  compute_reference(in);
  return in;
}

void oracle_catches_corruption() {
  const auto binary = img::make_percolation(64, 0.59, 11);
  const auto grey = img::make_random_grey(64, 16, 12);

  const Input hist_in = input_of(Kind::kHistogram, grey, 16);
  auto h = histcc::hist::histogram_seq(hist_in.image, 16);
  check(matches(hist_in, h), "histogram matches its reference");
  ++h[3];
  check(!matches(hist_in, h), "corrupted histogram bin is caught");

  const Input cc_in = input_of(Kind::kComponents, binary);
  histcc::splitc::Machine machine(4);
  auto labels = histcc::cc::connected_components_parallel(machine, binary);
  check(matches(cc_in, labels), "VM labeling matches its reference");
  for (auto& label : labels.pixels()) {
    if (label != 0) {
      ++label;
      break;
    }
  }
  check(!matches(cc_in, labels), "corrupted label is caught");

  check(!matches(cc_in, h), "an output of the wrong kind is caught");
}

void empty_layer_is_refused() {
  bool threw = false;
  try {
    (void)median({}, "layer cc.init_ms");
  } catch (const std::runtime_error&) {
    threw = true;
  }
  check(threw, "a layer with no samples fails instead of reading 0");
}

void percentile_rule() {
  for (const unsigned pct : {10u, 50u, 90u}) {
    const std::size_t n = min_samples(pct);
    check(samples_beyond(n, pct) >= kMinBeyond &&
              samples_beyond(n - 1, pct) < kMinBeyond,
          "p" + std::to_string(pct) + " needs exactly " + std::to_string(n) +
              " samples");
    std::vector<double> samples(n);
    for (std::size_t i = 0; i < n; ++i) samples[i] = static_cast<double>(n - i);
    const double value = tail_percentile(samples, pct);
    // Beyond means on the tail's side: below a p10, above a p50 or p90.
    std::size_t beyond = 0;
    for (const double s : samples) {
      beyond += (pct < 50 ? s < value : s > value) ? 1 : 0;
    }
    check(beyond >= kMinBeyond, "p" + std::to_string(pct) + " of " +
                                    std::to_string(n) + " samples leaves " +
                                    std::to_string(beyond) + " beyond it");
    samples.pop_back();
    bool threw = false;
    try {
      (void)tail_percentile(samples, pct);
    } catch (const std::runtime_error&) {
      threw = true;
    }
    check(threw, "p" + std::to_string(pct) + " is refused with " +
                     std::to_string(n - 1) + " samples");
  }
  check(samples_beyond(kMinCalls, 10) >= kMinBeyond &&
            samples_beyond(kMinCalls, 90) >= kMinBeyond && kMinCalls >= 100,
        "direct phase times at least 100 calls per backend");
  check(samples_beyond(kMinJobs, 10) >= kMinBeyond &&
            samples_beyond(kMinJobs, 90) >= kMinBeyond && kMinJobs >= 100,
        "open loop times at least 100 jobs");
  check(samples_beyond(kMinTracedRounds, 50) >= kMinBeyond,
        "traced rounds leave 10 samples beyond the median");
}

void workloads_follow_the_seed() {
  for (const char* name : {"cc_frame", "hist_frame"}) {
    const Workload a = make_workload(name, 7);
    const Workload b = make_workload(name, 7);
    const Workload c = make_workload(name, 8);
    check(a.frame.image == b.frame.image &&
              a.companion.image == b.companion.image,
          std::string(name) + ": same seed, same inputs");
    check(!(a.frame.image == c.frame.image),
          std::string(name) + ": another seed, other inputs");
  }
}

}  // namespace

int main() {
  try {
    oracle_catches_corruption();
    empty_layer_is_refused();
    percentile_rule();
    workloads_follow_the_seed();
  } catch (const std::exception& e) {
    std::printf("FAIL exception: %s\n", e.what());
    ++failures;
  }
  std::printf("%s: %d failure(s)\n", failures == 0 ? "PASS" : "FAIL",
              failures);
  return failures == 0 ? 0 : 1;
}
