#include "histcc/omp/parallel_host.hpp"

#ifdef _OPENMP
#include <omp.h>
#endif

#include <algorithm>
#include <memory>

#include "histcc/hist/histogram.hpp"
#include "histcc/omp/epoch_check.hpp"
#include "histcc/util/math.hpp"
#include "histcc/util/require.hpp"

namespace histcc::omp {

unsigned backend_threads() noexcept {
#ifdef _OPENMP
  if (tsan_active()) return 1;
  return static_cast<unsigned>(omp_get_max_threads());
#else
  return 1;
#endif
}

std::vector<std::uint32_t> histogram_omp(const img::GreyImage& image,
                                         std::uint32_t k, unsigned threads) {
  HISTCC_REQUIRE(k >= 2 && k <= 256 && util::is_pow2(k),
                 "grey-level count must be a power of two in [2, 256]");
  const auto px = image.pixels();
  hist::Tally counts{};
#ifdef _OPENMP
  // Explicit counts are requests, not guarantees: under TSan they shrink
  // to 1 like backend_threads() does (see tsan_active()).
  const unsigned nt =
      tsan_active() ? 1 : (threads == 0 ? backend_threads() : threads);
  // Flat per-thread tallies: thread t owns [t*256, (t+1)*256).  Epoch
  // structure is the paper's publication discipline verbatim: tally into
  // your own block, barrier, reduce everyone's blocks.
  constexpr std::size_t kBins = hist::kTallyBins;
  std::vector<std::uint32_t> partial(nt * kBins, 0);

  std::unique_ptr<EpochChecker> chk;
  std::shared_ptr<splitc::ArrayShadow> sh_partial;
  std::shared_ptr<splitc::ArrayShadow> sh_counts;
  if (epoch_check_enabled()) {
    chk = std::make_unique<EpochChecker>(nt);
    sh_partial = chk->attach("omp_hist_partial");
    sh_counts = chk->attach("omp_hist_counts");
  }

#pragma omp parallel num_threads(nt)
  {
    // Slice by the team OpenMP granted, which may be smaller than nt (a
    // nested call, OMP_DYNAMIC, OMP_THREAD_LIMIT).
    const auto n = static_cast<unsigned>(omp_get_num_threads());
    const auto t = static_cast<unsigned>(omp_get_thread_num());
    // Static contiguous chunks, one shared tally kernel per thread.
    const std::size_t begin = px.size() * t / n;
    const std::size_t end = px.size() * (t + 1) / n;
    const hist::Tally mine = hist::tally(px.subspan(begin, end - begin));
    std::copy(mine.begin(), mine.end(), partial.data() + t * kBins);
#pragma omp barrier
    if (chk) {
      chk->note_write(*sh_partial, t, t * kBins, kBins);
      chk->epoch_barrier(t);
    }
    // Parallel reduction over all 256 bins: thread t combines column g of
    // every tally block for its slice.  Manual static ranges so the slice
    // is explicit for the epoch annotation.
    const std::size_t g_begin = kBins * t / n;
    const std::size_t g_end = kBins * (t + 1) / n;
    for (std::size_t g = g_begin; g < g_end; ++g) {
      std::uint32_t sum = 0;
      for (unsigned tt = 0; tt < n; ++tt) sum += partial[tt * kBins + g];
      counts[g] = sum;
    }
    if (chk) {
      chk->note_read(*sh_partial, t, 0, n * kBins);
      chk->note_write(*sh_counts, t, g_begin, g_end - g_begin);
    }
  }
  if (chk) chk->throw_if_conflicts();
#else
  (void)threads;
  counts = hist::tally(px);
#endif
  // The range check runs after the parallel region, where throwing is
  // safe.
  hist::require_below(counts, k);
  return std::vector<std::uint32_t>(counts.begin(), counts.begin() + k);
}

}  // namespace histcc::omp
