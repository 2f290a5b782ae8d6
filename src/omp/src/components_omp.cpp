#include "histcc/omp/parallel_host.hpp"

#ifdef _OPENMP
#include <omp.h>
#endif

#include <algorithm>
#include <memory>

#include "histcc/cc_seq/union_find.hpp"
#include "histcc/omp/epoch_check.hpp"

namespace histcc::omp {

img::LabelImage connected_components_omp(const img::GreyImage& image,
                                         ccseq::Connectivity conn,
                                         ccseq::ColourRule rule,
                                         unsigned threads) {
#ifndef _OPENMP
  (void)threads;
  return ccseq::label_components_unionfind(image, conn, rule);
#else
  const std::uint32_t rows = image.height();
  const std::uint32_t cols = image.width();
  img::LabelImage labels(rows, cols);
  if (image.empty()) return labels;

  if (threads == 0) threads = backend_threads();
  // Explicit counts are requests, not guarantees: under TSan they shrink
  // to 1 like backend_threads() does (see tsan_active()).
  if (tsan_active()) threads = 1;
  // At least two rows per strip, so no strip is empty and each boundary
  // row is the first row of its own strip.
  threads = std::min<unsigned>(threads, std::max(1u, rows / 2));
  // First row of strip t of n.  The strips are cut inside each region
  // from the team OpenMP granted, which may be smaller than `threads`
  // (a nested call, OMP_DYNAMIC, OMP_THREAD_LIMIT).
  const auto strip_begin = [rows](unsigned t, unsigned n) {
    return static_cast<std::uint32_t>(static_cast<std::uint64_t>(rows) * t /
                                      n);
  };

  const std::size_t total = static_cast<std::size_t>(rows) * cols;
  ccseq::DisjointSets sets(total);
  std::unique_ptr<EpochChecker> chk;
  std::shared_ptr<splitc::ArrayShadow> sh_parent;
  std::shared_ptr<splitc::ArrayShadow> sh_labels;
  if (epoch_check_enabled()) {
    chk = std::make_unique<EpochChecker>(threads);
    sh_parent = chk->attach("omp_cc_parent");
    sh_labels = chk->attach("omp_cc_labels");
  }

  // Pass 1 (parallel): each thread unites within its own strip.  The
  // strip's first row does not link up, so its unions touch only the
  // forest slots of its own rows.
  unsigned team = 1;
#pragma omp parallel num_threads(threads)
  {
    const auto n = static_cast<unsigned>(omp_get_num_threads());
    const auto t = static_cast<unsigned>(omp_get_thread_num());
    if (t == 0) team = n;
    const std::uint32_t lo = strip_begin(t, n);
    const std::uint32_t hi = strip_begin(t + 1, n);
    ccseq::union_rows(image, sets, lo, hi, /*link_up=*/false, conn, rule);
    if (chk) {
      chk->note_write(*sh_parent, t, static_cast<std::size_t>(lo) * cols,
                      static_cast<std::size_t>(hi - lo) * cols);
    }
  }
  // The fork/join boundary is the barrier that publishes the strips.
  if (chk) chk->advance_epoch_all();

  // Pass 2 (serial): stitch the strip boundaries — re-scan just each
  // strip's first row with upward links enabled.
  for (unsigned t = 1; t < team; ++t) {
    const std::uint32_t row = strip_begin(t, team);
    ccseq::union_rows(image, sets, row, row + 1, /*link_up=*/true, conn,
                      rule);
  }
  if (chk) {
    // Boundary unions may relink roots anywhere; recorded as thread 0,
    // alone in its epoch (the other threads are joined).
    chk->note_write(*sh_parent, 0, 0, total);
    chk->advance_epoch_all();
  }

  // Pass 3 (parallel, read-only): resolve every pixel to its root.
  // Manual static ranges (equivalent to schedule(static)) so each
  // thread's label slice is explicit for the epoch annotation.
  const auto px = image.pixels();
  auto out = labels.pixels();
#pragma omp parallel num_threads(threads)
  {
    const auto n = static_cast<unsigned>(omp_get_num_threads());
    const auto t = static_cast<unsigned>(omp_get_thread_num());
    const std::size_t lo = total * t / n;
    const std::size_t hi = total * (t + 1) / n;
    for (std::size_t i = lo; i < hi; ++i) {
      out[i] = px[i] == 0 ? ccseq::kBackgroundLabel
                          : sets.root(static_cast<std::uint32_t>(i)) + 1;
    }
    if (chk) {
      chk->note_read(*sh_parent, t, 0, total);
      chk->note_write(*sh_labels, t, lo, hi - lo);
    }
  }
  if (chk) chk->throw_if_conflicts();
  return labels;
#endif
}

}  // namespace histcc::omp
