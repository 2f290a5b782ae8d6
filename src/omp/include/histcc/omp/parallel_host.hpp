#ifndef HISTCC_OMP_PARALLEL_HOST_HPP
#define HISTCC_OMP_PARALLEL_HOST_HPP

/// \file parallel_host.hpp
/// Shared-memory (OpenMP) implementations of the paper's two primitives.
///
/// The splitc runtime exists to *reproduce* the paper's distributed-memory
/// execution and cost model; these functions exist to be *used*: on a
/// modern multicore host, histogramming and connected components are
/// shared-memory problems, and the natural implementations below are what
/// a downstream user should call for raw wall-clock speed.  They are also
/// the harness's modern comparator: bench_host compares them against the
/// virtual machine running the paper's algorithms on the same images.
///
/// Both produce bit-identical results to the sequential references (the
/// canonical labeling / exact counts), so the test suite cross-checks
/// them against every other implementation.  Their per-pixel kernels are
/// the sequential ones: hist::tally, and cc_seq's union-find first pass
/// (ccseq::union_rows) over row strips.  Built without OpenMP they run
/// serially.
///
/// Team sizes are requests.  OpenMP may grant a region fewer threads (a
/// call from inside another parallel region, OMP_DYNAMIC,
/// OMP_THREAD_LIMIT), so both kernels split their work by the team each
/// region actually runs with, omp_get_num_threads().

#include <cstdint>
#include <vector>

#include "histcc/cc_seq/common.hpp"
#include "histcc/image/image.hpp"

#if defined(__SANITIZE_THREAD__)
#define HISTCC_TSAN_ACTIVE 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define HISTCC_TSAN_ACTIVE 1
#endif
#endif
#ifndef HISTCC_TSAN_ACTIVE
#define HISTCC_TSAN_ACTIVE 0
#endif

namespace histcc::omp {

/// True when this build is instrumented by ThreadSanitizer.  libgomp is
/// not TSan-instrumented, so TSan cannot see the fork/join barriers of
/// `#pragma omp parallel` regions and reports false races between phases
/// that are correctly barrier-separated.  The backend therefore runs
/// single-threaded under TSan (num_threads is a request OpenMP may
/// legitimately shrink); thread-level verification of the OpenMP
/// algorithms is the epoch checker's job (epoch_check.hpp), which runs
/// with real teams in every non-TSan preset.
[[nodiscard]] constexpr bool tsan_active() noexcept {
  return HISTCC_TSAN_ACTIVE != 0;
}

/// Number of threads the OpenMP backend requests by default (1 when built
/// serially or under ThreadSanitizer — see tsan_active()).  A request, not
/// a guarantee: a region may be granted fewer.
[[nodiscard]] unsigned backend_threads() noexcept;

/// Histogram with per-thread tallies (hist::tally over one contiguous
/// chunk each) + parallel reduction, range-checked after the parallel
/// region.  Same contract as hist::histogram_seq (k a power of two in
/// [2, 256], pixels < k).
/// `threads` requests the team size — 0 means backend_threads(); any
/// count (including non-powers-of-two and oversubscription), and any team
/// OpenMP grants for it, gives bit-identical results.  Under TSan the team
/// shrinks to 1 (see tsan_active()).  When the epoch checker is enabled
/// (epoch_check.hpp) the run self-verifies its barrier discipline.
[[nodiscard]] std::vector<std::uint32_t> histogram_omp(
    const img::GreyImage& image, std::uint32_t k, unsigned threads = 0);

/// Connected components by strip-parallel union-find (Gupta et al.,
/// arXiv:1606.05973), on one ccseq::DisjointSets forest:
///   1. the image is cut into horizontal strips, one per granted thread;
///      each thread runs ccseq::union_rows over its strip with the first
///      row not linking up (its unions touch only its own rows, so no
///      synchronization);
///   2. a short serial pass runs ccseq::union_rows over each strip's first
///      row with upward links (the strip boundaries);
///   3. a parallel read-only resolve assigns every pixel
///      DisjointSets::root() + 1.
/// Union-by-minimum keeps the canonical labeling, so the output equals
/// ccseq::label_components_* exactly.  `threads` requests the team size
/// (0 = backend_threads()); the request is clamped so every strip spans
/// at least two rows, and shrinks to 1 under TSan (see tsan_active()).
/// Built without OpenMP this is ccseq::label_components_unionfind.  When
/// the epoch checker is enabled (epoch_check.hpp) the run self-verifies
/// its barrier discipline.
[[nodiscard]] img::LabelImage connected_components_omp(
    const img::GreyImage& image,
    ccseq::Connectivity conn = ccseq::Connectivity::kEight,
    ccseq::ColourRule rule = ccseq::ColourRule::kBinary,
    unsigned threads = 0);

}  // namespace histcc::omp

#endif  // HISTCC_OMP_PARALLEL_HOST_HPP
