#ifndef HISTCC_HISTCC_HPP
#define HISTCC_HISTCC_HPP

/// \file histcc.hpp
/// Umbrella header and convenience API for the histcc library — a faithful
/// reproduction of Bader & JaJa, "Parallel Algorithms for Image
/// Histogramming and Connected Components with an Experimental Study"
/// (PPoPP 1995).
///
/// Layers (each usable on its own):
///   histcc/splitc/*   — SPMD runtime: virtual distributed-memory machine,
///                       split-phase transfers, BDM cost accounting
///   histcc/bdm/*      — transpose / broadcast / gather primitives
///   histcc/sortutil/* — the paper's radix + hybrid sorting kernels
///   histcc/image/*    — images, tile layout, test-image generators, I/O
///   histcc/cc_seq/*   — sequential labelers and labeling analysis
///   histcc/hist/*     — sequential + parallel histogramming, equalization
///   histcc/cc/*       — the parallel CC algorithm and baselines
///   histcc/morph/*    — binary morphology (halo-exchange stencils)
///   histcc/omp/*      — shared-memory (OpenMP) host implementations
///   histcc/serve/*    — multi-tenant job pipeline: machine pool, bounded
///                       queue, async jobs with deadlines (docs/serving.md)
///
/// The `histcc::` functions below are the one-call entry points most
/// applications want: construct a `Machine` with the desired virtual
/// processor count, then histogram / label host images directly.

#include "histcc/bdm/primitives.hpp"
#include "histcc/cc/border_graph.hpp"
#include "histcc/cc/hooks.hpp"
#include "histcc/cc/label_prop.hpp"
#include "histcc/cc/merge_schedule.hpp"
#include "histcc/cc/parallel_cc.hpp"
#include "histcc/cc/region_graph.hpp"
#include "histcc/cc/replicated.hpp"
#include "histcc/cc/stats_parallel.hpp"
#include "histcc/cc_seq/analysis.hpp"
#include "histcc/cc_seq/bfs_label.hpp"
#include "histcc/cc_seq/hoshen_kopelman.hpp"
#include "histcc/cc_seq/union_find.hpp"
#include "histcc/hist/equalize.hpp"
#include "histcc/hist/histogram.hpp"
#include "histcc/image/generators.hpp"
#include "histcc/image/image.hpp"
#include "histcc/image/layout.hpp"
#include "histcc/image/halo.hpp"
#include "histcc/image/pgm_io.hpp"
#include "histcc/morph/morphology.hpp"
#include "histcc/omp/parallel_host.hpp"
#include "histcc/serve/job.hpp"
#include "histcc/serve/job_queue.hpp"
#include "histcc/serve/machine_pool.hpp"
#include "histcc/serve/metrics.hpp"
#include "histcc/serve/pipeline.hpp"
#include "histcc/sortutil/radix.hpp"
#include "histcc/splitc/machine.hpp"
#include "histcc/splitc/profile.hpp"
#include "histcc/splitc/spread.hpp"
#include "histcc/trace/export.hpp"
#include "histcc/trace/trace.hpp"
#include "histcc/util/math.hpp"
#include "histcc/util/rng.hpp"
#include "histcc/util/timer.hpp"

namespace histcc {

/// Library version string ("major.minor.patch").
[[nodiscard]] const char* version() noexcept;

/// Histogram `image` (k grey levels) on a p-processor virtual machine.
[[nodiscard]] std::vector<std::uint32_t> histogram(const img::GreyImage& image,
                                                   std::uint32_t k,
                                                   std::uint32_t nprocs);

/// Label the connected components of `image` on a p-processor virtual
/// machine with the paper's algorithm.
[[nodiscard]] img::LabelImage connected_components(
    const img::GreyImage& image, std::uint32_t nprocs,
    const cc::CcOptions& options = {});

}  // namespace histcc

#endif  // HISTCC_HISTCC_HPP
