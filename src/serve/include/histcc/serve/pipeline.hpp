#ifndef HISTCC_SERVE_PIPELINE_HPP
#define HISTCC_SERVE_PIPELINE_HPP

/// \file pipeline.hpp
/// The multi-tenant job pipeline over the SPMD runtime: many independent
/// images in flight at once, served by a MachinePool of warm machines
/// behind a bounded JobQueue.
///
///   submit_* (any thread)          pool workers (pool_size threads)
///   ───────────────────────        ──────────────────────────────────
///   route: pick p from n^2/p  ──>  bounded JobQueue  ──>  pop, check
///   (or sequential fallback)       (backpressure)         deadline +
///                                                         cancellation,
///                                                         lease machine,
///                                                         execute,
///                                                         resolve future
///
/// Routing picks the virtual-processor count from the image size — the
/// paper's n^2/p tradeoff: each processor should get about grain_pixels
/// of tile, capped at max_procs.  The ragged tile layout (docs/layout.md)
/// hosts any H x W shape, so only images at or below sequential_pixels
/// skip the machine and run the sequential reference path.  Related CCL
/// work (Gupta et al.; Chen et al.) makes the same point: the right
/// algorithm/width is a per-workload choice, so the serving layer makes
/// it per job.
///
/// Robustness: a failed parallel run (including a race-ledger violation
/// in instrumented builds) degrades to the sequential path and reports
/// kDegraded rather than dropping the job; deadlines expire jobs still in
/// the queue; shutdown either drains or aborts, but every accepted job's
/// future always resolves.

#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "histcc/cc/parallel_cc.hpp"
#include "histcc/image/image.hpp"
#include "histcc/serve/job.hpp"
#include "histcc/serve/job_queue.hpp"
#include "histcc/serve/machine_pool.hpp"
#include "histcc/serve/metrics.hpp"

namespace histcc::trace {
class Tracer;
}  // namespace histcc::trace

namespace histcc::serve {

/// Pipeline-wide configuration (per-job knobs live in JobOptions).
struct PipelineOptions {
  /// Machine slots == pool worker threads: jobs concurrently executing.
  std::uint32_t pool_size = 2;
  /// Cap on virtual processors per job (power of two).
  std::uint32_t max_procs = 16;
  /// Bounded queue: at most this many jobs waiting beyond the pool.
  std::size_t queue_capacity = 64;
  /// Routing target: pixels of tile per virtual processor (n^2/p).
  std::uint32_t grain_pixels = 64 * 64;
  /// Images with at most this many pixels run the sequential path.
  std::uint32_t sequential_pixels = 64 * 64;
  /// Warm machines cached per pool slot (one per distinct processor
  /// count, LRU-evicted).  0 = auto: enough for every power-of-two width
  /// up to max_procs, so a mixed-width job mix stops rebuilding once each
  /// width has been seen.  1 = the original one-machine-per-slot mode.
  std::uint32_t machines_per_slot = 0;
  /// Allocation mode for Spreads on the pooled machines (docs/layout.md).
  /// Packed reclaims the ragged-layout padding; strided is the
  /// differential oracle the tests compare against.
  splitc::SpreadLayout spread_layout = splitc::SpreadLayout::kPacked;
  /// Test/instrumentation hook: when set, called on the pool worker
  /// immediately before every parallel execution.  Throwing from it
  /// exercises the degradation path; sleeping in it exercises deadlines.
  std::function<void()> before_parallel{};
  /// Span/counter sink (docs/tracing.md): per-job queue/lease/run/degrade
  /// spans on the worker's track, queue-depth and in-flight counter
  /// samples, and attachment of the tracer to every leased machine so
  /// kernel phases land in the same trace.  nullptr falls back to
  /// `trace::env_tracer()` (the HISTCC_TRACE environment variable), which
  /// is itself null when tracing was not requested.
  trace::Tracer* trace = nullptr;
  /// Sampling rate for *kernel* spans (bdm/hist/cc/img categories) on the
  /// resolved tracer: > 1 installs SamplingPolicy::kernels(N) at pipeline
  /// construction, recording every Nth kernel span per thread — the
  /// always-on production preset (docs/tracing.md).  Per-job serve spans
  /// are never touched by this knob: they stay exact at rate 1 so job
  /// observability remains complete.  0/1 leaves the tracer's existing
  /// policy (e.g. one installed via HISTCC_TRACE=...:bdm=16) unchanged.
  std::uint32_t trace_sample_every = 1;
};

/// The virtual-processor count routing gives an image of this shape under
/// `options` (1 = sequential path): the largest power of two p with
/// p <= max_procs and pixels/p >= grain_pixels, or 1 for images at or
/// below sequential_pixels.  Any H x W shape is machine-eligible — the
/// ragged tile layout imposes no squareness or divisibility constraint.
[[nodiscard]] std::uint32_t choose_procs(std::uint32_t height,
                                         std::uint32_t width,
                                         const PipelineOptions& options);

/// How shutdown treats jobs still in the queue.
enum class DrainMode : std::uint8_t {
  kDrain,  ///< run every queued job to completion, then stop
  kAbort,  ///< resolve queued jobs kCancelled; in-flight jobs finish
};

class Pipeline {
 public:
  explicit Pipeline(PipelineOptions options = {});

  /// Drains outstanding work (shutdown(kDrain)) unless shutdown was
  /// already called.
  ~Pipeline();

  Pipeline(const Pipeline&) = delete;
  Pipeline& operator=(const Pipeline&) = delete;

  /// Histogram `image` with k grey bars (k a power of two in [2, 256]).
  [[nodiscard]] PendingJob<std::vector<std::uint32_t>> submit_histogram(
      img::GreyImage image, std::uint32_t k, JobOptions job = {});

  /// Label the connected components of `image` (canonical labeling).
  [[nodiscard]] PendingJob<img::LabelImage> submit_components(
      img::GreyImage image, cc::CcOptions options = {}, JobOptions job = {});

  /// Stop accepting jobs and finish (kDrain) or cancel (kAbort) the
  /// queued ones; blocks until the pool workers have exited.  Idempotent;
  /// later submissions resolve kRejected.
  void shutdown(DrainMode mode = DrainMode::kDrain);

  /// Observability snapshot (queue depth, in-flight, outcome counters,
  /// latency percentiles, machine churn).
  [[nodiscard]] PoolMetrics metrics() const;

  [[nodiscard]] const PipelineOptions& options() const noexcept {
    return options_;
  }

 private:
  struct QueuedJob;

  /// Shared submit tail: route, wrap, enqueue (or reject).
  template <typename T, typename ParallelFn, typename SequentialFn>
  PendingJob<T> enqueue(img::GreyImage image, const JobOptions& job,
                        ParallelFn parallel, SequentialFn sequential);

  void worker_loop(std::uint32_t worker);
  void finish_cancelled(QueuedJob& job);

  PipelineOptions options_;
  trace::Tracer* tracer_ = nullptr;  ///< resolved from options/environment
  MachinePool pool_;
  std::unique_ptr<JobQueue<QueuedJob>> queue_;
  MetricsRecorder metrics_;
  std::vector<std::thread> workers_;
  std::atomic<std::uint64_t> next_id_{0};
  std::mutex shutdown_mutex_;
  bool shut_down_ = false;
};

}  // namespace histcc::serve

#endif  // HISTCC_SERVE_PIPELINE_HPP
