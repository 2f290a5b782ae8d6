// Tests for the serving layer (histcc/serve): bounded job queue, machine
// pool, size-based routing, and the pipeline's end-to-end semantics —
// correctness against the sequential references, deadlines, cancellation,
// degradation, backpressure, and shutdown.
//
// Concurrency-sensitive scenarios are sequenced with an explicit gate
// (the PipelineOptions::before_parallel hook) rather than sleeps, so they
// hold under TSan and the race-ledger preset.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "histcc/cc_seq/bfs_label.hpp"
#include "histcc/hist/histogram.hpp"
#include "histcc/image/generators.hpp"
#include "histcc/serve/job_queue.hpp"
#include "histcc/serve/machine_pool.hpp"
#include "histcc/serve/pipeline.hpp"
#include "histcc/splitc/machine.hpp"

namespace im = histcc::img;
namespace sv = histcc::serve;
namespace ccseq = histcc::ccseq;
namespace hist = histcc::hist;

using namespace std::chrono_literals;

namespace {

/// One-shot rendezvous for pipeline tests: the first parallel execution
/// announces itself on `started` and then parks until release() — so a
/// test can fill the queue / cancel / shut down behind a provably busy
/// worker without a single timing assumption.
struct Gate {
  std::promise<void> started_promise;
  std::future<void> started = started_promise.get_future();
  std::promise<void> release_promise;
  std::shared_future<void> release = release_promise.get_future().share();
  std::atomic<bool> armed{true};

  [[nodiscard]] std::function<void()> hook() {
    return [this] {
      if (armed.exchange(false)) {
        started_promise.set_value();
        release.wait();
      }
    };
  }
  void open() { release_promise.set_value(); }
};

}  // namespace

// ---------------------------------------------------------------------------
// JobQueue

TEST(JobQueueTest, FifoWithinCapacity) {
  sv::JobQueue<int> q(4);
  EXPECT_EQ(q.capacity(), 4u);
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(q.try_push(int{i}));
  EXPECT_FALSE(q.try_push(99));  // full
  EXPECT_EQ(q.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    auto item = q.pop();
    ASSERT_TRUE(item.has_value());
    EXPECT_EQ(*item, i);
  }
  EXPECT_EQ(q.size(), 0u);
}

TEST(JobQueueTest, CloseDrainsThenEndsPop) {
  sv::JobQueue<int> q(4);
  EXPECT_TRUE(q.try_push(1));
  EXPECT_TRUE(q.try_push(2));
  q.close();
  EXPECT_TRUE(q.closed());
  EXPECT_FALSE(q.try_push(3));
  EXPECT_FALSE(q.push(4));
  // A closed queue still drains what it holds...
  EXPECT_EQ(q.pop().value_or(-1), 1);
  EXPECT_EQ(q.pop().value_or(-1), 2);
  // ...then pop reports end-of-stream instead of blocking.
  EXPECT_FALSE(q.pop().has_value());
}

TEST(JobQueueTest, DrainClaimsLeftovers) {
  sv::JobQueue<int> q(8);
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(q.try_push(int{i}));
  q.close();
  const auto leftovers = q.drain();
  EXPECT_EQ(leftovers, (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_EQ(q.size(), 0u);
}

TEST(JobQueueTest, BlockedPushResumesAfterPop) {
  sv::JobQueue<int> q(1);
  EXPECT_TRUE(q.try_push(1));
  std::atomic<bool> pushed{false};
  std::thread producer([&] {
    EXPECT_TRUE(q.push(2));  // blocks: queue full
    pushed = true;
  });
  EXPECT_EQ(q.pop().value_or(-1), 1);
  producer.join();
  EXPECT_TRUE(pushed.load());
  EXPECT_EQ(q.pop().value_or(-1), 2);
}

TEST(JobQueueTest, ManyProducersManyConsumers) {
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 250;
  sv::JobQueue<int> q(16);
  std::atomic<long> sum{0};
  std::atomic<int> received{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < 3; ++c) {
    threads.emplace_back([&] {
      while (auto item = q.pop()) {
        sum += *item;
        received++;
      }
    });
  }
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        EXPECT_TRUE(q.push(p * kPerProducer + i));
      }
    });
  }
  for (std::size_t t = 3; t < threads.size(); ++t) threads[t].join();
  q.close();
  for (std::size_t t = 0; t < 3; ++t) threads[t].join();
  const int n = kProducers * kPerProducer;
  EXPECT_EQ(received.load(), n);
  EXPECT_EQ(sum.load(), static_cast<long>(n) * (n - 1) / 2);
}

// ---------------------------------------------------------------------------
// MachinePool

TEST(MachinePoolTest, ReusesSameSizeMachineWithoutRebuild) {
  sv::MachinePool pool(1, 16);
  EXPECT_EQ(pool.machines_built(), 0u);
  { auto lease = pool.acquire(4); }
  EXPECT_EQ(pool.machines_built(), 1u);
  {
    auto lease = pool.acquire(4);  // warm hit: same size, same slot
    EXPECT_EQ(lease.machine().nprocs(), 4u);
  }
  EXPECT_EQ(pool.machines_built(), 1u);
}

TEST(MachinePoolTest, SizeShiftRebuilds) {
  sv::MachinePool pool(1, 16);
  { auto lease = pool.acquire(4); }
  { auto lease = pool.acquire(8); }  // job mix shifted: rebuild
  EXPECT_EQ(pool.machines_built(), 2u);
  { auto lease = pool.acquire(8); }  // steady again: no churn
  EXPECT_EQ(pool.machines_built(), 2u);
}

TEST(MachinePoolTest, PrefersExactSizeIdleSlot) {
  sv::MachinePool pool(2, 16);
  {
    auto a = pool.acquire(2);
    auto b = pool.acquire(8);
  }
  EXPECT_EQ(pool.machines_built(), 2u);
  EXPECT_EQ(pool.idle(), 2u);
  // Both slots idle, one holds an 8-wide machine: asking for 8 must pick
  // it instead of rebuilding the 2-wide slot.
  { auto lease = pool.acquire(8); }
  EXPECT_EQ(pool.machines_built(), 2u);
}

TEST(MachinePoolTest, AcquireBlocksUntilRelease) {
  sv::MachinePool pool(1, 4);
  auto first = pool.acquire(2);
  EXPECT_EQ(pool.idle(), 0u);
  std::promise<void> got_promise;
  auto got = got_promise.get_future();
  std::thread waiter([&] {
    auto second = pool.acquire(2);
    got_promise.set_value();
  });
  EXPECT_EQ(got.wait_for(50ms), std::future_status::timeout);
  first.release();
  got.wait();
  waiter.join();
  EXPECT_EQ(pool.idle(), 1u);
}

TEST(MachinePoolTest, LeasedMachineRunsPrograms) {
  sv::MachinePool pool(1, 8);
  auto lease = pool.acquire(8);
  std::atomic<int> count{0};
  lease.machine().run([&](histcc::splitc::Proc& self) {
    self.barrier();
    count++;
  });
  EXPECT_EQ(count.load(), 8);
}

TEST(MachinePoolTest, RejectsInvalidWidths) {
  sv::MachinePool pool(1, 8);
  EXPECT_ANY_THROW({ auto lease = pool.acquire(3); });
  EXPECT_ANY_THROW({ auto lease = pool.acquire(16); });  // > max_procs
  EXPECT_ANY_THROW({ auto lease = pool.acquire(0); });
}

TEST(MachinePoolTest, MovedFromLeaseIsInert) {
  sv::MachinePool pool(1, 8);
  {
    auto lease = pool.acquire(4);
    auto moved = std::move(lease);
    // The moved-from lease must not hold the slot: releasing it (or
    // letting it die) is a no-op, and the slot frees exactly once when
    // `moved` goes away.
    lease.release();  // NOLINT(bugprone-use-after-move): inertness test
    EXPECT_EQ(pool.idle(), 0u);  // `moved` still owns the slot
    EXPECT_EQ(moved.machine().nprocs(), 4u);
  }
  EXPECT_EQ(pool.idle(), 1u);
}

TEST(MachinePoolTest, DoubleReleaseIsIdempotent) {
  sv::MachinePool pool(1, 8);
  auto lease = pool.acquire(2);
  lease.release();
  EXPECT_EQ(pool.idle(), 1u);
  lease.release();  // second release: no double-free, no idle over-count
  EXPECT_EQ(pool.idle(), 1u);
  // The slot is genuinely reusable afterwards.
  { auto again = pool.acquire(2); }
  EXPECT_EQ(pool.machines_built(), 1u);
}

TEST(MachinePoolTest, HeterogeneousSlotKeepsMixedSizesWarm) {
  // machines_per_slot = 3: one slot can keep a 2-, 4-, and 8-wide machine
  // warm at once, so a mixed job mix stops rebuilding after warmup.
  sv::MachinePool pool(1, 8, 3);
  EXPECT_EQ(pool.machines_per_slot(), 3u);
  for (int round = 0; round < 4; ++round) {
    { auto lease = pool.acquire(2); }
    { auto lease = pool.acquire(4); }
    { auto lease = pool.acquire(8); }
  }
  EXPECT_EQ(pool.machines_built(), 3u);  // one build per width, ever
}

TEST(MachinePoolTest, HeterogeneousSlotEvictsLeastRecentlyUsed) {
  sv::MachinePool pool(1, 8, 2);
  { auto lease = pool.acquire(2); }
  { auto lease = pool.acquire(4); }
  EXPECT_EQ(pool.machines_built(), 2u);
  // Capacity 2 is full; an 8-wide request evicts the LRU entry (the
  // 2-wide machine).
  { auto lease = pool.acquire(8); }
  EXPECT_EQ(pool.machines_built(), 3u);
  { auto lease = pool.acquire(4); }  // still warm
  EXPECT_EQ(pool.machines_built(), 3u);
  { auto lease = pool.acquire(2); }  // was evicted: rebuild
  EXPECT_EQ(pool.machines_built(), 4u);
}

TEST(MachinePoolTest, HeterogeneousLeasedMachineRunsPrograms) {
  sv::MachinePool pool(2, 8, 2);
  auto a = pool.acquire(4);
  auto b = pool.acquire(8);
  std::atomic<int> count{0};
  a.machine().run([&](histcc::splitc::Proc& self) {
    self.barrier();
    count++;
  });
  b.machine().run([&](histcc::splitc::Proc& self) {
    self.barrier();
    count++;
  });
  EXPECT_EQ(count.load(), 12);
}

// ---------------------------------------------------------------------------
// Routing (choose_procs): the paper's n^2/p tradeoff as an admission rule.

TEST(RoutingTest, SmallImagesRunSequentially) {
  const sv::PipelineOptions opt;  // grain = sequential = 64*64
  EXPECT_EQ(sv::choose_procs(64, 64, opt), 1u);
  EXPECT_EQ(sv::choose_procs(32, 32, opt), 1u);
  EXPECT_EQ(sv::choose_procs(0, 0, opt), 1u);
}

TEST(RoutingTest, NonSquareImagesRouteByArea) {
  // The ragged layout hosts any rectangle, so routing is pixel-count only.
  const sv::PipelineOptions opt;
  EXPECT_EQ(sv::choose_procs(96, 64, opt), 1u);     // 6144 px / 4096 grain
  EXPECT_EQ(sv::choose_procs(512, 256, opt), 16u);  // capped at max_procs
  EXPECT_EQ(sv::choose_procs(640, 480, opt), 16u);
  EXPECT_EQ(sv::choose_procs(1000, 3, opt), 1u);  // 3000 px: sequential
}

TEST(RoutingTest, ProcsGrowWithImageArea) {
  const sv::PipelineOptions opt;
  EXPECT_EQ(sv::choose_procs(96, 96, opt), 2u);    // 9216 px / 4096 grain
  EXPECT_EQ(sv::choose_procs(128, 128, opt), 4u);  // 16384 / 4096
  EXPECT_EQ(sv::choose_procs(256, 256, opt), 16u);
}

TEST(RoutingTest, CappedAtMaxProcs) {
  sv::PipelineOptions opt;
  EXPECT_EQ(sv::choose_procs(512, 512, opt), 16u);  // would be 64 uncapped
  opt.max_procs = 4;
  EXPECT_EQ(sv::choose_procs(512, 512, opt), 4u);
}

TEST(RoutingTest, PrimeDimensionsNoLongerForceSequential) {
  const sv::PipelineOptions opt;
  // 97x97 clears the grain threshold at p=2; the ragged layout tiles it,
  // so the old shrink-until-divisible fallback is gone.
  EXPECT_EQ(sv::choose_procs(97, 97, opt), 2u);
}

// ---------------------------------------------------------------------------
// Pipeline end-to-end: every job kind agrees with its sequential reference.

TEST(PipelineTest, HistogramMatchesSequentialReference) {
  const auto image = im::make_random_grey(128, 16, 42);
  const auto reference = hist::histogram_seq(image, 16);
  sv::Pipeline pipeline;
  auto job = pipeline.submit_histogram(image, 16);
  auto result = job.result.get();
  EXPECT_EQ(result.status, sv::JobStatus::kOk);
  EXPECT_EQ(result.procs, 4u);  // 128x128 routes to p=4
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(*result.value, reference);
}

TEST(PipelineTest, ComponentsMatchSequentialReference) {
  const auto image = im::make_test_pattern(im::TestPattern::kDualSpiral, 128);
  const histcc::cc::CcOptions options;
  const auto reference = ccseq::label_components_bfs(image, options.connectivity,
                                                     options.rule);
  sv::Pipeline pipeline;
  auto job = pipeline.submit_components(image, options);
  auto result = job.result.get();
  EXPECT_EQ(result.status, sv::JobStatus::kOk);
  EXPECT_EQ(result.procs, 4u);
  ASSERT_TRUE(result.has_value());
  // Canonical labeling: exact pixel-for-pixel agreement, not just a
  // label bijection.
  EXPECT_EQ(*result.value, reference);
}

TEST(PipelineTest, TinyImagesSkipTheMachinePool) {
  sv::Pipeline pipeline;
  auto job = pipeline.submit_histogram(im::make_random_grey(32, 8, 1), 8);
  auto result = job.result.get();
  EXPECT_EQ(result.status, sv::JobStatus::kOk);
  EXPECT_EQ(result.procs, 1u);
  ASSERT_TRUE(result.has_value());
  // The sequential path never touched a machine: no pool builds at all.
  EXPECT_EQ(pipeline.metrics().machines_built, 0u);
}

TEST(PipelineTest, ForcedProcsOverrideRouting) {
  const auto image = im::make_random_grey(128, 16, 7);
  const auto reference = hist::histogram_seq(image, 16);
  sv::Pipeline pipeline;
  sv::JobOptions job;
  job.force_procs = 16;  // routing alone would pick 4
  auto pending = pipeline.submit_histogram(image, 16, job);
  auto result = pending.result.get();
  EXPECT_EQ(result.status, sv::JobStatus::kOk);
  EXPECT_EQ(result.procs, 16u);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(*result.value, reference);
}

TEST(PipelineTest, ConcurrentMixedJobsAllCorrect) {
  const auto grey = im::make_random_grey(96, 8, 11);
  const auto pattern = im::make_test_pattern(im::TestPattern::kFourSquares, 96);
  const auto hist_ref = hist::histogram_seq(grey, 8);
  const auto cc_ref = ccseq::label_components_bfs(pattern);
  sv::PipelineOptions opt;
  opt.pool_size = 4;
  sv::Pipeline pipeline(opt);
  std::vector<sv::PendingJob<std::vector<std::uint32_t>>> hist_jobs;
  std::vector<sv::PendingJob<im::LabelImage>> cc_jobs;
  for (int i = 0; i < 8; ++i) {
    hist_jobs.push_back(pipeline.submit_histogram(grey, 8));
    cc_jobs.push_back(pipeline.submit_components(pattern));
  }
  for (auto& job : hist_jobs) {
    auto result = job.result.get();
    EXPECT_EQ(result.status, sv::JobStatus::kOk);
    ASSERT_TRUE(result.has_value());
    EXPECT_EQ(*result.value, hist_ref);
  }
  for (auto& job : cc_jobs) {
    auto result = job.result.get();
    EXPECT_EQ(result.status, sv::JobStatus::kOk);
    ASSERT_TRUE(result.has_value());
    EXPECT_EQ(*result.value, cc_ref);
  }
  const auto metrics = pipeline.metrics();
  EXPECT_EQ(metrics.submitted, 16u);
  EXPECT_EQ(metrics.completed, 16u);
  EXPECT_EQ(metrics.rejected, 0u);
}

// ---------------------------------------------------------------------------
// Degradation: a failing parallel path downgrades to the sequential
// reference and says so; the job is never dropped.

TEST(PipelineTest, ParallelFaultDegradesToSequential) {
  const auto image = im::make_random_grey(128, 16, 3);
  const auto reference = hist::histogram_seq(image, 16);
  sv::PipelineOptions opt;
  std::atomic<bool> arm{true};
  opt.before_parallel = [&] {
    if (arm.exchange(false)) throw std::runtime_error("injected fault");
  };
  sv::Pipeline pipeline(opt);
  auto job = pipeline.submit_histogram(image, 16);
  auto result = job.result.get();
  EXPECT_EQ(result.status, sv::JobStatus::kDegraded);
  EXPECT_EQ(result.procs, 1u);  // the fallback served it
  EXPECT_NE(result.error.find("injected fault"), std::string::npos);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(*result.value, reference);
  EXPECT_EQ(pipeline.metrics().degraded, 1u);

  // The hook is disarmed now: the next job completes on the intended path.
  auto ok = pipeline.submit_histogram(image, 16).result.get();
  EXPECT_EQ(ok.status, sv::JobStatus::kOk);
}

TEST(PipelineTest, ForcedParallelOnOddShapeSucceeds) {
  // 97x63 used to be untileable; under the ragged layout a forced
  // parallel run handles it exactly.
  im::GreyImage image(97, 63, 0);
  image.at(5, 5) = 1;
  const auto reference = ccseq::label_components_bfs(image);
  sv::Pipeline pipeline;
  sv::JobOptions job;
  job.force_procs = 4;
  auto pending = pipeline.submit_components(image, {}, job);
  auto result = pending.result.get();
  EXPECT_EQ(result.status, sv::JobStatus::kOk);
  EXPECT_EQ(result.procs, 4u);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(*result.value, reference);
}

TEST(PipelineTest, VgaFrameParallelMatchesSequentialExactly) {
  // The acceptance shape: 640x480 routes to p=16, runs on the SPMD
  // machine (not the sequential fallback), and the canonical labeling
  // agrees with the reference pixel for pixel.
  const auto square = im::make_darpa_like(640);
  im::GreyImage image(640, 480);
  for (std::uint32_t i = 0; i < 640; ++i) {
    for (std::uint32_t j = 0; j < 480; ++j) image(i, j) = square(i, j);
  }
  const histcc::cc::CcOptions options;
  const auto reference =
      ccseq::label_components_bfs(image, options.connectivity, options.rule);
  sv::Pipeline pipeline;
  auto pending = pipeline.submit_components(image, options);
  auto result = pending.result.get();
  EXPECT_EQ(result.status, sv::JobStatus::kOk);
  EXPECT_EQ(result.procs, 16u);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(*result.value, reference);
  EXPECT_EQ(pipeline.metrics().degraded, 0u);
  EXPECT_GE(pipeline.metrics().machines_built, 1u);
}

// ---------------------------------------------------------------------------
// Deadlines and cancellation.

TEST(PipelineTest, DeadlineExpiresInQueue) {
  sv::PipelineOptions opt;
  opt.pool_size = 1;
  Gate gate;
  opt.before_parallel = gate.hook();
  sv::Pipeline pipeline(opt);
  // Occupy the only worker behind the gate...
  sv::JobOptions blocker;
  blocker.force_procs = 2;
  auto first =
      pipeline.submit_histogram(im::make_random_grey(96, 8, 1), 8, blocker);
  gate.started.wait();
  // ...then queue a job whose deadline has already passed by the time the
  // worker frees up.
  sv::JobOptions job;
  job.deadline = 1ms;
  auto second = pipeline.submit_histogram(im::make_random_grey(96, 8, 2), 8, job);
  std::this_thread::sleep_for(20ms);  // let the 1ms budget lapse
  gate.open();
  auto result = second.result.get();
  EXPECT_EQ(result.status, sv::JobStatus::kTimedOut);
  EXPECT_FALSE(result.has_value());  // never ran
  EXPECT_NE(result.error.find("queue"), std::string::npos);
  EXPECT_EQ(first.result.get().status, sv::JobStatus::kOk);
  EXPECT_EQ(pipeline.metrics().timed_out, 1u);
}

TEST(PipelineTest, LateFinishIsTimedOutWithValue) {
  const auto image = im::make_random_grey(96, 8, 5);
  const auto reference = hist::histogram_seq(image, 8);
  sv::PipelineOptions opt;
  opt.pool_size = 1;
  Gate gate;
  opt.before_parallel = gate.hook();
  sv::Pipeline pipeline(opt);
  sv::JobOptions job;
  job.deadline = 100ms;  // generous: the dequeue check must pass
  job.force_procs = 2;
  auto pending = pipeline.submit_histogram(image, 8, job);
  gate.started.wait();  // the job is executing, inside its deadline
  std::this_thread::sleep_for(150ms);  // now the deadline lapses mid-run
  gate.open();
  auto result = pending.result.get();
  // An SPMD run is never torn down mid-flight; the job reports kTimedOut
  // but the computed value is still attached.
  EXPECT_EQ(result.status, sv::JobStatus::kTimedOut);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(*result.value, reference);
}

TEST(PipelineTest, CancellationWinsWhileQueued) {
  sv::PipelineOptions opt;
  opt.pool_size = 1;
  Gate gate;
  opt.before_parallel = gate.hook();
  sv::Pipeline pipeline(opt);
  sv::JobOptions blocker;
  blocker.force_procs = 2;
  auto first =
      pipeline.submit_histogram(im::make_random_grey(96, 8, 1), 8, blocker);
  gate.started.wait();
  auto second = pipeline.submit_histogram(im::make_random_grey(96, 8, 2), 8);
  second.control->cancel();
  EXPECT_TRUE(second.control->cancelled());
  gate.open();
  auto result = second.result.get();
  EXPECT_EQ(result.status, sv::JobStatus::kCancelled);
  EXPECT_FALSE(result.has_value());
  EXPECT_EQ(first.result.get().status, sv::JobStatus::kOk);
  EXPECT_EQ(pipeline.metrics().cancelled, 1u);
}

// ---------------------------------------------------------------------------
// Backpressure and shutdown.

TEST(PipelineTest, FailFastRejectsWhenQueueFull) {
  sv::PipelineOptions opt;
  opt.pool_size = 1;
  opt.queue_capacity = 2;
  Gate gate;
  opt.before_parallel = gate.hook();
  sv::Pipeline pipeline(opt);
  const auto image = im::make_random_grey(96, 8, 1);
  sv::JobOptions blocker;
  blocker.force_procs = 2;
  auto in_flight = pipeline.submit_histogram(image, 8, blocker);
  gate.started.wait();
  // Fill the bounded queue behind the busy worker.
  auto q1 = pipeline.submit_histogram(image, 8);
  auto q2 = pipeline.submit_histogram(image, 8);
  // Fail-fast submission against a full queue resolves immediately.
  sv::JobOptions fail_fast;
  fail_fast.overflow = sv::OverflowPolicy::kReject;
  auto overflow = pipeline.submit_histogram(image, 8, fail_fast);
  ASSERT_EQ(overflow.result.wait_for(0s), std::future_status::ready);
  auto rejected = overflow.result.get();
  EXPECT_EQ(rejected.status, sv::JobStatus::kRejected);
  EXPECT_FALSE(rejected.has_value());
  EXPECT_NE(rejected.error.find("full"), std::string::npos);
  gate.open();
  EXPECT_EQ(in_flight.result.get().status, sv::JobStatus::kOk);
  EXPECT_EQ(q1.result.get().status, sv::JobStatus::kOk);
  EXPECT_EQ(q2.result.get().status, sv::JobStatus::kOk);
  const auto metrics = pipeline.metrics();
  EXPECT_EQ(metrics.submitted, 3u);
  EXPECT_EQ(metrics.rejected, 1u);
  EXPECT_EQ(metrics.completed, 3u);
}

TEST(PipelineTest, ShutdownDrainFinishesQueuedJobs) {
  const auto image = im::make_random_grey(96, 8, 9);
  const auto reference = hist::histogram_seq(image, 8);
  sv::PipelineOptions opt;
  opt.pool_size = 1;
  sv::Pipeline pipeline(opt);
  std::vector<sv::PendingJob<std::vector<std::uint32_t>>> jobs;
  for (int i = 0; i < 6; ++i) jobs.push_back(pipeline.submit_histogram(image, 8));
  pipeline.shutdown(sv::DrainMode::kDrain);
  for (auto& job : jobs) {
    auto result = job.result.get();
    EXPECT_EQ(result.status, sv::JobStatus::kOk);
    ASSERT_TRUE(result.has_value());
    EXPECT_EQ(*result.value, reference);
  }
  // After shutdown every submission is refused.
  auto late = pipeline.submit_histogram(image, 8);
  auto result = late.result.get();
  EXPECT_EQ(result.status, sv::JobStatus::kRejected);
  EXPECT_NE(result.error.find("shut down"), std::string::npos);
  const auto metrics = pipeline.metrics();
  EXPECT_EQ(metrics.submitted, 6u);
  EXPECT_EQ(metrics.finished(), 6u);
  EXPECT_EQ(metrics.rejected, 1u);
}

TEST(PipelineTest, ShutdownAbortCancelsQueuedJobs) {
  sv::PipelineOptions opt;
  opt.pool_size = 1;
  Gate gate;
  opt.before_parallel = gate.hook();
  sv::Pipeline pipeline(opt);
  const auto image = im::make_random_grey(96, 8, 1);
  sv::JobOptions blocker;
  blocker.force_procs = 2;
  auto in_flight = pipeline.submit_histogram(image, 8, blocker);
  gate.started.wait();
  auto q1 = pipeline.submit_histogram(image, 8);
  auto q2 = pipeline.submit_histogram(image, 8);
  // Let the gated job proceed once shutdown is underway; abort must not
  // wait for it to be released first.
  std::thread opener([&] {
    std::this_thread::sleep_for(30ms);
    gate.open();
  });
  pipeline.shutdown(sv::DrainMode::kAbort);
  opener.join();
  // Queued jobs were resolved cancelled without running; the in-flight
  // one ran to completion.
  EXPECT_EQ(q1.result.get().status, sv::JobStatus::kCancelled);
  EXPECT_EQ(q2.result.get().status, sv::JobStatus::kCancelled);
  EXPECT_EQ(in_flight.result.get().status, sv::JobStatus::kOk);
  EXPECT_EQ(pipeline.metrics().cancelled, 2u);
}

TEST(PipelineTest, DestructorDrains) {
  const auto image = im::make_random_grey(96, 8, 4);
  std::vector<sv::PendingJob<std::vector<std::uint32_t>>> jobs;
  {
    sv::Pipeline pipeline;
    for (int i = 0; i < 4; ++i) {
      jobs.push_back(pipeline.submit_histogram(image, 8));
    }
  }  // ~Pipeline drains
  for (auto& job : jobs) {
    EXPECT_EQ(job.result.get().status, sv::JobStatus::kOk);
  }
}

TEST(PipelineTest, MetricsRecordLatencies) {
  sv::Pipeline pipeline;
  const auto image = im::make_random_grey(96, 8, 8);
  for (int i = 0; i < 4; ++i) {
    auto result = pipeline.submit_histogram(image, 8).result.get();
    EXPECT_EQ(result.status, sv::JobStatus::kOk);
    EXPECT_GE(result.run_s, 0.0);
    EXPECT_GE(result.queue_s, 0.0);
  }
  const auto metrics = pipeline.metrics();
  EXPECT_EQ(metrics.completed, 4u);
  EXPECT_GT(metrics.wall_p50_s, 0.0);
  EXPECT_LE(metrics.wall_p50_s, metrics.wall_p99_s);
  EXPECT_GT(metrics.mean_run_s, 0.0);
  EXPECT_EQ(metrics.queue_depth, 0u);
  EXPECT_EQ(metrics.in_flight, 0u);
  EXPECT_EQ(metrics.pool_size, pipeline.options().pool_size);
}
