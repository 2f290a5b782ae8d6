#include "histcc/splitc/machine.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <string_view>
#include <thread>
#include <utility>

#include "histcc/splitc/race_ledger.hpp"
#include "histcc/util/require.hpp"

namespace histcc::splitc {

void Proc::sync() noexcept {
  stats_->syncs += 1;
  if (pending_words_ > 0) {
    stats_->batches += 1;
    pending_words_ = 0;
  }
}

void Proc::maybe_perturb() {
  if (perturb_state_ == 0) return;
  // splitmix64: high-quality 64-bit mixing with per-rank state.
  perturb_state_ += 0x9E3779B97F4A7C15ull;
  std::uint64_t z = perturb_state_;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  z ^= z >> 31;
  if ((z & 3u) == 0) {
    // ~1/4 of crossings: sleep 0..127us, long enough to reorder arrivals
    // even when ranks are time-sliced on few cores.
    std::this_thread::sleep_for(std::chrono::microseconds((z >> 2) & 127u));
  } else {
    for (std::uint64_t n = (z >> 2) & 7u; n > 0; --n) {
      std::this_thread::yield();
    }
  }
}

void Proc::barrier() {
  sync();
  stats_->barriers += 1;
  maybe_perturb();
  barrier_->arrive_and_wait();
  // Crossing a global barrier starts a new epoch on every processor; the
  // race ledger treats accesses in distinct epochs as ordered.
  epoch_ += 1;
}

Machine::Machine(std::uint32_t nprocs)
    : nprocs_(nprocs),
      grid_(util::GridShape{1, 1}),
      barrier_(nprocs),
      stats_(nprocs),
      served_(std::make_unique<std::atomic<std::uint64_t>[]>(nprocs)) {
  HISTCC_REQUIRE(nprocs >= 1 && util::is_pow2(nprocs),
                 "processor count must be a power of two");
  grid_ = util::grid_shape(nprocs);
#if HISTCC_RACE_LEDGER
  race_ledger_ = std::make_unique<RaceLedger>(nprocs);
  race_ledger_enabled_ = true;
#endif
  // CI and test harnesses force a mode for the whole process without
  // touching call sites; anything other than the two known values keeps
  // the built-in default.
  if (const char* env = std::getenv("HISTCC_SPREAD_LAYOUT")) {
    const std::string_view v(env);
    if (v == "strided") spread_layout_ = SpreadLayout::kStrided;
    else if (v == "packed") spread_layout_ = SpreadLayout::kPacked;
  }
  reset_stats();
}

Machine::~Machine() { stop_workers(); }

void Machine::set_spread_layout(SpreadLayout layout) {
  HISTCC_REQUIRE(!running_, "cannot switch spread layout mid-run");
  spread_layout_ = layout;
}

void Machine::set_trace(trace::Tracer* tracer) {
  HISTCC_REQUIRE(!running_, "cannot attach a tracer mid-run");
  tracer_ = tracer;
}

void Machine::set_race_ledger_mode(LedgerMode mode) {
  HISTCC_REQUIRE(!running_, "cannot switch ledger mode mid-run");
  if (race_ledger_) race_ledger_->set_mode(mode);
}

std::uint64_t Machine::perturb_state_for(std::uint32_t rank) const noexcept {
  // Derive per-rank perturbation streams from the machine seed; | 1 keeps
  // the state nonzero (0 means "off") for every seed and rank.
  if (perturb_seed_ == 0) return 0;
  return (perturb_seed_ ^
          (0x9E3779B97F4A7C15ull * (static_cast<std::uint64_t>(rank) + 1))) |
         1u;
}

void Machine::execute_as(std::uint32_t rank,
                         const std::function<void(Proc&)>& program) {
  Proc proc(rank, nprocs_, grid_, &barrier_, &stats_[rank], served_.get());
  proc.perturb_state_ = perturb_state_for(rank);
  proc.tracer_ = tracer_;
  try {
    program(proc);
  } catch (const BarrierAborted&) {
    // A peer failed first; its exception is the one to report.
  } catch (...) {
    {
      std::scoped_lock lock(error_mutex_);
      if (!first_error_) first_error_ = std::current_exception();
    }
    // Unblock peers waiting at the barrier so the program tears down
    // instead of deadlocking.
    barrier_.abort_all();
  }
}

void Machine::start_workers() {
  if (!workers_.empty()) return;
  workers_.reserve(nprocs_);
  for (std::uint32_t rank = 0; rank < nprocs_; ++rank) {
    workers_.emplace_back([this, rank] {
      std::uint64_t seen = 0;
      for (;;) {
        const std::function<void(Proc&)>* program = nullptr;
        {
          std::unique_lock lock(ctl_mutex_);
          ctl_cv_.wait(lock, [&] {
            return workers_stop_ || job_generation_ != seen;
          });
          if (workers_stop_) return;
          seen = job_generation_;
          program = job_program_;
        }
        execute_as(rank, *program);
        {
          std::scoped_lock lock(ctl_mutex_);
          if (--job_remaining_ == 0) done_cv_.notify_all();
        }
      }
    });
  }
}

void Machine::stop_workers() noexcept {
  {
    std::scoped_lock lock(ctl_mutex_);
    workers_stop_ = true;
    ctl_cv_.notify_all();
  }
  for (auto& t : workers_) t.join();
  workers_.clear();
  workers_stop_ = false;
}

void Machine::run(const std::function<void(Proc&)>& program) {
  HISTCC_REQUIRE(static_cast<bool>(program), "program must be callable");
  HISTCC_REQUIRE(!running_, "Machine::run is not reentrant");
  running_ = true;
  struct RunningGuard {
    bool* flag;
    ~RunningGuard() { *flag = false; }
  } guard{&running_};
  reset_stats();
  barrier_.reset();
  if (race_ledger_) race_ledger_->reset();
  first_error_ = nullptr;

  if (nprocs_ == 1) {
    // A single rank needs no thread.
    execute_as(0, program);
  } else {
    // Every rank runs on a worker, none on the caller: a caller that
    // also allocates the job's host buffers (a serve worker) would
    // otherwise interleave rank 0's small heap blocks with them, and the
    // allocator could no longer return that memory between jobs.
    start_workers();
    std::unique_lock lock(ctl_mutex_);
    job_program_ = &program;
    job_remaining_ = nprocs_;
    ++job_generation_;
    ctl_cv_.notify_all();
    done_cv_.wait(lock, [&] { return job_remaining_ == 0; });
    job_program_ = nullptr;
  }

  std::exception_ptr error;
  {
    std::scoped_lock lock(error_mutex_);
    error = std::exchange(first_error_, nullptr);
  }
  if (error) std::rethrow_exception(error);
  // Throws RaceLedgerViolation if the program's accesses violated the
  // barrier-epoch publication discipline.
  if (race_ledger_enabled_ && race_policy_ == RacePolicy::kThrow &&
      race_ledger_->conflict_count() > 0) {
    throw RaceLedgerViolation(race_ledger_->format_report());
  }
}

const CommStats& Machine::stats(std::uint32_t rank) const {
  HISTCC_REQUIRE(rank < nprocs_, "rank out of range");
  return stats_[rank];
}

CommStats Machine::total_stats() const noexcept {
  CommStats total;
  for (const auto& s : stats_) total += s;
  return total;
}

CommStats Machine::max_stats() const noexcept {
  CommStats mx;
  for (const auto& s : stats_) mx.max_with(s);
  return mx;
}

std::uint64_t Machine::served_words(std::uint32_t rank) const {
  HISTCC_REQUIRE(rank < nprocs_, "rank out of range");
  return served_[rank].load(std::memory_order_relaxed);
}

std::uint64_t Machine::max_port_words() const noexcept {
  std::uint64_t mx = 0;
  for (std::uint32_t rank = 0; rank < nprocs_; ++rank) {
    mx = std::max(mx, stats_[rank].words +
                          served_[rank].load(std::memory_order_relaxed));
  }
  return mx;
}

void Machine::reset_stats() noexcept {
  for (auto& s : stats_) s = CommStats{};
  for (std::uint32_t rank = 0; rank < nprocs_; ++rank) {
    served_[rank].store(0, std::memory_order_relaxed);
  }
}

}  // namespace histcc::splitc
