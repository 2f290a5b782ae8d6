#ifndef HISTCC_SPLITC_MACHINE_HPP
#define HISTCC_SPLITC_MACHINE_HPP

/// \file machine.hpp
/// The SPMD execution substrate: a virtual distributed-memory machine.
///
/// The paper's algorithms are written in Split-C, an SPMD dialect of C with
/// a global address space over distributed local memories.  `Machine`
/// reproduces that programming model on a single host: it runs `p` virtual
/// processors as OS threads, gives each a `Proc` handle carrying its rank,
/// logical grid position (Section 3 of the paper), barrier, and a BDM
/// communication ledger.  Remote data is reached through `Spread` arrays
/// (spread.hpp), whose split-phase transfers mirror Split-C's `:=` /
/// `sync()` pair.
///
/// Correctness never depends on the host core count: with p virtual
/// processors on c < p cores the algorithms execute identically, only
/// slower in wall-clock terms.  The benchmark harness therefore reports
/// modeled BDM time (stats + MachineProfile) for the paper-shape figures
/// and wall-clock time only for host-scale runs.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "histcc/splitc/barrier.hpp"
#include "histcc/splitc/stats.hpp"
#include "histcc/util/math.hpp"

namespace histcc::trace {
// Span recorder (histcc/trace/trace.hpp).  Only a pointer crosses this
// boundary: splitc stays trace-agnostic and histcc::trace depends on
// splitc, not the other way round.
class Tracer;
}  // namespace histcc::trace

namespace histcc::splitc {

class Machine;
class RaceLedger;
enum class LedgerMode : std::uint8_t;

/// What Machine::run does when the race ledger recorded conflicts.
enum class RacePolicy : std::uint8_t {
  kThrow,   ///< rethrow as RaceLedgerViolation after the program finishes
  kRecord,  ///< only record; inspect via Machine::race_ledger_registry()
};

/// How Spread/SpreadVec size the per-rank blocks of layout-driven arrays
/// (the constructors that take a per-rank size table).
enum class SpreadLayout : std::uint8_t {
  /// Every block padded to the largest requested size — a uniform stride,
  /// the PR-5 contract.  Kept as the differential oracle for kPacked.
  kStrided,
  /// Each block sized exactly as requested; remote addressing becomes
  /// non-uniform (prefix-sum offsets instead of rank * stride).  Default.
  kPacked,
};

/// Per-processor handle passed to the SPMD program.  One `Proc` exists per
/// virtual processor for the duration of `Machine::run`; all its methods
/// are called only by that processor's thread.
class Proc {
 public:
  /// My processor number, 0..p-1 (row-major in the logical grid).
  [[nodiscard]] std::uint32_t rank() const noexcept { return rank_; }

  /// Total number of processors.
  [[nodiscard]] std::uint32_t nprocs() const noexcept { return nprocs_; }

  /// My row I in the v x w logical processor grid.
  [[nodiscard]] std::uint32_t grid_row() const noexcept {
    return rank_ / grid_.cols;
  }

  /// My column J in the v x w logical processor grid.
  [[nodiscard]] std::uint32_t grid_col() const noexcept {
    return rank_ % grid_.cols;
  }

  /// Shape of the logical processor grid (v rows, w cols).
  [[nodiscard]] util::GridShape grid() const noexcept { return grid_; }

  /// Split-C barrier(): global synchronization of all processors.  Also
  /// completes any outstanding prefetch batch (the algorithms in the paper
  /// always sync before a barrier; folding sync into barrier keeps the
  /// ledger exact even if a caller forgets).
  void barrier();

  /// Split-C sync(): stall until all outstanding split-phase transfers have
  /// completed.  In this runtime the data is already in place (transfers
  /// copy eagerly); sync() closes the current pipelined batch in the BDM
  /// ledger, charging tau + l for the l words prefetched since the last
  /// sync.
  void sync() noexcept;

  /// My barrier epoch: 1 on entry to the SPMD program, +1 per barrier()
  /// crossed.  Between two consecutive global barriers every processor is
  /// in the same epoch, which is what the race ledger's happens-before
  /// check keys on (race_ledger.hpp).
  [[nodiscard]] std::uint64_t epoch() const noexcept { return epoch_; }

  /// My communication ledger.
  [[nodiscard]] CommStats& stats() noexcept { return *stats_; }
  [[nodiscard]] const CommStats& stats() const noexcept { return *stats_; }

  /// The span recorder attached to the owning machine, or nullptr when
  /// tracing is off — the hot-path guard every TRACE_SCOPE site checks.
  [[nodiscard]] trace::Tracer* tracer() const noexcept { return tracer_; }

  /// Charge `n` local RAM operations to the Tcomp meter.  Algorithms call
  /// this around their local phases so modeled Tcomp can be reported next
  /// to modeled Tcomm.
  void charge_ops(std::uint64_t n) noexcept { stats_->local_ops += n; }

  /// Record a remote transfer of `words` 4-byte words (one message) from
  /// processor `source`.  Used by Spread; public so that additional
  /// distributed containers can participate in the same ledger.  The words
  /// are charged to the caller's movement ledger and to the source's
  /// *served* counter — the BDM model allows no processor to send or
  /// receive more than one word at a time, so a processor serving many
  /// peers is a congestion point even if it initiates nothing (this is
  /// what eq. (9)'s distribution scheme relieves).
  void charge_transfer(std::uint32_t source, std::uint64_t words) noexcept {
    stats_->messages += 1;
    stats_->words += words;
    pending_words_ += words;
    served_[source].fetch_add(words, std::memory_order_relaxed);
  }

 private:
  friend class Machine;
  Proc(std::uint32_t rank, std::uint32_t nprocs, util::GridShape grid,
       Barrier* barrier, CommStats* stats,
       std::atomic<std::uint64_t>* served) noexcept
      : rank_(rank),
        nprocs_(nprocs),
        grid_(grid),
        barrier_(barrier),
        stats_(stats),
        served_(served) {}

  /// Inject a seeded random delay (yields or a short sleep) before the
  /// barrier rendezvous when schedule perturbation is on.  Exercises
  /// arrival-order interleavings TSan-style scheduling never explores.
  void maybe_perturb();

  std::uint32_t rank_;
  std::uint32_t nprocs_;
  util::GridShape grid_;
  Barrier* barrier_;
  CommStats* stats_;
  std::atomic<std::uint64_t>* served_;
  std::uint64_t pending_words_ = 0;
  std::uint64_t epoch_ = 1;
  std::uint64_t perturb_state_ = 0;  // splitmix64 state; 0 = perturbation off
  trace::Tracer* tracer_ = nullptr;  // owning machine's recorder, if any
};

/// A virtual distributed-memory machine with p processors (p a power of
/// two, as the paper assumes).  Construct once, `run` any number of SPMD
/// programs on it.
///
/// Threads: the first run() starts p worker threads, one per rank; they
/// park on a condition variable between programs and ~Machine joins
/// them.  Consecutive programs therefore pay a wakeup, not p thread
/// creations.  A p = 1 machine starts no thread: its one rank runs on the
/// caller.
class Machine {
 public:
  /// \param nprocs number of virtual processors; must be a power of two.
  explicit Machine(std::uint32_t nprocs);
  ~Machine();

  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  [[nodiscard]] std::uint32_t nprocs() const noexcept { return nprocs_; }

  /// Logical processor grid shape (Section 3): v = 2^floor(d/2) rows,
  /// w = 2^ceil(d/2) columns for p = 2^d.
  [[nodiscard]] util::GridShape grid() const noexcept { return grid_; }

  /// Execute `program` in SPMD style: every rank calls program(proc) with
  /// its own Proc.  Blocks until all processors finish.  If any processor
  /// throws, the first exception is rethrown here once every rank has
  /// left the program.  Not reentrant.
  void run(const std::function<void(Proc&)>& program);

  /// Communication ledger of processor `rank` from the last run().
  [[nodiscard]] const CommStats& stats(std::uint32_t rank) const;

  /// Elementwise sum of all processors' ledgers.
  [[nodiscard]] CommStats total_stats() const noexcept;

  /// Elementwise max of all processors' ledgers — the BDM complexity of the
  /// program, since the model charges the maximum over processors.
  [[nodiscard]] CommStats max_stats() const noexcept;

  /// Words processor `rank` *served* to remote peers in the last run —
  /// the per-port outbound load eq. (9) balances.
  [[nodiscard]] std::uint64_t served_words(std::uint32_t rank) const;

  /// Maximum over processors of (words moved + words served): the BDM
  /// port-congestion bound of the last run.
  [[nodiscard]] std::uint64_t max_port_words() const noexcept;

  /// Zero all ledgers (run() also does this on entry).
  void reset_stats() noexcept;

  /// True when the library was compiled with -DHISTCC_RACE_LEDGER=ON and
  /// the per-element shadow instrumentation exists at all.
  [[nodiscard]] static constexpr bool race_ledger_compiled() noexcept {
#if HISTCC_RACE_LEDGER
    return true;
#else
    return false;
#endif
  }

  /// Runtime switch for the race ledger (default: enabled when compiled
  /// in).  A no-op in builds without HISTCC_RACE_LEDGER.
  void set_race_ledger_enabled(bool enabled) noexcept {
    race_ledger_enabled_ = enabled && race_ledger_compiled();
  }

  /// What run() does when conflicts were recorded (default kThrow).
  void set_race_policy(RacePolicy policy) noexcept { race_policy_ = policy; }

  /// Select the ledger's shadow representation (default LedgerMode::kSharded;
  /// kMutex keeps the PR-1 serialized store as a differential oracle).  A
  /// no-op in builds without HISTCC_RACE_LEDGER.  Not callable mid-run.
  void set_race_ledger_mode(LedgerMode mode);

  /// How per-rank-sized Spreads allocate their blocks (default kPacked;
  /// overridable at construction by the HISTCC_SPREAD_LAYOUT environment
  /// variable, values "packed"/"strided").  Not callable mid-run: changing
  /// the mode under live Spreads would desynchronize their geometry.
  void set_spread_layout(SpreadLayout layout);

  [[nodiscard]] SpreadLayout spread_layout() const noexcept {
    return spread_layout_;
  }

  /// Spread/SpreadVec construction footprint since the last
  /// reset_alloc_stats(): total payload bytes and number of arrays.
  /// Deliberately *not* cleared by run()/reset_stats(), so a harness can
  /// build arrays, run, and then read what the build cost.
  void note_spread_alloc(std::uint64_t bytes) noexcept {
    spread_bytes_.fetch_add(bytes, std::memory_order_relaxed);
    spread_allocs_.fetch_add(1, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t spread_bytes_allocated() const noexcept {
    return spread_bytes_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t spread_alloc_count() const noexcept {
    return spread_allocs_.load(std::memory_order_relaxed);
  }
  void reset_alloc_stats() noexcept {
    spread_bytes_.store(0, std::memory_order_relaxed);
    spread_allocs_.store(0, std::memory_order_relaxed);
  }

  /// Seeded schedule perturbation: every barrier() crossing first spends a
  /// per-rank pseudo-random delay (a few yields, or a sleep of up to ~128us)
  /// derived deterministically from `seed` and the rank.  Seed 0 turns
  /// perturbation off (the default).  Changes which interleavings the OS
  /// scheduler realises without changing program semantics — the race
  /// ledger's epoch bookkeeping is unaffected.
  void set_schedule_perturbation(std::uint64_t seed) noexcept {
    perturb_seed_ = seed;
  }

  /// Attach a span recorder (histcc/trace/trace.hpp); every Proc handed
  /// to subsequent run()s carries the pointer, so TRACE_SCOPE sites in
  /// kernels start recording.  Non-owning — the tracer must outlive its
  /// attachment; nullptr detaches.  Not callable mid-run.
  void set_trace(trace::Tracer* tracer);

  /// The attached span recorder, or nullptr when tracing is off.
  [[nodiscard]] trace::Tracer* tracer() const noexcept { return tracer_; }

  /// True while run() is executing the SPMD program.  Host-side Spread
  /// probes use this to decide whether an access can race at all.
  [[nodiscard]] bool running() const noexcept { return running_; }

  /// The barrier epoch the machine is currently in: 1 on entry to run(),
  /// +1 per completed global barrier.  Meaningful only while running();
  /// used to timestamp host-side block()/size probes in the race ledger.
  [[nodiscard]] std::uint64_t current_epoch() const noexcept {
    return barrier_.generation() + 1;
  }

  /// The checker, or nullptr when compiled out or disabled at runtime.
  /// This is the hot-path guard the Spread instrumentation uses.
  [[nodiscard]] RaceLedger* race_ledger() const noexcept {
    return race_ledger_enabled_ ? race_ledger_.get() : nullptr;
  }

  /// The checker object itself regardless of the runtime switch (nullptr
  /// only when compiled out).  Spread constructors attach shadows here so
  /// that toggling the switch mid-lifetime still checks every array;
  /// tests use it to inspect diagnostics under RacePolicy::kRecord.
  [[nodiscard]] RaceLedger* race_ledger_registry() const noexcept {
    return race_ledger_.get();
  }

 private:
  /// Per-rank perturbation stream derived from the machine seed (0 = off).
  [[nodiscard]] std::uint64_t perturb_state_for(
      std::uint32_t rank) const noexcept;
  void execute_as(std::uint32_t rank,
                  const std::function<void(Proc&)>& program);
  void start_workers();
  void stop_workers() noexcept;

  std::uint32_t nprocs_;
  util::GridShape grid_;
  Barrier barrier_;
  std::vector<CommStats> stats_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> served_;
  std::unique_ptr<RaceLedger> race_ledger_;
  bool race_ledger_enabled_ = false;
  RacePolicy race_policy_ = RacePolicy::kThrow;
  SpreadLayout spread_layout_ = SpreadLayout::kPacked;
  trace::Tracer* tracer_ = nullptr;
  std::atomic<std::uint64_t> spread_bytes_{0};
  std::atomic<std::uint64_t> spread_allocs_{0};
  std::uint64_t perturb_seed_ = 0;
  bool running_ = false;

  // First exception thrown by any rank in the current run.
  std::mutex error_mutex_;
  std::exception_ptr first_error_;

  // Worker state: workers park on ctl_cv_ until job_generation_
  // advances, execute job_program_, then decrement job_remaining_ (the
  // last one signals done_cv_).  All guarded by ctl_mutex_.
  std::vector<std::thread> workers_;
  std::mutex ctl_mutex_;
  std::condition_variable ctl_cv_;
  std::condition_variable done_cv_;
  const std::function<void(Proc&)>* job_program_ = nullptr;
  std::uint64_t job_generation_ = 0;
  std::uint32_t job_remaining_ = 0;
  bool workers_stop_ = false;
};

}  // namespace histcc::splitc

#endif  // HISTCC_SPLITC_MACHINE_HPP
