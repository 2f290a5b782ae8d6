#ifndef HISTCC_SPLITC_RACE_LEDGER_HPP
#define HISTCC_SPLITC_RACE_LEDGER_HPP

/// \file race_ledger.hpp
/// Barrier-epoch happens-before checking for the SPMD runtime.
///
/// The paper's algorithms are race-free by a *protocol*: a processor may
/// read remote data only if its owner last wrote it before a barrier both
/// processors have since crossed (docs/runtime.md, "publication
/// discipline").  ThreadSanitizer can only observe one physical
/// interleaving per run, so a protocol violation that happens to be
/// serialized by scheduling luck goes unreported.  The race ledger checks
/// the protocol itself: every element access performed through a
/// `Spread`/`SpreadVec` records (rank, barrier epoch, read/write) in a
/// shadow ledger, and two accesses to the same element from different
/// ranks in the same epoch — at least one a write — are a conflict no
/// matter how the OS scheduled the threads.  Detection is therefore
/// deterministic: if a schedule exists under which the accesses race, the
/// ledger reports it on every run.
///
/// Beyond payload elements the ledger also tracks, per block:
///   * the block's *size* as a pseudo-element, so a `SpreadVec` whose size
///     is probed (`size_of`) in the same epoch its owner published it
///     (`note_local_write`) is diagnosed — a size must cross a barrier
///     before peers may rely on it, exactly like the payload it describes;
///   * *host probes*: `block()` access while an SPMD program is running is
///     recorded under the sentinel `kHostRank` at the machine's current
///     epoch, closing the bypass around the instrumented access paths.
///
/// The ledger sees transfers issued through the Spread API and the
/// explicit `note_local_write` annotations algorithms place around direct
/// writes to their `local()` span.  A missing
/// annotation can hide a race (no record, no conflict) but can never
/// invent one, so the checker is sound against false positives by
/// construction.
///
/// Two interchangeable shadow stores implement the same check:
///   * `LedgerMode::kSharded` (default): striped atomics keyed by element
///     index — one exchange/CAS per element plus two fences per recorded
///     range, no locks on the hot path, so instrumented runs stay within a
///     small factor of uninstrumented wall-clock even at p=16;
///   * `LedgerMode::kMutex`: the original per-array mutex walk, kept as
///     the oracle the sharded store is differentially tested against
///     (tests/test_race_ledger.cpp asserts identical diagnostics).
///
/// Compiled in only under the `HISTCC_RACE_LEDGER` CMake option (a PUBLIC
/// compile definition of the splitc target); release builds pay zero
/// cost.  That is the ledger's only off state: an instrumented build
/// checks every Spread of every machine.  The RaceLedger class itself is
/// always built — the OpenMP mirror reuses it for its own epoch checking
/// (see histcc/omp/epoch_check.hpp) independently of the Spread
/// instrumentation.

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

namespace histcc::splitc {

/// Kind of element access recorded in the shadow ledger.
enum class RaceAccess : std::uint8_t { kRead, kWrite };

[[nodiscard]] constexpr const char* to_string(RaceAccess a) noexcept {
  return a == RaceAccess::kRead ? "read" : "write";
}

/// What a recorded access touched: a payload element, or the block's size
/// word (SpreadVec::size_of / resize publication).
enum class RaceTarget : std::uint8_t { kPayload, kSize };

/// Which shadow-store implementation the ledger uses (see file comment).
enum class LedgerMode : std::uint8_t { kSharded, kMutex };

/// Sentinel rank for host-side probes (`block()` during a run): conflicts
/// with every real rank's same-epoch access, and is rendered as "host" in
/// diagnostics.
inline constexpr std::uint32_t kHostRank = 0xFFFFFFFFu;

/// One detected protocol violation: two accesses to the same element (or
/// size word) of the same distributed array, from different ranks, in the
/// same barrier epoch, at least one of them a write.
struct RaceDiagnostic {
  std::string array;        ///< name given at Spread construction
  std::uint32_t owner = 0;  ///< rank owning the block the element lives in
  std::size_t offset = 0;   ///< element offset within the owner's block
  std::uint64_t epoch = 0;  ///< barrier epoch both accesses fall in
  std::uint32_t first_rank = 0;
  RaceAccess first_kind = RaceAccess::kWrite;
  std::uint32_t second_rank = 0;
  RaceAccess second_kind = RaceAccess::kWrite;
  RaceTarget target = RaceTarget::kPayload;

  /// "array 'chg' element 12 (block of rank 3): write by rank 1 conflicts
  ///  with read by rank 0 in epoch 5 (no barrier between the accesses)";
  /// size probes render as "size of rank 3's block" instead of an element.
  [[nodiscard]] std::string to_string() const;
};

/// Thrown from Machine::run when the ledger recorded conflicts and the
/// machine's policy is RacePolicy::kThrow.
class RaceLedgerViolation : public std::runtime_error {
 public:
  explicit RaceLedgerViolation(const std::string& what)
      : std::runtime_error(what) {}
};

/// Per-array shadow state: one (last write, last reads) cell per element
/// of every rank's block, plus one size cell per rank.  Owned jointly by
/// the Spread that registered it and the RaceLedger (diagnostics may
/// outlive the array).  Holds both the sharded (striped-atomic) and the
/// mutex representation; RaceLedger::mode() picks which one records.
class ArrayShadow {
 public:
  ArrayShadow(std::string name, std::uint32_t nprocs);
  ~ArrayShadow();

  ArrayShadow(const ArrayShadow&) = delete;
  ArrayShadow& operator=(const ArrayShadow&) = delete;

  [[nodiscard]] const std::string& name() const noexcept { return name_; }

 private:
  friend class RaceLedger;

  /// Epoch value meaning "never accessed".  Real epochs start at 1.
  static constexpr std::uint64_t kNever = 0;

  /// Mutex-mode cell: plain fields guarded by mutex_.
  struct Cell {
    std::uint64_t write_epoch = kNever;
    std::uint32_t write_rank = 0;
    std::uint64_t read_epoch = kNever;
    std::uint32_t read_rank = 0;
    bool read_shared = false;  ///< >1 distinct rank read in read_epoch
  };

  /// Sharded-mode cell: the same five fields packed into two words.
  ///   write_word = epoch:48 | rank:16          (0 = never written)
  ///   read_word  = epoch:47 | rank:16 | shared:1  (0 = never read)
  /// kHostRank packs as 0xFFFF.  Updated with one relaxed RMW; the
  /// cross-kind check (writer looks at readers and vice versa) is ordered
  /// by a seq_cst fence per recorded range, which is the store-buffering
  /// fence pattern: of two concurrent conflicting accesses, at least one
  /// is guaranteed to observe the other's record.
  struct AtomicCell {
    std::atomic<std::uint64_t> write_word{0};
    std::atomic<std::uint64_t> read_word{0};
  };

  /// Lock-free growable cell array for one rank's block: a fixed table of
  /// segment pointers installed on demand with CAS.  Segment 0 holds
  /// kSeg0 cells; segment s >= 1 holds kSeg0 * 2^(s-1) cells covering
  /// element indices [kSeg0 * 2^(s-1), kSeg0 * 2^s).  Readers never block
  /// and installed segments are never moved, so cell references stay
  /// valid for the lifetime of the shadow (until reset()).
  class SegmentedCells {
   public:
    SegmentedCells() = default;
    ~SegmentedCells() { clear(); }

    SegmentedCells(const SegmentedCells&) = delete;
    SegmentedCells& operator=(const SegmentedCells&) = delete;

    /// The cell for element `index`, allocating its segment if needed.
    [[nodiscard]] AtomicCell& cell(std::size_t index);

    /// The cell for `index` plus the count of contiguous cells from it to
    /// the end of its segment, so range records resolve the segment
    /// lookup once per run instead of once per element.
    [[nodiscard]] AtomicCell* run(std::size_t index, std::size_t& run_len);

    /// Free all segments.  Host-side only (no concurrent record calls).
    void clear() noexcept;

   private:
    static constexpr std::size_t kSeg0 = 1024;
    static constexpr unsigned kSegments = 40;  ///< covers ~5.6e14 elements

    std::array<std::atomic<AtomicCell*>, kSegments> segments_{};
  };

  std::string name_;
  std::uint32_t nprocs_;

  // Mutex-mode state.
  std::mutex mutex_;
  std::vector<std::vector<Cell>> cells_;  ///< [owner rank][element]
  std::vector<Cell> size_cells_;          ///< [owner rank]

  // Sharded-mode state.
  std::vector<SegmentedCells> shards_;            ///< [owner rank]
  std::unique_ptr<AtomicCell[]> size_shards_;     ///< [owner rank]
};

/// The machine-wide checker: registry of array shadows plus the conflict
/// log.  Thread-safe; every method except set_mode/reset may be called
/// from any virtual processor's thread.
class RaceLedger {
 public:
  explicit RaceLedger(std::uint32_t nprocs) : nprocs_(nprocs) {}

  RaceLedger(const RaceLedger&) = delete;
  RaceLedger& operator=(const RaceLedger&) = delete;

  /// Register a distributed array; called from Spread/SpreadVec
  /// constructors (host side, before Machine::run).
  [[nodiscard]] std::shared_ptr<ArrayShadow> attach(std::string name);

  // NOLINTBEGIN(bugprone-easily-swappable-parameters): the (owner, off,
  // len, rank, epoch) order mirrors the Split-C access tuple everywhere in
  // the ledger; declaration-only, so SuppressParametersUsedTogether cannot
  // see the bodies that use them jointly.

  /// Record `len` element accesses [off, off+len) in `owner`'s block of
  /// the array behind `shadow`, performed by `rank` in barrier `epoch`.
  /// Detected conflicts are appended to the diagnostic log.
  void record(ArrayShadow& shadow, std::uint32_t owner, std::size_t off,
              std::size_t len, std::uint32_t rank, std::uint64_t epoch,
              RaceAccess kind);

  /// Record an access to the *size* of `owner`'s block (a SpreadVec
  /// size_of probe reads it; the owner's note_local_write publishes it).
  void record_size(ArrayShadow& shadow, std::uint32_t owner,
                   std::uint32_t rank, std::uint64_t epoch, RaceAccess kind);

  // NOLINTEND(bugprone-easily-swappable-parameters)

  /// Select the shadow-store implementation.  Host-side only, between
  /// runs; kSharded is the default.
  void set_mode(LedgerMode mode) noexcept { mode_ = mode; }
  [[nodiscard]] LedgerMode mode() const noexcept { return mode_; }

  /// Clear all shadow cells and diagnostics; Machine::run calls this on
  /// entry so consecutive SPMD programs don't see each other's accesses.
  void reset();

  /// Conflicts recorded since the last reset (capped at kMaxDiagnostics;
  /// conflict_count() keeps the true total).
  [[nodiscard]] std::vector<RaceDiagnostic> diagnostics() const;

  /// Total conflicts since the last reset, including ones past the cap.
  [[nodiscard]] std::uint64_t conflict_count() const noexcept;

  /// Element checks performed since the last reset (size probes count as
  /// one check each).  Exact in both ledger modes.
  [[nodiscard]] std::uint64_t check_count() const noexcept;

  /// Multi-line human-readable report of all retained diagnostics
  /// (empty string when there are none).
  [[nodiscard]] std::string format_report() const;

  /// Retain at most this many full diagnostics (the count is exact).
  static constexpr std::size_t kMaxDiagnostics = 64;

 private:
  // NOLINTBEGIN(bugprone-easily-swappable-parameters): same access-tuple
  // order as the public record(); declaration-only.
  void record_mutex(ArrayShadow& shadow, std::uint32_t owner, std::size_t off,
                    std::size_t len, std::uint32_t rank, std::uint64_t epoch,
                    RaceAccess kind, RaceTarget target);
  void record_sharded(ArrayShadow& shadow, std::uint32_t owner,
                      std::size_t off, std::size_t len, std::uint32_t rank,
                      std::uint64_t epoch, RaceAccess kind, RaceTarget target);
  void check_cell_mutex(ArrayShadow& shadow, ArrayShadow::Cell& cell,
                        std::uint32_t owner, std::size_t off,
                        std::uint32_t rank, std::uint64_t epoch,
                        RaceAccess kind, RaceTarget target);
  void log_conflict(const ArrayShadow& shadow, std::uint32_t owner,
                    std::size_t off, std::uint64_t epoch,
                    std::uint32_t first_rank, RaceAccess first_kind,
                    std::uint32_t second_rank, RaceAccess second_kind,
                    RaceTarget target);
  // NOLINTEND(bugprone-easily-swappable-parameters)

  std::uint32_t nprocs_;
  LedgerMode mode_ = LedgerMode::kSharded;

  mutable std::mutex registry_mutex_;
  std::vector<std::shared_ptr<ArrayShadow>> arrays_;

  mutable std::mutex log_mutex_;
  std::vector<RaceDiagnostic> log_;
  std::uint64_t conflicts_ = 0;
  std::atomic<std::uint64_t> checks_{0};
};

}  // namespace histcc::splitc

#endif  // HISTCC_SPLITC_RACE_LEDGER_HPP
