#ifndef HISTCC_SPLITC_SPREAD_HPP
#define HISTCC_SPLITC_SPREAD_HPP

/// \file spread.hpp
/// Distributed (spread) arrays — the global address space of the runtime.
///
/// A `Spread<T>` is the analogue of a Split-C spread array `T A[p]::[m]`:
/// each of the p processors owns a block of `per_proc` elements, and any
/// processor can read or write any block through split-phase transfers.
/// `prefetch` mirrors the Split-C `:=` assignment: it initiates a bulk get
/// and is charged to the caller's BDM ledger; completion is guaranteed
/// after `Proc::sync()`.  In this runtime the copy happens eagerly, which
/// is race-free under the algorithms' barrier discipline (a transfer only
/// reads data its owner wrote before the last barrier, exactly as the
/// paper's algorithms are structured).
///
/// `SpreadVec<T>` is the dynamically-sized variant used for the merge
/// phase's change arrays, whose sizes are data-dependent: the owner
/// resizes its block, peers read it after the next barrier.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "histcc/splitc/machine.hpp"
#include "histcc/splitc/race_ledger.hpp"
#include "histcc/util/require.hpp"

namespace histcc::splitc {

namespace detail {
/// BDM word accounting: a "word" is 4 bytes; an element of type T counts as
/// ceil(sizeof(T)/4) words.
template <typename T>
constexpr std::uint64_t words_per_element() noexcept {
  return (sizeof(T) + 3) / 4;
}

/// memcpy for the bulk-transfer paths.  Every call site REQUIREs
/// len <= vector::size() <= max_size(), but GCC's range propagation only
/// sees the size_t comparison and still explores a len ~ SIZE_MAX/sizeof(T)
/// path, tripping -Wstringop-overflow / -Wrestrict on the byte count.  The
/// explicit bound below is unreachable in practice and hands the optimizer
/// the invariant the REQUIREs already guarantee.
template <typename T>
inline void raw_copy(T* dst, const T* src, std::size_t len) noexcept {
  constexpr std::size_t kMaxLen =
      static_cast<std::size_t>(std::numeric_limits<std::ptrdiff_t>::max()) /
      sizeof(T);
  if (len > kMaxLen) return;  // unreachable: callers bound len by a vector size
  std::memcpy(dst, src, len * sizeof(T));
}

/// True iff [off, off + len) lies inside a block of `size` elements.  The
/// overflow-safe form of `off + len <= size`, whose sum can wrap; it also
/// hands the optimizer a hard bound on the copy length.
[[nodiscard]] constexpr bool range_in_block(std::size_t off, std::size_t len,
                                            std::size_t size) noexcept {
  return off <= size && len <= size - off;
}

/// Shared race-ledger plumbing of Spread and SpreadVec.  In race-ledger
/// builds the constructor attaches `shadow_` to the machine's ledger, which
/// lives as long as the machine, so a non-null `shadow_` is the only check
/// (it is null only in a moved-from array).  In builds without
/// HISTCC_RACE_LEDGER every member below compiles to nothing the optimizer
/// keeps: `shadow_` stays null and `record` is an empty inline function.
class ShadowBase {
 public:
  /// Name given at construction (appears in race diagnostics).
  [[nodiscard]] const std::string& name() const noexcept { return name_; }

 protected:
  ShadowBase(Machine& machine, std::string_view name)
      : machine_(&machine), name_(name) {
#if HISTCC_RACE_LEDGER
    shadow_ = machine.race_ledger()->attach(name_);
#endif
  }

  /// Record `len` accesses at [off, off+len) of `owner`'s block by the
  /// calling processor in its current barrier epoch.
  void record(Proc& self, std::uint32_t owner, std::size_t off,
              std::size_t len, RaceAccess kind) {
#if HISTCC_RACE_LEDGER
    if (shadow_) {
      self.stats().ledger_checks += len;
      machine_->race_ledger()->record(*shadow_, owner, off, len, self.rank(),
                                      self.epoch(), kind);
    }
#else
    (void)self;
    (void)owner;
    (void)off;
    (void)len;
    (void)kind;
#endif
  }

  /// Record an access to the one-word *size* of `owner`'s block (the value
  /// SpreadVec::size_of reads).  The size is a publication channel of its
  /// own: resizing publishes it, so a peer reading it in the same epoch as
  /// the resize races even if it never touches the payload.
  void record_size(Proc& self, std::uint32_t owner, RaceAccess kind) {
#if HISTCC_RACE_LEDGER
    if (shadow_) {
      self.stats().ledger_checks += 1;
      machine_->race_ledger()->record_size(*shadow_, owner, self.rank(),
                                           self.epoch(), kind);
    }
#else
    (void)self;
    (void)owner;
    (void)kind;
#endif
  }

  /// Record a host-side probe of `owner`'s payload.  Outside Machine::run
  /// the host cannot race with anything and nothing is recorded; during a
  /// run the access is timestamped with the machine's current barrier
  /// generation and attributed to the pseudo-rank kHostRank.
  void record_host(std::uint32_t owner, std::size_t off, std::size_t len,
                   RaceAccess kind) {
#if HISTCC_RACE_LEDGER
    if (!machine_->running()) return;
    if (shadow_) {
      machine_->race_ledger()->record(*shadow_, owner, off, len, kHostRank,
                                      machine_->current_epoch(), kind);
    }
#else
    (void)owner;
    (void)off;
    (void)len;
    (void)kind;
#endif
  }

  /// Host-side probe of `owner`'s block size (SpreadVec only).
  void record_host_size(std::uint32_t owner, RaceAccess kind) {
#if HISTCC_RACE_LEDGER
    if (!machine_->running()) return;
    if (shadow_) {
      machine_->race_ledger()->record_size(*shadow_, owner, kHostRank,
                                           machine_->current_epoch(), kind);
    }
#else
    (void)owner;
    (void)kind;
#endif
  }

  Machine* machine_;
  std::string name_;
  std::shared_ptr<ArrayShadow> shadow_;
};
}  // namespace detail

/// Passing this as `len` to note_local_write means "to the end of the
/// block".
inline constexpr std::size_t kWholeBlock =
    std::numeric_limits<std::size_t>::max();

/// Fixed-size distributed array: `per_proc` elements owned by each of the
/// machine's processors.  Construct on the host (outside `Machine::run`),
/// use from inside the SPMD program.
template <typename T>
class Spread : public detail::ShadowBase {
  static_assert(std::is_trivially_copyable_v<T>,
                "Spread elements cross the (virtual) network; they must be "
                "trivially copyable");

 public:
  /// Allocate a block of `per_proc` elements on every processor,
  /// value-initialized.  `name` identifies the array in race-ledger
  /// diagnostics.  Uniform arrays are identical under both SpreadLayouts.
  Spread(Machine& machine, std::size_t per_proc,
         std::string_view name = "Spread")
      : detail::ShadowBase(machine, name),
        nprocs_(machine.nprocs()),
        per_proc_(per_proc),
        blocks_(nprocs_) {
    for (auto& b : blocks_) b.assign(per_proc_, T{});
    machine.note_spread_alloc(footprint_bytes());
  }

  /// Allocate `per_rank[r]` elements on processor r (value-initialized).
  /// Under SpreadLayout::kPacked each block is exactly that size; under
  /// kStrided every block is padded to max(per_rank) — the differential
  /// oracle for the packed mode.  `per_proc()` reports the max either way,
  /// so stride-based *capacity* reasoning stays valid; per-rank bounds are
  /// what the accessors actually enforce.
  Spread(Machine& machine, std::span<const std::size_t> per_rank,
         std::string_view name = "Spread")
      : detail::ShadowBase(machine, name),
        nprocs_(machine.nprocs()),
        blocks_(nprocs_) {
    HISTCC_REQUIRE(per_rank.size() == nprocs_,
                   "per-rank size table must have one entry per processor "
                   "(Spread '" +
                       name_ + "')");
    for (std::size_t size : per_rank) per_proc_ = std::max(per_proc_, size);
    for (std::uint32_t r = 0; r < nprocs_; ++r) {
      const bool packed = machine.spread_layout() == SpreadLayout::kPacked;
      blocks_[r].assign(packed ? per_rank[r] : per_proc_, T{});
    }
    machine.note_spread_alloc(footprint_bytes());
  }

  /// The uniform stride: the size of the *largest* block.  Every block
  /// holds exactly this many elements under kStrided (and under the
  /// uniform constructor); under kPacked it is an upper bound only — use
  /// block_size() for the per-rank truth.
  [[nodiscard]] std::size_t per_proc() const noexcept { return per_proc_; }
  [[nodiscard]] std::uint32_t nprocs() const noexcept { return nprocs_; }

  /// Elements actually allocated on processor `rank`.
  [[nodiscard]] std::size_t block_size(std::uint32_t rank) const {
    HISTCC_REQUIRE(rank < nprocs_,
                   "rank out of range (Spread '" + name_ + "')");
    return blocks_[rank].size();
  }

  /// The size of the *smallest* block — what a collective touching a fixed
  /// prefix of every block must bound its count by.
  [[nodiscard]] std::size_t min_per_proc() const noexcept {
    // Start from the max: every block is <= per_proc_, so this is exact
    // (and keeps the result bounded on every path the optimizer explores).
    std::size_t mn = per_proc_;
    for (const auto& b : blocks_) mn = std::min(mn, b.size());
    return mn;
  }

  /// Total payload bytes across all blocks (excludes shadow/bookkeeping).
  [[nodiscard]] std::size_t footprint_bytes() const noexcept {
    std::size_t total = 0;
    for (const auto& b : blocks_) total += b.size() * sizeof(T);
    return total;
  }

  /// The calling processor's own block; local access, never metered.
  [[nodiscard]] std::span<T> local(const Proc& self) noexcept {
    return std::span<T>(blocks_[self.rank()]);
  }
  [[nodiscard]] std::span<const T> local(const Proc& self) const noexcept {
    return std::span<const T>(blocks_[self.rank()]);
  }

  /// Host-side access to processor `rank`'s block (for initialization and
  /// verification outside the SPMD region).  A mutable probe taken *while*
  /// the machine is running is recorded in the race ledger as a host write
  /// of the whole block (a const probe as a host read), so an un-barriered
  /// host peek at in-flight data is diagnosed like any other race.
  [[nodiscard]] std::span<T> block(std::uint32_t rank) {
    HISTCC_REQUIRE(rank < nprocs_,
                   "rank out of range (Spread '" + name_ + "')");
    record_host(rank, 0, blocks_[rank].size(), RaceAccess::kWrite);
    return std::span<T>(blocks_[rank]);
  }
  [[nodiscard]] std::span<const T> block(std::uint32_t rank) const {
    HISTCC_REQUIRE(rank < nprocs_,
                   "rank out of range (Spread '" + name_ + "')");
    const_cast<Spread*>(this)->record_host(rank, 0, blocks_[rank].size(),
                                           RaceAccess::kRead);
    return std::span<const T>(blocks_[rank]);
  }

  /// Split-phase bulk get (Split-C `dst := A[src_rank][src_off .. +len]`).
  /// Copies `len` elements from the owner's block into `dst`, charging one
  /// message of len words to the caller's ledger unless the source is
  /// local.  Completion is guaranteed after self.sync().
  void prefetch(Proc& self, std::span<T> dst, std::uint32_t src_rank,
                std::size_t src_off, std::size_t len) {
    HISTCC_REQUIRE(src_rank < nprocs_,
                   "source rank out of range (Spread '" + name_ + "')");
    HISTCC_REQUIRE(
        detail::range_in_block(src_off, len, blocks_[src_rank].size()),
        "source range out of bounds (Spread '" + name_ + "')");
    HISTCC_REQUIRE(dst.size() >= len,
                   "destination too small (Spread '" + name_ + "')");
    if (len == 0) return;
    record(self, src_rank, src_off, len, RaceAccess::kRead);
    detail::raw_copy(dst.data(), blocks_[src_rank].data() + src_off, len);
    if (src_rank != self.rank()) {
      self.charge_transfer(src_rank, len * detail::words_per_element<T>());
    }
  }

  /// Split-phase bulk put: copy `len` elements from `src` into the block of
  /// `dst_rank` at `dst_off`.  The caller must own the destination range in
  /// the sense of the algorithms' barrier discipline (no concurrent writer).
  void put_block(Proc& self, std::uint32_t dst_rank, std::size_t dst_off,
                 std::span<const T> src) {
    HISTCC_REQUIRE(dst_rank < nprocs_,
                   "destination rank out of range (Spread '" + name_ + "')");
    HISTCC_REQUIRE(
        detail::range_in_block(dst_off, src.size(), blocks_[dst_rank].size()),
        "destination range out of bounds (Spread '" + name_ + "')");
    if (src.empty()) return;
    record(self, dst_rank, dst_off, src.size(), RaceAccess::kWrite);
    detail::raw_copy(blocks_[dst_rank].data() + dst_off, src.data(),
                     src.size());
    if (dst_rank != self.rank()) {
      self.charge_transfer(dst_rank, src.size() * detail::words_per_element<T>());
    }
  }

  /// Single-element remote read (costs tau + 1 unless batched).
  [[nodiscard]] T get(Proc& self, std::uint32_t rank, std::size_t off) {
    HISTCC_REQUIRE(rank < nprocs_,
                   "rank out of range (Spread '" + name_ + "')");
    HISTCC_REQUIRE(off < blocks_[rank].size(),
                   "offset out of bounds (Spread '" + name_ + "')");
    record(self, rank, off, 1, RaceAccess::kRead);
    if (rank != self.rank()) {
      self.charge_transfer(rank, detail::words_per_element<T>());
    }
    return blocks_[rank][off];
  }

  /// Single-element remote write.
  void put(Proc& self, std::uint32_t rank, std::size_t off, T value) {
    HISTCC_REQUIRE(rank < nprocs_,
                   "rank out of range (Spread '" + name_ + "')");
    HISTCC_REQUIRE(off < blocks_[rank].size(),
                   "offset out of bounds (Spread '" + name_ + "')");
    record(self, rank, off, 1, RaceAccess::kWrite);
    if (rank != self.rank()) {
      self.charge_transfer(rank, detail::words_per_element<T>());
    }
    blocks_[rank][off] = value;
  }

  /// Race-ledger epoch annotation: the calling processor wrote
  /// [off, off+len) of its own block directly through the local() span in
  /// the current epoch.  Place it next to the writes it describes, before
  /// the barrier that publishes them.  No-op without HISTCC_RACE_LEDGER.
  void note_local_write(Proc& self, std::size_t off = 0,
                        std::size_t len = kWholeBlock) {
    const std::size_t size = blocks_[self.rank()].size();
    if (len == kWholeBlock && off <= size) len = size - off;
    HISTCC_REQUIRE(detail::range_in_block(off, len, size),
                   "annotation range out of bounds (Spread '" + name_ + "')");
    record(self, self.rank(), off, len, RaceAccess::kWrite);
  }

 private:
  std::uint32_t nprocs_;
  std::size_t per_proc_ = 0;
  std::vector<std::vector<T>> blocks_;
};

/// Dynamically-sized distributed array: each processor owns a vector it may
/// resize.  Peers may only read a block that its owner last resized before
/// a barrier both have crossed (the usual SPMD publication discipline).
template <typename T>
class SpreadVec : public detail::ShadowBase {
  static_assert(std::is_trivially_copyable_v<T>);

 public:
  explicit SpreadVec(Machine& machine, std::string_view name = "SpreadVec")
      : detail::ShadowBase(machine, name), blocks_(machine.nprocs()) {}

  [[nodiscard]] std::uint32_t nprocs() const noexcept {
    return static_cast<std::uint32_t>(blocks_.size());
  }

  /// Current total payload bytes across all blocks.  Unlike Spread this is
  /// a moving target (owners resize); meaningful between runs.
  [[nodiscard]] std::size_t footprint_bytes() const noexcept {
    std::size_t total = 0;
    for (const auto& b : blocks_) total += b.size() * sizeof(T);
    return total;
  }

  /// The calling processor's own vector (resizable).
  [[nodiscard]] std::vector<T>& local(const Proc& self) noexcept {
    return blocks_[self.rank()];
  }

  /// Host-side access.  A probe taken while the machine is running is
  /// recorded as a host write of the payload *and* the size (the reference
  /// allows resizing); a const probe as a host read of both.
  [[nodiscard]] std::vector<T>& block(std::uint32_t rank) {
    HISTCC_REQUIRE(rank < nprocs(), "rank out of range");
    record_host(rank, 0, blocks_[rank].size(), RaceAccess::kWrite);
    record_host_size(rank, RaceAccess::kWrite);
    return blocks_[rank];
  }
  [[nodiscard]] const std::vector<T>& block(std::uint32_t rank) const {
    HISTCC_REQUIRE(rank < nprocs(), "rank out of range");
    auto* self = const_cast<SpreadVec*>(this);
    self->record_host(rank, 0, blocks_[rank].size(), RaceAccess::kRead);
    self->record_host_size(rank, RaceAccess::kRead);
    return blocks_[rank];
  }

  /// Remote size query (one word).  Reads the owner's published size, so
  /// the race ledger treats it like a one-word prefetch of the size cell: a
  /// size resized in the same epoch (note_local_write without an
  /// intervening barrier) is diagnosed even when the payload is untouched.
  [[nodiscard]] std::size_t size_of(Proc& self, std::uint32_t rank) {
    HISTCC_REQUIRE(rank < nprocs(), "rank out of range");
    record_size(self, rank, RaceAccess::kRead);
    if (rank != self.rank()) self.charge_transfer(rank, 1);
    return blocks_[rank].size();
  }

  /// Split-phase bulk get of [src_off, src_off+len) from `rank`'s block.
  void prefetch(Proc& self, std::span<T> dst, std::uint32_t src_rank,
                std::size_t src_off, std::size_t len) {
    HISTCC_REQUIRE(src_rank < nprocs(), "source rank out of range");
    HISTCC_REQUIRE(
        detail::range_in_block(src_off, len, blocks_[src_rank].size()),
        "source range out of bounds");
    HISTCC_REQUIRE(dst.size() >= len, "destination too small");
    if (len == 0) return;
    record(self, src_rank, src_off, len, RaceAccess::kRead);
    detail::raw_copy(dst.data(), blocks_[src_rank].data() + src_off, len);
    if (src_rank != self.rank()) {
      self.charge_transfer(src_rank, len * detail::words_per_element<T>());
    }
  }

  /// Race-ledger epoch annotation: the calling processor resized and/or
  /// wrote [off, off+len) of its own block in the current epoch (default:
  /// the whole current contents).  Place it after the writes, before the
  /// publishing barrier.  No-op without HISTCC_RACE_LEDGER.
  void note_local_write(Proc& self, std::size_t off = 0,
                        std::size_t len = kWholeBlock) {
    const std::size_t size = blocks_[self.rank()].size();
    if (len == kWholeBlock && off <= size) len = size - off;
    HISTCC_REQUIRE(detail::range_in_block(off, len, size),
                   "annotation range out of bounds");
    // A resize republishes the size alongside the payload, so the size
    // cell is marked written even when the payload range is empty.
    record_size(self, self.rank(), RaceAccess::kWrite);
    record(self, self.rank(), off, len, RaceAccess::kWrite);
  }

 private:
  std::vector<std::vector<T>> blocks_;
};

}  // namespace histcc::splitc

#endif  // HISTCC_SPLITC_SPREAD_HPP
