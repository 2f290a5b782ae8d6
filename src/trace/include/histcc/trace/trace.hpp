#ifndef HISTCC_TRACE_TRACE_HPP
#define HISTCC_TRACE_TRACE_HPP

/// \file trace.hpp
/// Barrier-epoch span tracing for the SPMD runtime.
///
/// The source paper is an experimental study: its figures are per-phase
/// breakdowns (histogram step timings, CC phase decomposition, transpose
/// communication volume).  This subsystem makes those breakdowns
/// observable on a live run instead of reconstructed from ad-hoc timers:
///
///  - `Tracer` collects `Span` records into lock-free per-thread buffers.
///    Each span carries wall-clock interval, the *barrier epoch* interval
///    (`Proc::epoch()` — the same counter the race ledger keys its
///    happens-before check on), and the CommStats delta accumulated while
///    the span was open, so bytes/messages per BDM primitive fall out of
///    the same ledger the cost model reads.
///  - `Scope` is the RAII recorder; the `TRACE_SCOPE(owner, "name")`
///    macro plants one in a block.  Tracing is off exactly when no tracer
///    is attached (the default), and then the constructor is a pointer
///    load and a branch.  Kernels therefore stay instrumented in every
///    build.
///  - Exporters (export.hpp) turn a tracer's buffers into a
///    Chrome/Perfetto `trace.json` or a plain-text per-phase breakdown.
///
/// Attachment points: `Machine::set_trace(&tracer)` for direct use,
/// `serve::PipelineOptions::trace` for the serving layer, and the
/// `HISTCC_TRACE` environment variable (see `env_tracer()`) for
/// harnesses that should not need a code change.
///
/// Sampling: always-on production tracing cannot afford one span per BDM
/// primitive call (≈6–14% on the VM benches), so a `SamplingPolicy` on
/// the tracer records only every Nth span per *category* (the `prefix/`
/// of the span name: bdm, hist, cc, img, serve).  The per-category call
/// counters live in the calling thread's buffer, so hot call sites stay
/// lock-free; a skipped span costs the category lookup plus one TLS
/// counter increment — no clock read, no CommStats snapshot, no record.
/// Category counters are deterministic per thread, so a fixed schedule
/// reproduces the same sampled span inventory run over run.
///
/// Epoch alignment: between two consecutive global barriers every rank is
/// in the same epoch, so spans from different ranks with overlapping
/// [begin_epoch, end_epoch] intervals describe the same algorithmic
/// phase even when the OS scheduler skews their wall-clock intervals.
///
/// Thread-safety contract: recording is safe from any number of threads
/// concurrently (each writes its own buffer).  Reading a snapshot
/// (`spans()`, `counters()`, `clear()`, the exporters) is safe only while
/// no traced program is mid-run — after `Machine::run` returns or the
/// serve pipeline is shut down; both joins/parks provide the needed
/// happens-before edge.

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "histcc/splitc/machine.hpp"

namespace histcc::trace {

/// All trace timestamps come from one steady clock (never wall time:
/// spans must be immune to NTP steps, same as the bench timers).
using Clock = std::chrono::steady_clock;
static_assert(Clock::is_steady, "trace timestamps require a steady clock");

/// Track (Perfetto "tid") conventions: the host/control thread is track
/// 0, virtual processor r is track r + 1.
inline constexpr std::uint32_t kHostTid = 0;
[[nodiscard]] constexpr std::uint32_t rank_tid(std::uint32_t rank) noexcept {
  return rank + 1;
}
/// Serving-layer pool workers get their own tracks, numbered from a base
/// comfortably above any plausible virtual-processor count.
inline constexpr std::uint32_t kServeTidBase = 1000;
[[nodiscard]] constexpr std::uint32_t serve_tid(std::uint32_t worker) noexcept {
  return kServeTidBase + worker;
}

/// One closed instrumentation interval.  `name` must point to storage
/// that outlives the tracer (the macros pass string literals).
struct Span {
  const char* name = "";
  std::uint32_t tid = kHostTid;
  /// Barrier epoch at open/close; 0 on host-side spans recorded while no
  /// SPMD program is running.
  std::uint64_t begin_epoch = 0;
  std::uint64_t end_epoch = 0;
  /// Nanoseconds since the tracer's origin (Tracer::now_ns()).
  std::int64_t t0_ns = 0;
  std::int64_t t1_ns = 0;
  /// CommStats delta of the owning rank while the span was open.
  std::uint64_t words = 0;
  std::uint64_t messages = 0;
  std::uint64_t batches = 0;
  std::uint64_t barriers = 0;
  /// Free-form correlation id (the serve layer records the job id here).
  std::uint64_t arg = 0;
};

/// One sample of a named counter (exported as a Perfetto "C" event);
/// the serve layer bridges PoolMetrics gauges through these.
struct CounterSample {
  const char* name = "";
  std::uint32_t tid = kHostTid;
  std::int64_t t_ns = 0;
  double value = 0.0;
};

/// Span categories for sampling, keyed by the `prefix/` of the span
/// name.  Spans outside the known prefixes (tests, ad-hoc host spans)
/// fall into kOther.
enum class Category : std::uint8_t {
  kBdm = 0,    ///< "bdm/..." — the BDM primitive layer (hottest sites)
  kHist = 1,   ///< "hist/..." — histogram/equalize kernel phases
  kCc = 2,     ///< "cc/..." — connected-components / label-prop phases
  kImg = 3,    ///< "img/..." — stencil halo exchanges
  kServe = 4,  ///< "serve/..." — per-job pipeline stages
  kOther = 5,  ///< anything else
};
inline constexpr std::size_t kNumCategories = 6;

/// Human name of a category ("bdm", "hist", ...), for exporters and the
/// HISTCC_TRACE `cat=N` syntax.
[[nodiscard]] const char* category_name(Category cat) noexcept;

/// The category of a span name, by matching its `prefix/`.  Span names
/// are static literals, so the few byte compares are the whole cost.
[[nodiscard]] inline Category category_of(const char* name) noexcept {
  switch (name[0]) {
    case 'b':
      if (name[1] == 'd' && name[2] == 'm' && name[3] == '/') {
        return Category::kBdm;
      }
      break;
    case 'h':
      if (name[1] == 'i' && name[2] == 's' && name[3] == 't' &&
          name[4] == '/') {
        return Category::kHist;
      }
      break;
    case 'c':
      if (name[1] == 'c' && name[2] == '/') return Category::kCc;
      break;
    case 'i':
      if (name[1] == 'm' && name[2] == 'g' && name[3] == '/') {
        return Category::kImg;
      }
      break;
    case 's':
      if (name[1] == 'e' && name[2] == 'r' && name[3] == 'v' &&
          name[4] == 'e' && name[5] == '/') {
        return Category::kServe;
      }
      break;
    default: break;
  }
  return Category::kOther;
}

/// Deterministic per-category span sampling: record every Nth span of a
/// category (per thread), skip the rest.  1 records everything (the
/// default); 0 is treated as 1.  The first span of a category on each
/// thread is always recorded, then every Nth after it, so even N much
/// larger than the call count leaves one representative span.
struct SamplingPolicy {
  std::array<std::uint32_t, kNumCategories> every{1, 1, 1, 1, 1, 1};

  [[nodiscard]] std::uint32_t of(Category cat) const noexcept {
    return every[static_cast<std::size_t>(cat)];
  }
  void set(Category cat, std::uint32_t n) noexcept {
    every[static_cast<std::size_t>(cat)] = n == 0 ? 1 : n;
  }

  /// Sample the kernel categories (bdm/hist/cc/img) at N, keeping serve
  /// job spans and uncategorised spans exact — the always-on production
  /// preset: per-job observability stays complete while the per-primitive
  /// firehose is decimated.
  [[nodiscard]] static SamplingPolicy kernels(std::uint32_t n) noexcept {
    SamplingPolicy policy;
    policy.set(Category::kBdm, n);
    policy.set(Category::kHist, n);
    policy.set(Category::kCc, n);
    policy.set(Category::kImg, n);
    return policy;
  }

  /// Every category at N, including serve.
  [[nodiscard]] static SamplingPolicy all(std::uint32_t n) noexcept {
    SamplingPolicy policy;
    for (std::size_t c = 0; c < kNumCategories; ++c) {
      policy.set(static_cast<Category>(c), n);
    }
    return policy;
  }

  [[nodiscard]] bool operator==(const SamplingPolicy& other) const noexcept {
    return every == other.every;
  }
};

/// Span/counter collector.  One tracer can serve any number of machines
/// and threads; see the thread-safety contract in the file comment.
class Tracer {
 public:
  Tracer();
  ~Tracer();

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Install a sampling policy (all categories exact by default).  Safe
  /// to call while spans are being recorded (the per-category rates are
  /// relaxed atomics), but for a deterministic sampled inventory set the
  /// policy while no traced program is mid-run.
  void set_sampling(const SamplingPolicy& policy) noexcept {
    for (std::size_t c = 0; c < kNumCategories; ++c) {
      sampling_[c].store(policy.every[c] == 0 ? 1 : policy.every[c],
                         std::memory_order_relaxed);
    }
  }
  [[nodiscard]] SamplingPolicy sampling() const noexcept {
    SamplingPolicy policy;
    for (std::size_t c = 0; c < kNumCategories; ++c) {
      policy.every[c] = sampling_[c].load(std::memory_order_relaxed);
    }
    return policy;
  }
  [[nodiscard]] std::uint32_t sample_every(Category cat) const noexcept {
    return sampling_[static_cast<std::size_t>(cat)].load(
        std::memory_order_relaxed);
  }

  /// Sampling gate for a span about to open: true when the span must be
  /// recorded.  At rate 1 (the default) this is one relaxed load; at
  /// rate N it additionally bumps the calling thread's category counter
  /// and admits every Nth call — the whole cost of a skipped span.
  [[nodiscard]] bool should_record(const char* name) noexcept {
    const Category cat = category_of(name);
    const std::uint32_t every =
        sampling_[static_cast<std::size_t>(cat)].load(
            std::memory_order_relaxed);
    if (every <= 1) return true;
    return admit_sampled(cat, every);
  }

  /// Nanoseconds since this tracer was constructed.
  [[nodiscard]] std::int64_t now_ns() const noexcept {
    return to_ns(Clock::now());
  }
  /// Convert a caller-held steady timestamp to tracer time (the serve
  /// layer timestamps jobs itself and records spans after the fact).
  [[nodiscard]] std::int64_t to_ns(Clock::time_point t) const noexcept {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
        .count();
  }

  /// Append one record to the calling thread's buffer.  Lock-free after
  /// the thread's first record (registration takes the registry mutex
  /// once).  Ignores the sampling gate — span callers consult
  /// should_record() first.
  void record_span(const Span& span);
  void record_counter(const CounterSample& sample);

  /// Snapshot across all thread buffers, ordered by start time.  Only
  /// valid while no traced program is mid-run.
  [[nodiscard]] std::vector<Span> spans() const;
  [[nodiscard]] std::vector<CounterSample> counters() const;

  /// Per-category spans *seen* (recorded + skipped) while that category
  /// was sampled, summed over threads.  Together with the recorded span
  /// counts this gives the measured sampling ratio, which rescales a
  /// sampled trace exactly: seen / recorded is the true decimation
  /// factor of what actually ran, where the nominal policy rate N is
  /// only an upper bound (the first span per thread is always admitted,
  /// so short streams record proportionally more).  Categories at rate 1
  /// never bump these counters — their spans are already exact.  Same
  /// quiescence requirement as spans().
  [[nodiscard]] std::array<std::uint64_t, kNumCategories> sampled_seen()
      const;

  /// Drop all recorded data and reset the per-thread sampling counters
  /// (buffers stay registered).  Same quiescence requirement as spans().
  void clear();

  /// Registered per-thread buffers — one per thread that ever recorded
  /// through this tracer, never more (a thread switching between live
  /// tracers reuses its buffer on return).  Observability hook for the
  /// buffer-reuse tests; same quiescence requirement as spans().
  [[nodiscard]] std::size_t buffer_count() const;

 private:
  struct Buffer {
    std::thread::id owner;  ///< registering thread, for TLS-miss re-lookup
    /// Per-category spans seen (recorded + skipped) by the owner thread —
    /// the sampling counters.  Only the owner touches them.
    std::array<std::uint64_t, kNumCategories> seen{};
    std::vector<Span> spans;
    std::vector<CounterSample> counters;
  };

  /// The calling thread's buffer, registering it on first use.
  Buffer& local_buffer();

  /// Slow path of should_record(): bump the thread's category counter
  /// and admit every `every`th call (the first call always records).
  [[nodiscard]] bool admit_sampled(Category cat, std::uint32_t every);

  Clock::time_point origin_;
  std::array<std::atomic<std::uint32_t>, kNumCategories> sampling_{
      1u, 1u, 1u, 1u, 1u, 1u};
  const std::uint64_t id_;  ///< process-unique, guards stale TLS caches
  mutable std::mutex registry_mutex_;
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

/// Parsed form of a `HISTCC_TRACE` value.  Grammar (case-insensitive,
/// surrounding whitespace ignored):
///
///   HISTCC_TRACE=0 | off | false | ""        tracing disabled
///   HISTCC_TRACE=OUT.json[:cat=N,...]        Chrome/Perfetto JSON to OUT
///   HISTCC_TRACE=report[:cat=N,...]          phase report to stderr
///   HISTCC_TRACE=ANY[:cat=N,...]             any other word: stderr report
///
/// `cat` is a category name (bdm, hist, cc, img, serve, other) or the
/// presets `kernels` (bdm+hist+cc+img) and `all`; `N` is the sampling
/// rate (record every Nth span of that category per thread).  Pairs are
/// separated by ',' or ':'.  Example: `HISTCC_TRACE=trace.json:bdm=16`.
struct EnvSpec {
  bool enabled = false;
  std::string json_path;  ///< empty = phase report to stderr at exit
  SamplingPolicy sampling;
  std::string error;  ///< non-empty: diagnostic for a malformed suffix
};

/// Parse a HISTCC_TRACE value.  Never throws; a malformed `cat=N` pair
/// sets `error` (and is otherwise ignored) so a typo degrades to exact
/// tracing with a warning instead of silently disabling the trace.
[[nodiscard]] EnvSpec parse_trace_env(std::string_view value);

/// The process-wide tracer requested by the `HISTCC_TRACE` environment
/// variable, or nullptr when the variable is unset/empty/"0"/"off"/
/// "false" (case- and whitespace-insensitive).  Any other value enables
/// tracing; a value whose destination ends in ".json" (any case) writes
/// a Chrome/Perfetto trace there at process exit, anything else writes
/// the plain-text phase report to stderr at exit.  A `:cat=N` suffix
/// installs a SamplingPolicy (see parse_trace_env).  The tracer lives
/// for the whole process (intentionally leaked: worker threads may still
/// hold buffer references during static destruction).
[[nodiscard]] Tracer* env_tracer();

/// RAII span recorder.  Constructed against a `Proc` it tags the span
/// with the rank's track, barrier epochs, and CommStats deltas; against
/// a `Machine` or bare `Tracer*` it records a host-track span.
class Scope {
 public:
  Scope(splitc::Proc& self, const char* name, std::uint64_t arg = 0) noexcept
      : Scope(self.tracer(), name, arg) {
    if (tracer_ == nullptr) return;
    proc_ = &self;
    span_.tid = rank_tid(self.rank());
    span_.begin_epoch = self.epoch();
    const splitc::CommStats& s = self.stats();
    base_words_ = s.words;
    base_messages_ = s.messages;
    base_batches_ = s.batches;
    base_barriers_ = s.barriers;
  }

  Scope(splitc::Machine& machine, const char* name,
        std::uint64_t arg = 0) noexcept
      : Scope(machine.tracer(), name, arg) {
    if (tracer_ == nullptr) return;
    machine_ = &machine;
    span_.begin_epoch = machine.running() ? machine.current_epoch() : 0;
  }

  Scope(Tracer* tracer, const char* name, std::uint64_t arg = 0) noexcept {
    if (tracer == nullptr || !tracer->should_record(name)) {
      return;  // skipped spans never read the clock or CommStats
    }
    tracer_ = tracer;
    span_.name = name;
    span_.arg = arg;
    span_.t0_ns = tracer->now_ns();
  }

  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  ~Scope() {
    if (tracer_ == nullptr) return;
    span_.t1_ns = tracer_->now_ns();
    if (proc_ != nullptr) {
      span_.end_epoch = proc_->epoch();
      const splitc::CommStats& s = proc_->stats();
      span_.words = s.words - base_words_;
      span_.messages = s.messages - base_messages_;
      span_.batches = s.batches - base_batches_;
      span_.barriers = s.barriers - base_barriers_;
    } else if (machine_ != nullptr) {
      span_.end_epoch =
          machine_->running() ? machine_->current_epoch() : span_.begin_epoch;
    }
    tracer_->record_span(span_);
  }

  /// True when this scope is actually recording.
  [[nodiscard]] bool active() const noexcept { return tracer_ != nullptr; }

 private:
  Tracer* tracer_ = nullptr;
  const splitc::Proc* proc_ = nullptr;
  const splitc::Machine* machine_ = nullptr;
  std::uint64_t base_words_ = 0;
  std::uint64_t base_messages_ = 0;
  std::uint64_t base_batches_ = 0;
  std::uint64_t base_barriers_ = 0;
  Span span_;
};

namespace detail {

[[nodiscard]] inline Tracer* tracer_of(splitc::Proc& self) noexcept {
  return self.tracer();
}
[[nodiscard]] inline Tracer* tracer_of(splitc::Machine& machine) noexcept {
  return machine.tracer();
}
[[nodiscard]] inline Tracer* tracer_of(Tracer* tracer) noexcept {
  return tracer;
}
[[nodiscard]] inline std::uint32_t tid_of(splitc::Proc& self) noexcept {
  return rank_tid(self.rank());
}
[[nodiscard]] inline std::uint32_t tid_of(splitc::Machine&) noexcept {
  return kHostTid;
}
[[nodiscard]] inline std::uint32_t tid_of(Tracer*) noexcept {
  return kHostTid;
}

template <typename Owner>
inline void counter(Owner&& owner, const char* name, double value) noexcept {
  Tracer* tracer = tracer_of(owner);
  if (tracer == nullptr) return;
  tracer->record_counter(
      CounterSample{name, tid_of(owner), tracer->now_ns(), value});
}

}  // namespace detail
}  // namespace histcc::trace

#define HISTCC_TRACE_CAT2(a, b) a##b
#define HISTCC_TRACE_CAT(a, b) HISTCC_TRACE_CAT2(a, b)

/// Statement form: plants a span covering the rest of the enclosing
/// block.  `owner` is a Proc&, Machine&, or Tracer*; extra arguments are
/// forwarded to Scope (the optional correlation arg).
///   TRACE_SCOPE(self, "hist/tally");
#define TRACE_SCOPE(owner, ...)                                     \
  ::histcc::trace::Scope HISTCC_TRACE_CAT(histcc_trace_scope_,      \
                                          __LINE__)((owner), __VA_ARGS__)

/// Block form: the span covers exactly the attached compound statement.
///   TRACE_SPAN(self, "hist/transpose") { bdm::transpose(...); }
/// Spelled as an if-with-initializer, so an unbraced dangling `else`
/// after it would bind here — always brace the body.
#define TRACE_SPAN(owner, ...)                                   \
  if (::histcc::trace::Scope HISTCC_TRACE_CAT(histcc_trace_span_, \
                                              __LINE__){(owner), __VA_ARGS__}; \
      true)

/// Record one sample of a named counter on the owner's track.
///   TRACE_COUNTER(tracer, "serve/queue_depth", depth);
#define TRACE_COUNTER(owner, name, value) \
  ::histcc::trace::detail::counter((owner), (name), (value))

#endif  // HISTCC_TRACE_TRACE_HPP
