// perfbench: the seeded, correctness-checked end-to-end benchmark of histcc.
//
//   perfbench --workload cc_frame|hist_frame --seed N
//             --seconds S --trace 0|1 [--out DIR] [--source-id ID]
//
// Every run sets up the library (median of several set-ups), then measures
// for about S seconds:
//   direct phase   interleaved rounds of the sequential, OpenMP and
//                  virtual-machine backends on the workload's frame;
//   open loop      the frame, submitted as a job at a fixed arrival rate
//                  into a serve::Pipeline with default options, each job
//                  timed from when it was due until the caller saw its
//                  result;
//   closed loop    nproc submitters of the frame, each waiting for its
//                  job's result.
// Every output is compared exactly with a sequential reference computed
// before timing.  --trace 0 prints the end-to-end metrics; --trace 1 runs
// the traced variant (a traced, decomposed VM call next to an untraced
// one, and a traced open loop) and prints the per-layer metrics.  The
// last stdout line is the result object; the exit code is 1 when any
// output was wrong.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "histcc/cc/parallel_cc.hpp"
#include "histcc/cc_seq/bfs_label.hpp"
#include "histcc/cc_seq/union_find.hpp"
#include "histcc/hist/histogram.hpp"
#include "histcc/image/layout.hpp"
#include "histcc/omp/parallel_host.hpp"
#include "histcc/splitc/spread.hpp"
#include "histcc/trace/export.hpp"
#include "histcc/trace/trace.hpp"
#include "measure.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;
namespace splitc = histcc::splitc;
namespace trace = histcc::trace;

/// A run is cut into slices, each with a fresh set-up and a share of every
/// phase, so a burst of load from other tenants of the host lands on
/// every metric instead of on whichever phase it happened to overlap.
constexpr int kSlices = 7;

/// Points by which the traced parts of a VM call may miss the untraced call
/// beyond the measured tracing overhead: timer reads and the Scope and
/// optional bookkeeping between the parts.
constexpr double kCoverageMarginPct = 3.0;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out = ".bench_out";
  std::string source_id = "unknown";
};

unsigned nproc() { return std::max(1u, std::thread::hardware_concurrency()); }

/// Attempts and failures: wrong outputs, throws and non-kOk jobs.
struct Tally {
  std::atomic<std::uint64_t> attempted{0};
  std::atomic<std::uint64_t> failed{0};
  void add(bool ok) {
    attempted.fetch_add(1, std::memory_order_relaxed);
    if (!ok) failed.fetch_add(1, std::memory_order_relaxed);
  }
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Ordered name -> samples table for per-layer medians.
using Samples = std::map<std::string, std::vector<double>>;

// ---------------------------------------------------------------- set-up

struct Live {
  std::unique_ptr<splitc::Machine> machine;
  std::unique_ptr<serve::Pipeline> pipeline;
};

serve::PipelineOptions pipeline_options(trace::Tracer* tracer) {
  serve::PipelineOptions options;  // defaults, so routing changes show
  options.trace = tracer;
  return options;
}

/// Machine and Pipeline construction plus the first call per backend and
/// the first job; their time is appended to `setup_s`.
Live set_up(const Workload& w, std::uint32_t p, trace::Tracer* serve_tracer,
            Tally& tally, std::vector<double>& setup_s) {
  Live live;
  const auto t0 = Clock::now();
  live.machine = std::make_unique<splitc::Machine>(p);
  for (const Backend b : {Backend::kSeq, Backend::kOmp, Backend::kVm}) {
    bool ok = false;
    (void)timed_call(b, *live.machine, w.frame, ok);
    tally.add(ok);
  }
  live.pipeline =
      std::make_unique<serve::Pipeline>(pipeline_options(serve_tracer));
  tally.add(submit(*live.pipeline, w.frame, w.frame.image)().ok);
  setup_s.push_back(ms_between(t0, Clock::now()) / 1e3);
  return live;
}

// ---------------------------------------------------------- direct phase

struct Direct {
  std::vector<double> seq, omp, vm;
};

/// Rounds for `seconds`, then on until `min_calls` calls per backend.
void direct_phase(const Workload& w, splitc::Machine& machine, double seconds,
                  std::size_t min_calls, Tally& tally, Direct& out) {
  const auto end = Clock::now() + std::chrono::duration<double>(seconds);
  while (Clock::now() < end || out.vm.size() < min_calls) {
    // Fixed order inside a round; rounds interleave, so host drift lands
    // on every backend.
    for (const Backend b : {Backend::kSeq, Backend::kOmp, Backend::kVm}) {
      bool ok = false;
      const double ms = timed_call(b, machine, w.frame, ok);
      tally.add(ok);
      (b == Backend::kSeq ? out.seq : b == Backend::kOmp ? out.omp : out.vm)
          .push_back(ms);
    }
  }
}

// -------------------------------------------------------- pipeline phases

struct OpenLoop {
  std::vector<double> latency_ms, queue_ms, run_ms;
  double lag_max_ms = 0;
  std::size_t parallel = 0;
};

/// `jobs` frame jobs at w.open_rate from one generator thread; nproc - 1
/// waiter threads take the oldest unseen results.  Running jobs are always
/// the oldest unfinished ones (FIFO queue), so two or more waiters see
/// every completion as it happens.
void open_loop(const Workload& w, serve::Pipeline& pipeline, std::size_t jobs,
               Tally& tally, OpenLoop& out) {
  struct Pending {
    std::function<JobSeen()> wait;
    Clock::time_point due{};
  };
  std::mutex mutex;  // guards pending, closed and out
  std::condition_variable ready;
  std::deque<Pending> pending;
  bool closed = false;

  const auto waiter = [&] {
    for (;;) {
      Pending job;
      {
        std::unique_lock lock(mutex);
        ready.wait(lock, [&] { return !pending.empty() || closed; });
        if (pending.empty()) return;
        job = std::move(pending.front());
        pending.pop_front();
      }
      JobSeen seen;
      try {
        seen = job.wait();
      } catch (const std::exception&) {
        seen.seen = Clock::now();
        seen.ok = false;
      }
      tally.add(seen.ok);
      std::scoped_lock lock(mutex);
      out.latency_ms.push_back(ms_between(job.due, seen.seen));
      out.queue_ms.push_back(seen.queue_ms);
      out.run_ms.push_back(seen.run_ms);
      if (seen.procs > 1) ++out.parallel;
    }
  };
  std::vector<std::thread> waiters;
  const auto close_and_join = [&] {
    {
      std::scoped_lock lock(mutex);
      closed = true;
    }
    ready.notify_all();
    for (auto& t : waiters) t.join();
  };
  for (unsigned i = 0; i < std::max(2u, nproc() - 1); ++i) {
    waiters.emplace_back(waiter);
  }

  try {
    const auto period = std::chrono::duration<double>(1.0 / w.open_rate);
    const auto start = Clock::now() + std::chrono::milliseconds(5);
    for (std::size_t i = 0; i < jobs; ++i) {
      img::GreyImage copy = w.frame.image;  // the caller's, made before due
      const auto due =
          start + std::chrono::duration_cast<Clock::duration>(
                      period * static_cast<double>(i));
      std::this_thread::sleep_until(due);
      const double lag = ms_between(due, Clock::now());
      auto wait = submit(pipeline, w.frame, std::move(copy));
      std::scoped_lock lock(mutex);
      out.lag_max_ms = std::max(out.lag_max_ms, lag);
      pending.push_back(Pending{std::move(wait), due});
      ready.notify_one();
    }
  } catch (...) {
    close_and_join();
    throw;
  }
  close_and_join();
}

struct ClosedLoop {
  double jobs = 0;
  double seconds = 0;
  std::vector<double> slice_rates;  ///< jobs/s of each slice's closed loop
};

/// Jobs completed by nproc closed-loop submitters in about `seconds`.
void closed_loop(const Workload& w, serve::Pipeline& pipeline, double seconds,
                 Tally& tally, ClosedLoop& out) {
  std::atomic<std::uint64_t> completed{0};
  const auto start = Clock::now();
  const auto end = start + std::chrono::duration<double>(seconds);
  std::vector<std::thread> submitters;
  for (unsigned t = 0; t < nproc(); ++t) {
    submitters.emplace_back([&] {
      while (Clock::now() < end) {
        bool ok = false;
        try {
          ok = submit(pipeline, w.frame, w.frame.image)().ok;
        } catch (const std::exception&) {
          ok = false;
        }
        tally.add(ok);
        completed.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& t : submitters) t.join();
  const double seconds_taken = ms_between(start, Clock::now()) / 1e3;
  out.jobs += static_cast<double>(completed);
  out.seconds += seconds_taken;
  out.slice_rates.push_back(static_cast<double>(completed) / seconds_taken);
}

// ----------------------------------------------------------- traced run

/// Per span name: spans and summed self time (duration minus the direct
/// children on the same track).
struct SelfTime {
  std::uint64_t spans = 0;
  double self_ms = 0;
};

void add_self_times(const trace::Tracer& tracer,
                    std::map<std::string, SelfTime>& table) {
  auto spans = tracer.spans();
  std::sort(spans.begin(), spans.end(), [](const auto& a, const auto& b) {
    if (a.tid != b.tid) return a.tid < b.tid;
    if (a.t0_ns != b.t0_ns) return a.t0_ns < b.t0_ns;
    return a.t1_ns > b.t1_ns;
  });
  struct Open {
    const trace::Span* span;
    std::int64_t child_ns;
  };
  std::vector<Open> stack;
  const auto close = [&] {
    const Open top = stack.back();
    stack.pop_back();
    SelfTime& row = table[top.span->name];
    ++row.spans;
    row.self_ms +=
        static_cast<double>(top.span->t1_ns - top.span->t0_ns - top.child_ns) /
        1e6;
  };
  for (const auto& span : spans) {
    // A child lies wholly inside its parent.  Concurrently leased machines
    // share rank track ids, so the serve-phase table is approximate.
    while (!stack.empty() && (stack.back().span->tid != span.tid ||
                              stack.back().span->t1_ns < span.t1_ns)) {
      close();
    }
    if (!stack.empty()) stack.back().child_ns += span.t1_ns - span.t0_ns;
    stack.push_back(Open{&span, 0});
  }
  while (!stack.empty()) close();
}

/// The parts of one VM call made through the public API.
struct Split {
  double alloc = 0, scatter = 0, kernel = 0, gather = 0;
  splitc::CommStats bdm{};  ///< the kernel run's max-over-ranks ledger
  bool ok = false;
};

/// `in`'s VM call split into Spread allocation, scatter, the kernel's
/// distributed overload, gather and Spread release, each timed and
/// recorded as a `bench/...` span.
Split split_vm_call(splitc::Machine& machine, trace::Tracer& tracer,
                    const Input& in) {
  Split out;
  const auto part = [&](const char* span, double& ms, auto&& fn) {
    const auto t0 = Clock::now();
    {
      trace::Scope scope(&tracer, span);
      fn();
    }
    ms += ms_between(t0, Clock::now());
  };
  const img::TileLayout layout(in.image.height(), in.image.width(),
                               machine.nprocs());
  const bool components = in.kind == Kind::kComponents;
  trace::Scope call_scope(&tracer, "bench/vm");
  std::optional<splitc::Spread<std::uint8_t>> tiles;
  std::optional<splitc::Spread<std::uint32_t>> labels;
  part("bench/splitc.alloc", out.alloc, [&] {
    tiles.emplace(machine, layout.tile_sizes(), "tiles");
    if (components) labels.emplace(machine, layout.tile_sizes(), "labels");
  });
  part("bench/image.scatter", out.scatter,
       [&] { layout.scatter(in.image, *tiles); });
  if (components) {
    part("bench/cc.kernel", out.kernel, [&] {
      histcc::cc::connected_components_parallel(machine, layout, *tiles,
                                                *labels, in.cc);
    });
    out.bdm = machine.max_stats();
    img::LabelImage result;
    part("bench/image.gather", out.gather,
         [&] { result = layout.gather(*labels); });
    out.ok = matches(in, result);
  } else {
    std::vector<std::uint32_t> result;
    part("bench/hist.kernel", out.kernel, [&] {
      result = histcc::hist::histogram_parallel(machine, layout, *tiles, in.k);
    });
    out.bdm = machine.max_stats();
    out.ok = matches(in, result);
  }
  part("bench/splitc.free", out.alloc, [&] {
    labels.reset();
    tiles.reset();
  });
  return out;
}

/// The local labelers on rank 0's tile of a components input: BFS
/// `label_tile` and whole-image union-find, which must agree.
void time_tile_labelers(const Input& in, std::uint32_t p,
                        trace::Tracer& tracer, Samples& layers, Tally& tally) {
  const img::TileLayout layout(in.image.height(), in.image.width(), p);
  const std::uint32_t rows = layout.tile_rows(0);
  const std::uint32_t cols = layout.tile_cols(0);
  img::GreyImage tile(rows, cols);
  for (std::uint32_t i = 0; i < rows; ++i) {
    for (std::uint32_t j = 0; j < cols; ++j) tile(i, j) = in.image(i, j);
  }
  histcc::ccseq::BfsScratch scratch;
  img::LabelImage bfs(rows, cols);
  img::LabelImage uf;
  auto t0 = Clock::now();
  {
    trace::Scope scope(&tracer, "bench/cc_seq.tile_bfs");
    histcc::ccseq::label_tile(
        tile.pixels(), bfs.pixels(), rows, cols, in.cc.connectivity,
        in.cc.rule,
        [cols](std::uint32_t i, std::uint32_t j) { return i * cols + j + 1; },
        scratch);
  }
  layers["cc_seq.tile_bfs_ms"].push_back(ms_between(t0, Clock::now()));
  t0 = Clock::now();
  {
    trace::Scope scope(&tracer, "bench/cc_seq.tile_uf");
    uf = histcc::ccseq::label_components_unionfind(tile, in.cc.connectivity,
                                                   in.cc.rule);
  }
  layers["cc_seq.tile_uf_ms"].push_back(ms_between(t0, Clock::now()));
  tally.add(bfs == uf);
}

/// One traced round: the workload's untraced convenience VM call; the same
/// call split into its public parts with the tracer attached; the other
/// kernel's split call on the companion input; the cc_seq tile labelers;
/// and the splitc dispatch probes.
void traced_round(const Workload& w, splitc::Machine& machine,
                  trace::Tracer& tracer, Samples& layers,
                  std::map<std::string, SelfTime>& self, Tally& tally) {
  bool ok = false;
  layers["vm_untraced"].push_back(
      timed_call(Backend::kVm, machine, w.frame, ok));
  tally.add(ok);

  tracer.clear();
  machine.set_trace(&tracer);
  const auto t0 = Clock::now();
  const Split main = split_vm_call(machine, tracer, w.frame);
  layers["vm_traced"].push_back(ms_between(t0, Clock::now()));
  const Split other = split_vm_call(machine, tracer, w.companion);
  machine.set_trace(nullptr);
  tally.add(main.ok);
  tally.add(other.ok);

  layers["vm_kernel_ms"].push_back(main.kernel);
  layers["vm_gather_ms"].push_back(main.gather);
  layers["vm_parts_ms"].push_back(main.alloc + main.scatter + main.kernel +
                                  main.gather);
  layers["image.scatter_ms"].push_back(main.scatter);
  layers["splitc.alloc_ms"].push_back(main.alloc);
  const bool main_is_cc = w.frame.kind == Kind::kComponents;
  const Split& cc = main_is_cc ? main : other;
  const Split& hist = main_is_cc ? other : main;
  layers["image.gather_ms"].push_back(cc.gather);
  layers["cc.kernel_ms"].push_back(cc.kernel);
  layers["hist.kernel_ms"].push_back(hist.kernel);
  layers["bdm.words_max"].push_back(static_cast<double>(main.bdm.words));
  layers["bdm.messages_max"].push_back(static_cast<double>(main.bdm.messages));
  layers["bdm.batches_max"].push_back(static_cast<double>(main.bdm.batches));
  layers["bdm.barriers_max"].push_back(static_cast<double>(main.bdm.barriers));

  // Kernel phases: the slowest rank's summed span time per phase.
  for (const auto& row : trace::phase_breakdown(tracer, splitc::host())) {
    if (row.name.starts_with("hist/") || row.name.starts_with("cc/")) {
      std::string metric = row.name;
      metric[metric.find('/')] = '.';
      layers[metric + "_ms"].push_back(row.wall_s * row.effective_rate * 1e3);
    }
  }
  time_tile_labelers(main_is_cc ? w.frame : w.companion, machine.nprocs(),
                     tracer, layers, tally);
  add_self_times(tracer, self);

  // Dispatch: an empty SPMD program, and a program of 100 barriers.
  for (int i = 0; i < 5; ++i) {
    const auto e0 = Clock::now();
    machine.run([](splitc::Proc&) {});
    layers["splitc.run_empty_us"].push_back(ms_between(e0, Clock::now()) *
                                            1e3);
  }
  const auto b0 = Clock::now();
  machine.run([](splitc::Proc& proc) {
    for (int i = 0; i < 100; ++i) proc.barrier();
  });
  layers["splitc.barrier_us"].push_back(ms_between(b0, Clock::now()) * 1e3 /
                                        100);
}

// ------------------------------------------------------------- reporting

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string env_or(const char* name, const char* fallback) {
  const char* value = std::getenv(name);
  return value != nullptr ? value : fallback;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string provenance_json(const Args& args, std::uint32_t p) {
  const serve::PipelineOptions options;
  std::ostringstream o;
  o << "{\"workload\": " << json_string(args.workload)
    << ", \"seed\": " << args.seed << ", \"seconds\": "
    << json_number(args.seconds) << ", \"trace\": " << (args.trace ? 1 : 0)
    << ", \"source\": " << json_string(args.source_id)
    << ", \"nproc\": " << nproc() << ", \"vm_procs\": " << p
    << ", \"l2_bytes\": " << sysconf(_SC_LEVEL2_CACHE_SIZE)
    << ", \"l3_bytes\": " << sysconf(_SC_LEVEL3_CACHE_SIZE)
    << ", \"compiler\": " << json_string("g++ " __VERSION__)
    << ", \"build_type\": " << json_string(PERFBENCH_BUILD_TYPE)
    << ", \"OMP_WAIT_POLICY\": " << json_string(env_or("OMP_WAIT_POLICY", ""))
    << ", \"OMP_NUM_THREADS\": " << json_string(env_or("OMP_NUM_THREADS", ""))
    << ", \"HISTCC_TRACE\": " << json_string(env_or("HISTCC_TRACE", ""))
    << ", \"omp_backend_threads\": " << histcc::omp::backend_threads()
    << ", \"pipeline\": {\"pool_size\": " << options.pool_size
    << ", \"max_procs\": " << options.max_procs
    << ", \"queue_capacity\": " << options.queue_capacity
    << ", \"grain_pixels\": " << options.grain_pixels
    << ", \"sequential_pixels\": " << options.sequential_pixels
    << ", \"machines_per_slot\": " << options.machines_per_slot
    << ", \"spread_layout\": "
    << json_string(options.spread_layout == splitc::SpreadLayout::kPacked
                       ? "packed"
                       : "strided")
    << ", \"trace_sample_every\": " << options.trace_sample_every << "}}";
  return o.str();
}

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::stoull(value);
    } else if (key == "--seconds") {
      args.seconds = std::stod(value);
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else if (key == "--out") {
      args.out = value;
    } else if (key == "--source-id") {
      args.source_id = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && is_workload(args.workload) && args.seconds > 0;
}

using Metrics = std::vector<Metric>;

void add(Metrics& metrics, std::string name, double value, std::string unit) {
  metrics.push_back(Metric{std::move(name), value, std::move(unit)});
}

/// Open-loop jobs per slice: `seconds` of the run at the workload's rate,
/// never fewer in total than a p90 needs.
std::size_t open_jobs_per_slice(const Workload& w, double seconds) {
  const auto total = std::max<std::size_t>(
      kMinJobs, static_cast<std::size_t>(w.open_rate * seconds));
  return (total + kSlices - 1) / kSlices;
}

void measure_untraced(const Workload& w, std::uint32_t p, double s,
                      Tally& tally, Metrics& metrics) {
  std::vector<double> setup_s;
  Direct direct;
  OpenLoop open;
  ClosedLoop closed;
  const std::size_t jobs = open_jobs_per_slice(w, w.open_share * s);
  for (int slice = 0; slice < kSlices; ++slice) {
    Live live = set_up(w, p, nullptr, tally, setup_s);
    direct_phase(w, *live.machine, w.direct_share * s / kSlices,
                 slice + 1 == kSlices ? kMinCalls : 0, tally, direct);
    open_loop(w, *live.pipeline, jobs, tally, open);
    closed_loop(w, *live.pipeline, w.closed_share * s / kSlices, tally,
                closed);
  }

  add(metrics, "setup_s", median(setup_s), "s");
  add(metrics, "peak_rss_mb", peak_rss_mb(), "MB");
  add(metrics, "vm_ms_p10", tail_percentile(direct.vm, 10), "ms");
  add(metrics, "omp_ms_p10", tail_percentile(direct.omp, 10), "ms");
  add(metrics, "seq_ms_p10", tail_percentile(direct.seq, 10), "ms");
  add(metrics, "jobs_per_s", closed.jobs / closed.seconds, "1/s");
  add(metrics, "job_ms_p10", tail_percentile(open.latency_ms, 10), "ms");
  // Medians and p90s are printed, not reported: on a shared host a
  // neighbour slows every core by up to 1.9x for seconds at a time, and
  // which state the middle of a run falls in moved the medians of ten runs
  // of the same code by 18-55% (quartile distance over the median).  The
  // fastest tenth of the calls comes from the host's quiet spells.
  for (const auto& [name, ms] : {std::pair{"seq", &direct.seq},
                                 std::pair{"omp", &direct.omp},
                                 std::pair{"vm", &direct.vm},
                                 std::pair{"job", &open.latency_ms}}) {
    std::printf("%s ms p10/25/50/75/90: %.3f %.3f %.3f %.3f %.3f\n", name,
                tail_percentile(*ms, 10), tail_percentile(*ms, 25),
                tail_percentile(*ms, 50), tail_percentile(*ms, 75),
                tail_percentile(*ms, 90));
  }
  std::printf("closed-loop jobs/s per slice:");
  for (const double r : closed.slice_rates) std::printf(" %.2f", r);
  std::printf(" (max %.2f)\n", *std::max_element(closed.slice_rates.begin(),
                                                 closed.slice_rates.end()));
  std::printf("samples: %zu calls per backend, %zu open-loop jobs at %.0f "
              "jobs/s (generator late by at most %.3f ms), %.0f closed-loop "
              "jobs\n",
              direct.vm.size(), open.latency_ms.size(), w.open_rate,
              open.lag_max_ms, closed.jobs);
  std::printf("  open-loop latency ms: queue p50 %.3f  run p50 %.3f  max %.3f"
              "\n",
              tail_percentile(open.queue_ms, 50),
              tail_percentile(open.run_ms, 50),
              *std::max_element(open.latency_ms.begin(),
                                open.latency_ms.end()));
}

std::string self_time_table(const std::map<std::string, SelfTime>& self,
                            std::size_t calls, const char* call) {
  std::vector<std::pair<std::string, SelfTime>> rows(self.begin(),
                                                     self.end());
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    return a.second.self_ms > b.second.self_ms;
  });
  std::ostringstream table;
  char line[160];
  std::snprintf(line, sizeof line, "%-26s %9s %13s %12s\n", "span", "spans",
                "self_ms", (std::string("ms_per_") + call).c_str());
  table << line;
  for (const auto& [name, row] : rows) {
    std::snprintf(line, sizeof line, "%-26s %9llu %13.3f %12.4f\n",
                  name.c_str(), static_cast<unsigned long long>(row.spans),
                  row.self_ms, row.self_ms / static_cast<double>(calls));
    table << line;
  }
  return table.str();
}

/// Chrome trace of the spans that start in the last `window_ms` of the
/// recording, so trace files stay small at any job rate.
bool write_trace_tail(const trace::Tracer& tracer, const std::string& path,
                      double window_ms) {
  const auto spans = tracer.spans();
  std::int64_t last = 0;
  for (const auto& span : spans) last = std::max(last, span.t1_ns);
  const auto from = last - static_cast<std::int64_t>(window_ms * 1e6);
  trace::Tracer tail;
  for (const auto& span : spans) {
    if (span.t0_ns >= from) tail.record_span(span);
  }
  return trace::write_chrome_json(tail, path);
}

bool measure_traced(const Workload& w, std::uint32_t p, double s,
                    const std::string& stem, Tally& tally, Metrics& metrics) {
  trace::Tracer direct_tracer;
  trace::Tracer serve_tracer;
  Samples layers;
  std::map<std::string, SelfTime> direct_self;
  std::map<std::string, SelfTime> serve_self;
  std::vector<double> setup_s;
  std::vector<double> lease_ms;
  std::vector<double> machines_built;
  double degraded = 0;
  double rejected = 0;
  OpenLoop open;
  // No closed loop when traced: its share goes to the other two phases.
  const double traced_direct =
      w.direct_share / (w.direct_share + w.open_share);
  const std::size_t jobs =
      open_jobs_per_slice(w, (1.0 - traced_direct) * s);
  for (int slice = 0; slice < kSlices; ++slice) {
    Live live = set_up(w, p, &serve_tracer, tally, setup_s);
    serve_tracer.clear();  // the pipeline is idle: set-up jobs resolved
    const auto end =
        Clock::now() +
        std::chrono::duration<double>(traced_direct * s / kSlices);
    while (Clock::now() < end ||
           (slice + 1 == kSlices &&
            layers["vm_traced"].size() < kMinTracedRounds)) {
      traced_round(w, *live.machine, direct_tracer, layers, direct_self,
                   tally);
    }
    open_loop(w, *live.pipeline, jobs, tally, open);
    const serve::PoolMetrics pool = live.pipeline->metrics();
    machines_built.push_back(static_cast<double>(pool.machines_built));
    degraded += static_cast<double>(pool.degraded);
    rejected += static_cast<double>(pool.rejected);
    live.pipeline->shutdown();
    for (const auto& span : serve_tracer.spans()) {
      if (std::string_view(span.name) == "serve/lease") {
        lease_ms.push_back(static_cast<double>(span.t1_ns - span.t0_ns) / 1e6);
      }
    }
    add_self_times(serve_tracer, serve_self);
  }
  if (!trace::write_chrome_json(direct_tracer, stem + ".direct.trace.json") ||
      !write_trace_tail(serve_tracer, stem + ".serve.trace.json", 100)) {
    std::fprintf(stderr, "cannot write trace files %s.*\n", stem.c_str());
    return false;
  }

  // Throws when a layer recorded nothing, e.g. after a span was renamed.
  const auto med = [&](const char* name) {
    return median(layers[name], std::string("layer ") + name);
  };
  const auto gbps = [](const Input& in, std::size_t pixel_bytes, double ms) {
    return static_cast<double>(in.image.size() * pixel_bytes) / (ms * 1e6);
  };
  // The gathered labeling is the CC call's: the frame's or the companion's.
  const Input& labelled =
      w.frame.kind == Kind::kComponents ? w.frame : w.companion;
  add(metrics, "image.scatter_ms", med("image.scatter_ms"), "ms");
  add(metrics, "image.scatter_gbps",
      gbps(w.frame, sizeof(std::uint8_t), med("image.scatter_ms")), "GB/s");
  add(metrics, "image.gather_ms", med("image.gather_ms"), "ms");
  add(metrics, "image.gather_gbps",
      gbps(labelled, sizeof(std::uint32_t), med("image.gather_ms")), "GB/s");
  add(metrics, "splitc.alloc_ms", med("splitc.alloc_ms"), "ms");
  add(metrics, "splitc.run_empty_us", med("splitc.run_empty_us"), "us");
  add(metrics, "splitc.barrier_us", med("splitc.barrier_us"), "us");
  for (const char* name :
       {"hist.kernel_ms", "hist.tally_ms", "hist.transpose_ms",
        "hist.combine_ms", "hist.gather_ms", "cc.kernel_ms", "cc.init_ms",
        "cc.border_ms", "cc.graph_ms", "cc.update_ms", "cc.final_ms",
        "cc_seq.tile_bfs_ms", "cc_seq.tile_uf_ms"}) {
    add(metrics, name, med(name), "ms");
  }
  for (const char* name : {"bdm.words_max", "bdm.messages_max",
                           "bdm.batches_max", "bdm.barriers_max"}) {
    add(metrics, name, med(name), "count");
  }
  add(metrics, "serve.queue_ms_p50", tail_percentile(open.queue_ms, 50), "ms");
  add(metrics, "serve.run_ms_p50", tail_percentile(open.run_ms, 50), "ms");
  add(metrics, "serve.lease_ms", median(lease_ms, "serve/lease spans"), "ms");
  add(metrics, "serve.machines_built", median(machines_built), "count");
  add(metrics, "serve.parallel_frac",
      static_cast<double>(open.parallel) /
          static_cast<double>(open.latency_ms.size()),
      "fraction");
  add(metrics, "serve.degraded", degraded, "count");
  add(metrics, "serve.rejected", rejected, "count");
  add(metrics, "loadgen.lag_ms_max", open.lag_max_ms, "ms");

  // Coverage: the VM call's public parts (median of their per-round sum)
  // against the untraced call.  They must account for it within the
  // tracing overhead plus kCoverageMarginPct.
  const std::vector<std::pair<const char*, double>> parts = {
      {"splitc.alloc_ms", med("splitc.alloc_ms")},
      {"image.scatter_ms", med("image.scatter_ms")},
      {w.frame.kind == Kind::kComponents ? "cc.kernel_ms" : "hist.kernel_ms",
       med("vm_kernel_ms")},
      {"image.gather_ms", med("vm_gather_ms")}};
  const auto largest = *std::max_element(
      parts.begin(), parts.end(),
      [](const auto& a, const auto& b) { return a.second < b.second; });
  const double untraced = med("vm_untraced");
  const double overhead = (med("vm_traced") / untraced - 1.0) * 100.0;
  const double coverage = med("vm_parts_ms") / untraced * 100.0;
  const double gap = std::abs(coverage - 100.0);
  add(metrics, "trace.overhead_pct", overhead, "%");
  add(metrics, "trace.vm_coverage_gap_pct", gap, "%");

  const std::string tables =
      "direct phase, " + std::to_string(layers["vm_traced"].size()) +
      " traced rounds:\n" +
      self_time_table(direct_self, layers["vm_traced"].size(), "round") +
      "open loop, " + std::to_string(open.latency_ms.size()) + " jobs:\n" +
      self_time_table(serve_self, open.latency_ms.size(), "job");
  std::ofstream(stem + ".layers.txt") << tables;
  std::printf("per-layer self time (also in %s.layers.txt; Chrome traces "
              "in %s.{direct,serve}.trace.json)\n%s",
              stem.c_str(), stem.c_str(), tables.c_str());
  std::printf("VM call %.3f ms untraced; alloc %.3f + scatter %.3f + kernel "
              "%.3f + gather %.3f (medians); their per-round sum is %.1f%% "
              "of it (tracing overhead %+.1f%%); largest layer %s\n",
              untraced, parts[0].second, parts[1].second, parts[2].second,
              parts[3].second, coverage, overhead, largest.first);
  if (gap > std::abs(overhead) + kCoverageMarginPct) {
    std::fprintf(stderr,
                 "the VM call's parts cover %.1f%% of it, beyond the tracing "
                 "overhead %+.1f%% and a margin of %.0f points\n",
                 coverage, overhead, kCoverageMarginPct);
    return false;
  }
  return true;
}

int run(const Args& args) {
  const std::uint32_t p = std::bit_floor(nproc());
  const Workload w = make_workload(args.workload, args.seed);
  const std::string stem = args.out + "/" + args.workload + "-seed" +
                           std::to_string(args.seed) +
                           (args.trace ? "-trace" : "");
  std::filesystem::create_directories(args.out);
  const std::string provenance = provenance_json(args, p);
  std::printf("provenance %s\n", provenance.c_str());

  Tally tally;
  Metrics metrics;
  if (!args.trace) {
    measure_untraced(w, p, args.seconds, tally, metrics);
  } else if (!measure_traced(w, p, args.seconds, stem, tally, metrics)) {
    return 2;
  }

  const std::uint64_t attempted = tally.attempted;
  const std::uint64_t failed = tally.failed;
  std::printf("%-24s %16s  %s\n", "metric", "value", "unit");
  for (const Metric& m : metrics) {
    std::printf("%-24s %16.6g  %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("error_rate %.6g (%llu failed of %llu attempted)\n",
              attempted > 0 ? static_cast<double>(failed) /
                                  static_cast<double>(attempted)
                            : 0.0,
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));

  std::ostringstream result;
  result << "{\"correct\": " << (failed == 0 ? "true" : "false")
         << ", \"attempted\": " << attempted << ", \"failed\": " << failed
         << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    result << (i > 0 ? ", " : "") << json_string(metrics[i].name)
           << ": {\"value\": " << json_number(metrics[i].value)
           << ", \"unit\": " << json_string(metrics[i].unit) << "}";
  }
  result << "}}";
  std::ofstream(stem + ".json")
      << "{\"provenance\": " << provenance << ", \"result\": " << result.str()
      << "}\n";
  std::printf("%s\n", result.str().c_str());
  std::fflush(stdout);
  return failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: %s --workload cc_frame|hist_frame --seed N "
                 "--seconds S --trace 0|1 [--out DIR] [--source-id ID]\n",
                 argv[0]);
    return 2;
  }
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
