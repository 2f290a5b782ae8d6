// Tests for histcc::trace — the barrier-epoch span recorder, the comm
// accounting piggybacked on CommStats, the Chrome/Perfetto and phase-
// report exporters, and the serve-pipeline integration.  The Chrome JSON
// exporter output is schema-checked with a small recursive-descent JSON
// parser so a malformed escape or a missing comma fails here rather than
// in ui.perfetto.dev.
//
// Also hosts the PoolMetrics log-bucket latency-histogram edge cases
// (empty, single sample, exact bucket boundaries, percentile
// monotonicity) — the serve/trace counter bridge samples the same gauges.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <numeric>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "histcc/cc/label_prop.hpp"
#include "histcc/cc/parallel_cc.hpp"
#include "histcc/hist/histogram.hpp"
#include "histcc/image/generators.hpp"
#include "histcc/image/image.hpp"
#include "histcc/image/layout.hpp"
#include "histcc/morph/morphology.hpp"
#include "histcc/serve/metrics.hpp"
#include "histcc/serve/pipeline.hpp"
#include "histcc/splitc/machine.hpp"
#include "histcc/splitc/profile.hpp"
#include "histcc/trace/export.hpp"
#include "histcc/trace/trace.hpp"

namespace im = histcc::img;
namespace sv = histcc::serve;
namespace tr = histcc::trace;
namespace hist = histcc::hist;
namespace cc = histcc::cc;
namespace splitc = histcc::splitc;

namespace {

// ---------------------------------------------------------------------------
// Minimal JSON reader, just enough to schema-check the Chrome exporter:
// parses the full value grammar (objects, arrays, strings with escapes,
// numbers, true/false/null) and surfaces objects/arrays for inspection.

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;

  [[nodiscard]] const JsonValue* find(const std::string& key) const {
    const auto it = object.find(key);
    return it == object.end() ? nullptr : &it->second;
  }
};

class JsonParser {
 public:
  explicit JsonParser(std::string text) : text_(std::move(text)) {}

  /// Parses the whole input as one value; sets ok=false on any error.
  [[nodiscard]] JsonValue parse(bool& ok) {
    ok_ = true;
    JsonValue v = value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing bytes");
    ok = ok_;
    return v;
  }

 private:
  void fail(const char* what) {
    if (ok_) error_ = what;
    ok_ = false;
  }
  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\n' || text_[pos_] == '\t' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }
  [[nodiscard]] bool eat(char c) {
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  JsonValue value() {
    skip_ws();
    if (!ok_ || pos_ >= text_.size()) {
      fail("eof");
      return {};
    }
    const char c = text_[pos_];
    if (c == '{') return object();
    if (c == '[') return array();
    if (c == '"') return string_value();
    if (c == 't' || c == 'f') return boolean();
    if (c == 'n') return null();
    return number();
  }

  JsonValue object() {
    JsonValue v;
    v.kind = JsonValue::Kind::kObject;
    if (!eat('{')) fail("expected {");
    if (eat('}')) return v;
    while (ok_) {
      JsonValue key = string_value();
      if (!eat(':')) fail("expected :");
      v.object.emplace(key.string, value());
      if (eat('}')) break;
      if (!eat(',')) {
        fail("expected , or }");
        break;
      }
    }
    return v;
  }

  JsonValue array() {
    JsonValue v;
    v.kind = JsonValue::Kind::kArray;
    if (!eat('[')) fail("expected [");
    if (eat(']')) return v;
    while (ok_) {
      v.array.push_back(value());
      if (eat(']')) break;
      if (!eat(',')) {
        fail("expected , or ]");
        break;
      }
    }
    return v;
  }

  JsonValue string_value() {
    JsonValue v;
    v.kind = JsonValue::Kind::kString;
    if (!eat('"')) {
      fail("expected string");
      return v;
    }
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c == '\\') {
        if (pos_ >= text_.size()) {
          fail("bad escape");
          return v;
        }
        const char e = text_[pos_++];
        switch (e) {
          case '"': c = '"'; break;
          case '\\': c = '\\'; break;
          case '/': c = '/'; break;
          case 'n': c = '\n'; break;
          case 't': c = '\t'; break;
          case 'r': c = '\r'; break;
          case 'b': c = '\b'; break;
          case 'f': c = '\f'; break;
          case 'u':
            if (pos_ + 4 > text_.size()) {
              fail("bad \\u escape");
              return v;
            }
            pos_ += 4;  // schema check only; don't decode the code point
            c = '?';
            break;
          default:
            fail("unknown escape");
            return v;
        }
      }
      v.string.push_back(c);
    }
    if (!eat('"')) fail("unterminated string");
    return v;
  }

  JsonValue boolean() {
    JsonValue v;
    v.kind = JsonValue::Kind::kBool;
    if (text_.compare(pos_, 4, "true") == 0) {
      v.boolean = true;
      pos_ += 4;
    } else if (text_.compare(pos_, 5, "false") == 0) {
      pos_ += 5;
    } else {
      fail("bad literal");
    }
    return v;
  }

  JsonValue null() {
    JsonValue v;
    if (text_.compare(pos_, 4, "null") == 0) {
      pos_ += 4;
    } else {
      fail("bad literal");
    }
    return v;
  }

  JsonValue number() {
    JsonValue v;
    v.kind = JsonValue::Kind::kNumber;
    const char* begin = text_.c_str() + pos_;
    char* end = nullptr;
    v.number = std::strtod(begin, &end);
    if (end == begin) {
      fail("bad number");
      return v;
    }
    pos_ += static_cast<std::size_t>(end - begin);
    return v;
  }

  std::string text_;
  std::size_t pos_ = 0;
  bool ok_ = true;
  const char* error_ = "";
};

[[nodiscard]] std::vector<tr::Span> spans_named(const tr::Tracer& tracer,
                                                const std::string& name) {
  std::vector<tr::Span> out;
  for (const tr::Span& s : tracer.spans()) {
    if (name == s.name) out.push_back(s);
  }
  return out;
}

}  // namespace

// ---------------------------------------------------------------------------
// Tracer core

TEST(TracerTest, HostScopeRecordsOneSpan) {
  tr::Tracer tracer;
  {
    TRACE_SCOPE(&tracer, "test/host", 42u);
  }
  const auto spans = tracer.spans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_STREQ(spans[0].name, "test/host");
  EXPECT_EQ(spans[0].tid, tr::kHostTid);
  EXPECT_EQ(spans[0].arg, 42u);
  EXPECT_GE(spans[0].t1_ns, spans[0].t0_ns);
  EXPECT_EQ(spans[0].begin_epoch, 0u);  // no SPMD program running
  EXPECT_EQ(spans[0].end_epoch, 0u);
}

TEST(TracerTest, NullTracerScopeIsInactive) {
  tr::Scope scope(static_cast<tr::Tracer*>(nullptr), "test/null");
  EXPECT_FALSE(scope.active());
  // The counter macro on a null owner must be a no-op, not a crash.
  TRACE_COUNTER(static_cast<tr::Tracer*>(nullptr), "test/gauge", 3.0);
}

TEST(TracerTest, CountersRecordTimeOrderedSamples) {
  tr::Tracer tracer;
  TRACE_COUNTER(&tracer, "test/depth", 1.0);
  TRACE_COUNTER(&tracer, "test/depth", 5.0);
  const auto counters = tracer.counters();
  ASSERT_EQ(counters.size(), 2u);
  EXPECT_STREQ(counters[0].name, "test/depth");
  EXPECT_DOUBLE_EQ(counters[0].value, 1.0);
  EXPECT_DOUBLE_EQ(counters[1].value, 5.0);
  EXPECT_LE(counters[0].t_ns, counters[1].t_ns);
}

TEST(TracerTest, ClearDropsRecordedData) {
  tr::Tracer tracer;
  {
    TRACE_SCOPE(&tracer, "test/span");
  }
  TRACE_COUNTER(&tracer, "test/gauge", 1.0);
  tracer.clear();
  EXPECT_TRUE(tracer.spans().empty());
  EXPECT_TRUE(tracer.counters().empty());
}

TEST(TracerTest, MachineWithoutTracerRunsUninstrumented) {
  // The default state: no tracer attached, kernels still run.
  splitc::Machine machine(4);
  const auto image = im::make_darpa_like(64);
  const auto h = hist::histogram_parallel(machine, image, 256);
  EXPECT_EQ(std::accumulate(h.begin(), h.end(), 0u), 64u * 64u);
}

// ---------------------------------------------------------------------------
// Barrier-epoch alignment

TEST(TraceEpochTest, SpansAlignToBarrierEpochs) {
  tr::Tracer tracer;
  splitc::Machine machine(4);
  machine.set_trace(&tracer);
  machine.run([](splitc::Proc& self) {
    {
      TRACE_SCOPE(self, "test/epoch1");  // no barrier inside
    }
    {
      TRACE_SCOPE(self, "test/across");
      self.barrier();
    }
    {
      TRACE_SCOPE(self, "test/epoch2");
    }
  });
  machine.set_trace(nullptr);

  const auto flat = spans_named(tracer, "test/epoch1");
  ASSERT_EQ(flat.size(), 4u);
  for (const tr::Span& s : flat) {
    EXPECT_EQ(s.begin_epoch, 1u);  // epoch starts at 1 inside run()
    EXPECT_EQ(s.end_epoch, 1u);
    EXPECT_EQ(s.barriers, 0u);
  }

  const auto across = spans_named(tracer, "test/across");
  ASSERT_EQ(across.size(), 4u);
  std::set<std::uint32_t> tids;
  for (const tr::Span& s : across) {
    EXPECT_EQ(s.begin_epoch, 1u);
    EXPECT_EQ(s.end_epoch, 2u);  // the span closed after one barrier
    EXPECT_EQ(s.barriers, 1u);
    tids.insert(s.tid);
  }
  // One span per rank, each on its own track.
  EXPECT_EQ(tids, (std::set<std::uint32_t>{tr::rank_tid(0), tr::rank_tid(1),
                                           tr::rank_tid(2), tr::rank_tid(3)}));

  for (const tr::Span& s : spans_named(tracer, "test/epoch2")) {
    EXPECT_EQ(s.begin_epoch, 2u);
    EXPECT_EQ(s.end_epoch, 2u);
  }
}

// ---------------------------------------------------------------------------
// Kernel instrumentation: histogram on the DARPA-like image

namespace {

/// Runs the parallel histogram on a DARPA-like image with tracing on and
/// returns the tracer (p = 4, the acceptance configuration).
void trace_darpa_histogram(tr::Tracer& tracer, std::uint32_t k = 256) {
  splitc::Machine machine(4);
  machine.set_trace(&tracer);
  const auto image = im::make_darpa_like(128);
  const auto h = hist::histogram_parallel(machine, image, k);
  machine.set_trace(nullptr);
  ASSERT_EQ(std::accumulate(h.begin(), h.end(), 0u), 128u * 128u);
}

}  // namespace

TEST(HistTraceTest, DarpaRunEmitsEveryStepSpanOnEveryRank) {
  tr::Tracer tracer;
  trace_darpa_histogram(tracer);
  for (const char* step : hist::kHistStepSpans) {
    const auto spans = spans_named(tracer, step);
    std::set<std::uint32_t> tids;
    for (const tr::Span& s : spans) tids.insert(s.tid);
    EXPECT_EQ(tids.size(), 4u) << "step " << step
                               << " missing from some rank's track";
  }
  // The transpose is the k*p remote scatter: it must have moved words.
  std::uint64_t transpose_words = 0;
  for (const tr::Span& s : spans_named(tracer, "hist/transpose")) {
    transpose_words += s.words;
  }
  EXPECT_GT(transpose_words, 0u);
}

TEST(HistTraceTest, PhaseBreakdownListsSameStepsAsFig11Bench) {
  // Acceptance: the live per-phase breakdown lists the same steps as
  // bench_fig11_hist_breakdown — both iterate hist::kHistStepSpans.
  tr::Tracer tracer;
  trace_darpa_histogram(tracer);
  const auto rows = tr::phase_breakdown(tracer, splitc::cm5());
  std::vector<std::string> names;
  names.reserve(rows.size());
  for (const tr::PhaseRow& row : rows) names.push_back(row.name);
  std::size_t last = 0;
  for (const char* step : hist::kHistStepSpans) {
    const auto it = std::find(names.begin(), names.end(), std::string(step));
    ASSERT_NE(it, names.end()) << "breakdown missing " << step;
    // Rows appear in execution order, so the four steps stay ordered.
    const auto pos = static_cast<std::size_t>(it - names.begin());
    EXPECT_GE(pos, last);
    last = pos;
  }
  // Modeled comm time must be charged where words moved.
  for (const tr::PhaseRow& row : rows) {
    if (row.name == "hist/transpose") {
      EXPECT_GT(row.words, 0u);
      EXPECT_GT(row.modeled_comm_s, 0.0);
    }
  }
}

TEST(HistTraceTest, PhaseReportMentionsEveryStep) {
  tr::Tracer tracer;
  trace_darpa_histogram(tracer);
  std::ostringstream out;
  tr::write_phase_report(tracer, splitc::cm5(), out);
  const std::string report = out.str();
  for (const char* step : hist::kHistStepSpans) {
    EXPECT_NE(report.find(step), std::string::npos)
        << "phase report missing " << step;
  }
}

// ---------------------------------------------------------------------------
// Chrome/Perfetto exporter schema

TEST(ChromeJsonTest, ExportIsValidJsonWithCompleteEvents) {
  tr::Tracer tracer;
  trace_darpa_histogram(tracer);
  TRACE_COUNTER(&tracer, "test/gauge", 7.0);

  std::ostringstream out;
  tr::write_chrome_json(tracer, out);

  bool ok = false;
  JsonParser parser(out.str());
  const JsonValue root = parser.parse(ok);
  ASSERT_TRUE(ok) << "exporter emitted malformed JSON";
  ASSERT_EQ(root.kind, JsonValue::Kind::kObject);

  const JsonValue* events = root.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->kind, JsonValue::Kind::kArray);
  ASSERT_FALSE(events->array.empty());

  std::size_t complete = 0, metadata = 0, counter = 0;
  std::set<std::string> named_tracks;
  std::set<std::string> span_names;
  for (const JsonValue& e : events->array) {
    ASSERT_EQ(e.kind, JsonValue::Kind::kObject);
    const JsonValue* ph = e.find("ph");
    ASSERT_NE(ph, nullptr);
    ASSERT_EQ(ph->kind, JsonValue::Kind::kString);
    // Every event carries pid/tid per the trace-event format.
    ASSERT_NE(e.find("pid"), nullptr);
    ASSERT_NE(e.find("tid"), nullptr);
    if (ph->string == "X") {
      ++complete;
      ASSERT_NE(e.find("name"), nullptr);
      const JsonValue* ts = e.find("ts");
      const JsonValue* dur = e.find("dur");
      ASSERT_NE(ts, nullptr);
      ASSERT_NE(dur, nullptr);
      EXPECT_EQ(ts->kind, JsonValue::Kind::kNumber);
      EXPECT_EQ(dur->kind, JsonValue::Kind::kNumber);
      EXPECT_GE(dur->number, 0.0);
      span_names.insert(e.find("name")->string);
    } else if (ph->string == "M") {
      ++metadata;
      ASSERT_NE(e.find("args"), nullptr);
      const JsonValue* args = e.find("args");
      const JsonValue* name = args->find("name");
      ASSERT_NE(name, nullptr);
      named_tracks.insert(name->string);
    } else if (ph->string == "C") {
      ++counter;
      ASSERT_NE(e.find("args"), nullptr);
    } else {
      FAIL() << "unexpected event phase " << ph->string;
    }
  }
  EXPECT_GT(complete, 0u);
  EXPECT_GT(metadata, 0u);
  EXPECT_EQ(counter, 1u);

  // Track-name metadata covers host + all four ranks.
  EXPECT_TRUE(named_tracks.count("host"));
  for (int r = 0; r < 4; ++r) {
    EXPECT_TRUE(named_tracks.count("rank " + std::to_string(r)))
        << "missing thread_name for rank " << r;
  }
  // Every histogram step appears as a complete event.
  for (const char* step : hist::kHistStepSpans) {
    EXPECT_TRUE(span_names.count(step)) << "trace.json missing " << step;
  }
}

// ---------------------------------------------------------------------------
// CC phase + label-propagation instrumentation

TEST(CcTraceTest, ParallelCcEmitsPhaseSpans) {
  tr::Tracer tracer;
  splitc::Machine machine(4);
  machine.set_trace(&tracer);
  const auto image = im::make_darpa_like(64);
  const auto labels = cc::connected_components_parallel(machine, image);
  machine.set_trace(nullptr);
  EXPECT_EQ(labels.width(), 64u);

  for (const char* phase :
       {"cc/init", "cc/border", "cc/graph", "cc/update", "cc/final"}) {
    EXPECT_FALSE(spans_named(tracer, phase).empty())
        << "missing CC phase span " << phase;
  }
}

TEST(CcTraceTest, LabelPropEmitsOneSpanPerRound) {
  tr::Tracer tracer;
  splitc::Machine machine(4);
  machine.set_trace(&tracer);
  const auto image = im::make_darpa_like(64);
  cc::LabelPropStats stats;
  const auto labels = cc::connected_components_label_prop(
      machine, image, histcc::ccseq::Connectivity::kEight,
      histcc::ccseq::ColourRule::kBinary, &stats);
  machine.set_trace(nullptr);
  EXPECT_EQ(labels.width(), 64u);

  EXPECT_FALSE(spans_named(tracer, "cc/prop_init").empty());
  const auto rounds = spans_named(tracer, "cc/prop_round");
  ASSERT_FALSE(rounds.empty());
  // One round span per rank per propagation round.
  EXPECT_EQ(rounds.size(), 4u * stats.rounds);
}

TEST(MorphTraceTest, StencilEmitsHaloExchangeSpans) {
  tr::Tracer tracer;
  splitc::Machine machine(4);
  machine.set_trace(&tracer);
  const auto image = im::make_darpa_like(64);
  const im::TileLayout layout(image.height(), image.width(),
                              machine.nprocs());
  splitc::Spread<std::uint8_t> tiles(machine, layout.tile_sizes(), "tiles");
  splitc::Spread<std::uint8_t> out(machine, layout.tile_sizes(), "eroded");
  layout.scatter(image, tiles);
  histcc::morph::erode_parallel(machine, layout, tiles, out);
  machine.set_trace(nullptr);

  // One exchange per rank: the single-halo stencil.
  const auto halo = spans_named(tracer, "img/halo_exchange");
  EXPECT_EQ(halo.size(), 4u);
}

// ---------------------------------------------------------------------------
// Serve-pipeline integration

TEST(ServeTraceTest, PipelineEmitsJobSpansAndGauges) {
  tr::Tracer tracer;
  sv::PipelineOptions options;
  options.pool_size = 1;
  options.max_procs = 4;
  options.trace = &tracer;
  const auto image = im::make_darpa_like(192);  // big enough to go parallel

  std::uint64_t job_id = 0;
  {
    sv::Pipeline pipeline(options);
    auto pending = pipeline.submit_histogram(image, 256);
    job_id = pending.control->id();
    const auto result = pending.result.get();
    ASSERT_EQ(result.status, sv::JobStatus::kOk);
    EXPECT_GT(result.procs, 1u);
    pipeline.shutdown();
  }

  // Queue-wait and run spans on the worker's serve track, correlated to
  // the job id through Span::arg.
  for (const char* name : {"serve/queue", "serve/lease", "serve/run"}) {
    const auto spans = spans_named(tracer, name);
    ASSERT_EQ(spans.size(), 1u) << name;
    EXPECT_EQ(spans[0].arg, job_id) << name;
    EXPECT_EQ(spans[0].tid, tr::serve_tid(0)) << name;
    EXPECT_GE(spans[0].t1_ns, spans[0].t0_ns) << name;
  }
  EXPECT_TRUE(spans_named(tracer, "serve/degrade").empty());

  // The leased machine had the tracer attached, so kernel steps landed
  // in the same trace.
  for (const char* step : hist::kHistStepSpans) {
    EXPECT_FALSE(spans_named(tracer, step).empty()) << step;
  }

  // PoolMetrics gauges bridged as counter samples.
  std::set<std::string> counter_names;
  for (const tr::CounterSample& c : tracer.counters()) {
    counter_names.insert(c.name);
  }
  EXPECT_TRUE(counter_names.count("serve/queue_depth"));
  EXPECT_TRUE(counter_names.count("serve/in_flight"));
}

TEST(ServeTraceTest, DegradedJobEmitsDegradeSpan) {
  tr::Tracer tracer;
  sv::PipelineOptions options;
  options.pool_size = 1;
  options.max_procs = 4;
  options.trace = &tracer;
  options.before_parallel = [] {
    throw std::runtime_error("injected parallel failure");
  };
  const auto image = im::make_darpa_like(192);

  {
    sv::Pipeline pipeline(options);
    auto pending = pipeline.submit_histogram(image, 256);
    const auto result = pending.result.get();
    ASSERT_EQ(result.status, sv::JobStatus::kDegraded);
    pipeline.shutdown();
  }

  const auto degrade = spans_named(tracer, "serve/degrade");
  ASSERT_EQ(degrade.size(), 1u);
  EXPECT_EQ(degrade[0].tid, tr::serve_tid(0));
  ASSERT_EQ(spans_named(tracer, "serve/run").size(), 1u);
}

// ---------------------------------------------------------------------------
// PoolMetrics log-bucket latency histogram edge cases

namespace {

/// Geometric midpoint of log2 bucket b, in seconds — what quantile()
/// reports for any sample landing in that bucket.
[[nodiscard]] double bucket_mid_s(int b) {
  return std::exp2(static_cast<double>(b) + 0.5) * 1e-9;
}

}  // namespace

TEST(PoolMetricsTest, EmptyHistogramReportsZeroPercentiles) {
  sv::MetricsRecorder rec;
  const sv::PoolMetrics m = rec.snapshot(0, 0, 0);
  EXPECT_DOUBLE_EQ(m.wall_p50_s, 0.0);
  EXPECT_DOUBLE_EQ(m.wall_p90_s, 0.0);
  EXPECT_DOUBLE_EQ(m.wall_p99_s, 0.0);
  EXPECT_DOUBLE_EQ(m.mean_queue_s, 0.0);
  EXPECT_DOUBLE_EQ(m.mean_run_s, 0.0);
  EXPECT_EQ(m.in_flight, 0u);
}

TEST(PoolMetricsTest, SingleSampleSetsAllPercentilesToItsBucket) {
  sv::MetricsRecorder rec;
  rec.on_dequeue(0.5e-3);
  rec.on_finish(sv::JobStatus::kOk, /*wall_s=*/1e-6, /*run_s=*/1e-6);
  const sv::PoolMetrics m = rec.snapshot(0, 0, 0);
  // 1000 ns lands in bucket floor(log2(1000)) = 9.
  EXPECT_DOUBLE_EQ(m.wall_p50_s, bucket_mid_s(9));
  EXPECT_DOUBLE_EQ(m.wall_p90_s, bucket_mid_s(9));
  EXPECT_DOUBLE_EQ(m.wall_p99_s, bucket_mid_s(9));
  EXPECT_EQ(m.completed, 1u);
}

TEST(PoolMetricsTest, ExactBucketBoundariesLandInTheirOwnBucket) {
  // A wall time of exactly 2^b ns is the *lower* edge of bucket b:
  // bit_width(2^b) - 1 == b.
  for (const int b : {4, 10, 20}) {
    sv::MetricsRecorder rec;
    rec.on_dequeue(0);
    rec.on_finish(sv::JobStatus::kOk, std::exp2(b) * 1e-9, 0);
    EXPECT_DOUBLE_EQ(rec.snapshot(0, 0, 0).wall_p50_s, bucket_mid_s(b))
        << "2^" << b << " ns";
  }
  // One tick below the edge belongs to the previous bucket.
  {
    sv::MetricsRecorder rec;
    rec.on_dequeue(0);
    rec.on_finish(sv::JobStatus::kOk, (std::exp2(10) - 1.0) * 1e-9, 0);
    EXPECT_DOUBLE_EQ(rec.snapshot(0, 0, 0).wall_p50_s, bucket_mid_s(9));
  }
  // Sub-nanosecond walls clamp into bucket 0.
  {
    sv::MetricsRecorder rec;
    rec.on_dequeue(0);
    rec.on_finish(sv::JobStatus::kOk, 0.25e-9, 0);
    EXPECT_DOUBLE_EQ(rec.snapshot(0, 0, 0).wall_p50_s, bucket_mid_s(0));
  }
}

TEST(PoolMetricsTest, PercentilesMonotoneUnderRandomFills) {
  std::mt19937_64 rng(0xB0DE1995ULL);
  std::uniform_real_distribution<double> log_wall(-6.0, 1.0);  // 1 µs .. 10 s
  sv::MetricsRecorder rec;
  for (int i = 0; i < 1000; ++i) {
    rec.on_dequeue(0);
    rec.on_finish(sv::JobStatus::kOk, std::pow(10.0, log_wall(rng)), 0);
    if (i % 97 == 0) {
      const sv::PoolMetrics m = rec.snapshot(0, 0, 0);
      EXPECT_LE(m.wall_p50_s, m.wall_p90_s);
      EXPECT_LE(m.wall_p90_s, m.wall_p99_s);
    }
  }
  const sv::PoolMetrics m = rec.snapshot(0, 0, 0);
  EXPECT_LE(m.wall_p50_s, m.wall_p90_s);
  EXPECT_LE(m.wall_p90_s, m.wall_p99_s);
  EXPECT_GT(m.wall_p50_s, 0.0);
  EXPECT_EQ(m.completed, 1000u);
}

TEST(PoolMetricsTest, InFlightGaugeTracksDequeueAndFinish) {
  sv::MetricsRecorder rec;
  EXPECT_EQ(rec.in_flight(), 0u);
  rec.on_dequeue(0);
  rec.on_dequeue(0);
  EXPECT_EQ(rec.in_flight(), 2u);
  rec.on_finish(sv::JobStatus::kOk, 1e-3, 1e-3);
  EXPECT_EQ(rec.in_flight(), 1u);
  rec.on_finish(sv::JobStatus::kDegraded, 1e-3, 1e-3);
  EXPECT_EQ(rec.in_flight(), 0u);
}

// ---------------------------------------------------------------------------
// Per-category span sampling (SamplingPolicy / Tracer::should_record)

namespace {

/// Recorded span counts per name — the "inventory" two identical sampled
/// runs must agree on.
[[nodiscard]] std::map<std::string, std::size_t> span_inventory(
    const tr::Tracer& tracer) {
  std::map<std::string, std::size_t> counts;
  for (const tr::Span& s : tracer.spans()) counts[std::string(s.name)]++;
  return counts;
}

/// Spans in the four kernel categories (everything sampled by
/// SamplingPolicy::kernels).
[[nodiscard]] std::uint64_t kernel_span_count(const tr::Tracer& tracer) {
  std::uint64_t n = 0;
  for (const tr::Span& s : tracer.spans()) {
    const tr::Category cat = tr::category_of(s.name);
    if (cat != tr::Category::kServe && cat != tr::Category::kOther) ++n;
  }
  return n;
}

}  // namespace

TEST(SamplingTest, CategoryOfKeysOnNamePrefix) {
  EXPECT_EQ(tr::category_of("bdm/get"), tr::Category::kBdm);
  EXPECT_EQ(tr::category_of("hist/tally"), tr::Category::kHist);
  EXPECT_EQ(tr::category_of("cc/init"), tr::Category::kCc);
  EXPECT_EQ(tr::category_of("img/halo_exchange"), tr::Category::kImg);
  EXPECT_EQ(tr::category_of("serve/run"), tr::Category::kServe);
  EXPECT_EQ(tr::category_of("test/span"), tr::Category::kOther);
  // Prefix matching must not read past a short or prefix-only name.
  EXPECT_EQ(tr::category_of(""), tr::Category::kOther);
  EXPECT_EQ(tr::category_of("b"), tr::Category::kOther);
  EXPECT_EQ(tr::category_of("hist"), tr::Category::kOther);
  EXPECT_EQ(tr::category_of("histx/y"), tr::Category::kOther);
}

TEST(SamplingTest, EveryNthSpanRecordedFirstAlways) {
  tr::Tracer tracer;
  tracer.set_sampling(tr::SamplingPolicy::kernels(4));
  for (int i = 0; i < 10; ++i) {
    TRACE_SCOPE(&tracer, "bdm/get");
  }
  // 10 calls at 1/4: indices 0, 4, 8 admitted — the first always is.
  EXPECT_EQ(spans_named(tracer, "bdm/get").size(), 3u);
  // Categories left at rate 1 are untouched.
  for (int i = 0; i < 5; ++i) {
    TRACE_SCOPE(&tracer, "serve/run");
    TRACE_SCOPE(&tracer, "test/other");
  }
  EXPECT_EQ(spans_named(tracer, "serve/run").size(), 5u);
  EXPECT_EQ(spans_named(tracer, "test/other").size(), 5u);
}

TEST(SamplingTest, SharedCategoryCounterSpansNames) {
  // Sampling is per category, not per name: alternating bdm spans share
  // one 1/2 counter, so the even stream positions (all gets) are kept.
  tr::Tracer tracer;
  tracer.set_sampling(tr::SamplingPolicy::kernels(2));
  for (int i = 0; i < 4; ++i) {
    {
      TRACE_SCOPE(&tracer, "bdm/get");
    }
    {
      TRACE_SCOPE(&tracer, "bdm/put");
    }
  }
  EXPECT_EQ(spans_named(tracer, "bdm/get").size(), 4u);
  EXPECT_EQ(spans_named(tracer, "bdm/put").size(), 0u);
}

TEST(SamplingTest, ClearRestartsTheSamplingSequence) {
  tr::Tracer tracer;
  tracer.set_sampling(tr::SamplingPolicy::kernels(4));
  for (int i = 0; i < 6; ++i) {
    TRACE_SCOPE(&tracer, "bdm/get");
  }
  EXPECT_EQ(tracer.spans().size(), 2u);  // indices 0 and 4
  tracer.clear();
  for (int i = 0; i < 6; ++i) {
    TRACE_SCOPE(&tracer, "bdm/get");
  }
  // Identical sequence after clear(): same inventory, not a phase-shifted
  // continuation of the old counter.
  EXPECT_EQ(tracer.spans().size(), 2u);
}

TEST(SamplingTest, ZeroRateIsCoercedToOne) {
  tr::Tracer tracer;
  tr::SamplingPolicy policy;
  policy.set(tr::Category::kBdm, 0);  // 0 would divide by zero; means "off"
  tracer.set_sampling(policy);
  EXPECT_EQ(tracer.sample_every(tr::Category::kBdm), 1u);
  for (int i = 0; i < 3; ++i) {
    TRACE_SCOPE(&tracer, "bdm/get");
  }
  EXPECT_EQ(tracer.spans().size(), 3u);
}

TEST(SamplingTest, MachineRunsSampleDeterministically) {
  // Fixed schedule + fixed rate => identical span inventory run over run
  // (each rank's span sequence is program order, and fresh machines start
  // every per-thread counter at zero).
  tr::Tracer a;
  tr::Tracer b;
  a.set_sampling(tr::SamplingPolicy::kernels(16));
  b.set_sampling(tr::SamplingPolicy::kernels(16));
  trace_darpa_histogram(a);
  trace_darpa_histogram(b);
  EXPECT_EQ(span_inventory(a), span_inventory(b));
}

TEST(SamplingTest, RescaledKernelInventoryBracketsUnsampled) {
  tr::Tracer full;
  tr::Tracer sampled;
  constexpr std::uint64_t kEvery = 16;
  sampled.set_sampling(tr::SamplingPolicy::kernels(kEvery));
  trace_darpa_histogram(full);
  trace_darpa_histogram(sampled);

  const std::uint64_t exact = kernel_span_count(full);
  const std::uint64_t rescaled = kernel_span_count(sampled) * kEvery;
  ASSERT_GT(exact, 0u);
  // Per (thread, category) the first span is always admitted, so the
  // rescaled estimate is >= the truth and overshoots by < N-1 per
  // recording stream: 5 threads (4 ranks + host) x 4 kernel categories.
  EXPECT_GE(rescaled, exact);
  EXPECT_LE(rescaled, exact + (kEvery - 1) * 5 * 4);
}

TEST(SamplingTest, EffectiveRateRescalesCategoryTotalsExactly) {
  // The phase report rescales by the measured decimation factor
  // (spans seen / spans recorded per category), not the nominal N:
  // summing a category's rescaled span counts must reproduce the
  // unsampled inventory of the identical deterministic run exactly —
  // nominal xN cannot (see the bracket bound above).
  tr::Tracer full;
  tr::Tracer sampled;
  sampled.set_sampling(tr::SamplingPolicy::kernels(16));
  trace_darpa_histogram(full);
  trace_darpa_histogram(sampled);

  double rescaled = 0.0;
  for (const tr::PhaseRow& row : tr::phase_breakdown(sampled, splitc::cm5())) {
    const tr::Category cat = tr::category_of(row.name.c_str());
    if (cat != tr::Category::kServe && cat != tr::Category::kOther) {
      EXPECT_GE(row.effective_rate, 1.0) << row.name;
      EXPECT_LE(row.effective_rate, 16.0) << row.name;
      rescaled += static_cast<double>(row.spans) * row.effective_rate;
    }
  }
  EXPECT_NEAR(rescaled, static_cast<double>(kernel_span_count(full)), 1e-6);
}

TEST(SamplingTest, PhaseBreakdownCarriesSampleRateAndReportRescales) {
  tr::Tracer tracer;
  tracer.set_sampling(tr::SamplingPolicy::kernels(16));
  trace_darpa_histogram(tracer);

  const auto rows = tr::phase_breakdown(tracer, splitc::cm5());
  ASSERT_FALSE(rows.empty());
  bool saw_hist = false;
  for (const tr::PhaseRow& row : rows) {
    if (tr::category_of(row.name.c_str()) == tr::Category::kHist) {
      EXPECT_EQ(row.sample_every, 16u) << row.name;
      saw_hist = true;
    }
  }
  EXPECT_TRUE(saw_hist);

  std::ostringstream out;
  tr::write_phase_report(tracer, splitc::cm5(), out);
  const std::string report = out.str();
  EXPECT_NE(report.find("x16"), std::string::npos)
      << "sampled rows must carry their rate marker";
  EXPECT_NE(report.find("rescaled"), std::string::npos)
      << "report must explain the rescaling";
}

TEST(SamplingTest, ChromeJsonRecordsSamplingRates) {
  tr::Tracer tracer;
  tracer.set_sampling(tr::SamplingPolicy::kernels(16));
  trace_darpa_histogram(tracer);

  std::ostringstream out;
  tr::write_chrome_json(tracer, out);
  bool ok = false;
  JsonParser parser(out.str());
  const JsonValue root = parser.parse(ok);
  ASSERT_TRUE(ok) << "sampled export emitted malformed JSON";

  const JsonValue* other = root.find("otherData");
  ASSERT_NE(other, nullptr);
  const JsonValue* sampling = other->find("sampling");
  ASSERT_NE(sampling, nullptr) << "sampled trace must declare its rates";
  const JsonValue* hist_rate = sampling->find("hist");
  ASSERT_NE(hist_rate, nullptr);
  EXPECT_DOUBLE_EQ(hist_rate->number, 16.0);
  // Unsampled categories are omitted rather than written as 1.
  EXPECT_EQ(sampling->find("serve"), nullptr);
}

TEST(ServeTraceTest, KernelSamplingKeepsJobSpansExact) {
  const auto image = im::make_darpa_like(192);
  constexpr int kJobs = 3;
  const auto run_jobs = [&](tr::Tracer& tracer,
                            std::uint32_t trace_sample_every) {
    sv::PipelineOptions options;
    options.pool_size = 1;
    options.max_procs = 4;
    options.trace = &tracer;
    options.trace_sample_every = trace_sample_every;
    sv::Pipeline pipeline(options);
    for (int i = 0; i < kJobs; ++i) {
      ASSERT_EQ(pipeline.submit_histogram(image, 256).result.get().status,
                sv::JobStatus::kOk);
    }
    pipeline.shutdown();
  };

  tr::Tracer full;
  run_jobs(full, 1);
  tr::Tracer sampled;
  run_jobs(sampled, 16);

  // Per-job accounting never sampled: one queue/run span per job.
  for (const char* name : {"serve/queue", "serve/run"}) {
    EXPECT_EQ(spans_named(sampled, name).size(),
              static_cast<std::size_t>(kJobs))
        << name;
  }
  // Kernel spans decimated but not extinguished.
  const std::uint64_t kernels_full = kernel_span_count(full);
  const std::uint64_t kernels_sampled = kernel_span_count(sampled);
  EXPECT_GT(kernels_sampled, 0u);
  EXPECT_LT(kernels_sampled, kernels_full);
}

// ---------------------------------------------------------------------------
// Per-thread buffer registry (TLS cache reuse)

TEST(TracerBufferTest, AlternatingBetweenTracersReusesOneBufferEach) {
  // Regression: the old single-entry TLS cache registered a fresh buffer
  // on every switch between two live tracers, so a long-lived worker
  // alternating per-job tracers leaked one buffer per span.
  tr::Tracer a;
  tr::Tracer b;
  for (int i = 0; i < 64; ++i) {
    {
      TRACE_SCOPE(&a, "test/a");
    }
    {
      TRACE_SCOPE(&b, "test/b");
    }
  }
  EXPECT_EQ(a.buffer_count(), 1u);
  EXPECT_EQ(b.buffer_count(), 1u);
  EXPECT_EQ(a.spans().size(), 64u);
  EXPECT_EQ(b.spans().size(), 64u);
}

TEST(TracerBufferTest, CacheEvictionDoesNotDuplicateBuffers) {
  // More live tracers than TLS cache slots: eviction forces the slow
  // path, which must re-find the registered buffer, not grow a new one.
  constexpr int kTracers = 12;
  constexpr int kRounds = 4;
  std::vector<std::unique_ptr<tr::Tracer>> tracers;
  tracers.reserve(kTracers);
  for (int i = 0; i < kTracers; ++i) {
    tracers.push_back(std::make_unique<tr::Tracer>());
  }
  for (int round = 0; round < kRounds; ++round) {
    for (auto& t : tracers) {
      TRACE_SCOPE(t.get(), "test/evict");
    }
  }
  for (const auto& t : tracers) {
    EXPECT_EQ(t->buffer_count(), 1u);
    EXPECT_EQ(t->spans().size(), static_cast<std::size_t>(kRounds));
  }
}

TEST(TracerBufferTest, OneBufferPerRecordingThread) {
  tr::Tracer tracer;
  constexpr int kThreads = 3;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&tracer] {
      for (int j = 0; j < 10; ++j) {
        TRACE_SCOPE(&tracer, "test/worker");
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(tracer.buffer_count(), static_cast<std::size_t>(kThreads));
  EXPECT_EQ(tracer.spans().size(), kThreads * 10u);
}

// ---------------------------------------------------------------------------
// HISTCC_TRACE parsing (parse_trace_env)

TEST(TraceEnvTest, DisabledSpellingsAreCaseAndWhitespaceInsensitive) {
  for (const char* v :
       {"", "  ", "0", " 0 ", "off", "OFF", "Off", "\toff\n", "false",
        "False", "FALSE"}) {
    EXPECT_FALSE(tr::parse_trace_env(v).enabled) << "\"" << v << "\"";
  }
}

TEST(TraceEnvTest, DestinationSelectsJsonOrStderrReport) {
  {
    const tr::EnvSpec spec = tr::parse_trace_env("1");
    EXPECT_TRUE(spec.enabled);
    EXPECT_TRUE(spec.json_path.empty());  // stderr phase report
    EXPECT_TRUE(spec.error.empty());
    EXPECT_EQ(spec.sampling, tr::SamplingPolicy{});
  }
  {
    const tr::EnvSpec spec = tr::parse_trace_env("trace.json");
    EXPECT_TRUE(spec.enabled);
    EXPECT_EQ(spec.json_path, "trace.json");
  }
  {
    // Extension match is case-insensitive (the old parser sent
    // trace.JSON to the stderr report).
    const tr::EnvSpec spec = tr::parse_trace_env(" out/Trace.JSON ");
    EXPECT_TRUE(spec.enabled);
    EXPECT_EQ(spec.json_path, "out/Trace.JSON");
  }
  {
    const tr::EnvSpec spec = tr::parse_trace_env("report");
    EXPECT_TRUE(spec.enabled);
    EXPECT_TRUE(spec.json_path.empty());
  }
}

TEST(TraceEnvTest, SamplingPairsParse) {
  {
    const tr::EnvSpec spec = tr::parse_trace_env("trace.json:bdm=16");
    EXPECT_EQ(spec.json_path, "trace.json");
    EXPECT_EQ(spec.sampling.of(tr::Category::kBdm), 16u);
    EXPECT_EQ(spec.sampling.of(tr::Category::kHist), 1u);
    EXPECT_TRUE(spec.error.empty());
  }
  {
    const tr::EnvSpec spec = tr::parse_trace_env("report:kernels=8,serve=2");
    EXPECT_TRUE(spec.json_path.empty());
    for (const tr::Category cat :
         {tr::Category::kBdm, tr::Category::kHist, tr::Category::kCc,
          tr::Category::kImg}) {
      EXPECT_EQ(spec.sampling.of(cat), 8u);
    }
    EXPECT_EQ(spec.sampling.of(tr::Category::kServe), 2u);
    EXPECT_EQ(spec.sampling.of(tr::Category::kOther), 1u);
  }
  {
    const tr::EnvSpec spec = tr::parse_trace_env("trace.json:all=4");
    for (std::size_t c = 0; c < tr::kNumCategories; ++c) {
      EXPECT_EQ(spec.sampling.of(static_cast<tr::Category>(c)), 4u);
    }
  }
  {
    // ':' and ',' both separate pairs.
    const tr::EnvSpec spec = tr::parse_trace_env("trace.json:bdm=16:hist=8");
    EXPECT_EQ(spec.sampling.of(tr::Category::kBdm), 16u);
    EXPECT_EQ(spec.sampling.of(tr::Category::kHist), 8u);
  }
}

TEST(TraceEnvTest, MalformedPairsKeepTracingOnAndReportTheError) {
  {
    const tr::EnvSpec spec = tr::parse_trace_env("trace.json:bogus=4");
    EXPECT_TRUE(spec.enabled);  // a typo must not silently disable tracing
    EXPECT_EQ(spec.json_path, "trace.json");
    EXPECT_FALSE(spec.error.empty());
  }
  {
    const tr::EnvSpec spec = tr::parse_trace_env("trace.json:bdm=0");
    EXPECT_TRUE(spec.enabled);
    EXPECT_FALSE(spec.error.empty());
    EXPECT_EQ(spec.sampling.of(tr::Category::kBdm), 1u);
  }
  {
    const tr::EnvSpec spec = tr::parse_trace_env("trace.json:bdm");
    EXPECT_FALSE(spec.error.empty());
  }
  {
    // A bad pair must not clobber a good one.
    const tr::EnvSpec spec = tr::parse_trace_env("trace.json:bdm=16,bogus");
    EXPECT_EQ(spec.sampling.of(tr::Category::kBdm), 16u);
    EXPECT_FALSE(spec.error.empty());
  }
}

