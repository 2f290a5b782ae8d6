#include "histcc/trace/export.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iomanip>
#include <map>
#include <ostream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace histcc::trace {

namespace {

/// JSON string escaping.  Span names are static literals under our
/// control, but the exporter must emit valid JSON for any input.
std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// Microsecond timestamp with sub-microsecond precision (the trace-event
/// format's `ts`/`dur` unit).
double us(std::int64_t ns) { return static_cast<double>(ns) / 1000.0; }

std::string track_name(std::uint32_t tid) {
  if (tid == kHostTid) return "host";
  if (tid >= kServeTidBase) {
    return "serve worker " + std::to_string(tid - kServeTidBase);
  }
  return "rank " + std::to_string(tid - 1);
}

}  // namespace

void write_chrome_json(const Tracer& tracer, std::ostream& out) {
  const std::vector<Span> spans = tracer.spans();
  const std::vector<CounterSample> counters = tracer.counters();

  std::set<std::uint32_t> tids;
  for (const Span& s : spans) tids.insert(s.tid);
  for (const CounterSample& c : counters) tids.insert(c.tid);

  out << "{\"traceEvents\":[";
  bool first = true;
  const auto sep = [&] {
    if (!first) out << ",\n";
    first = false;
  };

  for (const std::uint32_t tid : tids) {
    sep();
    out << "{\"ph\":\"M\",\"pid\":1,\"tid\":" << tid
        << ",\"name\":\"thread_name\",\"args\":{\"name\":\""
        << json_escape(track_name(tid)) << "\"}}";
  }

  out << std::setprecision(15);
  for (const Span& s : spans) {
    sep();
    out << "{\"ph\":\"X\",\"pid\":1,\"tid\":" << s.tid << ",\"name\":\""
        << json_escape(s.name) << "\",\"ts\":" << us(s.t0_ns)
        << ",\"dur\":" << us(std::max<std::int64_t>(s.t1_ns - s.t0_ns, 0))
        << ",\"args\":{\"begin_epoch\":" << s.begin_epoch
        << ",\"end_epoch\":" << s.end_epoch << ",\"words\":" << s.words
        << ",\"messages\":" << s.messages << ",\"batches\":" << s.batches
        << ",\"barriers\":" << s.barriers << ",\"arg\":" << s.arg << "}}";
  }

  for (const CounterSample& c : counters) {
    sep();
    out << "{\"ph\":\"C\",\"pid\":1,\"tid\":" << c.tid << ",\"name\":\""
        << json_escape(c.name) << "\",\"ts\":" << us(c.t_ns)
        << ",\"args\":{\"value\":" << c.value << "}}";
  }

  out << "],\n\"displayTimeUnit\":\"ms\",\"otherData\":{\"tool\":"
         "\"histcc::trace\",\"schema\":2";
  // Sampled categories carry their rate so a consumer can rescale span
  // counts/volumes: only every Nth span per thread was recorded.
  const SamplingPolicy sampling = tracer.sampling();
  bool any_sampled = false;
  for (std::size_t c = 0; c < kNumCategories; ++c) {
    if (sampling.every[c] > 1) any_sampled = true;
  }
  if (any_sampled) {
    out << ",\"sampling\":{";
    bool first_cat = true;
    for (std::size_t c = 0; c < kNumCategories; ++c) {
      if (sampling.every[c] <= 1) continue;
      if (!first_cat) out << ",";
      first_cat = false;
      out << "\"" << category_name(static_cast<Category>(c))
          << "\":" << sampling.every[c];
    }
    out << "}";
  }
  out << "}}\n";
}

bool write_chrome_json(const Tracer& tracer, const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  write_chrome_json(tracer, out);
  out.flush();
  return static_cast<bool>(out);
}

std::vector<PhaseRow> phase_breakdown(const Tracer& tracer,
                                      const splitc::MachineProfile& profile) {
  const std::vector<Span> spans = tracer.spans();

  struct TrackAccum {
    std::int64_t wall_ns = 0;
    std::uint64_t words = 0;
    std::uint64_t batches = 0;
    std::uint64_t barriers = 0;
  };
  struct PhaseAccum {
    std::size_t order = 0;  ///< first-appearance index (execution order)
    PhaseRow row;
    std::map<std::uint32_t, TrackAccum> tracks;
  };

  std::map<std::string, PhaseAccum> phases;
  std::size_t next_order = 0;
  for (const Span& s : spans) {
    auto [it, inserted] = phases.try_emplace(s.name);
    PhaseAccum& acc = it->second;
    if (inserted) {
      acc.order = next_order++;
      acc.row.name = s.name;
    }
    const std::int64_t dur = std::max<std::int64_t>(s.t1_ns - s.t0_ns, 0);
    acc.row.spans += 1;
    acc.row.total_wall_s += static_cast<double>(dur) * 1e-9;
    acc.row.words += s.words;
    acc.row.messages += s.messages;
    acc.row.barriers += s.barriers;
    TrackAccum& track = acc.tracks[s.tid];
    track.wall_ns += dur;
    track.words += s.words;
    track.batches += s.batches;
    track.barriers += s.barriers;
  }

  std::vector<PhaseRow> rows;
  rows.reserve(phases.size());
  std::vector<const PhaseAccum*> ordered;
  ordered.reserve(phases.size());
  for (const auto& [name, acc] : phases) ordered.push_back(&acc);
  std::sort(ordered.begin(), ordered.end(),
            [](const PhaseAccum* a, const PhaseAccum* b) {
              return a->order < b->order;
            });
  const SamplingPolicy sampling = tracer.sampling();
  // Measured decimation per category: seen / recorded.  Summing a
  // category's rescaled span counts then reproduces the unsampled count
  // exactly, which the nominal rate N cannot (first spans are always
  // admitted, so short streams record more than 1/N).
  const std::array<std::uint64_t, kNumCategories> seen =
      tracer.sampled_seen();
  std::array<std::uint64_t, kNumCategories> recorded{};
  for (const Span& s : spans) {
    recorded[static_cast<std::size_t>(category_of(s.name))] += 1;
  }
  for (const PhaseAccum* acc : ordered) {
    PhaseRow row = acc->row;
    const Category cat = category_of(row.name.c_str());
    row.sample_every = sampling.of(cat);
    const std::uint64_t cat_seen = seen[static_cast<std::size_t>(cat)];
    const std::uint64_t cat_recorded =
        recorded[static_cast<std::size_t>(cat)];
    if (row.sample_every > 1 && cat_seen > 0 && cat_recorded > 0) {
      row.effective_rate = static_cast<double>(cat_seen) /
                           static_cast<double>(cat_recorded);
    }
    for (const auto& [tid, track] : acc->tracks) {
      row.wall_s =
          std::max(row.wall_s, static_cast<double>(track.wall_ns) * 1e-9);
      row.modeled_comm_s = std::max(
          row.modeled_comm_s,
          profile.comm_seconds(track.batches + track.barriers, track.words));
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

void write_phase_report(const Tracer& tracer,
                        const splitc::MachineProfile& profile,
                        std::ostream& out) {
  const std::vector<PhaseRow> rows = phase_breakdown(tracer, profile);
  bool any_sampled = false;
  for (const PhaseRow& row : rows) {
    if (row.sample_every > 1) any_sampled = true;
  }
  out << "histcc::trace per-phase breakdown (profile: " << profile.name
      << ")\n";
  out << std::left << std::setw(28) << "phase" << std::right << std::setw(8)
      << "spans" << std::setw(12) << "wall ms" << std::setw(12) << "cpu ms"
      << std::setw(12) << "words" << std::setw(10) << "msgs" << std::setw(14)
      << "modeled ms";
  if (any_sampled) out << std::setw(8) << "rate";
  out << "\n";
  out << std::string(any_sampled ? 104 : 96, '-') << "\n";
  std::ostringstream body;
  body << std::fixed;
  for (const PhaseRow& row : rows) {
    // Sampled rows are rescaled by the *measured* decimation factor
    // (spans seen / spans recorded for the row's category): the recorded
    // aggregates are a 1-in-N sample of the phase, and raw sampled
    // numbers would silently under-report.  Category-wide rescaled span
    // totals are exact by construction; per-row numbers are estimates.
    const double n = row.effective_rate;
    const auto scale_count = [n](std::uint64_t count) {
      return static_cast<std::uint64_t>(
          static_cast<double>(count) * n + 0.5);
    };
    body << std::left << std::setw(28) << row.name << std::right
         << std::setw(8) << scale_count(row.spans) << std::setw(12)
         << std::setprecision(3) << row.wall_s * n * 1e3 << std::setw(12)
         << std::setprecision(3) << row.total_wall_s * n * 1e3
         << std::setw(12) << scale_count(row.words) << std::setw(10)
         << scale_count(row.messages) << std::setw(14)
         << std::setprecision(4) << row.modeled_comm_s * n * 1e3;
    if (any_sampled) {
      if (row.sample_every > 1) {
        body << std::setw(8) << ('x' + std::to_string(row.sample_every));
      } else {
        body << std::setw(8) << "";
      }
    }
    body << "\n";
  }
  out << body.str();
  if (any_sampled) {
    out << "(xN rows are sampled at nominal 1/N and rescaled by the "
           "measured rate: estimated per-phase totals, exact per-category "
           "span totals)\n";
  }
}

}  // namespace histcc::trace
