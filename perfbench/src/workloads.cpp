#include "workloads.hpp"

#include <future>
#include <memory>

#include "histcc/cc_seq/bfs_label.hpp"
#include "histcc/cc_seq/union_find.hpp"
#include "histcc/hist/histogram.hpp"
#include "histcc/image/generators.hpp"
#include "histcc/omp/parallel_host.hpp"
#include "histcc/util/require.hpp"

namespace perfbench {

namespace ccseq = histcc::ccseq;

void compute_reference(Input& input) {
  switch (input.kind) {
    case Kind::kHistogram:
      // Counted here rather than by hist::histogram_seq, which is one of
      // the measured backends.
      input.hist_ref.assign(input.k, 0);
      for (const std::uint8_t px : input.image.pixels()) {
        HISTCC_REQUIRE(px < input.k, "reference input exceeds k levels");
        ++input.hist_ref[px];
      }
      break;
    case Kind::kComponents:
      input.labels_ref = ccseq::label_components_bfs(
          input.image, input.cc.connectivity, input.cc.rule);
      break;
  }
}

bool matches(const Input& in, const std::vector<std::uint32_t>& histogram) {
  return in.kind == Kind::kHistogram && histogram == in.hist_ref;
}

bool matches(const Input& in, const img::LabelImage& labels) {
  return in.kind == Kind::kComponents && labels == in.labels_ref;
}

namespace {

img::GreyImage crop(const img::GreyImage& image, std::uint32_t row,
                    std::uint32_t col, std::uint32_t height,
                    std::uint32_t width) {
  img::GreyImage out(height, width);
  for (std::uint32_t i = 0; i < height; ++i) {
    for (std::uint32_t j = 0; j < width; ++j) {
      out(i, j) = image(row + i, col + j);
    }
  }
  return out;
}

Input make_input(Kind kind, img::GreyImage image, std::uint32_t k = 256,
                 histcc::cc::CcOptions cc = {}) {
  Input in;
  in.kind = kind;
  in.image = std::move(image);
  in.k = k;
  in.cc = cc;
  compute_reference(in);
  return in;
}

histcc::cc::CcOptions same_colour() {
  histcc::cc::CcOptions options;
  options.rule = ccseq::ColourRule::kSameColour;
  return options;
}

}  // namespace

bool is_workload(const std::string& name) {
  return name == "cc_frame" || name == "hist_frame";
}

Workload make_workload(const std::string& name, std::uint64_t seed) {
  HISTCC_REQUIRE(is_workload(name), "unknown workload '" + name + "'");
  Workload w;
  w.name = name;
  if (name == "cc_frame") {
    // The paper's Fig. 10 scene.
    w.frame = make_input(Kind::kComponents, img::make_darpa_like(1024, seed),
                         256, same_colour());
    w.companion = make_input(Kind::kHistogram, w.frame.image, 256);
    w.open_rate = 14;
    // Its calls are short, so their p90s need the most samples; the open
    // loop still gets well over the 100 jobs its p90 needs.
    w.direct_share = 0.6;
    w.open_share = 0.25;
    w.closed_share = 0.15;
  } else {
    // 16 MiB of pixels: larger than the summed L2 of a 4-core host.
    w.frame = make_input(Kind::kHistogram,
                         img::make_random_grey(4096, 256, seed), 256);
    w.companion = make_input(Kind::kComponents,
                             crop(w.frame.image, 0, 0, 1024, 1024), 256,
                             same_colour());
    w.open_rate = 9;
    w.direct_share = 0.4;
    w.open_share = 0.4;
    w.closed_share = 0.2;
  }
  return w;
}

double timed_call(Backend backend, histcc::splitc::Machine& machine,
                  const Input& in, bool& ok) {
  namespace hist = histcc::hist;
  namespace omp = histcc::omp;
  if (in.kind == Kind::kHistogram) {
    const auto t0 = Clock::now();
    const std::vector<std::uint32_t> h =
        backend == Backend::kSeq   ? hist::histogram_seq(in.image, in.k)
        : backend == Backend::kOmp ? omp::histogram_omp(in.image, in.k)
                                   : hist::histogram_parallel(machine, in.image,
                                                              in.k);
    const double ms = ms_between(t0, Clock::now());
    ok = matches(in, h);
    return ms;
  }
  const auto t0 = Clock::now();
  const img::LabelImage labels =
      backend == Backend::kSeq
          ? ccseq::label_components_unionfind(in.image, in.cc.connectivity,
                                              in.cc.rule)
      : backend == Backend::kOmp
          ? omp::connected_components_omp(in.image, in.cc.connectivity,
                                          in.cc.rule)
          : histcc::cc::connected_components_parallel(machine, in.image,
                                                      in.cc);
  const double ms = ms_between(t0, Clock::now());
  ok = matches(in, labels);
  return ms;
}

namespace {

template <typename T>
std::function<JobSeen()> await(serve::PendingJob<T> job, const Input& in) {
  auto future = std::make_shared<std::future<serve::JobResult<T>>>(
      std::move(job.result));
  return [future, &in] {
    const serve::JobResult<T> result = future->get();
    JobSeen seen;
    seen.seen = Clock::now();
    seen.ok = result.status == serve::JobStatus::kOk && result.has_value() &&
              matches(in, *result.value);
    seen.procs = result.procs;
    seen.queue_ms = result.queue_s * 1e3;
    seen.run_ms = result.run_s * 1e3;
    return seen;
  };
}

}  // namespace

std::function<JobSeen()> submit(serve::Pipeline& pipeline, const Input& in,
                                img::GreyImage image) {
  if (in.kind == Kind::kHistogram) {
    return await(pipeline.submit_histogram(std::move(image), in.k), in);
  }
  return await(pipeline.submit_components(std::move(image), in.cc), in);
}

}  // namespace perfbench
