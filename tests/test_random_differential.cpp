// Randomized differential driver: each seed draws one input and every
// labeler and histogram backend must agree with its reference exactly.
//
// A draw picks a ragged H x W (1 x 1 up to 480 x 640, a third of the draws
// at most 16 on a side and a third at most 128), a machine size p in
// {1, 2, 4, 8, 16}, a connectivity, a colour rule and an image family:
// random grey with k levels, site percolation near its 0.59 threshold, the
// dual spiral, the DARPA-like scene or the comb.  Labels are checked
// against BFS, the independent anchor: union-find, Hoshen-Kopelman,
// OpenMP at teams {1, 3, 4}, label propagation, the paper's algorithm
// with default options and with each ablation switched, the replicated
// baseline, and pipeline jobs under default routing and forced to p.
// Histograms from the sequential, OpenMP, virtual-machine and pipeline
// paths are checked against the one-loop reference.
//
// Seeds: the fixed catalog below, or fresh ones under
// HISTCC_STRESS_RANDOM=1 (stress_seeds.hpp).  Every failure names the
// seed, shape, p and the rest of the draw; replay it by appending the
// seed to the catalog.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "cc_differential.hpp"
#include "hist_reference.hpp"
#include "histcc/cc/label_prop.hpp"
#include "histcc/cc/parallel_cc.hpp"
#include "histcc/cc/replicated.hpp"
#include "histcc/cc_seq/bfs_label.hpp"
#include "histcc/cc_seq/hoshen_kopelman.hpp"
#include "histcc/cc_seq/union_find.hpp"
#include "histcc/hist/histogram.hpp"
#include "histcc/image/generators.hpp"
#include "histcc/omp/parallel_host.hpp"
#include "histcc/serve/pipeline.hpp"
#include "histcc/splitc/machine.hpp"
#include "histcc/util/rng.hpp"
#include "stress_seeds.hpp"

namespace cc = histcc::cc;
namespace ccseq = histcc::ccseq;
namespace hist = histcc::hist;
namespace im = histcc::img;
namespace omp = histcc::omp;
namespace sc = histcc::splitc;
namespace serve = histcc::serve;
namespace util = histcc::util;

namespace {

/// Seeds 1..128: about 4 s on a 4-vCPU host in the plain build.
constexpr auto kFixedSeeds = [] {
  std::array<std::uint64_t, 128> seeds{};
  for (std::size_t i = 0; i < seeds.size(); ++i) seeds[i] = i + 1;
  return seeds;
}();

constexpr unsigned kOmpTeams[] = {1, 3, 4};

enum class Family { kRandomGrey, kPercolation, kDualSpiral, kDarpaLike, kComb };

constexpr const char* kFamilyNames[] = {"random-grey", "percolation",
                                        "dual-spiral", "darpa-like", "comb"};

struct Draw {
  std::uint32_t rows = 0;
  std::uint32_t cols = 0;
  std::uint32_t p = 1;
  ccseq::Connectivity conn = ccseq::Connectivity::kEight;
  ccseq::ColourRule rule = ccseq::ColourRule::kBinary;
  Family family = Family::kRandomGrey;
  std::uint32_t levels = 2;  ///< grey levels of the image (values < levels)
  im::GreyImage image;
  std::string what;  ///< the draw, for failure messages
};

/// rows x cols crop of a square generator image of side at least
/// max(rows, cols, 64), the smallest side every generator accepts.
template <typename Make>
im::GreyImage crop_square(std::uint32_t rows, std::uint32_t cols, Make make) {
  return crop(make(std::max({64u, rows, cols})), rows, cols);
}

Draw draw(std::uint64_t seed) {
  util::Rng rng(seed);
  Draw d;
  // Side limits: a third tiny (degenerate and empty tiles), a third
  // medium, a third up to 480 x 640.
  const std::uint64_t scale = rng.next_below(3);
  const std::uint32_t max_rows = scale == 0 ? 16 : scale == 1 ? 128 : 480;
  const std::uint32_t max_cols = scale == 0 ? 16 : scale == 1 ? 128 : 640;
  d.rows = 1 + static_cast<std::uint32_t>(rng.next_below(max_rows));
  d.cols = 1 + static_cast<std::uint32_t>(rng.next_below(max_cols));
  d.p = 1u << rng.next_below(5);
  d.conn = rng.next_bool(0.5) ? ccseq::Connectivity::kEight
                              : ccseq::Connectivity::kFour;
  d.rule = rng.next_bool(0.5) ? ccseq::ColourRule::kSameColour
                              : ccseq::ColourRule::kBinary;
  d.family = static_cast<Family>(rng.next_below(5));
  const std::uint64_t image_seed = rng.next_u64();

  std::ostringstream what;
  what << "seed " << seed << ": " << d.rows << "x" << d.cols << " p=" << d.p
       << " conn=" << static_cast<int>(d.conn)
       << " rule=" << (d.rule == ccseq::ColourRule::kBinary ? "binary" : "same")
       << " family=" << kFamilyNames[static_cast<int>(d.family)];
  switch (d.family) {
    case Family::kRandomGrey: {
      constexpr std::uint32_t kLevels[] = {2, 3, 4, 16, 256};
      d.levels = kLevels[rng.next_below(5)];
      what << " k=" << d.levels;
      util::Rng px(image_seed);
      d.image = im::GreyImage(d.rows, d.cols);
      for (auto& v : d.image.pixels()) {
        v = static_cast<std::uint8_t>(px.next_below(d.levels));
      }
      break;
    }
    case Family::kPercolation: {
      const double occupancy = 0.55 + 0.08 * rng.next_double();
      what << " occupancy=" << occupancy;
      util::Rng px(image_seed);
      d.image = im::GreyImage(d.rows, d.cols);
      for (auto& v : d.image.pixels()) v = px.next_bool(occupancy) ? 1 : 0;
      break;
    }
    case Family::kDualSpiral:
      d.image = crop_square(d.rows, d.cols, [](std::uint32_t n) {
        return im::make_test_pattern(im::TestPattern::kDualSpiral, n);
      });
      break;
    case Family::kDarpaLike:
      d.levels = 256;
      d.image = crop_square(d.rows, d.cols, [image_seed](std::uint32_t n) {
        return im::make_darpa_like(n, image_seed);
      });
      break;
    case Family::kComb:
      d.image = make_comb(d.rows, d.cols);
      break;
  }
  d.what = what.str();
  return d;
}

void check_labels(const Draw& d, sc::Machine& machine,
                  serve::Pipeline& pipeline) {
  const auto& image = d.image;
  const auto reference = ccseq::label_components_bfs(image, d.conn, d.rule);
  expect_labels_equal(ccseq::label_components_unionfind(image, d.conn, d.rule),
                      reference, "unionfind");
  expect_labels_equal(
      ccseq::label_components_hoshen_kopelman(image, d.conn, d.rule),
      reference, "hoshen_kopelman");
  for (const unsigned team : kOmpTeams) {
    expect_labels_equal(
        omp::connected_components_omp(image, d.conn, d.rule, team), reference,
        "omp_t" + std::to_string(team));
  }
  expect_labels_equal(
      cc::connected_components_label_prop(machine, image, d.conn, d.rule),
      reference, "label_prop");

  cc::CcOptions paper;
  paper.connectivity = d.conn;
  paper.rule = d.rule;
  cc::CcOptions full_relabel = paper;
  full_relabel.full_relabel_each_phase = true;
  cc::CcOptions no_shadow = paper;
  no_shadow.use_shadow_manager = false;
  cc::CcOptions direct = paper;
  direct.eq9_distribution = false;
  const std::pair<const char*, cc::CcOptions> variants[] = {
      {"parallel", paper},
      {"parallel_full_relabel", full_relabel},
      {"parallel_no_shadow", no_shadow},
      {"parallel_direct_changes", direct}};
  for (const auto& [name, options] : variants) {
    expect_labels_equal(
        cc::connected_components_parallel(machine, image, options), reference,
        name);
  }
  expect_labels_equal(
      cc::connected_components_replicated(machine, image, d.conn, d.rule),
      reference, "replicated");

  // Default routing (frames of at most 4096 px take the sequential lane)
  // and the virtual machine forced to p.
  for (const std::uint32_t force : {0u, d.p}) {
    serve::JobOptions job;
    job.force_procs = force;
    auto result = pipeline.submit_components(image, paper, job).result.get();
    const std::string name = "pipeline_force" + std::to_string(force);
    ASSERT_EQ(result.status, serve::JobStatus::kOk) << name << ": "
                                                    << result.error;
    if (force != 0) {
      EXPECT_EQ(result.procs, force) << name;
    }
    ASSERT_TRUE(result.has_value()) << name;
    expect_labels_equal(*result.value, reference, name);
  }
}

void check_histograms(const Draw& d, sc::Machine& machine,
                      serve::Pipeline& pipeline) {
  const std::uint32_t k = std::bit_ceil(d.levels);
  const auto reference = reference_histogram(d.image, k);
  EXPECT_EQ(hist::histogram_seq(d.image, k), reference) << "hist_seq";
  for (const unsigned team : kOmpTeams) {
    EXPECT_EQ(omp::histogram_omp(d.image, k, team), reference)
        << "hist_omp_t" << team;
  }
  EXPECT_EQ(hist::histogram_parallel(machine, d.image, k), reference)
      << "hist_parallel";
  for (const std::uint32_t force : {0u, d.p}) {
    serve::JobOptions job;
    job.force_procs = force;
    auto result = pipeline.submit_histogram(d.image, k, job).result.get();
    ASSERT_EQ(result.status, serve::JobStatus::kOk)
        << "hist_pipeline_force" << force << ": " << result.error;
    ASSERT_TRUE(result.has_value()) << "hist_pipeline_force" << force;
    EXPECT_EQ(*result.value, reference) << "hist_pipeline_force" << force;
  }
}

}  // namespace

TEST(RandomDifferential, SeededDrawsMatchReferences) {
  serve::Pipeline pipeline;
  std::unique_ptr<sc::Machine> machines[5];  // one per p = 2^e, built lazily
  for (const std::uint64_t seed : stress_seed_sweep(kFixedSeeds)) {
    const Draw d = draw(seed);
    SCOPED_TRACE(d.what);
    auto& machine = machines[std::countr_zero(d.p)];
    if (!machine) machine = std::make_unique<sc::Machine>(d.p);
    check_labels(d, *machine, pipeline);
    check_histograms(d, *machine, pipeline);
  }
}
