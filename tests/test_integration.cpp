// Cross-module integration tests: the version string, full pipelines over
// the DARPA-like benchmark scene, machine reuse across algorithms, and the
// paper's end-to-end workflows (histogram -> equalize; label -> analyse).
#include <gtest/gtest.h>

#include <numeric>

#include "histcc/histcc.hpp"

using namespace histcc;

TEST(FacadeTest, VersionString) {
  EXPECT_STREQ(version(), "1.0.0");
}

TEST(IntegrationTest, DarpaScenePipeline) {
  // The paper's headline experiment: a 256-grey-level DARPA-style scene,
  // histogrammed and component-labeled on the same machine.
  const std::uint32_t n = 128, p = 16;
  const auto scene = img::make_darpa_like(n, 42);
  splitc::Machine machine(p);
  const img::TileLayout layout(n, p);
  splitc::Spread<std::uint8_t> tiles(machine, layout.max_tile_size());
  layout.scatter(scene, tiles);

  const auto counts = hist::histogram_parallel(machine, layout, tiles, 256);
  EXPECT_EQ(std::accumulate(counts.begin(), counts.end(), std::uint64_t{0}),
            static_cast<std::uint64_t>(n) * n);
  EXPECT_EQ(counts, hist::histogram_seq(scene, 256));

  cc::CcOptions options;
  options.rule = ccseq::ColourRule::kSameColour;
  const auto labels =
      cc::connected_components_parallel(machine, layout, tiles, options);
  EXPECT_EQ(labels, ccseq::label_components_bfs(
                        scene, ccseq::Connectivity::kEight,
                        ccseq::ColourRule::kSameColour));
  EXPECT_GT(ccseq::count_components(labels), 50u)
      << "a DARPA-style scene has many components";
}

TEST(IntegrationTest, MachineReusedAcrossManyRuns) {
  splitc::Machine machine(8);
  for (int round = 0; round < 3; ++round) {
    const auto image = img::make_percolation(64, 0.5 + 0.1 * round,
                                             static_cast<std::uint64_t>(round));
    const auto labels = cc::connected_components_parallel(machine, image);
    EXPECT_EQ(labels, ccseq::label_components_bfs(image));
    const auto counts = hist::histogram_parallel(machine, image, 2);
    EXPECT_EQ(counts, hist::histogram_seq(image, 2));
  }
}

TEST(IntegrationTest, EqualizeAfterParallelHistogram) {
  const auto image = img::make_darpa_like(64, 19);
  splitc::Machine machine(4);
  const auto counts = hist::histogram_parallel(machine, image, 256);
  const auto map = hist::equalization_map(counts, image.size());
  // The parallel histogram drives the same equalization as the sequential.
  EXPECT_EQ(hist::equalize(image, 256).pixels()[0], map[image.pixels()[0]]);
}

TEST(IntegrationTest, PercolationClusterAnalysis) {
  // The percolation application (paper Section 1 cites [41], [5]): above
  // the 2-D site-percolation threshold with 8-connectivity, a giant
  // cluster dominates.
  const auto lattice = img::make_percolation(128, 0.7, 555);
  splitc::Machine machine(16);
  const auto labels = cc::connected_components_parallel(machine, lattice);
  const auto sizes = ccseq::component_sizes(labels);
  ASSERT_FALSE(sizes.empty());
  std::uint64_t total = 0;
  for (const auto& s : sizes) total += s.pixels;
  EXPECT_GT(sizes[0].pixels, total / 2)
      << "the giant cluster holds most occupied sites above threshold";
}

TEST(IntegrationTest, AllLabelersAgreeOnDarpaScene) {
  const auto scene = img::make_darpa_like(96, 23);
  splitc::Machine machine(8);
  const auto seq_bfs = ccseq::label_components_bfs(
      scene, ccseq::Connectivity::kEight, ccseq::ColourRule::kSameColour);
  const auto seq_uf = ccseq::label_components_unionfind(
      scene, ccseq::Connectivity::kEight, ccseq::ColourRule::kSameColour);
  cc::CcOptions options;
  options.rule = ccseq::ColourRule::kSameColour;
  const auto par = cc::connected_components_parallel(machine, scene, options);
  const auto prop = cc::connected_components_label_prop(
      machine, scene, ccseq::Connectivity::kEight,
      ccseq::ColourRule::kSameColour);
  EXPECT_EQ(seq_bfs, seq_uf);
  EXPECT_EQ(seq_bfs, par);
  EXPECT_EQ(seq_bfs, prop);
}

TEST(IntegrationTest, BdmStatsAccumulateSensiblyAcrossPipeline) {
  const auto image = img::make_darpa_like(64, 3);
  splitc::Machine machine(8);
  (void)cc::connected_components_parallel(machine, image);
  const auto cc_stats = machine.max_stats();
  EXPECT_GT(cc_stats.barriers, 0u);
  EXPECT_GT(cc_stats.words, 0u);
  // Modeled times must be positive and larger on a machine that is worse
  // on both axes (SP-1: higher latency and lower bandwidth than Paragon).
  const double on_sp1 = cc_stats.modeled_comm_seconds(splitc::sp1());
  const double on_paragon = cc_stats.modeled_comm_seconds(splitc::paragon());
  EXPECT_GT(on_sp1, 0.0);
  EXPECT_GT(on_sp1, on_paragon);
}
