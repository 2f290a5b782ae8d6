// The paper's headline workload: connected components of a 512 x 512
// 256-grey-level DARPA Image Understanding Benchmark-style scene
// (Section 6, Figure 10), plus its histogram, with per-phase timing and
// the modeled cost on every machine the paper evaluated.  Optionally
// writes the scene (PGM) and a false-colour labeling (PPM).
//
//   ./darpa_scene [n] [p] [--write]
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>

#include "histcc/histcc.hpp"

int main(int argc, char** argv) {
  using namespace histcc;
  const std::uint32_t n = argc > 1 ? static_cast<std::uint32_t>(std::atoi(argv[1])) : 512;
  const std::uint32_t p = argc > 2 ? static_cast<std::uint32_t>(std::atoi(argv[2])) : 16;
  const bool write = argc > 3 && std::strcmp(argv[3], "--write") == 0;

  std::printf("DARPA-style scene benchmark: %ux%u, 256 grey levels, p=%u\n",
              n, n, p);
  const auto scene = img::make_darpa_like(n);

  splitc::Machine machine(p);
  const img::TileLayout layout(n, p);
  splitc::Spread<std::uint8_t> tiles(machine, layout.tile_sizes(),
                                     "scene_tiles");
  layout.scatter(scene, tiles);

  trace::Tracer tracer;
  machine.set_trace(&tracer);
  const auto counts = hist::histogram_parallel(machine, layout, tiles, 256);
  cc::CcOptions options;
  options.rule = ccseq::ColourRule::kSameColour;
  util::Timer timer;
  auto labels =
      cc::connected_components_parallel(machine, layout, tiles, options);
  const double wall = timer.seconds();

  // Phase times are the kernels' trace spans: the slowest rank's summed
  // time in each.
  std::map<std::string, trace::PhaseRow> phase;
  for (const auto& row : trace::phase_breakdown(tracer, splitc::host())) {
    phase[row.name] = row;
  }
  const auto ms = [&phase](const char* name) {
    return phase[name].wall_s * 1e3;
  };

  std::size_t used_levels = 0;
  for (const auto c : counts) used_levels += c != 0;
  std::printf("histogram: %zu of 256 levels used; phases: tally %.3f ms, "
              "transpose %.3f ms, combine %.3f ms, gather %.3f ms\n",
              used_levels, ms("hist/tally"), ms("hist/transpose"),
              ms("hist/combine"), ms("hist/gather"));

  auto sizes = ccseq::component_sizes(labels);
  std::printf("connected components: %zu components in %.3f ms wall "
              "(%llu merge phases)\n",
              sizes.size(), wall * 1e3,
              static_cast<unsigned long long>(phase["cc/border"].spans / p));
  std::printf("  phases: init %.3f ms, border %.3f ms, graph %.3f ms, "
              "update %.3f ms, final %.3f ms\n",
              ms("cc/init"), ms("cc/border"), ms("cc/graph"), ms("cc/update"),
              ms("cc/final"));
  std::printf("  largest components (px):");
  for (std::size_t i = 0; i < sizes.size() && i < 5; ++i) {
    std::printf(" %llu", static_cast<unsigned long long>(sizes[i].pixels));
  }
  std::printf("\n");

  const auto stats = machine.max_stats();
  std::printf("  BDM ledger (max/proc): %llu words, %llu batches, "
              "%llu barriers\n",
              static_cast<unsigned long long>(stats.words),
              static_cast<unsigned long long>(stats.batches),
              static_cast<unsigned long long>(stats.barriers));
  std::printf("  modeled total time on the paper's machines "
              "(comm + comp):\n");
  for (const char* name : {"CM-5", "SP-1", "SP-2", "CS-2", "Paragon"}) {
    const auto prof = splitc::profile_by_name(name);
    std::printf("    %-8s %8.1f ms\n", name,
                (stats.modeled_comm_seconds(prof) +
                 stats.modeled_comp_seconds(prof)) *
                    1e3);
  }

  if (write) {
    img::write_pgm_file("darpa_scene.pgm", scene);
    img::write_label_ppm_file("darpa_labels.ppm", labels);
    std::printf("wrote darpa_scene.pgm and darpa_labels.ppm\n");
  }
  return 0;
}
