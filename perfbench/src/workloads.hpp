#ifndef PERFBENCH_WORKLOADS_HPP
#define PERFBENCH_WORKLOADS_HPP

/// \file workloads.hpp
/// Seeded inputs of the workloads, their sequential reference outputs, and
/// the exact-match oracle every measured output goes through.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "histcc/cc/parallel_cc.hpp"
#include "histcc/image/image.hpp"
#include "histcc/serve/pipeline.hpp"
#include "histcc/splitc/machine.hpp"
#include "measure.hpp"

namespace perfbench {

namespace img = histcc::img;
namespace serve = histcc::serve;

enum class Kind : std::uint8_t { kHistogram, kComponents };

/// One distinct input and its reference output, computed once by the
/// sequential code outside every timed region.
struct Input {
  Kind kind = Kind::kHistogram;
  img::GreyImage image;
  std::uint32_t k = 256;          ///< histogram levels
  histcc::cc::CcOptions cc{};     ///< components options
  std::vector<std::uint32_t> hist_ref;
  img::LabelImage labels_ref;
};

/// Fill the reference output of `input` from its image.
void compute_reference(Input& input);

/// Exact comparison against the reference; false on any difference.
[[nodiscard]] bool matches(const Input& in,
                           const std::vector<std::uint32_t>& histogram);
[[nodiscard]] bool matches(const Input& in, const img::LabelImage& labels);

struct Workload {
  std::string name;
  /// The workload's input: called through the sequential, OpenMP and
  /// virtual-machine backends in the direct phase, and submitted as the
  /// job of the pipeline phases.
  Input frame;
  /// Input of the other kernel, decomposed only in the traced run, so that
  /// every layer is measured on every workload.
  Input companion;
  /// Open-loop arrival rate, jobs/s: about a third of the closed-loop
  /// capacity the seed commit reached on a 4-core host, frozen so that
  /// later commits are measured under the same offered load.
  double open_rate = 0;
  /// Shares of the run given to the direct phase, the open loop and the
  /// closed loop.
  double direct_share = 0;
  double open_share = 0;
  double closed_share = 0;
};

[[nodiscard]] bool is_workload(const std::string& name);

/// Build the named workload from `seed`: same seed, same inputs.
[[nodiscard]] Workload make_workload(const std::string& name,
                                     std::uint64_t seed);

/// Backends of the direct-call phase.
enum class Backend : std::uint8_t { kSeq, kOmp, kVm };

/// One public-API call of `backend` on `in`.  Returns the call's wall time
/// in ms; `ok` is the oracle's verdict, taken after the clock stopped.
[[nodiscard]] double timed_call(Backend backend,
                                histcc::splitc::Machine& machine,
                                const Input& in, bool& ok);

/// What the caller saw of one pipeline job.
struct JobSeen {
  Clock::time_point seen{};  ///< when the result became visible
  bool ok = false;           ///< kOk and an exact match
  std::uint32_t procs = 0;   ///< 1 = sequential path
  double queue_ms = 0;
  double run_ms = 0;
};

/// Submit `in` to `pipeline` (consuming `image`, a copy of in.image made
/// by the caller before the job was due); the returned callable blocks
/// until the result is visible, then checks it.
[[nodiscard]] std::function<JobSeen()> submit(serve::Pipeline& pipeline,
                                              const Input& in,
                                              img::GreyImage image);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_HPP
