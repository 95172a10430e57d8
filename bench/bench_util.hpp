// Shared plumbing for the bench binaries: standard CLI options and the
// per-algorithm workload view (CaLiG gets the edge-label-stripped copy, as
// in the paper's evaluation protocol).
#pragma once

#include <algorithm>
#include <string>

#include "bench_common/reporting.hpp"
#include "bench_common/runner.hpp"
#include "bench_common/workload.hpp"
#include "util/cli.hpp"
#include "util/affinity.hpp"

namespace paracosm::bench {

/// Registers the options every bench shares.
inline util::Cli standard_cli(std::string program, std::string description) {
  util::Cli cli(std::move(program), std::move(description));
  cli.option("scale", "1.0", "Dataset size multiplier over the scaled-down defaults")
      .option("queries", "4", "Query graphs per configuration")
      .option("stream", "1200", "Max updates taken from the stream (0 = all)")
      .option("timeout-ms", "1500", "Per-query whole-stream time budget (0 = none)")
      .option("threads", "32",
              "Worker threads for parallel configurations (0 = one per CPU in "
              "the process affinity mask)")
      .option("seed", "42", "Root random seed");
  return cli;
}

/// --threads 0 means "one worker per schedulable CPU" — the affinity mask,
/// not hardware_concurrency, so taskset/cgroup-restricted runs don't
/// oversubscribe.
inline unsigned resolve_threads(std::int64_t requested) {
  return requested > 0 ? static_cast<unsigned>(requested)
                       : util::affinity_cpu_count();
}

/// Truncate the stream to the --stream budget (keeps benches CI-sized).
inline void cap_stream(Workload& wl, std::int64_t cap) {
  if (cap > 0 && wl.stream.size() > static_cast<std::size_t>(cap))
    wl.stream.resize(static_cast<std::size_t>(cap));
}

/// LiveJournal stand-in calibrated for the large-query experiments: the
/// paper's search-cost blowup is driven by the search-tree branching factor
/// (≈ hub degree / |L(V)|). At 1/250 scale the hubs are ~250x smaller, so
/// the label alphabet is reduced (default 30 -> 8) to restore the paper's
/// super-critical branching regime; every other characteristic is unchanged.
/// Measured effect: sequential cost roughly doubles per query-size step and
/// success collapses at sizes 9-10, matching Figure 4 / Table 3.
inline graph::DatasetSpec livejournal_hard_spec(double scale, std::uint32_t labels) {
  graph::DatasetSpec spec = graph::livejournal_spec(scale);
  spec.num_vertex_labels = labels;
  return spec;
}

/// The workload an algorithm actually sees: CaLiG runs on the edge-label
/// stripped copy (its original system has no edge-label matching).
inline const Workload& workload_for(const std::string& algorithm, const Workload& full,
                                    const Workload& stripped) {
  return algorithm == "calig" ? stripped : full;
}

}  // namespace paracosm::bench
