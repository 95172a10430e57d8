// End-to-end measurement (untraced) and the traced per-layer replay.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "inputs.hpp"
#include "service/service.hpp"

namespace perfbench {

/// Timed runs feed the stream in consecutive slices of this many updates and
/// time each one (measure()). A slice takes well under a millisecond on the
/// overhead-bound workload, short enough that most slices find all four
/// vCPUs running in at least one rep on a host that steals a fifth of the
/// time.
inline constexpr std::size_t kSliceUpdates = 16;

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one benchmark run reports: the correctness tally and the metrics.
struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;  ///< one line per failed check
  std::vector<Metric> metrics;
  std::vector<Metric> diagnostics;  ///< printed, not part of the result

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void fail(std::uint64_t updates, std::string why) {
    failed += updates;
    errors.push_back(std::move(why));
  }
};

/// Per-update ΔM of the sequential engine on the whole stream: the
/// correctness reference every other path is checked against.
struct Reference {
  std::vector<std::uint64_t> positive;  ///< per update
  std::vector<std::uint64_t> negative;  ///< per update
  std::vector<std::uint8_t> applied;    ///< per update: graph changed
  std::uint64_t total_positive = 0;
  std::uint64_t total_negative = 0;
  std::uint64_t noops = 0;
  std::uint64_t final_edges = 0;
  std::vector<std::int64_t> slice_ns;  ///< wall time of each kSliceUpdates slice
};

/// Runs `stream` through a SequentialEngine over a graph built from the
/// inputs, or copied from `base` when given.
[[nodiscard]] Reference sequential_run(const WorkloadSpec& spec, const Inputs& in,
                                       std::span<const GraphUpdate> stream,
                                       const paracosm::graph::DataGraph* base = nullptr);

/// One open-loop serve probe: `window` is submitted from the calling thread
/// at `rate` updates/s through a fresh StreamService with its WAL at
/// `wal_path`; latency is timed from each update's due time. A rate at which
/// every update is due at once makes it a closed loop.
struct Probe {
  std::vector<std::int64_t> sojourn_ns;  ///< due -> acknowledgement
  std::vector<std::int64_t> lag_ns;      ///< producer lateness per submit
  std::vector<std::int64_t> wait_ns;     ///< sojourn minus WAL and process
  std::uint64_t degraded = 0;
  std::uint64_t wrong = 0;       ///< updates whose ΔM differs from the reference
  std::uint64_t missing = 0;     ///< updates without exactly one acknowledgement
  std::vector<std::uint8_t> applied;
  paracosm::service::ServiceReport report;
};

[[nodiscard]] Probe serve_probe(Instance& inst, std::span<const GraphUpdate> window,
                                const Reference& ref, double rate,
                                const std::string& wal_path);

/// Undo a probe's applied updates so the next probe starts from the same
/// graph and ADS state.
void rewind(Instance& inst, std::span<const GraphUpdate> window,
            const std::vector<std::uint8_t>& applied);

/// (steal, total) jiffies of all CPUs from /proc/stat; zeros if unreadable.
/// The steal share of a run is the time the hypervisor gave other guests.
[[nodiscard]] std::pair<double, double> cpu_jiffies();

/// Quantile of raw samples (nearest rank); sorts a copy.
[[nodiscard]] double quantile(std::vector<std::int64_t> v, double q);
[[nodiscard]] double median(std::vector<double> v);

/// The untraced run: every end-to-end metric, measured for `seconds`.
[[nodiscard]] RunResult measure(const WorkloadSpec& spec, const Inputs& in,
                                double seconds, const std::string& work_dir);

/// The traced run: replays the inputs through each layer's public calls and
/// reports every per-layer metric; writes the spans to `span_path`.
[[nodiscard]] RunResult replay(const WorkloadSpec& spec, const Inputs& in,
                               const std::string& work_dir,
                               const std::string& span_path);

}  // namespace perfbench
