// Workload definitions, seeded input generation and engine set-up for the
// wall-clock benchmark (see README.md for why each workload exists).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "csm/algorithm.hpp"
#include "graph/data_graph.hpp"
#include "graph/generators.hpp"
#include "graph/query_graph.hpp"
#include "paracosm/paracosm.hpp"

namespace perfbench {

using paracosm::graph::GraphUpdate;

/// Engine threads for every ParaCOSM instance the benchmark builds. Every
/// other engine::Config knob stays at its library default.
inline constexpr unsigned kThreads = 4;

struct WorkloadSpec {
  std::string name;
  paracosm::graph::DatasetSpec dataset;
  std::uint32_t query_size = 0;
  std::string algorithm;
  double insert_fraction = 0.10;  ///< edges held out as the insert stream
  double delete_fraction = 0.0;   ///< share of those inserts re-deleted
  // Open-loop serving through service::StreamService (WAL on).
  std::size_t serve_window = 0;   ///< updates per serve probe
  double heavy_rate = 0;          ///< fixed heavy arrival rate, updates/s
  double light_rate = 0;          ///< fixed light arrival rate, updates/s
  /// Binary-search serve_max_rate (a diagnostic) after the first probe.
  bool search_max_rate = false;
};

[[nodiscard]] const WorkloadSpec* find_workload(const std::string& name);

/// Everything one seed produces: the initial graph as plain data, the
/// query and the update stream.
struct Inputs {
  std::vector<paracosm::graph::Label> vertex_labels;
  std::vector<paracosm::graph::Edge> edges;
  paracosm::graph::QueryGraph query;
  std::vector<GraphUpdate> stream;
  /// The updates every serve probe submits: the first serve_window updates
  /// of the stream the dataset seed orders, the same in every run.
  std::vector<GraphUpdate> serve_window;
};

/// Deterministic in `seed`; throws if no query can be extracted.
[[nodiscard]] Inputs make_inputs(const WorkloadSpec& spec, std::uint64_t seed);

/// The data graph built from the inputs' edge list (the "load" step).
[[nodiscard]] paracosm::graph::DataGraph build_graph(const Inputs& in);

/// One ParaCOSM instance over a graph built from the edge list, or copied
/// from `base` when given. Not movable: the engine keeps references to the
/// graph, query and algorithm.
struct Instance {
  paracosm::graph::DataGraph graph;
  std::unique_ptr<paracosm::csm::CsmAlgorithm> alg;
  std::unique_ptr<paracosm::engine::ParaCosm> engine;
  double graph_s = 0;   ///< build_graph (or copy) wall time
  double attach_s = 0;  ///< algorithm + ParaCosm construction (offline stage)

  Instance() = default;
  Instance(const Instance&) = delete;
  Instance& operator=(const Instance&) = delete;
};

[[nodiscard]] std::unique_ptr<Instance> make_instance(
    const WorkloadSpec& spec, const Inputs& in,
    const paracosm::graph::DataGraph* base = nullptr);

/// engine::Config defaults with the benchmark's thread count.
[[nodiscard]] paracosm::engine::Config engine_config();

/// The update that undoes `upd` (used to rewind the graph between probes).
[[nodiscard]] GraphUpdate inverse(const GraphUpdate& upd);

[[nodiscard]] double seconds_since(std::int64_t start_ns);
[[nodiscard]] std::int64_t now_ns();

}  // namespace perfbench
