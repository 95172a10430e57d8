#include "inputs.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>

#include "util/rng.hpp"

namespace perfbench {

namespace graph = paracosm::graph;

namespace {

// The dataset generator's default seed (tools/make_dataset).
constexpr std::uint64_t kDatasetSeed = 42;

graph::DatasetSpec livejournal(double scale, std::uint32_t vertex_labels) {
  graph::DatasetSpec spec = graph::livejournal_spec(scale);
  spec.num_vertex_labels = vertex_labels;
  return spec;
}

// Sizes, rates and windows were calibrated on 4 vCPUs (README.md). The
// heavy rates are a quarter to a third of the quiet-host capacity: a rate
// near capacity turns any contention into a growing queue.
const std::vector<WorkloadSpec>& workloads() {
  static const std::vector<WorkloadSpec> all = {
      // Overhead-bound: many small batches, few unsafe updates, Symbi's
      // insert/delete ADS maintenance. Also the workload that searches
      // serve_max_rate.
      {"lj-mixed-batch", livejournal(4, 30), 7, "symbi", 0.10, 0.5, 300, 600, 200, true},
      // Search-bound: an 8-vertex query over 8 labels, GraphFlow.
      {"ljhard-search", livejournal(2, 8), 8, "graphflow", 0.05, 0.0, 150, 300, 150, false},
  };
  return all;
}

}  // namespace

const WorkloadSpec* find_workload(const std::string& name) {
  for (const WorkloadSpec& w : workloads())
    if (w.name == name) return &w;
  return nullptr;
}

Inputs make_inputs(const WorkloadSpec& spec, std::uint64_t seed) {
  // The dataset, the query and the set of held-out edges are fixed per
  // workload, as a real dataset file would be; the seed orders the held-out
  // inserts and picks and places the re-deletions. Drawing the query or the
  // held-out set per seed swings search cost between seeds by more than
  // any bound the benchmark could keep.
  paracosm::util::Rng rng(kDatasetSeed);
  graph::DataGraph g = graph::generate_power_law(spec.dataset, rng);
  auto queries = graph::extract_queries(g, spec.query_size, 1, rng);
  if (queries.empty())
    throw std::runtime_error("no query extracted for workload " + spec.name);
  const std::vector<GraphUpdate> held =
      graph::make_insert_stream(g, spec.insert_fraction, rng);

  graph::DataGraph held_only;
  for (graph::VertexId v = 0; v < g.vertex_capacity(); ++v)
    held_only.add_vertex(g.label(v));
  for (const GraphUpdate& upd : held) held_only.add_edge(upd.u, upd.v, upd.label);
  graph::DataGraph held_copy = held_only;

  Inputs in;
  in.query = std::move(queries.front());
  in.serve_window =
      graph::make_mixed_stream(held_copy, 1.0, spec.delete_fraction, rng);
  in.serve_window.resize(std::min(in.serve_window.size(), spec.serve_window));
  rng.reseed(seed);
  in.stream = graph::make_mixed_stream(held_only, 1.0, spec.delete_fraction, rng);
  in.vertex_labels.reserve(g.vertex_capacity());
  for (graph::VertexId v = 0; v < g.vertex_capacity(); ++v)
    in.vertex_labels.push_back(g.label(v));
  in.edges = g.edge_list();
  return in;
}

graph::DataGraph build_graph(const Inputs& in) {
  graph::DataGraph g;
  for (const graph::Label l : in.vertex_labels) g.add_vertex(l);
  for (const graph::Edge& e : in.edges) g.add_edge(e.u, e.v, e.elabel);
  return g;
}

paracosm::engine::Config engine_config() {
  paracosm::engine::Config c;
  c.threads = kThreads;
  return c;
}

std::unique_ptr<Instance> make_instance(const WorkloadSpec& spec, const Inputs& in,
                                        const graph::DataGraph* base) {
  auto inst = std::make_unique<Instance>();
  std::int64_t t0 = now_ns();
  inst->graph = base != nullptr ? *base : build_graph(in);
  inst->graph_s = seconds_since(t0);
  t0 = now_ns();
  inst->alg = paracosm::csm::make_algorithm(spec.algorithm);
  inst->engine = std::make_unique<paracosm::engine::ParaCosm>(
      *inst->alg, in.query, inst->graph, engine_config());
  inst->attach_s = seconds_since(t0);
  return inst;
}

GraphUpdate inverse(const GraphUpdate& upd) {
  return upd.op == graph::UpdateOp::kInsertEdge
             ? GraphUpdate::remove_edge(upd.u, upd.v, upd.label)
             : GraphUpdate::insert_edge(upd.u, upd.v, upd.label);
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

}  // namespace perfbench
