// Ablation of the topology-aware victim order (DESIGN.md §10): the PR-2
// flat randomized steal ring vs the distance-tiered sweep (SMT sibling ->
// same NUMA node -> remote, with exponential remote back-off) under an
// *emulated* two-node topology, so the policy difference is measurable on
// any CI box regardless of its real shape. Identical pool, identical
// updates, identical traversal code — only the victim order differs; the
// match streams are byte-identical by construction (test_scheduler asserts
// it), so the CSV compares cost only: simulated makespan and where the
// steals landed.
#include <cstdio>
#include <string>

#include "bench/bench_util.hpp"
#include "paracosm/inner_executor.hpp"
#include "paracosm/task_queue.hpp"
#include "paracosm/worker_pool.hpp"
#include "util/hw_topo.hpp"

using namespace paracosm;
using namespace paracosm::bench;

namespace {

struct TopoTotals {
  std::int64_t makespan_ns = 0;
  std::int64_t cpu_ns = 0;
  std::uint64_t matches = 0;
  std::uint64_t steals_ok = 0;
  std::uint64_t steals_local = 0;
  std::uint64_t steals_same_node = 0;
  std::uint64_t steals_remote = 0;

  [[nodiscard]] double remote_share() const {
    return steals_ok > 0
               ? static_cast<double>(steals_remote) / static_cast<double>(steals_ok)
               : 0.0;
  }
};

TopoTotals drive(const Workload& wl, const graph::QueryGraph& q,
                 engine::InnerExecutor& exec) {
  TopoTotals totals;
  auto alg = csm::make_algorithm("graphflow");
  graph::DataGraph g = wl.graph;
  alg->attach(q, g);
  for (const auto& upd : wl.stream) {
    if (!upd.is_edge_op()) continue;
    if (!g.add_edge(upd.u, upd.v, upd.label)) continue;
    alg->on_edge_inserted(upd);
    std::vector<csm::SearchTask> seeds;
    alg->seeds(upd, seeds);
    if (seeds.empty()) continue;
    const engine::InnerRunResult r = exec.run(*alg, seeds, {}, nullptr);
    totals.makespan_ns += r.stats.simulated_makespan_ns();
    totals.cpu_ns += r.stats.sequential_equivalent_ns();
    totals.matches += r.matches;
    totals.steals_ok += r.stats.total_steals_succeeded();
    totals.steals_local += r.stats.total_steals_local();
    totals.steals_same_node += r.stats.total_steals_same_node();
    totals.steals_remote += r.stats.total_steals_remote();
  }
  return totals;
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli = standard_cli(
      "ablation_topology",
      "Ablation: flat randomized steal ring vs distance-tiered victim order");
  cli.option("query-size", "8",
             "Query graph size (8 = the heavy-tailed regime where stealing "
             "dominates)")
      .option("numa-nodes", "2", "Emulated NUMA nodes the workers divide into");
  if (!cli.parse(argc, argv)) return cli.exit_code();

  const double scale = cli.get_double("scale");
  const auto num_queries = static_cast<std::uint32_t>(cli.get_int("queries"));
  const std::int64_t stream_cap = cli.get_int("stream");
  const unsigned threads = bench::resolve_threads(cli.get_int("threads"));
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  const auto nodes =
      std::max(1u, static_cast<unsigned>(cli.get_int("numa-nodes")));

  print_experiment_banner(
      "Ablation: topology-aware stealing",
      "Flat randomized victim ring (PR 2) vs SMT/node/remote-tiered sweep "
      "with remote back-off, emulated multi-node topology, GraphFlow, "
      "LiveJournal-hard stand-in");

  Workload wl = build_workload(livejournal_hard_spec(scale, 8),
                               static_cast<std::uint32_t>(cli.get_int("query-size")),
                               num_queries, 0.10, seed);
  cap_stream(wl, stream_cap);

  // Policy-only emulated topology (never pins): `threads` workers spread
  // across `nodes` synthetic NUMA nodes. Both arms share the pool, so the
  // distance matrix — and therefore the per-distance accounting — is
  // identical; only the sweep order differs.
  const util::HwTopology topo =
      util::HwTopology::emulated(nodes, (threads + nodes - 1) / nodes);
  engine::PoolOptions popts;
  popts.topology = &topo;
  engine::WorkerPool pool(threads, popts);

  engine::QueueKnobs flat_knobs;
  flat_knobs.victims = &pool.victim_table();  // prices distances, flat order
  flat_knobs.topo_order = false;
  engine::QueueKnobs topo_knobs;
  topo_knobs.victims = &pool.victim_table();
  topo_knobs.topo_order = true;

  util::Table table({"victim_order", "makespan_ms", "cpu_ms", "steals_ok",
                     "local", "same_node", "remote", "remote_share"});
  util::CsvWriter csv(results_path("topology_before_after"),
                      {"victim_order", "threads", "numa_nodes", "makespan_ms",
                       "cpu_ms", "matches", "steals_ok", "steals_local",
                       "steals_same_node", "steals_remote", "remote_share"});

  struct Arm {
    const char* name;
    engine::InnerExecutor* exec;
    TopoTotals* sum;
  };
  engine::InnerExecutor flat_exec(pool, 4, /*dynamic_balance=*/true, flat_knobs);
  engine::InnerExecutor topo_exec(pool, 4, /*dynamic_balance=*/true, topo_knobs);
  TopoTotals flat_sum, topo_sum;
  const Arm arms[] = {{"flat", &flat_exec, &flat_sum},
                      {"topo", &topo_exec, &topo_sum}};
  // Interleave the arms query-by-query so slow drift in background machine
  // load lands on both sides instead of biasing whichever arm ran last.
  for (const auto& q : wl.queries) {
    for (const Arm& arm : arms) {
      const TopoTotals part = drive(wl, q, *arm.exec);
      arm.sum->makespan_ns += part.makespan_ns;
      arm.sum->cpu_ns += part.cpu_ns;
      arm.sum->matches += part.matches;
      arm.sum->steals_ok += part.steals_ok;
      arm.sum->steals_local += part.steals_local;
      arm.sum->steals_same_node += part.steals_same_node;
      arm.sum->steals_remote += part.steals_remote;
    }
  }
  for (const Arm& arm : arms) {
    const double ms = static_cast<double>(arm.sum->makespan_ns) / 1e6;
    table.row({arm.name, util::Table::num(ms, 3),
               util::Table::num(static_cast<double>(arm.sum->cpu_ns) / 1e6, 3),
               util::Table::num(static_cast<double>(arm.sum->steals_ok), 0),
               util::Table::num(static_cast<double>(arm.sum->steals_local), 0),
               util::Table::num(static_cast<double>(arm.sum->steals_same_node), 0),
               util::Table::num(static_cast<double>(arm.sum->steals_remote), 0),
               util::Table::num(arm.sum->remote_share(), 4)});
    csv.row({arm.name, util::CsvWriter::num(std::uint64_t{threads}),
             util::CsvWriter::num(std::uint64_t{nodes}),
             util::CsvWriter::num(ms, 3),
             util::CsvWriter::num(static_cast<double>(arm.sum->cpu_ns) / 1e6, 3),
             util::CsvWriter::num(arm.sum->matches),
             util::CsvWriter::num(arm.sum->steals_ok),
             util::CsvWriter::num(arm.sum->steals_local),
             util::CsvWriter::num(arm.sum->steals_same_node),
             util::CsvWriter::num(arm.sum->steals_remote),
             util::CsvWriter::num(arm.sum->remote_share(), 4)});
  }

  std::puts("Topology-aware stealing ablation (emulated multi-node):");
  table.print();

  // Self-check against the acceptance bar (only meaningful once stealing is
  // actually exercised — tiny smoke runs may see almost none).
  if (topo_sum.steals_ok >= 100 && flat_sum.remote_share() > 0) {
    const double reduction = topo_sum.remote_share() > 0
                                 ? flat_sum.remote_share() / topo_sum.remote_share()
                                 : 999.0;
    const double flat_ms = static_cast<double>(flat_sum.makespan_ns) / 1e6;
    const double topo_ms = static_cast<double>(topo_sum.makespan_ns) / 1e6;
    std::printf(
        "\nremote-steal share: flat %.4f -> topo %.4f (%.2fx reduction); "
        "makespan %.3f ms -> %.3f ms (%+.2f%%)\n",
        flat_sum.remote_share(), topo_sum.remote_share(), reduction, flat_ms,
        topo_ms, flat_ms > 0 ? (topo_ms - flat_ms) / flat_ms * 100.0 : 0.0);
    if (reduction < 2.0)
      std::puts("WARNING: remote-steal reduction below the 2x acceptance bar");
  } else {
    std::puts("\n(too few steals for a meaningful remote-share comparison)");
  }
  if (flat_sum.matches != topo_sum.matches) {
    std::puts("ERROR: match totals diverged between victim orders");
    return 1;
  }
  std::printf("\nCSV written to %s\n", results_path("topology_before_after").c_str());
  return 0;
}
