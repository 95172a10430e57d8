// The traced run. It replays a workload's inputs through each layer's
// public calls in pipeline order and records one span around every call:
//
//   batch            classify (per lane, UpdateClassifier::classify)
//                    batch.classify (BatchBackend::classify_batch)
//                    batch.apply (BatchBackend::apply_safe_prefix)
//   update (unsafe)  graph.mutate (DataGraph::add_edge / remove_edge)
//                    csm.ads (on_edge_inserted / on_edge_removed)
//                    csm.seed, csm.search (sequential seeds + expand)
//                    inner.run (InnerExecutor::run on the same seeds)
//
// plus pool.run, wal.append, wal.flush and engine.process spans from their
// own passes. Spans live in memory and are written out at the end; counts
// come from the StreamResult and ServiceReport the program returns.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <unordered_set>

#include "measure.hpp"
#include "paracosm/batch_backend.hpp"
#include "paracosm/classifier.hpp"
#include "paracosm/inner_executor.hpp"
#include "paracosm/worker_pool.hpp"
#include "service/wal.hpp"
#include "util/sync.hpp"

namespace perfbench {

namespace csm = paracosm::csm;
namespace engine = paracosm::engine;
namespace graph = paracosm::graph;

namespace {

constexpr int kPoolRuns = 20000;

struct Span {
  const char* name;
  std::int64_t start = 0;
  std::int64_t end = 0;
  std::int32_t parent = -1;
  std::uint64_t update = 0;
};

/// In-memory span recorder; a disabled tracer records and times nothing.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  void open(const char* name, std::uint64_t update) {
    if (!enabled_) return;
    const std::int32_t parent = stack_.empty() ? -1 : stack_.back();
    stack_.push_back(static_cast<std::int32_t>(spans_.size()));
    spans_.push_back({name, now_ns(), 0, parent, update});
  }
  /// Closes the innermost span and returns its duration.
  std::int64_t close() {
    if (!enabled_) return 0;
    Span& s = spans_[static_cast<std::size_t>(stack_.back())];
    stack_.pop_back();
    s.end = now_ns();
    return s.end - s.start;
  }
  [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;
};

class Scope {
 public:
  Scope(Tracer& t, const char* name, std::uint64_t update) : t_(t) {
    t_.open(name, update);
  }
  ~Scope() {
    if (!closed_) t_.close();
  }
  std::int64_t close() {
    closed_ = true;
    return t_.close();
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& t_;
  bool closed_ = false;
};

/// What one pipeline replay computed.
struct Pipeline {
  std::uint64_t positive = 0;
  std::uint64_t negative = 0;
  std::uint64_t nodes = 0;  ///< sequential search nodes over unsafe updates
  std::uint64_t final_edges = 0;
  std::uint64_t batches = 0;
  std::uint64_t deferred_conflicts = 0;  ///< strict-mode endpoint conflicts
  std::uint64_t unsafe = 0;              ///< updates run sequentially
  std::uint64_t verdict_mismatches = 0;  ///< classify vs classify_batch
  std::uint64_t inner_mismatches = 0;    ///< InnerExecutor vs sequential ΔM
  std::vector<std::int64_t> search_ns;   ///< per unsafe update (traced only)
  std::vector<std::int64_t> inner_ns;    ///< per unsafe update with seeds
  std::int64_t inner_search_ns = 0;      ///< sequential search where inner ran
  engine::ParallelStats inner_stats;
  double wall_s = 0;
};

/// The batch executor of ParaCosm::process_stream, rebuilt from the layers'
/// public calls. It reproduces the central-queue scheduler, strict batches,
/// inner parallelism and no invariant stage; replay() refuses a
/// configuration outside that.
Pipeline run_pipeline(const WorkloadSpec& spec, const Inputs& in, Tracer& tr) {
  const engine::Config cfg = engine_config();
  Scope setup(tr, "setup", 0);
  graph::DataGraph g = build_graph(in);
  auto alg = csm::make_algorithm(spec.algorithm);
  alg->attach(in.query, g);
  engine::PoolOptions popts;
  popts.spin_iters = cfg.pool_spin_iters;
  popts.pin = cfg.pin_threads;
  engine::WorkerPool pool(cfg.effective_threads(), popts);
  engine::QueueKnobs knobs;
  knobs.spin_iters = cfg.queue_spin_iters;
  knobs.victims = &pool.victim_table();
  knobs.topo_order = cfg.topo_aware_steal;
  engine::InnerExecutor inner(pool, cfg.split_depth, cfg.dynamic_balance, knobs);
  const engine::UpdateClassifier classifier(in.query, g, *alg);
  paracosm::util::StripedLocks<64> locks;
  const engine::BackendBind bind{&in.query, &g, alg.get(), &classifier, &pool, &locks};
  const auto cpu = engine::make_batch_backend(engine::BatchBackendKind::kCpu, bind);
  const auto wide =
      engine::make_batch_backend(engine::BatchBackendKind::kWide, bind, cfg.wide_dispatch);
  setup.close();
  // ParaCosm::backend_for.
  const auto backend_for = [&](std::size_t lanes) -> engine::BatchBackend& {
    switch (cfg.batch_backend) {
      case engine::BatchBackendKind::kCpu: return *cpu;
      case engine::BatchBackendKind::kWide: return *wide;
      case engine::BatchBackendKind::kAuto: break;
    }
    if (pool.size() <= 1) return *wide;
    return lanes <= cfg.wide_auto_cutoff ? *wide : *cpu;
  };

  Pipeline out;
  const std::span<const GraphUpdate> stream(in.stream);
  const std::size_t k = cfg.effective_batch_size();
  std::vector<engine::UpdateClass> verdicts, lane;
  engine::ParallelStats stats;
  stats.ensure_size(pool.size());
  std::unordered_set<graph::VertexId> touched;

  const auto search = [&](std::uint64_t id, const std::vector<csm::SearchTask>& roots) {
    csm::MatchSink sink;
    Scope s(tr, "csm.search", id);
    for (const csm::SearchTask& task : roots) alg->expand(task, sink, nullptr);
    const std::int64_t seq_ns = s.close();
    out.search_ns.push_back(seq_ns);
    out.nodes += sink.nodes;
    if (!roots.empty()) {
      Scope r(tr, "inner.run", id);
      const engine::InnerRunResult run = inner.run(*alg, roots);
      out.inner_ns.push_back(r.close());
      out.inner_search_ns += seq_ns;
      out.inner_stats.merge(run.stats);
      if (run.matches != sink.matches) ++out.inner_mismatches;
    }
    return sink.matches;
  };

  const auto unsafe_update = [&](std::uint64_t id, const GraphUpdate& upd) {
    Scope u(tr, "update", id);
    std::vector<csm::SearchTask> roots;
    if (upd.op == graph::UpdateOp::kInsertEdge) {
      bool added = false;
      {
        Scope s(tr, "graph.mutate", id);
        added = g.add_edge(upd.u, upd.v, upd.label);
      }
      if (!added) return;
      {
        Scope s(tr, "csm.ads", id);
        alg->on_edge_inserted(upd);
      }
      {
        Scope s(tr, "csm.seed", id);
        alg->seeds(upd, roots);
      }
      out.positive += search(id, roots);
    } else {
      const auto label = g.edge_label(upd.u, upd.v);
      if (!label) return;
      GraphUpdate del = upd;
      del.label = *label;
      {
        Scope s(tr, "csm.seed", id);
        alg->seeds(del, roots);
      }
      out.negative += search(id, roots);
      {
        Scope s(tr, "graph.mutate", id);
        g.remove_edge(upd.u, upd.v);
      }
      Scope s(tr, "csm.ads", id);
      alg->on_edge_removed(del);
    }
  };

  const std::int64_t t0 = now_ns();
  std::size_t i = 0;
  while (i < stream.size()) {
    const std::size_t count = std::min(k, stream.size() - i);
    const auto batch = stream.subspan(i, count);
    engine::BatchBackend& backend = backend_for(count);
    ++out.batches;
    std::size_t safe_prefix = 0;
    bool hit_unsafe = false;
    {
      Scope b(tr, "batch", i);
      lane.resize(count);
      for (std::size_t j = 0; j < count; ++j) {
        Scope s(tr, "classify", i + j);
        lane[j] = classifier.classify(batch[j]);
      }
      verdicts.assign(count, engine::UpdateClass::kUnsafe);
      {
        Scope s(tr, "batch.classify", i);
        backend.classify_batch(batch, verdicts, stats);
      }
      for (std::size_t j = 0; j < count; ++j)
        if (lane[j] != verdicts[j]) ++out.verdict_mismatches;
      touched.clear();
      for (; safe_prefix < count; ++safe_prefix) {
        const GraphUpdate& upd = batch[safe_prefix];
        if (!engine::is_safe(verdicts[safe_prefix])) {
          hit_unsafe = true;
          break;
        }
        if (upd.is_edge_op() && (touched.contains(upd.u) || touched.contains(upd.v))) {
          ++out.deferred_conflicts;
          break;
        }
        if (upd.is_edge_op()) {
          touched.insert(upd.u);
          touched.insert(upd.v);
        }
      }
      if (safe_prefix > 0) {
        Scope s(tr, "batch.apply", i);
        backend.apply_safe_prefix(batch.first(safe_prefix), stats);
      }
    }
    i += safe_prefix;
    if (hit_unsafe) {
      ++out.unsafe;
      unsafe_update(i, stream[i]);
      ++i;
    }
  }
  out.wall_s = seconds_since(t0);
  out.final_edges = g.num_edges();
  return out;
}

/// Span durations by span name.
using ByName = std::map<std::string, std::vector<std::int64_t>>;

ByName by_name(const std::vector<Span>& spans) {
  ByName by;
  for (const Span& s : spans) by[s.name].push_back(s.end - s.start);
  return by;
}

double mean_ns(const ByName& by, const std::string& name) {
  const auto it = by.find(name);
  if (it == by.end() || it->second.empty()) return 0;
  double total = 0;
  for (const std::int64_t v : it->second) total += static_cast<double>(v);
  return total / static_cast<double>(it->second.size());
}

double pct(const ByName& by, const std::string& name, double q) {
  const auto it = by.find(name);
  return it == by.end() ? 0 : quantile(it->second, q);
}

void write_spans(const std::string& path, const std::vector<Span>& spans,
                 std::int64_t origin) {
  std::ofstream f(path);
  f << "{\"spans\": [\n";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    f << (i ? ",\n" : "") << "[\"" << s.name << "\", " << (s.start - origin) << ", "
      << (s.end - origin) << ", " << s.parent << ", " << s.update << "]";
  }
  f << "\n], \"fields\": [\"name\", \"start_ns\", \"end_ns\", \"parent\", \"update\"]}\n";
}

}  // namespace

RunResult replay(const WorkloadSpec& spec, const Inputs& in, const std::string& work_dir,
                 const std::string& span_path) {
  RunResult res;
  Tracer tr(true);
  const std::int64_t origin = now_ns();
  const auto [steal0, total0] = cpu_jiffies();
  const std::size_t n = in.stream.size();
  const Reference ref = sequential_run(spec, in, in.stream);
  const auto check = [&](const char* what, std::uint64_t pos, std::uint64_t neg,
                         std::uint64_t edges) {
    res.attempted += n;
    if (pos != ref.total_positive || neg != ref.total_negative ||
        edges != ref.final_edges)
      res.fail(n, std::string(what) + " ΔM " + std::to_string(pos) + "+/" +
                      std::to_string(neg) + "- edges " + std::to_string(edges) +
                      " vs reference " + std::to_string(ref.total_positive) + "+/" +
                      std::to_string(ref.total_negative) + "- edges " +
                      std::to_string(ref.final_edges));
  };

  // The program's own counts, from one untraced process_stream.
  std::unique_ptr<Instance> inst;
  {
    Scope s(tr, "setup", 0);
    inst = make_instance(spec, in);
  }
  const double setup_graph_s = inst->graph_s;
  const double setup_attach_s = inst->attach_s;
  const engine::StreamResult sr = inst->engine->process_stream(in.stream);
  check("process_stream", sr.positive, sr.negative, inst->graph.num_edges());
  const engine::Config cfg = engine_config();
  if (cfg.scheduler != engine::Scheduler::kCentralQueue ||
      cfg.batch_mode != engine::BatchMode::kStrict || !cfg.inner_parallelism ||
      !cfg.inter_parallelism || inst->engine->invariant_stage() != nullptr)
    res.fail(0, "engine configuration outside what the replay reproduces "
                "(scheduler, batch mode, inner/inter parallelism, invariant stage)");
  inst.reset();

  // The pipeline replay, untraced and then traced.
  Tracer off(false);
  const Pipeline plain = run_pipeline(spec, in, off);
  check("untraced replay", plain.positive, plain.negative, plain.final_edges);
  const std::size_t first_replay_span = tr.spans().size();
  const std::int64_t replay_t0 = now_ns();
  const Pipeline traced = run_pipeline(spec, in, tr);
  const std::int64_t replay_end = now_ns();
  check("traced replay", traced.positive, traced.negative, traced.final_edges);
  for (const Pipeline* p : {&plain, &traced})
    if (p->batches != sr.batches || p->deferred_conflicts != sr.deferred_conflicts ||
        p->unsafe != sr.unsafe_sequential)
      res.fail(0, "replay batching differs from process_stream: " +
                      std::to_string(p->batches) + " batches, " +
                      std::to_string(p->deferred_conflicts) + " deferred, " +
                      std::to_string(p->unsafe) + " unsafe vs " +
                      std::to_string(sr.batches) + ", " +
                      std::to_string(sr.deferred_conflicts) + ", " +
                      std::to_string(sr.unsafe_sequential));
  if (traced.inner_mismatches > 0)
    res.fail(traced.inner_mismatches, "InnerExecutor ΔM differs from the sequential search");
  if (traced.verdict_mismatches > 0)
    res.fail(traced.verdict_mismatches, "classify_batch verdicts differ from classify");
  std::int64_t replay_covered = 0;
  for (std::size_t i = first_replay_span; i < tr.spans().size(); ++i)
    if (tr.spans()[i].parent < 0) replay_covered += tr.spans()[i].end - tr.spans()[i].start;
  const double replay_wall_ns = static_cast<double>(replay_end - replay_t0);

  // Pool dispatch of an empty job.
  {
    engine::PoolOptions popts;
    popts.spin_iters = engine_config().pool_spin_iters;
    engine::WorkerPool pool(kThreads, popts);
    const std::function<void(unsigned)> job = [](unsigned) {};
    for (int r = 0; r < kPoolRuns; ++r) {
      Scope s(tr, "pool.run", static_cast<std::uint64_t>(r));
      pool.run(job);
    }
  }

  // Service layers on the serve window: WAL alone, the engine alone, then
  // the whole service at the heavy rate.
  const std::span<const GraphUpdate> window(in.serve_window);
  const Reference serve_ref = sequential_run(spec, in, window);
  {
    paracosm::service::WalWriter wal(work_dir + "/trace.wal", true);
    for (std::size_t i = 0; i < window.size(); ++i) {
      {
        Scope s(tr, "wal.append", i);
        (void)wal.append(window[i]);
      }
      Scope s(tr, "wal.flush", i);
      wal.flush();
    }
  }
  inst = make_instance(spec, in);
  std::vector<std::uint8_t> applied(window.size(), 0);
  std::uint64_t process_wrong = 0;
  for (std::size_t i = 0; i < window.size(); ++i) {
    Scope s(tr, "engine.process", i);
    const csm::UpdateOutcome o = inst->engine->process(window[i]);
    applied[i] = o.applied ? 1 : 0;
    if (o.positive != serve_ref.positive[i] || o.negative != serve_ref.negative[i] ||
        applied[i] != serve_ref.applied[i])
      ++process_wrong;
  }
  res.attempted += window.size();
  if (process_wrong > 0) res.fail(process_wrong, "ParaCosm::process ΔM differs from reference");
  rewind(*inst, window, applied);
  const auto serve = [&](double rate) {
    Probe p = serve_probe(*inst, window, serve_ref, rate, work_dir + "/trace.wal");
    rewind(*inst, window, p.applied);
    res.attempted += window.size();
    if (p.wrong + p.missing + p.degraded > 0)
      res.fail(p.wrong + p.missing + p.degraded, "serve probe failed");
    return p;
  };
  const Probe light = serve(spec.light_rate);
  const Probe probe = serve(spec.heavy_rate);

  // Metrics.
  const ByName by = by_name(tr.spans());
  std::int64_t search_total = 0;
  for (const std::int64_t v : traced.search_ns) search_total += v;
  std::int64_t inner_total = 0;
  for (const std::int64_t v : traced.inner_ns) inner_total += v;
  const double pool_p50 = pct(by, "pool.run", 0.5);
  std::size_t small = 0;
  for (const std::int64_t v : traced.search_ns)
    if (static_cast<double>(v) < pool_p50) ++small;
  const std::uint64_t lanes = sr.backend_cpu.lanes + sr.backend_wide.lanes;
  const double sim_ns = static_cast<double>(sr.stats.simulated_makespan_ns());

  res.add("setup.graph_s", setup_graph_s, "s");
  res.add("setup.attach_s", setup_attach_s, "s");
  res.add("graph.mutate_ns", mean_ns(by, "graph.mutate"), "ns");
  res.add("csm.ads_ns", mean_ns(by, "csm.ads"), "ns");
  res.add("csm.seed_ns", mean_ns(by, "csm.seed"), "ns");
  res.add("csm.search_ns", mean_ns(by, "csm.search"), "ns");
  res.add("csm.search_p99_ns", pct(by, "csm.search", 0.99), "ns");
  res.add("csm.nodes", static_cast<double>(traced.nodes), "count");
  res.add("csm.nodes_per_s",
          search_total > 0 ? static_cast<double>(traced.nodes) * 1e9 /
                                 static_cast<double>(search_total)
                           : 0,
          "1/s");
  res.add("csm.delta_matches", static_cast<double>(traced.positive + traced.negative),
          "count");
  res.add("classify.ns", mean_ns(by, "classify"), "ns");
  res.add("classify.safe_share",
          sr.classifier.total > 0 ? static_cast<double>(sr.classifier.safe()) /
                                        static_cast<double>(sr.classifier.total)
                                  : 0,
          "ratio");
  res.add("classify.safe_label", static_cast<double>(sr.classifier.safe_label), "count");
  res.add("classify.safe_degree", static_cast<double>(sr.classifier.safe_degree), "count");
  res.add("classify.safe_ads", static_cast<double>(sr.classifier.safe_ads), "count");
  res.add("batch.count", static_cast<double>(sr.batches), "count");
  res.add("batch.mean_lanes",
          sr.batches > 0 ? static_cast<double>(lanes) / static_cast<double>(sr.batches) : 0,
          "count");
  res.add("batch.classify_ns", mean_ns(by, "batch.classify"), "ns");
  res.add("batch.apply_ns", mean_ns(by, "batch.apply"), "ns");
  res.add("batch.reclassify_share",
          sr.updates_processed > 0
              ? static_cast<double>(lanes - std::min<std::uint64_t>(lanes, sr.updates_processed)) /
                    static_cast<double>(sr.updates_processed)
              : 0,
          "ratio");
  res.add("pool.run_p50_ns", pool_p50, "ns");
  res.add("pool.run_p99_ns", pct(by, "pool.run", 0.99), "ns");
  res.add("pool.dispatch_share",
          sr.wall_ns > 0 ? static_cast<double>(sr.stats.dispatch_ns) /
                               static_cast<double>(sr.wall_ns)
                         : 0,
          "ratio");
  res.add("inner.run_ns", mean_ns(by, "inner.run"), "ns");
  res.add("inner.speedup",
          inner_total > 0 ? static_cast<double>(traced.inner_search_ns) /
                                static_cast<double>(inner_total)
                          : 0,
          "ratio");
  res.add("inner.busy_share",
          inner_total > 0 ? static_cast<double>(traced.inner_stats.total_worker_ns()) /
                                (static_cast<double>(kThreads) * static_cast<double>(inner_total))
                          : 0,
          "ratio");
  res.add("inner.small_share",
          traced.search_ns.empty() ? 0
                                   : static_cast<double>(small) /
                                         static_cast<double>(traced.search_ns.size()),
          "ratio");
  res.add("inner.steals", static_cast<double>(traced.inner_stats.total_steals_succeeded()),
          "count");
  res.add("inner.offloads", static_cast<double>(traced.inner_stats.total_offloads()), "count");
  res.add("inner.parks", static_cast<double>(traced.inner_stats.total_parks()), "count");
  res.add("wal.append_ns", mean_ns(by, "wal.append"), "ns");
  res.add("wal.flush_p50_us", pct(by, "wal.flush", 0.5) / 1e3, "us");
  res.add("wal.flush_p99_us", pct(by, "wal.flush", 0.99) / 1e3, "us");
  res.add("engine.process_p50_us", pct(by, "engine.process", 0.5) / 1e3, "us");
  res.add("engine.process_p99_us", pct(by, "engine.process", 0.99) / 1e3, "us");
  res.add("ingest.wait_p99_us", quantile(probe.wait_ns, 0.99) / 1e3, "us");
  res.add("ingest.high_water", static_cast<double>(probe.report.stats.ingest.high_water),
          "count");
  res.add("ingest.blocked_ms", static_cast<double>(probe.report.stats.ingest.blocked_ns) / 1e6,
          "ms");
  res.add("gen.lag_p99_us", quantile(probe.lag_ns, 0.99) / 1e3, "us");
  res.add("serve.p99_ms", quantile(probe.sojourn_ns, 0.99) / 1e6, "ms");
  res.add("serve.light_p99_ms", quantile(light.sojourn_ns, 0.99) / 1e6, "ms");
  res.add("model.sim_makespan_ms", sim_ns / 1e6, "ms");
  res.add("model.wall_over_sim", sim_ns > 0 ? static_cast<double>(sr.wall_ns) / sim_ns : 0,
          "ratio");
  const double coverage = static_cast<double>(replay_covered) / replay_wall_ns;
  res.add("trace.coverage", coverage, "ratio");
  res.add("trace.other", 1.0 - coverage, "ratio");
  res.add("trace.overhead", plain.wall_s > 0 ? traced.wall_s / plain.wall_s - 1.0 : 0,
          "ratio");

  const auto [steal1, total1] = cpu_jiffies();
  res.diagnostics = {{"host.steal_share",
                      total1 > total0 ? (steal1 - steal0) / (total1 - total0) : 0, "ratio"}};

  write_spans(span_path, tr.spans(), origin);
  std::fprintf(stderr, "perfbench: %s: %zu spans written to %s\n", spec.name.c_str(),
               tr.spans().size(), span_path.c_str());
  return res;
}

}  // namespace perfbench
