#include "paracosm/inner_executor.hpp"

#include <atomic>

#include "obs/trace_ring.hpp"
#include "paracosm/match_buffer.hpp"
#include "util/timer.hpp"

namespace paracosm::engine {

namespace {

using MatchFn = std::function<void(std::span<const csm::Assignment>)>;

/// Split hook of the dynamic path: keep the owner's deque primed with
/// stealable work while the depth budget lasts, without flooding it.
class StealHook final : public csm::SplitHook {
 public:
  StealHook(TaskQueue& queue, unsigned wid, std::uint32_t split_depth,
            WorkerStats& ws) noexcept
      : queue_(queue), wid_(wid), split_depth_(split_depth), ws_(ws) {}

  [[nodiscard]] bool want_offload(std::uint32_t depth) noexcept override {
    return depth < split_depth_ && queue_.local_size(wid_) < 4;
  }
  void offload(csm::SearchTask&& task) override {
    ++ws_.offloads;
    PARACOSM_TRACE_INSTANT(obs::EventKind::kResplit, task.depth());
    queue_.push(wid_, std::move(task));
  }

 private:
  TaskQueue& queue_;
  unsigned wid_;
  std::uint32_t split_depth_;
  WorkerStats& ws_;
};

/// The per-worker frame both paths share: each worker gets a sink (deadline,
/// cancel, its own match buffer) and runs `loop(wid, sink, ws)`; afterwards
/// node/match counts and stop flags are folded and the matches delivered on
/// the caller in merged order.
template <typename Loop>
InnerRunResult run_workers(WorkerPool& pool, util::Clock::time_point deadline,
                           const MatchFn* on_match, util::CancelView cancel,
                           const Loop& loop) {
  InnerRunResult result;
  result.stats.ensure_size(pool.size());
  std::vector<MatchBuffer> match_bufs;
  if (on_match != nullptr) match_bufs.resize(pool.size());

  std::atomic<bool> any_timed_out{false};
  std::atomic<bool> any_cancelled{false};
  pool.run([&](unsigned wid) {
    WorkerStats& ws = result.stats.workers[wid];
    csm::MatchSink sink;
    sink.deadline = deadline;
    sink.cancel = cancel;
    if (on_match != nullptr)
      sink.on_match = [buf = &match_bufs[wid]](std::span<const csm::Assignment> m) {
        buf->append(m);
      };
    loop(wid, sink, ws);
    ws.nodes += sink.nodes;
    ws.matches += sink.matches;
    if (sink.timed_out()) any_timed_out.store(true, std::memory_order_relaxed);
    if (sink.cancelled()) any_cancelled.store(true, std::memory_order_relaxed);
  });
  result.stats.dispatch_ns += pool.last_dispatch_ns();
  for (const WorkerStats& ws : result.stats.workers) {
    result.matches += ws.matches;
    result.nodes += ws.nodes;
  }
  result.timed_out = any_timed_out.load(std::memory_order_relaxed);
  result.cancelled = any_cancelled.load(std::memory_order_relaxed);

  if (on_match != nullptr) emit_merged_sorted(match_bufs, *on_match);
  return result;
}

}  // namespace

InnerExecutor::InnerExecutor(WorkerPool& pool, std::uint32_t split_depth,
                             bool dynamic_balance, QueueKnobs knobs)
    : pool_(pool),
      split_depth_(split_depth),
      dynamic_balance_(dynamic_balance),
      queue_(std::make_unique<TaskQueue>(pool.size(), knobs)) {}

InnerExecutor::~InnerExecutor() = default;

InnerRunResult InnerExecutor::run(const csm::CsmAlgorithm& alg,
                                  std::vector<csm::SearchTask> seeds,
                                  util::Clock::time_point deadline,
                                  const MatchFn* on_match,
                                  util::CancelView cancel) {
  if (seeds.empty()) return {};
  return dynamic_balance_
             ? run_dynamic(alg, std::move(seeds), deadline, on_match, cancel)
             : run_static(alg, std::move(seeds), deadline, on_match, cancel);
}

InnerRunResult InnerExecutor::run_dynamic(const csm::CsmAlgorithm& alg,
                                          std::vector<csm::SearchTask> seeds,
                                          util::Clock::time_point deadline,
                                          const MatchFn* on_match,
                                          util::CancelView cancel) {
  TaskQueue& queue = *queue_;  // persistent across updates: warm deques/nodes
  for (csm::SearchTask& seed : seeds) queue.seed(std::move(seed));

  return run_workers(pool_, deadline, on_match, cancel,
                     [&](unsigned wid, csm::MatchSink& sink, WorkerStats& ws) {
    StealHook hook(queue, wid, split_depth_, ws);
    // expand() draws its partial-match state from this worker's thread_local
    // SearchScratch pool (csm/scratch.hpp), so the loop performs no per-task
    // allocations once warm. Busy time covers expand but not the idle
    // steal-spin inside pop_or_finish.
    while (auto task = queue.pop_or_finish(wid)) {
      // Dispatch-path cancel check: a cancelled epoch drains the queue
      // without expanding, so workers converge even when individual tasks
      // are tiny and never reach the in-search amortized probe.
      if (cancel.active() && cancel.cancelled()) {
        sink.mark_cancelled();
        queue.retire();
        ++ws.tasks;
        continue;
      }
      util::ThreadCpuTimer timer;
      {
        PARACOSM_TRACE_SPAN(task_span, obs::EventKind::kTaskExpand,
                            task->depth());
        alg.expand(*task, sink, &hook);
      }
      queue.retire();
      ++ws.tasks;
      ws.busy_ns += timer.elapsed_ns();
    }
    queue.export_counters(wid, ws);
  });
}

InnerRunResult InnerExecutor::run_static(const csm::CsmAlgorithm& alg,
                                         std::vector<csm::SearchTask> seeds,
                                         util::Clock::time_point deadline,
                                         const MatchFn* on_match,
                                         util::CancelView cancel) {
  // Round-robin partition, no queue, no splitting: each worker owns a fixed
  // share of the root tasks regardless of how skewed their subtrees are.
  std::vector<std::vector<csm::SearchTask>> shares(pool_.size());
  for (std::size_t i = 0; i < seeds.size(); ++i)
    shares[i % shares.size()].push_back(std::move(seeds[i]));

  return run_workers(pool_, deadline, on_match, cancel,
                     [&](unsigned wid, csm::MatchSink& sink, WorkerStats& ws) {
    util::ThreadCpuTimer timer;
    for (const csm::SearchTask& task : shares[wid]) {
      if (cancel.active() && cancel.cancelled()) {
        sink.mark_cancelled();
        break;
      }
      {
        PARACOSM_TRACE_SPAN(task_span, obs::EventKind::kTaskExpand,
                            task.depth());
        alg.expand(task, sink, nullptr);
      }
      ++ws.tasks;
      if (sink.stopped()) break;
    }
    ws.busy_ns += timer.elapsed_ns();
  });
}

}  // namespace paracosm::engine
