// Inner-update executor (paper §4.1, Algorithm 2).
//
// Initialization phase: root-level tasks (the update's seeds) are expanded
// breadth-first on the main thread until the concurrent queue holds at least
// one task per worker, decomposing the search tree into independent
// subtrees. Parallel phase: workers pop tasks and run the algorithm's own
// traversal routine; the injected split hook re-offloads direct subtasks
// whenever idle workers are observed, the queue is empty, and the depth is
// below SPLIT_DEPTH — the paper's adaptive task-sharing rule.
//
// The concurrent queue is the lock-free per-worker-deque CQ of
// task_queue.hpp and PERSISTS across run() calls, so steady-state updates
// reuse warm deque rings and recycled task nodes. Match callbacks are
// buffered per worker and delivered merged + lexicographically sorted after
// quiescence (match_buffer.hpp) — no lock on the match path.
#pragma once

#include <functional>
#include <memory>
#include <span>

#include "csm/algorithm.hpp"
#include "paracosm/config.hpp"
#include "paracosm/stats.hpp"
#include "paracosm/task_queue.hpp"
#include "paracosm/worker_pool.hpp"
#include "util/cancel.hpp"

namespace paracosm::engine {

struct InnerRunResult {
  std::uint64_t matches = 0;
  std::uint64_t nodes = 0;
  bool timed_out = false;
  bool cancelled = false;
  ParallelStats stats;
};

class InnerExecutor {
 public:
  InnerExecutor(WorkerPool& pool, std::uint32_t split_depth, bool dynamic_balance,
                QueueKnobs knobs = {});
  ~InnerExecutor();

  InnerExecutor(const InnerExecutor&) = delete;
  InnerExecutor& operator=(const InnerExecutor&) = delete;

  /// Explore all seeds' subtrees in parallel. `on_match` (optional) is
  /// delivered after quiescence, on the calling thread, in lexicographic
  /// (qv, dv) mapping order — deterministic for a given match set.
  [[nodiscard]] InnerRunResult run(
      const csm::CsmAlgorithm& alg, std::vector<csm::SearchTask> seeds,
      util::Clock::time_point deadline = {},
      const std::function<void(std::span<const csm::Assignment>)>* on_match = nullptr,
      util::CancelView cancel = {});

 private:
  [[nodiscard]] InnerRunResult run_dynamic(
      const csm::CsmAlgorithm& alg, std::vector<csm::SearchTask> seeds,
      util::Clock::time_point deadline,
      const std::function<void(std::span<const csm::Assignment>)>* on_match,
      util::CancelView cancel);
  /// Static round-robin seed partition with no re-balancing — the
  /// "unbalanced" baseline of Figure 10.
  [[nodiscard]] InnerRunResult run_static(
      const csm::CsmAlgorithm& alg, std::vector<csm::SearchTask> seeds,
      util::Clock::time_point deadline,
      const std::function<void(std::span<const csm::Assignment>)>* on_match,
      util::CancelView cancel);

  WorkerPool& pool_;
  std::uint32_t split_depth_;
  bool dynamic_balance_;
  std::unique_ptr<TaskQueue> queue_;  ///< persistent CQ, warm across updates
};

}  // namespace paracosm::engine
