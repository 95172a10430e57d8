// Inner-update executor (paper §4.1): splits one update's search tree across
// the worker pool.
//
// Dynamic path: the update's seeds are dealt round-robin onto per-worker
// Chase–Lev deques; each worker drains its own deque LIFO and steals FIFO
// from the others. The split hook handed to the traversal routine offloads
// direct subtasks onto the expanding worker's own deque while depth <
// SPLIT_DEPTH and that deque holds fewer than four tasks, so every owner
// keeps a little stealable work primed. This replaces Algorithm 2's serial
// BFS seeding phase and its idle-triggered predicate (`HasIdleThreads() &&
// CQ.is_empty()`): in wall time the stealing rule was faster on the
// search-bound workload and level on the overhead-bound one (DESIGN.md §4).
//
// Static path (dynamic_balance = false): a fixed round-robin seed partition
// with no splitting — the "unbalanced" baseline of Figure 10.
//
// The queue PERSISTS across run() calls, so steady-state updates reuse warm
// deque rings and recycled task nodes. Match callbacks are buffered per
// worker and delivered merged + lexicographically sorted after quiescence
// (match_buffer.hpp) — no lock on the match path.
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
