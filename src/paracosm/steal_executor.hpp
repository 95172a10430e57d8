// Work-stealing alternative to the paper's central-queue inner executor.
//
// ParaCOSM's Algorithm 2 routes all subtasks through one concurrent queue
// CQ with idle-triggered re-splitting. This executor runs on the SAME
// lock-free Chase–Lev substrate (task_queue.hpp) but with the classic
// stealing split policy instead: each owner keeps its own deque primed with
// a few stealable tasks while the depth budget lasts, regardless of whether
// anyone is idle yet. Owners pop LIFO (cache-friendly, deepest subtree
// first), thieves steal FIFO (largest remaining subtrees first). The
// ablation bench (`ablation_scheduler`) compares the two policies — and the
// retained mutex-queue baseline — under identical workloads.
#pragma once

#include <functional>
#include <memory>
#include <span>

#include "csm/algorithm.hpp"
#include "paracosm/stats.hpp"
#include "paracosm/task_queue.hpp"
#include "paracosm/worker_pool.hpp"
#include "util/cancel.hpp"

namespace paracosm::engine {

struct InnerRunResult;  // defined in inner_executor.hpp

class StealingExecutor {
 public:
  StealingExecutor(WorkerPool& pool, std::uint32_t split_depth,
                   QueueKnobs knobs = {});
  ~StealingExecutor();

  StealingExecutor(const StealingExecutor&) = delete;
  StealingExecutor& operator=(const StealingExecutor&) = delete;

  /// Same contract as InnerExecutor::run: explore every seed's subtree,
  /// return aggregated matches/nodes plus per-worker accounting. `on_match`
  /// is delivered after quiescence in lexicographic mapping order.
  [[nodiscard]] InnerRunResult run(
      const csm::CsmAlgorithm& alg, std::vector<csm::SearchTask> seeds,
      util::Clock::time_point deadline = {},
      const std::function<void(std::span<const csm::Assignment>)>* on_match = nullptr,
      util::CancelView cancel = {});

 private:
  WorkerPool& pool_;
  std::uint32_t split_depth_;
  std::unique_ptr<TaskQueue> queue_;  ///< persistent CQ, warm across updates
};

}  // namespace paracosm::engine
