// The concurrent task queue CQ of the inner executor (paper §4.1), built as
// a thin façade over per-worker Chase–Lev deques (cl_deque.hpp).
//
// The paper's CQ is a logically-global pool of search-tree tasks. Here tasks
// live in the pushing worker's own deque (owner push/pop on the bottom,
// CAS-steal on the top), so the hot path is lock-free and uncontended, and
// idle workers pull work by stealing instead of through a global mutex. The
// executor's split rule reads only the owner's own deque depth
// (`local_size`).
//
// Termination: `in_flight_` counts queued plus executing tasks and is raised
// BEFORE a task becomes poppable — a task's children are always pushed before
// the task itself retires, so in_flight only reaches zero once the whole tree
// is explored. Idle protocol: a worker that finds nothing locally sweeps all
// victims, then spins with exponential backoff, and finally parks on a
// condvar; pushes use a seq_cst Dekker handshake with the parked count so no
// wakeup is lost (DESIGN.md §5).
//
// Thread roles:
//   * quiescent phase (seeding, single thread): `seed` may be called from
//     any one thread while no worker is inside `pop_or_finish` — the pool
//     dispatch provides the ordering.
//   * parallel phase: `push(wid, ...)` is owner-only, `pop_or_finish(wid)`
//     per worker, `retire()` from the worker that finished the task.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "csm/match.hpp"
#include "obs/trace_ring.hpp"
#include "paracosm/cl_deque.hpp"
#include "paracosm/stats.hpp"
#include "util/rng.hpp"
#include "util/sync.hpp"

namespace paracosm::engine {

struct UnusedVictimTable;  // worker_pool.hpp

/// Tuning knobs for the idle protocol (config.hpp wires them from Config).
struct QueueKnobs {
  /// Spin iterations (with periodic yields) in the find-work loop before a
  /// worker parks on the condvar. Small by design: parked workers are cheap
  /// and every push wakes one of them.
  std::uint32_t spin_iters = 256;

  /// Nothing reads this. It stays because the wall-clock benchmark's replay
  /// sets it, and goes with the next change to that benchmark.
  const UnusedVictimTable* victims = nullptr;

  /// Nothing reads this either; it goes with `victims`, for the same reason.
  bool topo_order = true;
};

class TaskQueue {
 public:
  explicit TaskQueue(unsigned workers, QueueKnobs knobs = {})
      : knobs_(knobs), n_(workers == 0 ? 1u : workers), w_(new PerWorker[n_]) {
    for (unsigned i = 0; i < n_; ++i) w_[i].rng.reseed(0xc1de9e5ULL * (i + 1));
  }

  ~TaskQueue() { drain_and_free(); }

  TaskQueue(const TaskQueue&) = delete;
  TaskQueue& operator=(const TaskQueue&) = delete;

  [[nodiscard]] unsigned workers() const noexcept { return n_; }

  // --- quiescent-phase API (one thread, no worker inside pop_or_finish) ----

  /// Push a root task, round-robin across worker deques so every worker
  /// starts with local work.
  void seed(csm::SearchTask&& task) {
    const unsigned wid = seed_rr_++ % n_;
    push(wid, std::move(task));
  }

  // --- parallel-phase API --------------------------------------------------

  /// Owner push: raises in_flight before the task becomes stealable.
  void push(unsigned wid, csm::SearchTask&& task) {
    in_flight_.fetch_add(1, std::memory_order_relaxed);
    PerWorker& me = w_[wid];
    csm::SearchTask* node = me.acquire();
    *node = std::move(task);
    me.deque.push_bottom(node);
    // Dekker handshake with parking workers: the seq_cst publish of pending_
    // and the seq_cst read of parked_ pair with the reverse order in park()
    // — at least one side always observes the other, so a worker cannot park
    // forever while this task sits unclaimed.
    pending_.fetch_add(1, std::memory_order_seq_cst);
    if (parked_.load(std::memory_order_seq_cst) != 0) wake_one(wid);
  }

  /// Pop the next task: own deque first (LIFO), then steal sweeps, then
  /// spin-then-park. Returns nullopt once every task has retired.
  [[nodiscard]] std::optional<csm::SearchTask> pop_or_finish(unsigned wid) {
    PerWorker& me = w_[wid];
    if (csm::SearchTask* node = me.deque.pop_bottom()) {
      pending_.fetch_sub(1, std::memory_order_relaxed);
      return take(wid, node);
    }
    util::SpinBackoff backoff;
    for (;;) {
      // One full randomized victim sweep per attempt.
      if (csm::SearchTask* node = sweep_victims(wid, me)) {
        pending_.fetch_sub(1, std::memory_order_relaxed);
        return take(wid, node);
      }
      // A split may have landed in our own deque while we were sweeping.
      if (csm::SearchTask* node = me.deque.pop_bottom()) {
        pending_.fetch_sub(1, std::memory_order_relaxed);
        return take(wid, node);
      }
      if (in_flight_.load(std::memory_order_acquire) == 0) return std::nullopt;
      if (backoff.spins() < knobs_.spin_iters) {
        backoff.pause();
      } else {
        park(me);
        backoff.reset();
      }
    }
  }

  /// A task has been fully expanded (its offloaded children were pushed
  /// beforehand). Wakes everyone when the tree is exhausted.
  void retire() {
    if (in_flight_.fetch_sub(1, std::memory_order_acq_rel) == 1) wake_all();
  }

  // --- relaxed reads ---------------------------------------------------------

  [[nodiscard]] std::int64_t in_flight() const noexcept {
    return in_flight_.load(std::memory_order_relaxed);
  }
  /// Depth of one worker's own deque (the executor's split signal).
  [[nodiscard]] std::size_t local_size(unsigned wid) const noexcept {
    return w_[wid].deque.size_approx();
  }

  /// Fold this run's per-worker scheduler counters into `ws` and clear them.
  void export_counters(unsigned wid, WorkerStats& ws) noexcept {
    PerWorker& me = w_[wid];
    ws.steals_attempted += me.steals_attempted;
    ws.steals_succeeded += me.steals_succeeded;
    ws.parks += me.parks;
    me.steals_attempted = me.steals_succeeded = me.parks = 0;
  }

 private:
  struct alignas(64) PerWorker {
    ChaseLevDeque<csm::SearchTask*> deque;
    std::vector<csm::SearchTask*> free_nodes;  ///< recycled task nodes
    util::Rng rng{0};
    std::uint64_t steals_attempted = 0;
    std::uint64_t steals_succeeded = 0;
    std::uint64_t parks = 0;
    std::atomic<bool> parked{false};  ///< blocked on park_cv (or about to)
    std::mutex park_mutex;
    std::condition_variable park_cv;

    ~PerWorker() {
      for (csm::SearchTask* node : free_nodes) delete node;
    }

    [[nodiscard]] csm::SearchTask* acquire() {
      if (free_nodes.empty()) return new csm::SearchTask;
      csm::SearchTask* node = free_nodes.back();
      free_nodes.pop_back();
      return node;
    }
  };

  /// One full victim sweep for `wid`, starting at a random victim so
  /// concurrent thieves spread over the deques.
  [[nodiscard]] csm::SearchTask* sweep_victims(unsigned wid, PerWorker& me) {
    const unsigned start = static_cast<unsigned>(me.rng.bounded(n_));
    for (unsigned k = 0; k < n_; ++k) {
      const unsigned v = (start + k) % n_;
      if (v == wid) continue;
      ++me.steals_attempted;
      if (csm::SearchTask* node = w_[v].deque.steal_top()) {
        ++me.steals_succeeded;
        PARACOSM_TRACE_INSTANT(obs::EventKind::kSteal, v, wid);
        return node;
      }
    }
    return nullptr;
  }

  /// Move the task out of the node and recycle the node on the taker's own
  /// free list (nodes migrate with steals; lists stay single-owner).
  [[nodiscard]] csm::SearchTask take(unsigned wid, csm::SearchTask* node) {
    csm::SearchTask task = std::move(*node);
    node->assigned.clear();  // keep capacity, drop stale assignments
    w_[wid].free_nodes.push_back(node);
    return task;
  }

  void park(PerWorker& me) {
    ++me.parks;
    std::unique_lock lock(me.park_mutex);
    parked_.fetch_add(1, std::memory_order_seq_cst);
    me.parked.store(true, std::memory_order_seq_cst);
    me.park_cv.wait(lock, [this, &me] {
      return pending_.load(std::memory_order_seq_cst) > 0 ||
             in_flight_.load(std::memory_order_acquire) == 0;
    });
    me.parked.store(false, std::memory_order_relaxed);
    parked_.fetch_sub(1, std::memory_order_relaxed);
  }

  /// Wake one parked worker, scanning from a random start. Dekker
  /// handshake: push publishes pending_ (seq_cst) then reads the parked
  /// flags here; park() sets its flag then reads pending_ in the wait
  /// predicate — one side always observes the other, and the scan covers
  /// every other worker, so a needed wake is never skipped.
  void wake_one(unsigned wid) {
    const unsigned start = static_cast<unsigned>(w_[wid].rng.bounded(n_));
    for (unsigned k = 0; k < n_; ++k) {
      const unsigned v = (start + k) % n_;
      if (v == wid) continue;
      if (try_wake(w_[v])) return;
    }
  }

  bool try_wake(PerWorker& cand) {
    if (!cand.parked.load(std::memory_order_seq_cst)) return false;
    const std::lock_guard lock(cand.park_mutex);
    cand.park_cv.notify_one();
    return true;
  }

  void wake_all() {
    for (unsigned i = 0; i < n_; ++i) {
      const std::lock_guard lock(w_[i].park_mutex);
      w_[i].park_cv.notify_all();
    }
  }

  /// Destructor-time cleanup: a deadline abort can in principle leave nodes
  /// queued; free whatever the deques still hold.
  void drain_and_free() {
    for (unsigned i = 0; i < n_; ++i)
      while (csm::SearchTask* node = w_[i].deque.steal_top()) delete node;
  }

  QueueKnobs knobs_;
  unsigned n_;
  std::unique_ptr<PerWorker[]> w_;
  unsigned seed_rr_ = 0;

  alignas(64) std::atomic<std::int64_t> pending_{0};   ///< queued tasks
  alignas(64) std::atomic<std::int64_t> in_flight_{0};  ///< queued + executing
  alignas(64) std::atomic<std::uint32_t> parked_{0};    ///< parked subset
};

}  // namespace paracosm::engine
