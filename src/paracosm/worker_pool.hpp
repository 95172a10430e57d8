// Persistent worker pool with work-first fork/join "parallel region"
// semantics.
//
// CSM streams contain many thousands of updates, so the pool must make a
// parallel region nearly free. Two things keep it cheap:
//
//   * The caller is worker 0. run(job) publishes the job to the n − 1 helper
//     threads and then runs job(0) itself, so a pool of n workers occupies n
//     cores (not n + 1 with a spinning caller) and the helpers' wake latency
//     hides behind the caller's own share.
//   * Dispatch goes through a single epoch counter: run() bumps the epoch
//     (one atomic RMW) and helpers still inside their spin window pick the
//     job up without any syscall; only helpers whose spin budget expired are
//     parked on the epoch futex (std::atomic::wait) and need a notify. The
//     join mirrors it: after its own share the caller spins briefly on the
//     remaining-count, then parks on its futex.
//
// Per-worker state is cache-line aligned so epoch polling, job timestamps
// and park counters never false-share. Helpers stamp wall-clock job
// start/end times, which lets run() separate *dispatch* overhead (late
// helper starts + join latency) from the job itself — exported via
// last_dispatch_ns() and consumed by the executors' ParallelStats so pool
// overhead is visible in latency profiles instead of being silently folded
// into per-update cost.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

namespace paracosm::engine {

/// Empty tag behind QueueKnobs::victims and WorkerPool::victim_table().
struct UnusedVictimTable {};

/// Pool construction knobs.
struct PoolOptions {
  /// Epoch-poll iterations before a worker parks on the futex. The default
  /// favors low wake latency without monopolizing an oversubscribed core
  /// (the spin loop yields periodically).
  std::uint32_t spin_iters = 1024;

  /// Nothing reads this. It stays because the wall-clock benchmark's replay
  /// sets it, and goes with the next change to that benchmark.
  bool pin = false;
};

class WorkerPool {
 public:
  /// Fork grain of the batch phases (classify, safe-apply): a batch with
  /// fewer lanes than this per worker runs inline on the caller, because a
  /// fork costs a few µs of wake + join while a safe lane costs about one.
  /// From the k-sweep of DESIGN.md §11 (livejournal stand-in, Symbi,
  /// 4 threads, wall time): forking lost at k = 4 and 8 and won from k = 16.
  static constexpr std::size_t kLanesPerWorker = 4;

  /// `spin_iters`: see PoolOptions::spin_iters.
  explicit WorkerPool(unsigned num_threads, std::uint32_t spin_iters = 1024)
      : WorkerPool(num_threads, PoolOptions{spin_iters}) {}
  WorkerPool(unsigned num_threads, const PoolOptions& options);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Workers, counting the caller: n − 1 helper threads plus worker 0.
  [[nodiscard]] unsigned size() const noexcept { return size_; }

  /// Execute job(worker_id) for every worker id; job(0) runs on the calling
  /// thread, the others on the helpers. Blocks until all return. The job
  /// must not call run() recursively, and an exception escaping it on any
  /// worker terminates the process. Any thread may call run(), but calls
  /// must not overlap.
  void run(const std::function<void(unsigned)>& job);

  /// True when a data-parallel phase over `lanes` items is worth a fork:
  /// more than one worker and at least kLanesPerWorker lanes for each.
  /// Below that, the phase runs serially on the caller.
  [[nodiscard]] bool worth_forking(std::size_t lanes) const noexcept {
    return size_ > 1 && lanes >= kLanesPerWorker * size_;
  }

  /// Dispatch overhead of the most recent run(): how much later than the
  /// caller's own share the last helper started (wake latency the caller's
  /// share did not hide), plus the caller's join wait after the last share
  /// — its own or a helper's — finished. Excludes the job itself and load
  /// imbalance; 0 for a one-worker pool.
  [[nodiscard]] std::int64_t last_dispatch_ns() const noexcept {
    return last_dispatch_ns_;
  }

  /// Cumulative spin->park transitions across all helpers since startup.
  [[nodiscard]] std::uint64_t total_parks() const noexcept;

  /// Nothing reads this. It stays because the wall-clock benchmark's replay
  /// passes it to QueueKnobs::victims, and goes with the next change to that
  /// benchmark.
  [[nodiscard]] const UnusedVictimTable& victim_table() const noexcept {
    static constexpr UnusedVictimTable kNone{};
    return kNone;
  }

 private:
  /// One per helper (slot 0, the caller's, stays unused).
  struct alignas(64) Slot {
    std::atomic<std::int64_t> start_ns{0};  ///< job start, wall clock
    std::atomic<std::int64_t> end_ns{0};    ///< job end, wall clock
    std::atomic<std::uint64_t> parks{0};
  };

  void worker_loop(unsigned id);

  const std::uint32_t spin_iters_;
  const unsigned size_;
  std::unique_ptr<Slot[]> slots_;
  const std::function<void(unsigned)>* job_ = nullptr;

  alignas(64) std::atomic<std::uint64_t> epoch_{0};
  alignas(64) std::atomic<unsigned> remaining_{0};
  alignas(64) std::atomic<bool> stopping_{false};
  std::int64_t last_dispatch_ns_ = 0;
  std::vector<std::thread> helpers_;  ///< workers 1 .. size_ − 1
};

}  // namespace paracosm::engine
