#include "paracosm/worker_pool.hpp"

#include <algorithm>
#include <string>

#include "obs/trace_ring.hpp"
#include "util/sync.hpp"
#include "util/timer.hpp"

namespace paracosm::engine {

namespace {

[[nodiscard]] std::int64_t wall_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             util::Clock::now().time_since_epoch())
      .count();
}

}  // namespace

WorkerPool::WorkerPool(unsigned num_threads, const PoolOptions& options)
    : spin_iters_(options.spin_iters), size_(std::max(1u, num_threads)) {
  const unsigned n = size_;
  slots_.reset(new Slot[n]);
  helpers_.reserve(n - 1);
  for (unsigned id = 1; id < n; ++id)
    helpers_.emplace_back([this, id] { worker_loop(id); });
}

WorkerPool::~WorkerPool() {
  stopping_.store(true, std::memory_order_release);
  // atomic::wait only unblocks on a VALUE change, so bump the epoch too —
  // notify alone would let a parked helper re-block without seeing stopping_.
  epoch_.fetch_add(1, std::memory_order_release);
  epoch_.notify_all();
  for (std::thread& t : helpers_) t.join();
}

void WorkerPool::run(const std::function<void(unsigned)>& job) {
  const unsigned n = size();
  if (n == 1) {
    job(0);
    last_dispatch_ns_ = 0;
    return;
  }
  job_ = &job;
  remaining_.store(n - 1, std::memory_order_relaxed);
  // The release RMW publishes job_ and remaining_ to helpers whose acquire
  // epoch load observes the new value.
  epoch_.fetch_add(1, std::memory_order_release);
  epoch_.notify_all();

  // Work first: the caller's own share overlaps the helpers' wakeup. The
  // share is noexcept: an exception unwinding out of run() would free the
  // job while helpers still run it, so it terminates, as on a helper.
  const std::int64_t own_start = wall_ns();
  [&job]() noexcept { job(0); }();
  const std::int64_t own_end = wall_ns();

  // Join: spin briefly (a helper on another core finishes fast), then park
  // on the remaining-count futex. Helpers only notify on the 0 transition.
  util::SpinBackoff backoff;
  for (;;) {
    const unsigned left = remaining_.load(std::memory_order_acquire);
    if (left == 0) break;
    if (backoff.spins() < spin_iters_) {
      backoff.pause();
    } else {
      remaining_.wait(left, std::memory_order_acquire);
    }
  }
  job_ = nullptr;
  const std::int64_t ret_ns = wall_ns();

  std::int64_t last_start = own_start, last_end = own_end;
  for (unsigned i = 1; i < n; ++i) {
    last_start =
        std::max(last_start, slots_[i].start_ns.load(std::memory_order_relaxed));
    last_end = std::max(last_end, slots_[i].end_ns.load(std::memory_order_relaxed));
  }
  last_dispatch_ns_ = (last_start - own_start) +
                      std::max<std::int64_t>(0, ret_ns - last_end);
}

std::uint64_t WorkerPool::total_parks() const noexcept {
  std::uint64_t total = 0;
  for (unsigned i = 1; i < size(); ++i)
    total += slots_[i].parks.load(std::memory_order_relaxed);
  return total;
}

void WorkerPool::worker_loop(unsigned id) {
  PARACOSM_TRACE_THREAD_NAME("worker " + std::to_string(id));
  Slot& slot = slots_[id];
  std::uint64_t seen = 0;
  for (;;) {
    // Wait for the next epoch: spin (cheap wakeup) then park (cheap idle).
    util::SpinBackoff backoff;
    std::uint64_t e = epoch_.load(std::memory_order_acquire);
    while (e == seen) {
      if (stopping_.load(std::memory_order_acquire)) return;
      if (backoff.spins() < spin_iters_) {
        backoff.pause();
      } else {
        slot.parks.fetch_add(1, std::memory_order_relaxed);
        epoch_.wait(e, std::memory_order_acquire);
        backoff.reset();
      }
      e = epoch_.load(std::memory_order_acquire);
    }
    if (stopping_.load(std::memory_order_acquire)) return;
    seen = e;

    slot.start_ns.store(wall_ns(), std::memory_order_relaxed);
    (*job_)(id);
    slot.end_ns.store(wall_ns(), std::memory_order_relaxed);
    if (remaining_.fetch_sub(1, std::memory_order_acq_rel) == 1)
      remaining_.notify_all();
  }
}

}  // namespace paracosm::engine
