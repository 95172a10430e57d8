#include "service/multi_service.hpp"

#include <chrono>

namespace paracosm::service {

using graph::GraphUpdate;

MultiStreamService::MultiStreamService(engine::MultiQueryEngine& engine,
                                       MultiServiceOptions opts)
    : engine_(engine),
      opts_(std::move(opts)),
      queue_(opts_.queue_capacity, opts_.policy) {
  if (!opts_.wal_path.empty())
    wal_.emplace(opts_.wal_path, /*truncate=*/true, /*next_seq=*/0,
                 graph_fingerprint(engine_.graph()));
  positive_.assign(engine_.num_slots(), 0);
  negative_.assign(engine_.num_slots(), 0);
  degraded_.assign(engine_.num_slots(), 0);
  consumer_ = std::thread([this] { consumer_loop(); });
}

MultiStreamService::~MultiStreamService() {
  if (!finished_) (void)finish();
}

PushResult MultiStreamService::submit(const GraphUpdate& upd) {
  const PushResult r = queue_.push(upd);
  if (r == PushResult::kShed) {
    std::lock_guard lk(defer_m_);
    defer_log_.push_back(upd);
    submitted_.fetch_add(1, std::memory_order_relaxed);
    return r;
  }
  if (r != PushResult::kClosed)
    submitted_.fetch_add(1, std::memory_order_relaxed);
  return r;
}

template <typename F>
auto MultiStreamService::run_on_consumer(F&& fn) -> decltype(fn()) {
  using R = decltype(fn());
  if constexpr (std::is_void_v<R>) {
    AdminOp op;
    op.fn = [&fn] { fn(); };
    {
      std::lock_guard lk(admin_m_);
      admin_queue_.push_back(&op);
    }
    std::unique_lock lk(admin_m_);
    admin_cv_.wait(lk, [&op] { return op.done; });
    if (op.error) std::rethrow_exception(op.error);
  } else {
    std::optional<R> result;
    AdminOp op;
    op.fn = [&fn, &result] { result.emplace(fn()); };
    {
      std::lock_guard lk(admin_m_);
      admin_queue_.push_back(&op);
    }
    std::unique_lock lk(admin_m_);
    admin_cv_.wait(lk, [&op] { return op.done; });
    if (op.error) std::rethrow_exception(op.error);
    return std::move(*result);
  }
}

std::size_t MultiStreamService::add_query(std::string algorithm,
                                          graph::QueryGraph query,
                                          engine::QueryOptions qopts) {
  return run_on_consumer([&] {
    const std::size_t handle =
        engine_.add_query(algorithm, std::move(query), qopts);
    if (handle >= positive_.size()) {
      positive_.resize(handle + 1, 0);
      negative_.resize(handle + 1, 0);
      degraded_.resize(handle + 1, 0);
    }
    return handle;
  });
}

bool MultiStreamService::remove_query(const std::size_t handle) {
  return run_on_consumer([&] { return engine_.remove_query(handle); });
}

void MultiStreamService::drain() {
  const std::uint64_t target = submitted_.load(std::memory_order_acquire);
  std::unique_lock lk(drain_m_);
  drain_cv_.wait(lk, [&] {
    return processed_.load(std::memory_order_acquire) >= target;
  });
  // Also flush any admin ops already enqueued at call time.
  run_on_consumer([] {});
}

void MultiStreamService::run_admin() {
  for (;;) {
    AdminOp* op = nullptr;
    {
      std::lock_guard lk(admin_m_);
      if (admin_queue_.empty()) return;
      op = admin_queue_.front();
      admin_queue_.pop_front();
    }
    try {
      op->fn();
    } catch (...) {
      op->error = std::current_exception();
    }
    {
      std::lock_guard lk(admin_m_);
      op->done = true;
    }
    admin_cv_.notify_all();
  }
}

bool MultiStreamService::pop_deferred(GraphUpdate& out) {
  std::lock_guard lk(defer_m_);
  if (defer_log_.empty()) return false;
  out = defer_log_.front();
  defer_log_.pop_front();
  ++stats_.deferred_retries;
  return true;
}

void MultiStreamService::process_one(const GraphUpdate& upd) {
  util::WallTimer timer;
  if (wal_) {
    wal_->append(upd);
    wal_->flush();
    ++stats_.wal_records;
  }
  util::Clock::time_point deadline{};
  if (opts_.budget_us > 0)
    deadline = util::Clock::now() + std::chrono::microseconds(opts_.budget_us);
  const engine::MultiStreamResult r =
      engine_.process_stream(std::span<const GraphUpdate>(&upd, 1), deadline);
  for (std::size_t q = 0; q < r.positive.size() && q < positive_.size(); ++q) {
    positive_[q] += r.positive[q];
    negative_[q] += r.negative[q];
    degraded_[q] += r.degraded[q];
  }
  mq_.merge(r.mq);
  exec_.merge(r.stats);
  if (r.timed_out) ++deadline_hits_;
  if (r.updates_processed == 0) ++stats_.noop_skipped;
  ++stats_.processed;
  latency_hist_.record(timer.elapsed_ns());
  processed_.fetch_add(1, std::memory_order_release);
  drain_cv_.notify_all();
}

void MultiStreamService::consumer_loop() {
  IngestItem item;
  std::uint64_t idle_spins = 0;
  for (;;) {
    run_admin();
    bool did = false;
    try {
      if (queue_.try_pop(item)) {
        process_one(item.upd);
        did = true;
      } else {
        // Ring momentarily empty: replay one deferred (shed) update — shed
        // means delayed, never dropped.
        GraphUpdate deferred;
        if (pop_deferred(deferred)) {
          process_one(deferred);
          did = true;
        }
      }
    } catch (const std::exception& e) {
      if (error_.empty()) error_ = e.what();
      processed_.fetch_add(1, std::memory_order_release);
      drain_cv_.notify_all();
    }
    if (did) {
      idle_spins = 0;
      continue;
    }
    if (queue_.closed()) {
      // Closed and fully drained (ring + defer log) — but only exit once
      // pending admin ops have run too.
      std::lock_guard lk(admin_m_);
      if (admin_queue_.empty()) break;
      continue;
    }
    // Idle backoff: spin briefly, then nap. The admin plane stays responsive
    // (bounded by the nap) without burning a core on an idle stream.
    if (++idle_spins < 64)
      std::this_thread::yield();
    else
      std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
}

MultiServiceReport MultiStreamService::finish() {
  MultiServiceReport report;
  if (finished_) {
    report.error = "finish() called twice";
    return report;
  }
  finished_ = true;
  queue_.close();
  if (consumer_.joinable()) consumer_.join();
  report.stats = stats_;
  report.stats.ingest = queue_.stats();
  report.mq = mq_;
  report.exec = exec_;
  report.positive = positive_;
  report.negative = negative_;
  report.degraded = degraded_;
  report.deadline_hits = deadline_hits_;
  report.wall_ns = wall_.elapsed_ns();
  report.latency = latency_hist_;
  report.error = error_;
  return report;
}

}  // namespace paracosm::service
