// Tests for the parallel building blocks: Chase–Lev deque, task queue,
// worker pool, and the inner-update executor (Algorithm 2).
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <thread>
#include <utility>
#include <vector>

#include "paracosm/cl_deque.hpp"
#include "paracosm/inner_executor.hpp"
#include "paracosm/task_queue.hpp"
#include "paracosm/worker_pool.hpp"
#include "tests/test_support.hpp"

namespace paracosm::engine {
namespace {

/// Threads of this process (one /proc/self/task entry each).
std::size_t process_threads() {
  std::size_t n = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task"))
    ++n;
  return n;
}

csm::SearchTask make_task(std::uint32_t depth) {
  csm::SearchTask t;
  for (std::uint32_t i = 0; i < depth; ++i) t.assigned.push_back({i, i});
  return t;
}

TEST(ChaseLevDeque, OwnerPopsLifoThiefStealsFifo) {
  std::array<int, 3> vals = {10, 20, 30};
  ChaseLevDeque<int*> dq;
  for (int& v : vals) dq.push_bottom(&v);
  EXPECT_EQ(dq.size_approx(), 3u);
  EXPECT_EQ(dq.steal_top(), &vals[0]);   // FIFO from the top
  EXPECT_EQ(dq.pop_bottom(), &vals[2]);  // LIFO from the bottom
  EXPECT_EQ(dq.pop_bottom(), &vals[1]);
  EXPECT_EQ(dq.pop_bottom(), nullptr);
  EXPECT_EQ(dq.steal_top(), nullptr);
  EXPECT_TRUE(dq.empty_approx());
}

TEST(ChaseLevDeque, GrowsPastInitialCapacityPreservingOrder) {
  constexpr int kItems = 1000;
  std::vector<int> vals(kItems);
  ChaseLevDeque<int*> dq(8);
  const std::size_t cap0 = dq.capacity();
  for (int i = 0; i < kItems; ++i) dq.push_bottom(&vals[i]);
  EXPECT_GT(dq.capacity(), cap0);
  EXPECT_EQ(dq.size_approx(), static_cast<std::size_t>(kItems));
  for (int i = 0; i < kItems; ++i) EXPECT_EQ(dq.steal_top(), &vals[i]);
  EXPECT_EQ(dq.steal_top(), nullptr);
}

TEST(ChaseLevDeque, ConcurrentStealsClaimEveryElementExactlyOnce) {
  constexpr int kItems = 20000;
  constexpr int kThieves = 3;
  std::vector<int> vals(kItems);
  std::vector<std::atomic<int>> claimed(kItems);
  ChaseLevDeque<int*> dq;

  std::atomic<bool> done{false};
  std::atomic<int> total{0};
  std::vector<std::thread> thieves;
  for (int t = 0; t < kThieves; ++t) {
    thieves.emplace_back([&] {
      while (!done.load(std::memory_order_acquire) || !dq.empty_approx()) {
        if (int* p = dq.steal_top()) {
          claimed[static_cast<std::size_t>(p - vals.data())].fetch_add(1);
          total.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  // Owner: interleave pushes with occasional pops.
  for (int i = 0; i < kItems; ++i) {
    dq.push_bottom(&vals[i]);
    if ((i & 7) == 0) {
      if (int* p = dq.pop_bottom()) {
        claimed[static_cast<std::size_t>(p - vals.data())].fetch_add(1);
        total.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }
  done.store(true, std::memory_order_release);
  for (auto& t : thieves) t.join();
  while (int* p = dq.pop_bottom()) {  // anything the thieves left behind
    claimed[static_cast<std::size_t>(p - vals.data())].fetch_add(1);
    total.fetch_add(1, std::memory_order_relaxed);
  }
  EXPECT_EQ(total.load(), kItems);
  for (int i = 0; i < kItems; ++i) EXPECT_EQ(claimed[i].load(), 1) << "item " << i;
}

TEST(TaskQueue, SeedTryPopRetireSingleThread) {
  TaskQueue queue(1);
  queue.seed(make_task(2));
  queue.seed(make_task(3));
  EXPECT_EQ(queue.in_flight(), 2);
  auto t1 = queue.pop_or_finish(0);
  ASSERT_TRUE(t1.has_value());
  EXPECT_EQ(t1->depth(), 3u);  // the owner pops its deque LIFO
  queue.retire();
  EXPECT_EQ(queue.in_flight(), 1);
  auto t2 = queue.pop_or_finish(0);
  ASSERT_TRUE(t2.has_value());
  EXPECT_EQ(t2->depth(), 2u);
  queue.retire();
  EXPECT_EQ(queue.in_flight(), 0);
  EXPECT_FALSE(queue.pop_or_finish(0).has_value());
}

TEST(TaskQueue, TryPopOnEmptyReturnsNullopt) {
  TaskQueue queue(4);
  EXPECT_FALSE(queue.pop_or_finish(2).has_value());
  EXPECT_EQ(queue.in_flight(), 0);
}

TEST(TaskQueue, OwnerPushIsLifoForOwnerFifoForTryPop) {
  TaskQueue queue(2);
  queue.push(0, make_task(1));
  queue.push(0, make_task(2));
  queue.push(0, make_task(3));
  auto own = queue.pop_or_finish(0);
  ASSERT_TRUE(own.has_value());
  EXPECT_EQ(own->depth(), 3u);  // owner pops its own deque LIFO
  auto stolen = queue.pop_or_finish(1);
  ASSERT_TRUE(stolen.has_value());
  EXPECT_EQ(stolen->depth(), 1u);  // thief steals the oldest
  queue.retire();
  queue.retire();
  auto last = queue.pop_or_finish(1);
  ASSERT_TRUE(last.has_value());
  queue.retire();
  EXPECT_EQ(queue.in_flight(), 0);
}

TEST(TaskQueue, MpmcStressCompletesAllTasks) {
  constexpr unsigned kWorkers = 4;
  TaskQueue queue(kWorkers, QueueKnobs{.spin_iters = 16});
  constexpr int kSeeds = 64;
  constexpr int kChildrenPerSeed = 16;
  for (int i = 0; i < kSeeds; ++i) queue.seed(make_task(1));

  std::atomic<int> executed{0};
  std::vector<std::thread> workers;
  for (unsigned w = 0; w < kWorkers; ++w) {
    workers.emplace_back([&, w] {
      while (auto task = queue.pop_or_finish(w)) {
        if (task->depth() == 1)
          for (int c = 0; c < kChildrenPerSeed; ++c) queue.push(w, make_task(2));
        executed.fetch_add(1, std::memory_order_relaxed);
        queue.retire();
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(executed.load(), kSeeds + kSeeds * kChildrenPerSeed);
  EXPECT_EQ(queue.in_flight(), 0);

  // Scheduler counters drained into WorkerStats.
  WorkerStats ws;
  for (unsigned w = 0; w < kWorkers; ++w) queue.export_counters(w, ws);
  EXPECT_GE(ws.steals_attempted, ws.steals_succeeded);
}

TEST(WorkerPool, RunsJobOnEveryWorker) {
  WorkerPool pool(5);
  EXPECT_EQ(pool.size(), 5u);
  std::vector<std::atomic<int>> hits(5);
  pool.run([&](unsigned wid) { hits[wid].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(WorkerPool, SequentialRunsReuseWorkers) {
  WorkerPool pool(3);
  std::atomic<int> total{0};
  for (int round = 0; round < 50; ++round)
    pool.run([&](unsigned) { total.fetch_add(1); });
  EXPECT_EQ(total.load(), 150);
}

TEST(WorkerPool, ZeroThreadsClampedToOne) {
  WorkerPool pool(0);
  EXPECT_EQ(pool.size(), 1u);
  bool ran = false;
  pool.run([&](unsigned) { ran = true; });
  EXPECT_TRUE(ran);
}

TEST(WorkerPool, ReportsDispatchOverhead) {
  WorkerPool pool(3);
  std::atomic<int> total{0};
  for (int round = 0; round < 10; ++round) {
    pool.run([&](unsigned) { total.fetch_add(1); });
    EXPECT_GE(pool.last_dispatch_ns(), 0);
  }
  EXPECT_EQ(total.load(), 30);
}

TEST(WorkerPool, ParksWhenSpinBudgetIsZero) {
  WorkerPool pool(2, /*spin_iters=*/0);
  const std::uint64_t parks0 = pool.total_parks();
  std::atomic<int> total{0};
  for (int round = 0; round < 5; ++round)
    pool.run([&](unsigned) { total.fetch_add(1); });
  EXPECT_EQ(total.load(), 10);
  // With no spin window every helper must have parked at least once.
  EXPECT_GT(pool.total_parks(), parks0);
}

TEST(WorkerPool, CallerRunsWorkerZero) {
  WorkerPool pool(4);
  const std::thread::id caller = std::this_thread::get_id();
  std::array<std::thread::id, 4> ran_on{};
  for (int round = 0; round < 20; ++round) {
    pool.run([&](unsigned wid) { ran_on[wid] = std::this_thread::get_id(); });
    EXPECT_EQ(ran_on[0], caller);
    for (unsigned w = 1; w < 4; ++w) EXPECT_NE(ran_on[w], caller) << "worker " << w;
  }
}

TEST(WorkerPool, SpawnsOneHelperFewerThanItsSize) {
  const std::size_t before = process_threads();
  {
    WorkerPool solo(1);
    EXPECT_EQ(solo.size(), 1u);
    EXPECT_EQ(process_threads(), before);  // worker 0 is the caller
    const std::thread::id caller = std::this_thread::get_id();
    std::thread::id ran_on;
    solo.run([&](unsigned) { ran_on = std::this_thread::get_id(); });
    EXPECT_EQ(ran_on, caller);
    EXPECT_EQ(solo.last_dispatch_ns(), 0);
  }
  {
    WorkerPool pool(3);
    EXPECT_EQ(process_threads(), before + 2);
    // Three workers on three distinct threads, worker 0 on the caller.
    std::array<std::thread::id, 3> ran_on{};
    pool.run([&](unsigned wid) { ran_on[wid] = std::this_thread::get_id(); });
    EXPECT_EQ(ran_on[0], std::this_thread::get_id());
    EXPECT_NE(ran_on[1], ran_on[0]);
    EXPECT_NE(ran_on[2], ran_on[0]);
    EXPECT_NE(ran_on[1], ran_on[2]);
  }
  // join() returns once a helper has cleared its thread id, which can be a
  // moment before the kernel drops its /proc/self/task entry: poll briefly.
  std::size_t after = process_threads();
  for (int i = 0; i < 2000 && after != before; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    after = process_threads();
  }
  EXPECT_EQ(after, before);
}

TEST(WorkerPool, DispatchNeverExceedsTheRun) {
  WorkerPool pool(3);
  for (int round = 0; round < 20; ++round) {
    const auto t0 = std::chrono::steady_clock::now();
    pool.run([&](unsigned wid) {
      // Uneven shares: load imbalance is not dispatch overhead.
      if (wid == 2) std::this_thread::sleep_for(std::chrono::microseconds(200));
    });
    const auto wall = std::chrono::duration_cast<std::chrono::nanoseconds>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    EXPECT_GE(pool.last_dispatch_ns(), 0);
    EXPECT_LE(pool.last_dispatch_ns(), wall);
  }
}

/// Any thread may call run(), one call at a time. The caller becomes worker
/// 0 and owns deque 0 for the duration of the run, so deque 0's owner moves
/// between threads across runs; the join of the previous run orders its
/// owner operations before the next owner's (TSan checks the handoff).
TEST(WorkerPool, RunFromAlternatingThreadsHandsOverDequeZero) {
  testing::SmallWorkload wl = testing::make_workload(97, 48, 140, 2, 1, 5, 0.0, 0.0);
  auto alg = csm::make_algorithm("graphflow");
  alg->attach(wl.query, wl.graph);
  util::Rng rng(13);
  auto stream = graph::make_insert_stream(wl.graph, 0.25, rng);
  WorkerPool pool(3, 8);
  InnerExecutor executor(pool, 4, /*dynamic_balance=*/true,
                         QueueKnobs{.spin_iters = 8});
  std::uint64_t worker0_tasks = 0;
  for (const auto& upd : stream) {
    ASSERT_TRUE(wl.graph.add_edge(upd.u, upd.v, upd.label));
    alg->on_edge_inserted(upd);
    std::vector<csm::SearchTask> seeds;
    alg->seeds(upd, seeds);
    if (seeds.empty()) continue;
    csm::MatchSink seq;
    for (const auto& task : seeds) alg->expand(task, seq, nullptr);
    // Two different threads, one after the other, on the same pool.
    for (int caller = 0; caller < 2; ++caller) {
      InnerRunResult par;
      std::thread t([&] { par = executor.run(*alg, seeds); });
      t.join();
      EXPECT_EQ(par.matches, seq.matches) << "caller thread " << caller;
      worker0_tasks += par.stats.workers[0].tasks;
    }
  }
  EXPECT_GT(worker0_tasks, 0u) << "deque 0 never served a task";
}

struct ExecCase {
  unsigned threads;
  std::uint32_t split_depth;
  bool dynamic;
};

class InnerExecutorTest : public ::testing::TestWithParam<ExecCase> {};

TEST_P(InnerExecutorTest, MatchesSequentialEnumeration) {
  const ExecCase& c = GetParam();
  testing::SmallWorkload wl = testing::make_workload(321, 48, 140, 2, 1, 5, 0.0, 0.0);
  auto alg = csm::make_algorithm("graphflow");
  alg->attach(wl.query, wl.graph);

  // Collect per-update seeds over a synthetic set of probe edges: use real
  // stream updates applied to the graph.
  util::Rng rng(5);
  auto stream = graph::make_insert_stream(wl.graph, 0.25, rng);
  WorkerPool pool(c.threads);
  InnerExecutor executor(pool, c.split_depth, c.dynamic);

  for (const auto& upd : stream) {
    ASSERT_TRUE(wl.graph.add_edge(upd.u, upd.v, upd.label));
    alg->on_edge_inserted(upd);
    std::vector<csm::SearchTask> seeds;
    alg->seeds(upd, seeds);

    csm::MatchSink seq;
    for (const auto& task : seeds) alg->expand(task, seq, nullptr);

    const InnerRunResult par = executor.run(*alg, seeds);
    EXPECT_EQ(par.matches, seq.matches);
    EXPECT_FALSE(par.timed_out);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, InnerExecutorTest,
    ::testing::Values(ExecCase{1, 4, true}, ExecCase{2, 4, true},
                      ExecCase{4, 0, true}, ExecCase{4, 2, true},
                      ExecCase{4, 8, true}, ExecCase{8, 3, true},
                      ExecCase{4, 4, false}, ExecCase{2, 0, false}),
    [](const ::testing::TestParamInfo<ExecCase>& info) {
      return "t" + std::to_string(info.param.threads) + "_d" +
             std::to_string(info.param.split_depth) +
             (info.param.dynamic ? "_dyn" : "_static");
    });

/// The work-stealing (dynamic) path of InnerExecutor on Symbi, whose
/// DCS-driven fan-out splits differently from GraphFlow's.
class StealingExecutorTest
    : public ::testing::TestWithParam<std::pair<unsigned, std::uint32_t>> {};

TEST_P(StealingExecutorTest, MatchesSequentialEnumeration) {
  const auto& [threads, split_depth] = GetParam();
  testing::SmallWorkload wl = testing::make_workload(876, 48, 140, 2, 1, 5, 0.0, 0.0);
  auto alg = csm::make_algorithm("symbi");
  alg->attach(wl.query, wl.graph);
  util::Rng rng(9);
  auto stream = graph::make_insert_stream(wl.graph, 0.25, rng);
  WorkerPool pool(threads);
  InnerExecutor executor(pool, split_depth, /*dynamic_balance=*/true);
  for (const auto& upd : stream) {
    ASSERT_TRUE(wl.graph.add_edge(upd.u, upd.v, upd.label));
    alg->on_edge_inserted(upd);
    std::vector<csm::SearchTask> seeds;
    alg->seeds(upd, seeds);
    csm::MatchSink seq;
    for (const auto& task : seeds) alg->expand(task, seq, nullptr);
    const InnerRunResult par = executor.run(*alg, seeds);
    EXPECT_EQ(par.matches, seq.matches);
    EXPECT_FALSE(par.timed_out);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, StealingExecutorTest,
                         ::testing::Values(std::pair{1u, 4u}, std::pair{2u, 0u},
                                           std::pair{4u, 2u}, std::pair{4u, 8u},
                                           std::pair{8u, 3u}),
                         [](const auto& info) {
                           return "t" + std::to_string(info.param.first) + "_d" +
                                  std::to_string(info.param.second);
                         });

/// An empty run on the stealing path leaves the deques empty: no worker
/// serves a task, and the next run on the same executor still matches.
TEST(StealingExecutor, EmptySeedsAreANoOp) {
  testing::SmallWorkload wl = testing::make_workload(2);
  auto alg = csm::make_algorithm("graphflow");
  alg->attach(wl.query, wl.graph);
  WorkerPool pool(2);
  InnerExecutor executor(pool, 4, /*dynamic_balance=*/true);
  const InnerRunResult r = executor.run(*alg, {});
  EXPECT_EQ(r.matches, 0u);
  for (const auto& w : r.stats.workers) EXPECT_EQ(w.tasks, 0u);

  util::Rng rng(3);
  auto stream = graph::make_insert_stream(wl.graph, 0.25, rng);
  for (const auto& upd : stream) {
    ASSERT_TRUE(wl.graph.add_edge(upd.u, upd.v, upd.label));
    alg->on_edge_inserted(upd);
    std::vector<csm::SearchTask> seeds;
    alg->seeds(upd, seeds);
    csm::MatchSink seq;
    for (const auto& task : seeds) alg->expand(task, seq, nullptr);
    EXPECT_EQ(executor.run(*alg, seeds).matches, seq.matches);
  }
}

TEST(InnerExecutor, EmptySeedsAreANoOp) {
  WorkerPool pool(2);
  InnerExecutor executor(pool, 4, true);
  auto alg = csm::make_algorithm("graphflow");
  testing::SmallWorkload wl = testing::make_workload(1);
  alg->attach(wl.query, wl.graph);
  const InnerRunResult r = executor.run(*alg, {});
  EXPECT_EQ(r.matches, 0u);
  EXPECT_EQ(r.nodes, 0u);
}

TEST(InnerExecutor, WorkerStatsAccountAllNodes) {
  testing::SmallWorkload wl = testing::make_workload(654, 40, 120, 1, 1, 4, 0.0, 0.0);
  auto alg = csm::make_algorithm("graphflow");
  alg->attach(wl.query, wl.graph);
  util::Rng rng(6);
  auto stream = graph::make_insert_stream(wl.graph, 0.2, rng);
  WorkerPool pool(4);
  InnerExecutor executor(pool, 3, true);
  for (const auto& upd : stream) {
    wl.graph.add_edge(upd.u, upd.v, upd.label);
    std::vector<csm::SearchTask> seeds;
    alg->seeds(upd, seeds);
    if (seeds.empty()) continue;
    const InnerRunResult r = executor.run(*alg, seeds);
    std::uint64_t worker_nodes = 0, worker_matches = 0;
    for (const auto& w : r.stats.workers) {
      worker_nodes += w.nodes;
      worker_matches += w.matches;
    }
    // Total = init-phase nodes + worker nodes.
    EXPECT_GE(r.nodes, worker_nodes);
    EXPECT_GE(r.matches, worker_matches);
    EXPECT_GE(r.stats.sequential_equivalent_ns(), r.stats.simulated_makespan_ns());
  }
}

TEST(InnerExecutor, DeadlineAbortsAndTerminates) {
  util::Rng rng(77);
  graph::DataGraph g = graph::generate_erdos_renyi(64, 1400, 1, 1, rng);
  auto q = graph::extract_query(g, 8, rng);
  ASSERT_TRUE(q.has_value());
  auto alg = csm::make_algorithm("graphflow");
  auto stream = graph::make_insert_stream(g, 0.05, rng);
  alg->attach(*q, g);
  WorkerPool pool(4);
  InnerExecutor executor(pool, 4, true);
  bool saw_timeout = false;
  for (const auto& upd : stream) {
    g.add_edge(upd.u, upd.v, upd.label);
    std::vector<csm::SearchTask> seeds;
    alg->seeds(upd, seeds);
    if (seeds.empty()) continue;
    const InnerRunResult r =
        executor.run(*alg, seeds, util::Clock::now() - std::chrono::milliseconds(1));
    saw_timeout = saw_timeout || r.timed_out;
  }
  EXPECT_TRUE(saw_timeout);
}

}  // namespace
}  // namespace paracosm::engine
