// Randomized scheduler torture test: the lock-free runtime must be
// observably identical to sequential enumeration. For every update we
// collect the FULL match set (not just the count) through the match
// callback and require the delivered streams to be byte-identical across
//   sequential  ×  dynamic (work stealing)  ×  static
// at 1/2/4/8 threads — exercising the deterministic per-worker-buffer merge
// (match_buffer.hpp) and the Chase–Lev termination protocol under real
// search trees. Degenerate shapes (empty tree, single seed) are covered
// explicitly; tiny spin budgets force the park/unpark path.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "paracosm/inner_executor.hpp"
#include "paracosm/worker_pool.hpp"
#include "tests/test_support.hpp"

namespace paracosm::engine {
namespace {

using MatchSet = std::vector<std::vector<csm::Assignment>>;

/// Callback that records every delivered mapping.
struct Collector {
  MatchSet matches;
  std::function<void(std::span<const csm::Assignment>)> fn =
      [this](std::span<const csm::Assignment> m) {
        matches.emplace_back(m.begin(), m.end());
      };
};

bool mapping_less(const std::vector<csm::Assignment>& a,
                  const std::vector<csm::Assignment>& b) {
  return std::lexicographical_compare(
      a.begin(), a.end(), b.begin(), b.end(),
      [](const csm::Assignment& x, const csm::Assignment& y) {
        return x.qv != y.qv ? x.qv < y.qv : x.dv < y.dv;
      });
}

/// Sequential reference: expand every seed with a plain sink, then sort the
/// collected mappings with the executors' published (qv, dv) order.
MatchSet sequential_reference(const csm::CsmAlgorithm& alg,
                              const std::vector<csm::SearchTask>& seeds) {
  Collector ref;
  csm::MatchSink sink;
  sink.on_match = ref.fn;
  for (const csm::SearchTask& task : seeds) alg.expand(task, sink, nullptr);
  std::sort(ref.matches.begin(), ref.matches.end(), mapping_less);
  return ref.matches;
}

struct TortureCase {
  std::uint64_t seed;
  std::string_view algorithm;
  std::uint32_t split_depth;
};

class SchedulerTortureTest : public ::testing::TestWithParam<TortureCase> {};

TEST_P(SchedulerTortureTest, AllExecutorsDeliverIdenticalMatchSets) {
  const TortureCase& tc = GetParam();
  testing::SmallWorkload wl =
      testing::make_workload(tc.seed, 48, 150, 2, 1, 5, 0.0, 0.0);
  auto alg = csm::make_algorithm(tc.algorithm);
  alg->attach(wl.query, wl.graph);
  util::Rng rng(tc.seed ^ 0x5eedULL);
  auto stream = graph::make_insert_stream(wl.graph, 0.3, rng);
  ASSERT_FALSE(stream.empty());

  // Tiny spin budget: every run exercises park/unpark, not just spinning.
  const QueueKnobs knobs{.spin_iters = 8};
  struct Rig {
    std::unique_ptr<WorkerPool> pool;
    std::unique_ptr<InnerExecutor> dynamic;  ///< work-stealing split rule
    std::unique_ptr<InnerExecutor> fixed;    ///< static partition
  };
  std::vector<Rig> rigs;
  for (unsigned threads : {1u, 2u, 4u, 8u}) {
    Rig rig;
    rig.pool = std::make_unique<WorkerPool>(threads, /*spin_iters=*/8);
    rig.dynamic = std::make_unique<InnerExecutor>(*rig.pool, tc.split_depth,
                                                  /*dynamic=*/true, knobs);
    rig.fixed = std::make_unique<InnerExecutor>(*rig.pool, tc.split_depth,
                                                /*dynamic=*/false, knobs);
    rigs.push_back(std::move(rig));
  }

  for (const auto& upd : stream) {
    ASSERT_TRUE(wl.graph.add_edge(upd.u, upd.v, upd.label));
    alg->on_edge_inserted(upd);
    std::vector<csm::SearchTask> seeds;
    alg->seeds(upd, seeds);

    const MatchSet expected = sequential_reference(*alg, seeds);
    for (Rig& rig : rigs) {
      const unsigned threads = rig.pool->size();
      {
        Collector got;
        const InnerRunResult r = rig.dynamic->run(*alg, seeds, {}, &got.fn);
        EXPECT_EQ(got.matches, expected) << "dynamic t" << threads;
        EXPECT_EQ(r.matches, expected.size()) << "dynamic t" << threads;
      }
      {
        Collector got;
        const InnerRunResult r = rig.fixed->run(*alg, seeds, {}, &got.fn);
        EXPECT_EQ(got.matches, expected) << "static t" << threads;
        EXPECT_EQ(r.matches, expected.size()) << "static t" << threads;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SchedulerTortureTest,
    ::testing::Values(TortureCase{11, "graphflow", 3},
                      TortureCase{23, "symbi", 0},
                      TortureCase{37, "graphflow", 8},
                      TortureCase{59, "turboflux", 4}),
    [](const ::testing::TestParamInfo<TortureCase>& info) {
      return std::string(info.param.algorithm) + "_s" +
             std::to_string(info.param.seed) + "_d" +
             std::to_string(info.param.split_depth);
    });

TEST(SchedulerTorture, EmptyTreeIsANoOpOnEveryExecutor) {
  testing::SmallWorkload wl = testing::make_workload(3);
  auto alg = csm::make_algorithm("graphflow");
  alg->attach(wl.query, wl.graph);
  for (unsigned threads : {1u, 4u, 8u}) {
    WorkerPool pool(threads, 8);
    for (const bool dynamic : {true, false}) {
      InnerExecutor inner(pool, 4, dynamic, QueueKnobs{.spin_iters = 8});
      Collector got;
      EXPECT_EQ(inner.run(*alg, {}, {}, &got.fn).matches, 0u);
      EXPECT_TRUE(got.matches.empty());
    }
  }
}

TEST(SchedulerTorture, SingleSeedMatchesSequential) {
  testing::SmallWorkload wl = testing::make_workload(91, 40, 130, 2, 1, 4, 0.0, 0.0);
  auto alg = csm::make_algorithm("graphflow");
  alg->attach(wl.query, wl.graph);
  util::Rng rng(17);
  auto stream = graph::make_insert_stream(wl.graph, 0.2, rng);
  WorkerPool pool(8, 8);
  InnerExecutor inner(pool, 4, true, QueueKnobs{.spin_iters = 8});
  for (const auto& upd : stream) {
    ASSERT_TRUE(wl.graph.add_edge(upd.u, upd.v, upd.label));
    alg->on_edge_inserted(upd);
    std::vector<csm::SearchTask> seeds;
    alg->seeds(upd, seeds);
    if (seeds.empty()) continue;
    seeds.resize(1);  // a one-seed tree: everything hinges on splitting
    const MatchSet expected = sequential_reference(*alg, seeds);
    Collector got;
    EXPECT_EQ(inner.run(*alg, seeds, {}, &got.fn).matches, expected.size());
    EXPECT_EQ(got.matches, expected);
  }
}

/// Repeated runs on one persistent executor must not leak state across runs
/// (warm deques, recycled nodes, counter export).
TEST(SchedulerTorture, PersistentQueueIsCleanAcrossRuns) {
  testing::SmallWorkload wl = testing::make_workload(77, 48, 150, 2, 1, 5, 0.0, 0.0);
  auto alg = csm::make_algorithm("symbi");
  alg->attach(wl.query, wl.graph);
  util::Rng rng(4);
  auto stream = graph::make_insert_stream(wl.graph, 0.3, rng);
  WorkerPool pool(4, 8);
  InnerExecutor inner(pool, 3, true, QueueKnobs{.spin_iters = 8});
  for (const auto& upd : stream) {
    ASSERT_TRUE(wl.graph.add_edge(upd.u, upd.v, upd.label));
    alg->on_edge_inserted(upd);
    std::vector<csm::SearchTask> seeds;
    alg->seeds(upd, seeds);
    const MatchSet expected = sequential_reference(*alg, seeds);
    for (int rep = 0; rep < 3; ++rep) {
      Collector got;
      const InnerRunResult r = inner.run(*alg, seeds, {}, &got.fn);
      ASSERT_EQ(r.matches, expected.size()) << "rep " << rep;
      ASSERT_EQ(got.matches, expected) << "rep " << rep;
    }
  }
}

}  // namespace
}  // namespace paracosm::engine
