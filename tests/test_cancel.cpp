// Cooperative cancellation (ISSUE 4): CancelToken epoch semantics, the
// watchdog, and the end-to-end guarantee the service layer depends on — a
// raised token stops enumeration in EVERY executor configuration while
// leaving the graph and ADS exactly as if the searches had finished, so an
// uncancelled continuation is oracle-exact.
#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "paracosm/paracosm.hpp"
#include "service/service.hpp"
#include "tests/test_support.hpp"
#include "util/cancel.hpp"
#include "verify/oracle_mirror.hpp"

namespace paracosm {
namespace {

using testing::SmallWorkload;
using testing::make_workload;

TEST(CancelToken, EpochSemantics) {
  util::CancelToken token;
  const std::uint64_t e1 = token.arm();
  EXPECT_FALSE(token.is_cancelled(e1));

  token.cancel(e1);
  EXPECT_TRUE(token.is_cancelled(e1));

  // Re-arming opens a fresh scope the old cancel cannot touch.
  const std::uint64_t e2 = token.arm();
  EXPECT_GT(e2, e1);
  EXPECT_FALSE(token.is_cancelled(e2));

  // A LATE cancel aimed at the old epoch stays a no-op for the new scope.
  token.cancel(e1);
  EXPECT_FALSE(token.is_cancelled(e2));

  token.cancel_current();
  EXPECT_TRUE(token.is_cancelled(e2));
}

TEST(CancelToken, DefaultViewIsInert) {
  util::CancelView view;
  EXPECT_FALSE(view.active());
  EXPECT_FALSE(view.cancelled());

  util::CancelToken token;
  const util::CancelView armed = util::arm_view(token);
  EXPECT_TRUE(armed.active());
  EXPECT_FALSE(armed.cancelled());
  token.cancel(armed.epoch);
  EXPECT_TRUE(armed.cancelled());
}

TEST(Watchdog, CancelsOverdueEpochOnly) {
  util::CancelToken token;
  service::Watchdog dog;

  // Disarmed in time: no cancel.
  const std::uint64_t e1 = token.arm();
  dog.arm(&token, e1, util::Clock::now() + std::chrono::seconds(10));
  dog.disarm(e1);
  EXPECT_FALSE(token.is_cancelled(e1));
  EXPECT_EQ(dog.cancels(), 0u);

  // Deadline already passed: the watchdog must fire.
  const std::uint64_t e2 = token.arm();
  dog.arm(&token, e2, util::Clock::now() - std::chrono::milliseconds(1));
  for (int i = 0; i < 2000 && !token.is_cancelled(e2); ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_TRUE(token.is_cancelled(e2));
  EXPECT_EQ(dog.cancels(), 1u);

  // The fired cancel is pinned to e2; the next scope starts clean.
  const std::uint64_t e3 = token.arm();
  EXPECT_FALSE(token.is_cancelled(e3));
}

struct ExecCase {
  const char* name;
  bool inner;
  unsigned threads;
};

std::vector<ExecCase> executor_matrix() {
  std::vector<ExecCase> cases{{"sequential", false, 1}};
  for (const unsigned t : {1u, 2u, 4u, 8u}) cases.push_back({"inner", true, t});
  return cases;
}

engine::Config exec_config(const ExecCase& c) {
  engine::Config cfg;
  cfg.threads = c.threads;
  cfg.split_depth = 3;
  cfg.inner_parallelism = c.inner;
  cfg.inter_parallelism = false;
  cfg.queue_spin_iters = 1;
  cfg.pool_spin_iters = 1;
  return cfg;
}

// The service-layer contract, per executor × thread count: process the first
// half of the stream with the token already raised (the deterministic
// "watchdog fired" image), the second half uncancelled. Cancelled updates may
// under-report ΔM but never invent matches; graph and ADS must track the
// mirror exactly throughout, and the uncancelled continuation must be
// oracle-exact — cancellation leaves no residue.
TEST(CancelExecutors, DegradedPrefixThenExactSuffix) {
  for (const ExecCase& ec : executor_matrix()) {
    SCOPED_TRACE(std::string(ec.name) + " x" + std::to_string(ec.threads));
    SmallWorkload wl = make_workload(/*seed=*/177);
    ASSERT_FALSE(wl.stream.empty());

    const auto alg = csm::make_algorithm("turboflux");
    verify::OracleMirror oracle(wl.query, wl.graph, alg->uses_edge_labels(),
                                /*strict=*/false);
    engine::ParaCosm pc(*alg, wl.query, wl.graph, exec_config(ec));

    util::CancelToken token;
    const std::size_t half = wl.stream.size() / 2;
    for (std::size_t i = 0; i < wl.stream.size(); ++i) {
      const graph::GraphUpdate& upd = wl.stream[i];
      const verify::OracleDelta& want = oracle.step(upd);
      csm::UpdateOutcome out;
      if (i < half) {
        const util::CancelView view = util::arm_view(token);
        token.cancel(view.epoch);
        out = pc.process(upd, {}, view);
        EXPECT_LE(out.positive, want.positive) << "update " << i;
        EXPECT_LE(out.negative, want.negative) << "update " << i;
      } else {
        out = pc.process(upd);
        EXPECT_EQ(out.positive, want.positive) << "update " << i;
        EXPECT_EQ(out.negative, want.negative) << "update " << i;
        EXPECT_FALSE(out.cancelled) << "update " << i;
      }
      EXPECT_EQ(out.applied, want.applied) << "update " << i;
    }

    // Maintenance must have been exact regardless of cancelled searches.
    EXPECT_TRUE(wl.graph.same_structure(oracle.graph())) << "graph diverged";
    const auto fresh = csm::make_algorithm("turboflux");
    fresh->attach(wl.query, wl.graph);
    EXPECT_EQ(alg->ads_checksum(), fresh->ads_checksum())
        << "ADS diverged from a fresh attach";
  }
}

// A pre-cancelled whole-stream run must set the cancelled bit on the result
// when any search was actually cut short, and never crash or corrupt state.
TEST(CancelExecutors, StreamResultPropagatesCancelledBit) {
  SmallWorkload wl = make_workload(/*seed=*/991);
  const auto alg = csm::make_algorithm("graphflow");
  engine::Config cfg;
  cfg.threads = 4;
  cfg.inter_parallelism = false;
  cfg.queue_spin_iters = 1;
  cfg.pool_spin_iters = 1;
  engine::ParaCosm pc(*alg, wl.query, wl.graph, cfg);

  util::CancelToken token;
  const util::CancelView view = util::arm_view(token);
  token.cancel(view.epoch);
  const engine::StreamResult r = pc.process_stream(wl.stream, {}, view);
  EXPECT_EQ(r.updates_processed, wl.stream.size());

  const auto fresh = csm::make_algorithm("graphflow");
  fresh->attach(wl.query, wl.graph);
  EXPECT_EQ(alg->ads_checksum(), fresh->ads_checksum());
  (void)r.cancelled;  // may be false if every search finished pre-check
}

}  // namespace
}  // namespace paracosm
