// Service layer (ISSUE 4): bounded ingest, WAL/snapshot durability, crash
// recovery, and the oracle-checked fault matrix.
#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "graph/graph_io.hpp"
#include "paracosm/paracosm.hpp"
#include "service/ingest.hpp"
#include "service/service.hpp"
#include "service/wal.hpp"
#include "tests/test_support.hpp"
#include "verify/fuzzer.hpp"
#include "verify/service_check.hpp"

namespace paracosm {
namespace {

using graph::GraphUpdate;
using service::IngestItem;
using service::IngestQueue;
using service::OverloadPolicy;
using service::PushResult;

std::string tmp_path(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

// ------------------------------------------------------------------ ingest

TEST(IngestQueue, FifoRoundtrip) {
  IngestQueue q(8, OverloadPolicy::kBlock);
  for (std::uint32_t i = 0; i < 5; ++i)
    EXPECT_EQ(q.push(GraphUpdate::insert_edge(i, i + 1, 0)), PushResult::kOk);
  EXPECT_EQ(q.approx_size(), 5u);

  IngestItem item;
  for (std::uint32_t i = 0; i < 5; ++i) {
    ASSERT_TRUE(q.try_pop(item));
    EXPECT_EQ(item.upd.u, i);
    EXPECT_FALSE(item.degraded);
  }
  EXPECT_FALSE(q.try_pop(item));
  EXPECT_EQ(q.stats().enqueued, 5u);
  EXPECT_EQ(q.stats().high_water, 5u);
}

TEST(IngestQueue, ShedPolicyRejectsWhenFull) {
  IngestQueue q(2, OverloadPolicy::kShed);
  EXPECT_EQ(q.push(GraphUpdate::insert_edge(0, 1, 0)), PushResult::kOk);
  EXPECT_EQ(q.push(GraphUpdate::insert_edge(1, 2, 0)), PushResult::kOk);
  EXPECT_EQ(q.push(GraphUpdate::insert_edge(2, 3, 0)), PushResult::kShed);
  EXPECT_EQ(q.stats().shed, 1u);
  EXPECT_EQ(q.stats().enqueued, 2u);
}

TEST(IngestQueue, DegradePolicyFlagsOverloadVictims) {
  IngestQueue q(2, OverloadPolicy::kDegrade);
  EXPECT_EQ(q.push(GraphUpdate::insert_edge(0, 1, 0)), PushResult::kOk);
  EXPECT_EQ(q.push(GraphUpdate::insert_edge(1, 2, 0)), PushResult::kOk);

  // Third push blocks until the consumer frees a slot, then lands degraded.
  std::thread consumer([&q] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    IngestItem item;
    ASSERT_TRUE(q.try_pop(item));
    EXPECT_FALSE(item.degraded);
  });
  EXPECT_EQ(q.push(GraphUpdate::insert_edge(2, 3, 0)), PushResult::kDegraded);
  consumer.join();

  IngestItem item;
  ASSERT_TRUE(q.try_pop(item));
  EXPECT_FALSE(item.degraded);
  ASSERT_TRUE(q.try_pop(item));
  EXPECT_TRUE(item.degraded);
  EXPECT_EQ(q.stats().degraded, 1u);
  EXPECT_GE(q.stats().blocked_pushes, 1u);
}

TEST(IngestQueue, PopWaitDrainsAfterClose) {
  IngestQueue q(8, OverloadPolicy::kBlock);
  EXPECT_EQ(q.push(GraphUpdate::insert_edge(7, 8, 1)), PushResult::kOk);
  q.close();
  EXPECT_EQ(q.push(GraphUpdate::insert_edge(8, 9, 1)), PushResult::kClosed);

  IngestItem item;
  ASSERT_TRUE(q.pop_wait(item));  // the pre-close item must still drain
  EXPECT_EQ(item.upd.u, 7u);
  EXPECT_FALSE(q.pop_wait(item));  // then clean termination
}

TEST(IngestQueue, MpscStressKeepsEveryUpdate) {
  IngestQueue q(16, OverloadPolicy::kBlock);
  constexpr int kProducers = 4, kPerProducer = 500;
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p)
    producers.emplace_back([&q, p] {
      for (int i = 0; i < kPerProducer; ++i)
        (void)q.push(GraphUpdate::insert_edge(static_cast<graph::VertexId>(p),
                                              static_cast<graph::VertexId>(i), 0));
    });

  std::uint64_t popped = 0, last_u[kProducers] = {};
  bool order_ok = true;
  std::thread consumer([&] {
    IngestItem item;
    while (q.pop_wait(item)) {
      ++popped;
      // Per-producer FIFO: each producer's sequence numbers arrive in order.
      if (item.upd.v < last_u[item.upd.u] && item.upd.v != 0) order_ok = false;
      last_u[item.upd.u] = item.upd.v;
    }
  });
  for (std::thread& t : producers) t.join();
  q.close();
  consumer.join();
  EXPECT_EQ(popped, static_cast<std::uint64_t>(kProducers) * kPerProducer);
  EXPECT_TRUE(order_ok);
  EXPECT_GE(q.stats().blocked_pushes, 1u);  // capacity 16 vs 2000 pushes
}

// --------------------------------------------------------------------- WAL

TEST(Wal, AppendReadRoundtrip) {
  const std::string path = tmp_path("roundtrip.wal");
  const std::vector<GraphUpdate> updates = {
      GraphUpdate::insert_edge(1, 2, 3), GraphUpdate::remove_edge(1, 2),
      GraphUpdate::insert_vertex(9, 4), GraphUpdate::remove_vertex(9)};
  {
    service::WalWriter w(path, /*truncate=*/true);
    for (const GraphUpdate& u : updates) (void)w.append(u);
    w.flush();
    EXPECT_EQ(w.next_seq(), updates.size());
  }
  const service::WalReadResult r = service::read_wal(path);
  EXPECT_FALSE(r.torn_tail);
  ASSERT_EQ(r.records.size(), updates.size());
  for (std::size_t i = 0; i < updates.size(); ++i) {
    EXPECT_EQ(r.records[i].seq, i);
    EXPECT_EQ(r.records[i].upd, updates[i]);
  }
}

TEST(Wal, TornTailDetectedAndTruncated) {
  const std::string path = tmp_path("torn.wal");
  {
    service::WalWriter w(path, /*truncate=*/true);
    (void)w.append(GraphUpdate::insert_edge(1, 2, 0));
    (void)w.append(GraphUpdate::insert_edge(2, 3, 0));
    w.flush();
  }
  {  // crash mid-append: 11 junk bytes after the good records
    std::ofstream f(path, std::ios::binary | std::ios::app);
    f.write("junkjunkjun", 11);
  }
  service::WalReadResult r = service::read_wal(path);
  EXPECT_TRUE(r.torn_tail);
  EXPECT_EQ(r.records.size(), 2u);
  EXPECT_EQ(r.valid_bytes,
            service::kWalHeaderBytes + 2 * service::kWalRecordBytes);

  service::truncate_wal(path, r.valid_bytes);
  r = service::read_wal(path);
  EXPECT_FALSE(r.torn_tail);
  EXPECT_EQ(r.records.size(), 2u);

  // A resumed writer appends cleanly after the cut.
  {
    service::WalWriter w(path, /*truncate=*/false, r.records.size());
    EXPECT_EQ(w.append(GraphUpdate::remove_edge(1, 2)), 2u);
    w.flush();
  }
  r = service::read_wal(path);
  EXPECT_FALSE(r.torn_tail);
  EXPECT_EQ(r.records.size(), 3u);
}

TEST(Wal, CorruptedByteInvalidatesSuffix) {
  const std::string path = tmp_path("bitrot.wal");
  {
    service::WalWriter w(path, /*truncate=*/true);
    for (int i = 0; i < 4; ++i)
      (void)w.append(GraphUpdate::insert_edge(i, i + 1, 0));
    w.flush();
  }
  {  // flip one byte inside record 2
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(static_cast<std::streamoff>(service::kWalHeaderBytes +
                                        2 * service::kWalRecordBytes + 13));
    f.put('\x5a');
  }
  const service::WalReadResult r = service::read_wal(path);
  EXPECT_TRUE(r.torn_tail);
  EXPECT_EQ(r.records.size(), 2u);  // everything from the bad record on drops
}

TEST(Wal, MissingFileReadsEmpty) {
  const service::WalReadResult r = service::read_wal(tmp_path("absent.wal"));
  EXPECT_FALSE(r.torn_tail);
  EXPECT_TRUE(r.records.empty());
}

TEST(Snapshot, RoundtripPreservesGraphAndMeta) {
  testing::SmallWorkload wl = testing::make_workload(/*seed=*/5);
  // The highest id removed: its slot outlives it, but the body lists live
  // vertices only, so the capacity must come from the header.
  graph::DataGraph top_removed = wl.graph;
  top_removed.remove_vertex(top_removed.vertex_capacity() - 1);
  ASSERT_EQ(top_removed.vertex_capacity(), wl.graph.vertex_capacity());

  const std::string path = tmp_path("snap.graph");
  for (const graph::DataGraph* g : {&wl.graph, &top_removed}) {
    service::write_snapshot(path, *g, {17, 0xabcdef12345ULL, "symbi"});
    const auto snap = service::read_snapshot(path);
    ASSERT_TRUE(snap.has_value());
    EXPECT_EQ(snap->meta.seq, 17u);
    EXPECT_EQ(snap->meta.ads_checksum, 0xabcdef12345ULL);
    EXPECT_EQ(snap->meta.algorithm, "symbi");
    EXPECT_EQ(snap->graph.vertex_capacity(), g->vertex_capacity());
    EXPECT_TRUE(snap->graph.same_structure(*g));
  }

  // A header without the slot count (older snapshots) still loads.
  {
    std::ofstream f(path, std::ios::trunc);
    f << "# paracosm-snapshot 1 seq=3 ads=ff alg=x\n";
    graph::save_data_graph(wl.graph, f);
  }
  const auto old = service::read_snapshot(path);
  ASSERT_TRUE(old.has_value());
  EXPECT_TRUE(old->graph.same_structure(wl.graph));
}

TEST(Snapshot, RejectsCorruptHeaderOrBody) {
  const std::string path = tmp_path("badsnap.graph");
  {
    std::ofstream f(path, std::ios::trunc);
    f << "# not-a-snapshot 1 seq=0 ads=0 alg=x\nv 0 0\n";
  }
  EXPECT_FALSE(service::read_snapshot(path).has_value());
  {
    std::ofstream f(path, std::ios::trunc);
    f << "# paracosm-snapshot 1 seq=3 ads=ff alg=x\nv 0 banana\n";
  }
  EXPECT_FALSE(service::read_snapshot(path).has_value());
  // A slot count that is not a number, or fewer slots than the body's ids.
  for (const char* slots : {"banana", "1"}) {
    {
      std::ofstream f(path, std::ios::trunc);
      f << "# paracosm-snapshot 1 seq=3 ads=ff alg=x slots=" << slots
        << "\nv 0 0\nv 1 0\n";
    }
    EXPECT_FALSE(service::read_snapshot(path).has_value()) << slots;
  }
  EXPECT_FALSE(service::read_snapshot(tmp_path("nosnap.graph")).has_value());
}

TEST(Recovery, ReplaysWalSuffixOnBaseAndSnapshot) {
  testing::SmallWorkload wl = testing::make_workload(/*seed=*/11);
  ASSERT_GE(wl.stream.size(), 6u);
  const std::string wal = tmp_path("recover.wal");
  const std::string snap = tmp_path("recover.snap");

  graph::DataGraph expect = wl.graph;
  {
    service::WalWriter w(wal, /*truncate=*/true);
    for (const GraphUpdate& u : wl.stream) {
      (void)w.append(u);
      expect.apply(u);
    }
    w.flush();
  }

  // Base-only recovery replays the full log.
  service::RecoveredState rec = service::recover_state(wl.graph, wal);
  EXPECT_FALSE(rec.used_snapshot);
  EXPECT_EQ(rec.replayed, wl.stream.size());
  EXPECT_EQ(rec.next_seq, wl.stream.size());
  EXPECT_TRUE(rec.graph.same_structure(expect));

  // Snapshot at update s: only the suffix replays, same end state.
  const std::uint64_t s = wl.stream.size() / 2;
  graph::DataGraph snap_graph = wl.graph;
  for (std::uint64_t i = 0; i < s; ++i) snap_graph.apply(wl.stream[i]);
  service::write_snapshot(snap, snap_graph, {s, 0, "graphflow"});

  rec = service::recover_state(wl.graph, wal, snap);
  EXPECT_TRUE(rec.used_snapshot);
  EXPECT_EQ(rec.replayed, wl.stream.size() - s);
  EXPECT_TRUE(rec.graph.same_structure(expect));
}

TEST(Recovery, SnapshotAheadOfWalTailIsRejected) {
  testing::SmallWorkload wl = testing::make_workload(/*seed=*/13);
  ASSERT_GE(wl.stream.size(), 4u);
  const std::string wal = tmp_path("ahead.wal");
  const std::string snap = tmp_path("ahead.snap");

  // WAL holds only the first two records…
  {
    service::WalWriter w(wal, /*truncate=*/true);
    (void)w.append(wl.stream[0]);
    (void)w.append(wl.stream[1]);
    w.flush();
  }
  // …but the snapshot claims to be current through seq 4: two records are
  // simply gone, so the state in between is unrecoverable.
  graph::DataGraph snap_graph = wl.graph;
  for (int i = 0; i < 4; ++i) snap_graph.apply(wl.stream[i]);
  service::write_snapshot(snap, snap_graph, {4, 0, "graphflow"});

  try {
    (void)service::recover_state(wl.graph, wal, snap);
    FAIL() << "snapshot ahead of WAL tail must be rejected";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("snapshot"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("missing"), std::string::npos);
  }
}

TEST(Recovery, DuplicateWalSuffixReplayIsIdempotent) {
  // Snapshot current through seq s, WAL holding the FULL log: the overlap
  // [0, s) replays as no-ops on the snapshot graph (redo idempotence), and
  // nothing double-applies.
  testing::SmallWorkload wl = testing::make_workload(/*seed=*/17);
  ASSERT_GE(wl.stream.size(), 6u);
  const std::string wal = tmp_path("dup.wal");
  const std::string snap = tmp_path("dup.snap");

  graph::DataGraph expect = wl.graph;
  {
    service::WalWriter w(wal, /*truncate=*/true);
    for (const GraphUpdate& u : wl.stream) {
      (void)w.append(u);
      expect.apply(u);
    }
    w.flush();
  }
  const std::uint64_t s = wl.stream.size() / 2;
  graph::DataGraph snap_graph = wl.graph;
  for (std::uint64_t i = 0; i < s; ++i) snap_graph.apply(wl.stream[i]);
  service::write_snapshot(snap, snap_graph, {s, 0, "graphflow"});

  // First recovery replays the suffix; then recover AGAIN from the same pair
  // after re-applying the suffix by hand — still the same final structure.
  service::RecoveredState rec = service::recover_state(wl.graph, wal, snap);
  EXPECT_TRUE(rec.graph.same_structure(expect));
  service::RecoveredState rec2 = service::recover_state(rec.graph, wal, snap);
  EXPECT_TRUE(rec2.graph.same_structure(expect));
  EXPECT_EQ(rec2.next_seq, wl.stream.size());
}

TEST(Recovery, WalFromDifferentGraphIsRejected) {
  testing::SmallWorkload wl = testing::make_workload(/*seed=*/19);
  testing::SmallWorkload other = testing::make_workload(/*seed=*/23);
  ASSERT_NE(service::graph_fingerprint(wl.graph),
            service::graph_fingerprint(other.graph));

  const std::string wal = tmp_path("foreign.wal");
  {
    service::WalWriter w(wal, /*truncate=*/true, /*next_seq=*/0,
                         service::graph_fingerprint(other.graph));
    for (const GraphUpdate& u : other.stream) (void)w.append(u);
    w.flush();
  }

  // Replaying onto the graph it was written for works…
  EXPECT_NO_THROW((void)service::recover_state(other.graph, wal));
  // …replaying onto a different graph is rejected with a clear error.
  try {
    (void)service::recover_state(wl.graph, wal);
    FAIL() << "foreign WAL must be rejected";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("fingerprint mismatch"),
              std::string::npos);
  }
}

// The service stamps the identity header itself: a WAL written through
// StreamService must refuse to replay onto any graph but the one it began on.
TEST(Recovery, ServiceWalFromDifferentGraphIsRejected) {
  testing::SmallWorkload wl = testing::make_workload(/*seed=*/19);
  testing::SmallWorkload other = testing::make_workload(/*seed=*/23);
  ASSERT_NE(service::graph_fingerprint(wl.graph),
            service::graph_fingerprint(other.graph));

  const std::string wal = tmp_path("service_foreign.wal");
  const auto alg = csm::make_algorithm("graphflow");
  graph::DataGraph g = wl.graph;
  engine::Config cfg;
  cfg.threads = 2;
  cfg.inter_parallelism = false;
  engine::ParaCosm pc(*alg, wl.query, g, cfg);
  service::ServiceOptions sopts;
  sopts.wal_path = wal;
  {
    service::StreamService svc(pc, sopts);
    for (const GraphUpdate& u : wl.stream) (void)svc.submit(u);
    const service::ServiceReport report = svc.finish();
    ASSERT_TRUE(report.error.empty()) << report.error;
  }
  EXPECT_EQ(service::read_wal(wal).fingerprint,
            service::graph_fingerprint(wl.graph));

  EXPECT_NO_THROW((void)service::recover_state(wl.graph, wal));
  try {
    (void)service::recover_state(other.graph, wal);
    FAIL() << "a service WAL replayed onto a foreign graph must be rejected";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("fingerprint mismatch"),
              std::string::npos);
  }
}

TEST(Wal, TransientWriteFailuresAreRetriedAndCounted) {
  const std::string path = tmp_path("flaky.wal");
  service::WalWriter w(path, /*truncate=*/true);
  w.inject_transient_failures(3, EINTR);
  (void)w.append(GraphUpdate::insert_edge(1, 2, 0));
  w.inject_transient_failures(2, EAGAIN);
  w.flush();
  EXPECT_EQ(w.retries(), 5u);

  // A non-transient errno is not retried — it surfaces immediately.
  w.inject_transient_failures(1, EIO);
  EXPECT_THROW((void)w.append(GraphUpdate::insert_edge(2, 3, 0)), std::runtime_error);

  // The successfully appended record survived intact.
  const service::WalReadResult r = service::read_wal(path);
  EXPECT_EQ(r.records.size(), 1u);
  EXPECT_FALSE(r.torn_tail);
}

// ----------------------------------------------------- StreamService + matrix

TEST(StreamService, BlockPolicyIsOracleExact) {
  const verify::FuzzCase c = verify::generate_case(321);
  verify::ServiceCheckOptions opts;
  opts.fault = verify::ServiceFault::kNone;
  opts.threads = 2;
  for (const verify::Divergence& d : verify::check_service_case(c, opts))
    ADD_FAILURE() << d.to_string();
}

TEST(StreamService, ForcedTimeoutsDegradeButStayConsistent) {
  const verify::FuzzCase c = verify::generate_case(654);
  verify::ServiceCheckOptions opts;
  opts.fault = verify::ServiceFault::kForcedTimeout;
  opts.timeout_rate = 0.25;
  opts.threads = 4;
  for (const verify::Divergence& d : verify::check_service_case(c, opts))
    ADD_FAILURE() << d.to_string();
}

TEST(StreamService, ShedIsDelayedNeverDropped) {
  const verify::FuzzCase c = verify::generate_case(987);
  verify::ServiceCheckOptions opts;
  opts.fault = verify::ServiceFault::kShedIngest;
  opts.queue_capacity = 2;
  opts.slow_consumer_us = 100;
  opts.threads = 2;
  for (const verify::Divergence& d : verify::check_service_case(c, opts))
    ADD_FAILURE() << d.to_string();
}

TEST(StreamService, DegradePolicyStaysCountExact) {
  const verify::FuzzCase c = verify::generate_case(246);
  verify::ServiceCheckOptions opts;
  opts.fault = verify::ServiceFault::kDegradeIngest;
  opts.queue_capacity = 2;
  opts.slow_consumer_us = 100;
  opts.threads = 2;
  for (const verify::Divergence& d : verify::check_service_case(c, opts))
    ADD_FAILURE() << d.to_string();
}

// The acceptance-criteria matrix: 25 seeded kill points, each crashing
// between WAL append and apply (some with torn tails and mid-run snapshots),
// recovered and continued — all oracle-exact.
TEST(StreamService, CrashRecoveryMatrix25KillPoints) {
  const verify::FuzzCase c = verify::generate_case(135);
  verify::ServiceCheckOptions opts;
  opts.fault = verify::ServiceFault::kCrashRecovery;
  opts.crash_points = 25;
  opts.threads = 2;
  opts.dir = ::testing::TempDir();
  for (const verify::Divergence& d : verify::check_service_case(c, opts))
    ADD_FAILURE() << d.to_string();
}

TEST(StreamService, WatchdogBudgetRunSurvives) {
  testing::SmallWorkload wl = testing::make_workload(/*seed=*/400);
  const auto alg = csm::make_algorithm("graphflow");
  engine::Config cfg;
  cfg.threads = 2;
  cfg.inter_parallelism = false;
  cfg.queue_spin_iters = 1;
  cfg.pool_spin_iters = 1;
  engine::ParaCosm pc(*alg, wl.query, wl.graph, cfg);

  service::ServiceOptions sopts;
  sopts.budget_us = 1;  // aggressively small: the watchdog may fire anywhere
  sopts.record_applied_order = true;
  service::ServiceReport report;
  {
    service::StreamService svc(pc, sopts);
    for (const GraphUpdate& u : wl.stream) (void)svc.submit(u);
    report = svc.finish();
  }
  EXPECT_TRUE(report.error.empty()) << report.error;
  EXPECT_EQ(report.stats.processed, wl.stream.size());
  EXPECT_EQ(report.latency.count(), wl.stream.size());

  // However many deadlines fired, maintenance stayed exact.
  const auto fresh = csm::make_algorithm("graphflow");
  fresh->attach(wl.query, wl.graph);
  EXPECT_EQ(alg->ads_checksum(), fresh->ads_checksum());
}

// ------------------------------------------------ paracosm_serve, SIGTERM

/// Path of a tool binary next to this test executable
/// (build/tests/test_service -> build/tools/<name>), independent of the cwd.
std::string tool_path(const std::string& name) {
  char exe[4096];
  const ssize_t n = ::readlink("/proc/self/exe", exe, sizeof exe - 1);
  if (n <= 0) return {};
  std::string dir(exe, static_cast<std::size_t>(n));
  dir.resize(dir.rfind('/'));
  return dir + "/../tools/" + name;
}

/// fork/exec `argv` with stdout and stderr sent to `log`; returns the pid.
pid_t spawn(const std::vector<std::string>& argv, const std::string& log) {
  std::vector<char*> args;
  for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);
  const pid_t pid = ::fork();
  if (pid == 0) {  // only async-signal-safe calls until exec
    const int fd = ::open(log.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd >= 0) {
      ::dup2(fd, STDOUT_FILENO);
      ::dup2(fd, STDERR_FILENO);
      ::close(fd);
    }
    ::execv(args[0], args.data());
    ::_exit(127);
  }
  return pid;
}

/// Wait for `pid`; the exit code, or -1 if it did not exit normally.
int wait_exit(pid_t pid) {
  int status = 0;
  if (::waitpid(pid, &status, 0) != pid || !WIFEXITED(status)) return -1;
  return WEXITSTATUS(status);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

// Graceful shutdown of the single-process server: SIGTERM mid-stream breaks
// the submit loop, the service drains what was admitted, flushes the WAL and
// a final snapshot and exits 0 — and those files recover to an oracle-exact
// end state.
TEST(ServeTool, SigtermDrainsFlushesDurabilityAndExitsZero) {
  const std::string serve = tool_path("paracosm_serve");
  ASSERT_EQ(::access(serve.c_str(), X_OK), 0) << "missing " << serve;

  const verify::FuzzCase c = verify::generate_case(11);
  ASSERT_GE(c.stream.size(), 8u);
  const std::string graph_path = tmp_path("sigterm.graph");
  const std::string query_path = tmp_path("sigterm.query");
  const std::string stream_path = tmp_path("sigterm.stream");
  const std::string wal = tmp_path("sigterm.wal");
  const std::string snap = tmp_path("sigterm.snap");
  const std::string log = tmp_path("sigterm.log");
  graph::save_data_graph_file(c.graph, graph_path);
  graph::save_query_graph_file(c.queries.front(), query_path);
  graph::save_update_stream_file(c.stream, stream_path);
  std::remove(wal.c_str());
  std::remove(snap.c_str());

  const std::vector<std::string> common = {
      serve,      "--graph",   graph_path, "--query",     query_path,
      "--stream", stream_path, "--wal",    wal,           "--snapshot",
      snap,       "--threads", "2",        "--algorithm", "graphflow"};
  // A 2-slot ring and a 20 ms consumer delay keep the producer blocked in
  // submit() for about a second, so the signal lands mid-stream.
  std::vector<std::string> first = common;
  for (const char* a : {"--queue", "2", "--slow-consumer-us", "20000"})
    first.emplace_back(a);
  const pid_t pid = spawn(first, log);
  ASSERT_GT(pid, 0);

  // Signal once the first record is durable: the handler is installed by
  // then, and most of the stream is still unsubmitted.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (service::read_wal(wal).records.empty() &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  ASSERT_EQ(::kill(pid, SIGTERM), 0);
  ASSERT_EQ(wait_exit(pid), 0) << read_file(log);

  const std::string out = read_file(log);
  EXPECT_NE(out.find("signal received"), std::string::npos) << out;
  const service::WalReadResult w = service::read_wal(wal);
  EXPECT_FALSE(w.records.empty());
  EXPECT_LT(w.records.size(), c.stream.size()) << "the stream was not cut short";
  EXPECT_TRUE(service::read_snapshot(snap).has_value());

  std::vector<std::string> second = common;
  second.emplace_back("--recover");
  second.emplace_back("--verify-final");
  const pid_t rpid = spawn(second, log);
  ASSERT_GT(rpid, 0);
  ASSERT_EQ(wait_exit(rpid), 0) << read_file(log);
  EXPECT_NE(read_file(log).find("verify-final: OK"), std::string::npos);
}

// The same graceful shutdown for the multi-query server (--multi): SIGTERM
// breaks the submit loop, finish() drains and flushes the WAL, exit 0.
TEST(ServeTool, MultiSigtermDrainsFlushesWalAndExitsZero) {
  const std::string serve = tool_path("paracosm_serve");
  ASSERT_EQ(::access(serve.c_str(), X_OK), 0) << "missing " << serve;

  const verify::FuzzCase c = verify::generate_case(11);
  ASSERT_FALSE(c.stream.empty());
  // --multi has no slow-consumer fault, so the stream is long instead: the
  // fuzz stream repeated to 40,000 updates (later rounds are mostly no-ops,
  // each still a WAL record), behind a 2-slot ring.
  std::vector<GraphUpdate> stream;
  while (stream.size() < 40'000)
    stream.insert(stream.end(), c.stream.begin(), c.stream.end());
  const std::string graph_path = tmp_path("multi_sigterm.graph");
  const std::string query_path = tmp_path("multi_sigterm.query");
  const std::string stream_path = tmp_path("multi_sigterm.stream");
  const std::string wal = tmp_path("multi_sigterm.wal");
  const std::string log = tmp_path("multi_sigterm.log");
  graph::save_data_graph_file(c.graph, graph_path);
  graph::save_query_graph_file(c.queries.front(), query_path);
  graph::save_update_stream_file(stream, stream_path);
  std::remove(wal.c_str());

  const pid_t pid =
      spawn({serve, "--multi", "--graph", graph_path, "--query", query_path,
             "--stream", stream_path, "--wal", wal, "--queue", "2",
             "--threads", "2", "--algorithm", "graphflow"},
            log);
  ASSERT_GT(pid, 0);

  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (service::read_wal(wal).records.empty() &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  ASSERT_EQ(::kill(pid, SIGTERM), 0);
  ASSERT_EQ(wait_exit(pid), 0) << read_file(log);

  const std::string out = read_file(log);
  EXPECT_NE(out.find("signal received"), std::string::npos) << out;
  const service::WalReadResult w = service::read_wal(wal);
  EXPECT_FALSE(w.records.empty());
  EXPECT_LT(w.records.size(), stream.size()) << "the stream was not cut short";
}

}  // namespace
}  // namespace paracosm
