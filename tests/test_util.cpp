// Unit tests for the util substrate: RNG, CLI, CSV, tables, timers, locks,
// the affinity-mask CPU count.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <thread>

#if defined(__linux__)
#include <sched.h>
#endif

#include "paracosm/config.hpp"
#include "util/affinity.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/rng.hpp"
#include "util/sync.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace paracosm::util {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a() == b()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, BoundedStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(rng.bounded(17), 17u);
}

TEST(Rng, BoundedCoversRange) {
  Rng rng(8);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.bounded(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, RangeInclusive) {
  Rng rng(9);
  bool lo = false, hi = false;
  for (int i = 0; i < 5000; ++i) {
    const auto v = rng.range(3, 5);
    EXPECT_GE(v, 3u);
    EXPECT_LE(v, 5u);
    lo = lo || v == 3;
    hi = hi || v == 5;
  }
  EXPECT_TRUE(lo);
  EXPECT_TRUE(hi);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(10);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(11);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8, 9};
  auto shuffled = v;
  rng.shuffle(shuffled);
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, v);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng parent(12);
  Rng child = parent.fork();
  EXPECT_NE(parent(), child());
}

TEST(Cli, ParsesAllForms) {
  Cli cli("prog", "test");
  cli.option("alpha", "1", "a").option("beta", "x", "b").flag("gamma", "g");
  const char* argv[] = {"prog", "--alpha", "42", "--beta=hello", "--gamma"};
  ASSERT_TRUE(cli.parse(5, argv));
  EXPECT_EQ(cli.get_int("alpha"), 42);
  EXPECT_EQ(cli.get("beta"), "hello");
  EXPECT_TRUE(cli.get_bool("gamma"));
}

TEST(Cli, DefaultsApply) {
  Cli cli("prog", "test");
  cli.option("alpha", "7", "a").flag("gamma", "g");
  const char* argv[] = {"prog"};
  ASSERT_TRUE(cli.parse(1, argv));
  EXPECT_EQ(cli.get_int("alpha"), 7);
  EXPECT_FALSE(cli.get_bool("gamma"));
}

TEST(Cli, RejectsUnknownOption) {
  Cli cli("prog", "test");
  const char* argv[] = {"prog", "--nope", "1"};
  EXPECT_FALSE(cli.parse(3, argv));
  EXPECT_EQ(cli.exit_code(), 2);
}

TEST(Cli, MissingValueIsError) {
  Cli cli("prog", "test");
  cli.option("alpha", "1", "a");
  const char* argv[] = {"prog", "--alpha"};
  EXPECT_FALSE(cli.parse(2, argv));
}

TEST(Cli, HelpReturnsFalseWithZeroExit) {
  Cli cli("prog", "test");
  const char* argv[] = {"prog", "--help"};
  EXPECT_FALSE(cli.parse(2, argv));
  EXPECT_EQ(cli.exit_code(), 0);
}

TEST(Cli, GetUnregisteredThrows) {
  Cli cli("prog", "test");
  EXPECT_THROW((void)cli.get("missing"), std::invalid_argument);
}

TEST(Csv, WritesHeaderAndRowsWithEscaping) {
  const std::string path = "results/test_csv_output.csv";
  {
    CsvWriter csv(path, {"a", "b"});
    csv.row({"1", "plain"});
    csv.row({"2", "has,comma"});
    csv.row({"3", "has\"quote"});
  }
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "a,b");
  std::getline(in, line);
  EXPECT_EQ(line, "1,plain");
  std::getline(in, line);
  EXPECT_EQ(line, "2,\"has,comma\"");
  std::getline(in, line);
  EXPECT_EQ(line, "3,\"has\"\"quote\"");
  std::filesystem::remove(path);
}

TEST(Csv, RowWidthMismatchThrows) {
  CsvWriter csv("results/test_csv_width.csv", {"a", "b"});
  EXPECT_THROW(csv.row({"only-one"}), std::invalid_argument);
  std::filesystem::remove("results/test_csv_width.csv");
}

TEST(Table, AlignsAndRenders) {
  Table t({"name", "value"});
  t.row({"alpha", "1.50"});
  t.row({"b", "22.00"});
  const std::string out = t.to_string();
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("22.00"), std::string::npos);
}

TEST(Table, WidthMismatchThrows) {
  Table t({"a", "b"});
  EXPECT_THROW(t.row({"x"}), std::invalid_argument);
}

namespace {
// Keeps the busy-loop result observable without deprecated volatile writes.
void benchmark_guard(double& value) { asm volatile("" : "+m"(value)); }
}  // namespace

TEST(Timers, WallAndCpuAdvance) {
  WallTimer wall;
  ThreadCpuTimer cpu;
  double sink = 0;
  for (int i = 0; i < 2000000; ++i) sink += static_cast<double>(i) * 0.5;
  benchmark_guard(sink);
  EXPECT_GT(wall.elapsed_ns(), 0);
  EXPECT_GT(cpu.elapsed_ns(), 0);
  EXPECT_GT(thread_cpu_ns(), 0);
  EXPECT_GE(process_cpu_ns(), thread_cpu_ns());
}

TEST(Spinlock, MutualExclusionUnderContention) {
  Spinlock lock;
  std::int64_t counter = 0;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 20000; ++i) {
        lock.lock();
        ++counter;
        lock.unlock();
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(counter, 80000);
}

TEST(StripedLocks, LockPairIsDeadlockFreeOnCrossingPairs) {
  StripedLocks<8> locks;
  std::atomic<int> done{0};
  std::thread a([&] {
    for (int i = 0; i < 5000; ++i) {
      locks.lock_pair(1, 2);
      locks.unlock_pair(1, 2);
    }
    ++done;
  });
  std::thread b([&] {
    for (int i = 0; i < 5000; ++i) {
      locks.lock_pair(2, 1);
      locks.unlock_pair(2, 1);
    }
    ++done;
  });
  a.join();
  b.join();
  EXPECT_EQ(done.load(), 2);
}

// The default worker count is the CPUs this process may run on, read from
// its sched_getaffinity mask (not hardware_concurrency, which ignores
// taskset and cgroup cpusets).
TEST(Affinity, CpuCountMatchesSchedMaskAndDefaultThreads) {
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  ASSERT_EQ(sched_getaffinity(0, sizeof(set), &set), 0);
  const unsigned mask_count = static_cast<unsigned>(CPU_COUNT(&set));
  EXPECT_EQ(affinity_cpu_count(), mask_count);
  EXPECT_EQ(affinity_cpus().size(), mask_count);
  EXPECT_EQ(engine::Config{}.effective_threads(), mask_count);
#else
  GTEST_SKIP() << "sched_getaffinity is Linux-only";
#endif
}

}  // namespace
}  // namespace paracosm::util
