// Framework configuration knobs (paper §4 and DESIGN.md §4).
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>

#include "util/affinity.hpp"
#include "util/wide_ops.hpp"

namespace paracosm::engine {

/// Inner-update scheduler. Single-valued: the name refers to the CQ façade
/// (task_queue.hpp) that the one inner executor runs on, with its stealing
/// split rule (inner_executor.hpp). The field stays only because the
/// wall-clock benchmark's replay checks it; removing it waits on a change to
/// that benchmark.
enum class Scheduler : std::uint8_t {
  kCentralQueue,
};

/// Semantics of the inter-update batch executor.
enum class BatchMode : std::uint8_t {
  /// Paper-faithful: every update of a batch is classified against the
  /// batch-start snapshot; all safe updates are applied.
  kPaper,
  /// Default: additionally defers any update whose endpoints were already
  /// touched inside the current batch, making parallel batches provably
  /// equivalent to sequential processing (DESIGN.md §4).
  kStrict,
};

/// Which classifier backend the batch executor routes safe batches through
/// (DESIGN.md §11). The registry lives in batch_backend.hpp; the kind is
/// declared here so Config stays include-light.
enum class BatchBackendKind : std::uint8_t {
  kCpu,   ///< worker-pool scalar classification (the PR-2 path)
  kWide,  ///< AVX2/SWAR wide-lane classification (util/wide_ops.hpp)
  kAuto,  ///< per batch: wide up to Config::wide_auto_cutoff lanes (and
          ///  always on single-thread pools), pool-strided cpu beyond
};

[[nodiscard]] constexpr std::string_view batch_backend_name(
    BatchBackendKind k) noexcept {
  switch (k) {
    case BatchBackendKind::kCpu: return "cpu";
    case BatchBackendKind::kWide: return "wide";
    case BatchBackendKind::kAuto: return "auto";
  }
  return "?";
}

[[nodiscard]] constexpr std::optional<BatchBackendKind> parse_batch_backend(
    std::string_view name) noexcept {
  if (name == "cpu") return BatchBackendKind::kCpu;
  if (name == "wide") return BatchBackendKind::kWide;
  if (name == "auto") return BatchBackendKind::kAuto;
  return std::nullopt;
}

struct Config {
  /// Workers for both executors, counting the calling thread (worker 0;
  /// the pool spawns threads − 1 helpers). 0 -> CPUs in the affinity mask
  /// (sched_getaffinity), so taskset/cgroup-restricted runs don't
  /// oversubscribe the way hardware_concurrency() would.
  unsigned threads = 0;

  /// Maximum search-tree depth at which the inner-update executor may still
  /// split a task into subtasks (SPLIT_DEPTH in Algorithm 2).
  std::uint32_t split_depth = 4;

  /// Updates per inter-update batch (k in §4.2). 0 -> same as threads.
  unsigned batch_size = 0;

  /// Enable inner-update parallelism (parallel search-tree exploration).
  bool inner_parallelism = true;

  /// Enable inter-update parallelism (classifier + batch executor).
  bool inter_parallelism = true;

  /// Dynamic task re-splitting / load balancing. Disabling reproduces the
  /// "unbalanced" baseline of the paper's Figure 10 (static seed partition).
  bool dynamic_balance = true;

  BatchMode batch_mode = BatchMode::kStrict;

  Scheduler scheduler = Scheduler::kCentralQueue;

  /// Idle-protocol knobs of the low-contention runtime (DESIGN.md §5).
  /// Spin iterations a worker hunts for stealable work before parking on the
  /// queue's condvar. The split rule reads only the owner's deque depth, so
  /// the knob only trades wake latency against burned cycles on
  /// oversubscribed machines.
  std::uint32_t queue_spin_iters = 256;

  /// Spin iterations a pool worker polls the dispatch epoch before parking
  /// on the epoch futex. Larger values make back-to-back updates dispatch
  /// syscall-free; smaller values release the core sooner.
  std::uint32_t pool_spin_iters = 1024;

  /// Nothing reads this. It stays because the wall-clock benchmark's replay
  /// reads it, and goes with the next change to that benchmark.
  bool pin_threads = false;

  /// Nothing reads this either; it goes with `pin_threads`, for the same
  /// reason.
  bool topo_aware_steal = true;

  /// Batch classifier backend (DESIGN.md §11). Every backend produces
  /// byte-identical verdicts (and therefore identical ΔM); they differ only
  /// in how the classification work is executed.
  BatchBackendKind batch_backend = BatchBackendKind::kCpu;

  /// kAuto crossover: batches with at most this many lanes go wide; larger
  /// batches go to the pool-strided cpu backend (with >1 worker the pooled
  /// scalar path overtakes the mostly-serial wide gather once the batch is
  /// big enough to amortize pool dispatch — bench/ablation_backend.cpp; on
  /// a single-thread pool kAuto always picks wide). Default is the measured
  /// crossover on the Orkut stand-in at 4 threads.
  unsigned wide_auto_cutoff = 512;

  /// Instruction-path override for the wide backend (tests force the SWAR
  /// and AVX2 paths explicitly; kForceAvx2 without hardware support
  /// downgrades to SWAR and counts a fallback activation).
  util::wide::Dispatch wide_dispatch = util::wide::Dispatch::kAuto;

  /// Pre-ADS aggregate-invariant batch certifier (DESIGN.md §14): when a
  /// whole batch is provably match-free, its effective edge updates are
  /// applied without classification or enumeration. Only engages for
  /// index-free algorithms (has_ads() == false) in BatchMode::kStrict —
  /// the engine silently skips the stage otherwise. ΔM is unchanged either
  /// way; off by default, so default runs classify every batch per lane.
  bool invariant_stage = false;

  [[nodiscard]] unsigned effective_threads() const {
    if (threads != 0) return threads;
    return util::affinity_cpu_count();
  }
  [[nodiscard]] unsigned effective_batch_size() const noexcept {
    return batch_size != 0 ? batch_size : effective_threads();
  }
};

}  // namespace paracosm::engine
