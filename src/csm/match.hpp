// Search-tree vocabulary shared by all CSM algorithms and by ParaCOSM's
// inner-update executor.
//
// A SearchTask is a resumable node of the abstract search tree T (paper
// Fig. 3): the partial mapping accumulated so far, in assignment order. The
// root-layer tasks produced by an update are its seeds; ParaCOSM's executor
// re-enqueues deeper tasks when workers go idle (Algorithm 2), which is why
// tasks are plain values.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "graph/types.hpp"
#include "util/cancel.hpp"
#include "util/timer.hpp"

namespace paracosm::csm {

using graph::Label;
using graph::VertexId;

/// One (query vertex -> data vertex) assignment.
struct Assignment {
  VertexId qv;
  VertexId dv;

  [[nodiscard]] friend constexpr bool operator==(const Assignment&,
                                                 const Assignment&) noexcept = default;
};

/// Resumable partial match. assigned[0..1] are always the endpoints of the
/// updated edge (the first search-tree layer).
struct SearchTask {
  std::vector<Assignment> assigned;

  [[nodiscard]] std::uint32_t depth() const noexcept {
    return static_cast<std::uint32_t>(assigned.size());
  }
};

/// Receives matches and accounts for search effort. One sink per worker (or
/// per sequential update); never shared across threads.
///
/// Delivery contract (parallel executors): user-facing match callbacks are
/// NOT invoked from `emit` on worker threads. Each worker appends into a
/// private buffer; after the executor reaches quiescence the buffers are
/// merged and the callback runs on the calling thread with the mappings
/// sorted lexicographically by their (qv, dv) assignment sequence. A given
/// match set therefore produces byte-identical callback streams across the
/// sequential path and every executor/thread-count combination.
class MatchSink {
 public:
  std::uint64_t matches = 0;  ///< |ΔM| contributions seen by this sink
  std::uint64_t nodes = 0;    ///< search-tree nodes expanded (cost unit)

  /// Optional callback invoked with the full mapping in assignment order.
  std::function<void(std::span<const Assignment>)> on_match;

  /// Deadline support for the paper's success-rate metric: expired sinks
  /// abort enumeration. Zero time_point (default) means "no deadline".
  util::Clock::time_point deadline{};

  /// Cooperative cancellation (service watchdog, DESIGN.md §7). Inactive by
  /// default; when set, the epoch is polled inside tick() on the same
  /// amortization schedule as the deadline.
  util::CancelView cancel{};

  [[nodiscard]] bool timed_out() const noexcept { return timed_out_; }
  [[nodiscard]] bool cancelled() const noexcept { return cancelled_; }

  /// The search must stop for *either* reason. Control-flow sites use this;
  /// timed_out()/cancelled() stay distinct so callers can account degraded
  /// updates separately from deadline misses.
  [[nodiscard]] bool stopped() const noexcept { return timed_out_ || cancelled_; }

  /// Account one search-tree node; returns false when the search must stop.
  /// The expensive probes (clock read, shared-atomic load) run once per 1024
  /// nodes so the enabled-but-idle cost stays within the <1% budget.
  [[nodiscard]] bool tick() noexcept {
    ++nodes;
    if ((nodes & 1023) == 0) {
      if (cancel.active() && cancel.cancelled()) cancelled_ = true;
      if (deadline != util::Clock::time_point{} && util::Clock::now() >= deadline) {
        timed_out_ = true;
      }
    }
    return !(timed_out_ || cancelled_);
  }

  void emit(std::span<const Assignment> mapping) {
    ++matches;
    if (on_match) on_match(mapping);
  }

  /// Fold a worker-local sink into an aggregate one.
  void merge(const MatchSink& other) noexcept {
    matches += other.matches;
    nodes += other.nodes;
    timed_out_ = timed_out_ || other.timed_out_;
    cancelled_ = cancelled_ || other.cancelled_;
  }

  void mark_timed_out() noexcept { timed_out_ = true; }
  void mark_cancelled() noexcept { cancelled_ = true; }

 private:
  bool timed_out_ = false;
  bool cancelled_ = false;
};

/// Injected by the inner-update executor into the traversal routine
/// (Algorithm 2). `want_offload` is the split rule (depth < SPLIT_DEPTH and
/// a short own deque, inner_executor.hpp); `offload` pushes a subtree onto
/// the concurrent queue CQ.
class SplitHook {
 public:
  virtual ~SplitHook() = default;
  [[nodiscard]] virtual bool want_offload(std::uint32_t depth) noexcept = 0;
  virtual void offload(SearchTask&& task) = 0;
};

}  // namespace paracosm::csm
