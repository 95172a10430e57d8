// Pre-ADS aggregate-invariant batch certifier (DESIGN.md §14).
//
// The stage maintains, per distinct query-edge label triple
// t = (min endpoint label, max endpoint label, edge label — 0 when the
// algorithm is edge-label-blind), two numbers:
//
//   need[t]  — how many query edges carry triple t (fixed at attach);
//   count[t] — how many data edges currently carry triple t (O(1) updates).
//
// Because vertex mappings are injective, distinct query edges map to
// distinct data edges, so a complete match requires count[t] >= need[t] for
// every t. The *whole-batch* certificate strengthens that to be stable under
// parallel application: with at most `max_inserts` edge insertions in the
// batch,
//
//   exists t : count[t] + max_inserts < need[t]
//
// implies every state reachable while the batch executes (any interleaving,
// any prefix) still has a deficient triple — the graph admits zero complete
// matches throughout, so every effective edge update in the batch has
// ΔM == 0 and is safe to apply without enumeration. The per-update variant
// ("still deficient after this one insert") is deliberately NOT used: two
// inserts certified independently against the same deficit could jointly
// fill it.
//
// Scope: only meaningful for index-free algorithms (CsmAlgorithm::has_ads()
// == false) — an ADS-bearing algorithm's auxiliary structure can change even
// when ΔM is empty — and only sound in BatchMode::kStrict, where the applied
// safe prefix cannot contain two effective ops on the same edge (the
// endpoint-touched rule), so the sequential count maintenance pass is exact.
// ParaCosm enforces both gates at construction.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/data_graph.hpp"
#include "graph/query_graph.hpp"

namespace paracosm::engine {

/// Certifier counters, reported in StreamResult (conservation: when the
/// stage is attached, batches_checked == StreamResult::batches and
/// lanes_certified == ClassifierStats::safe_invariant).
struct InvariantStats {
  std::uint64_t batches_checked = 0;
  std::uint64_t batches_certified = 0;
  std::uint64_t lanes_certified = 0;

  [[nodiscard]] double hit_rate() const noexcept {
    return batches_checked == 0
               ? 0.0
               : static_cast<double>(batches_certified) /
                     static_cast<double>(batches_checked);
  }

  void merge(const InvariantStats& other) noexcept {
    batches_checked += other.batches_checked;
    batches_certified += other.batches_certified;
    lanes_certified += other.lanes_certified;
  }
};

class InvariantStage {
 public:
  struct TripleCount {
    graph::Label lmin = 0;
    graph::Label lmax = 0;
    graph::Label elabel = 0;  ///< 0 when edge-label-blind
    std::uint32_t need = 0;
    std::int64_t count = 0;
  };

  /// Builds need[] from the query and count[] with one O(E) graph scan.
  InvariantStage(const graph::QueryGraph& q, const graph::DataGraph& g,
                 bool edge_label_blind);

  /// The whole-batch certificate (see file comment). O(|distinct triples|),
  /// bounded by the query's edge count.
  [[nodiscard]] bool certify_batch(std::size_t max_inserts) const noexcept;

  /// O(1)-per-update maintenance: `delta` is +1 (edge inserted) or -1
  /// (edge removed); labels are the *data-graph* labels of the edge.
  void on_edge(graph::Label lu, graph::Label lv, graph::Label elabel,
               int delta) noexcept;

  /// Rebuild count[] from scratch (tests: incremental-vs-recomputed).
  void rebuild(const graph::DataGraph& g);

  [[nodiscard]] const std::vector<TripleCount>& triples() const noexcept {
    return triples_;
  }

 private:
  [[nodiscard]] TripleCount* find(graph::Label lu, graph::Label lv,
                                  graph::Label elabel) noexcept;

  bool edge_label_blind_;
  std::vector<TripleCount> triples_;
};

}  // namespace paracosm::engine
