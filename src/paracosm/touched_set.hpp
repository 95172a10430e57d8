// Strict-mode touched set of the inter-update batch executor (DESIGN.md §4).
//
// A strict batch commits its safe prefix only up to the first update whose
// endpoint an earlier prefix lane already touched; that lane's snapshot
// verdict may be stale. Both batch loops (ParaCosm::process_stream and
// MultiQueryEngine::process_stream) ask that question once per lane, so the
// set is an epoch-stamped open-addressing table over vertex ids: reused
// across batches without per-batch construction (the SearchScratch idiom;
// reset = one epoch bump, clear only on wrap).
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "graph/types.hpp"

namespace paracosm::engine {

class TouchedSet {
 public:
  /// Empty the set for a batch that inserts at most `expected_inserts` ids.
  void prepare(std::size_t expected_inserts) {
    // Cap the load factor at 1/2: with 4x slots the linear probe always
    // terminates and stays short.
    const std::size_t want =
        std::bit_ceil(std::max<std::size_t>(16, expected_inserts * 4));
    if (want > keys_.size()) {
      keys_.assign(want, 0);
      stamps_.assign(want, 0);
      epoch_ = 0;
    }
    if (++epoch_ == 0) {  // wrap: invalidate stale stamps from 2^32 batches ago
      std::fill(stamps_.begin(), stamps_.end(), 0);
      epoch_ = 1;
    }
  }

  [[nodiscard]] bool contains(graph::VertexId v) const noexcept {
    const std::size_t mask = keys_.size() - 1;
    for (std::size_t i = (v * 0x9E3779B9u) & mask;; i = (i + 1) & mask) {
      if (stamps_[i] != epoch_) return false;
      if (keys_[i] == v) return true;
    }
  }

  void insert(graph::VertexId v) noexcept {
    const std::size_t mask = keys_.size() - 1;
    for (std::size_t i = (v * 0x9E3779B9u) & mask;; i = (i + 1) & mask) {
      if (stamps_[i] != epoch_) {
        stamps_[i] = epoch_;
        keys_[i] = v;
        return;
      }
      if (keys_[i] == v) return;
    }
  }

 private:
  std::vector<graph::VertexId> keys_;
  std::vector<std::uint32_t> stamps_;
  std::uint32_t epoch_ = 0;
};

}  // namespace paracosm::engine
