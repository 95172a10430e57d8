// Striped work cursor for the §4.2 batch executor.
//
// The batch executor used to hand the safe prefix to the pool through ONE
// shared atomic cursor: every applied update paid a fetch_add on the same
// cache line, so at 8+ workers the cursor itself became the contended object.
// ShardedCursor splits [0, total) into one contiguous shard per worker, each
// with its own cache-line-aligned cursor; a worker drains its shard with
// uncontended CAS claims and only visits other shards (stealing the
// straggler's remainder) once its own is empty. Contiguous shards also keep
// each worker walking a contiguous slice of the batch — sequential access on
// the update array instead of an interleaved scatter.
#pragma once

#include <atomic>
#include <cstddef>
#include <limits>
#include <memory>

namespace paracosm::engine {

class ShardedCursor {
 public:
  static constexpr std::size_t npos = std::numeric_limits<std::size_t>::max();

  ShardedCursor(std::size_t total, unsigned workers)
      : n_(workers == 0 ? 1u : workers), shards_(new Shard[n_]) {
    const std::size_t base = total / n_;
    const std::size_t extra = total % n_;
    std::size_t begin = 0;
    for (unsigned i = 0; i < n_; ++i) {
      const std::size_t len = base + (i < extra ? 1 : 0);
      shards_[i].next.store(begin, std::memory_order_relaxed);
      shards_[i].end = begin + len;
      begin += len;
    }
  }

  /// Claim the next index for worker `wid`, own shard first, then the
  /// others in ring order; npos when the whole range is drained.
  [[nodiscard]] std::size_t claim(unsigned wid) noexcept {
    for (unsigned k = 0; k < n_; ++k) {
      Shard& s = shards_[(wid + k) % n_];
      std::size_t j = s.next.load(std::memory_order_relaxed);
      // CAS loop (not fetch_add) so losing thieves never push the cursor
      // past `end` — overshoot would make shard-size accounting lie.
      while (j < s.end) {
        if (s.next.compare_exchange_weak(j, j + 1, std::memory_order_acq_rel,
                                         std::memory_order_relaxed))
          return j;
      }
    }
    return npos;
  }

 private:
  struct alignas(64) Shard {
    std::atomic<std::size_t> next{0};
    std::size_t end = 0;
  };

  unsigned n_;
  std::unique_ptr<Shard[]> shards_;
};

}  // namespace paracosm::engine
