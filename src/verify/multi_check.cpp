#include "verify/multi_check.hpp"

#include <cstdio>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "csm/engine.hpp"
#include "paracosm/multi_query.hpp"

namespace paracosm::verify {

namespace {

using engine::Config;
using engine::MultiQueryEngine;
using engine::MultiStreamResult;
using graph::GraphUpdate;

struct Registration {
  std::uint32_t query_index = 0;
  std::string_view algorithm;
};

struct Totals {
  std::uint64_t positive = 0;
  std::uint64_t negative = 0;
};

/// Independent ground truth: one SequentialEngine on a private graph copy.
/// `skip` leading updates are processed (graph + ADS warmed) but not counted
/// — the "registered at the midpoint" expectation of the churn lane.
Totals sequential_totals(const FuzzCase& c, const Registration& reg,
                         const std::size_t skip, const std::size_t length) {
  auto alg = csm::make_algorithm(reg.algorithm);
  graph::DataGraph g = c.graph;
  csm::SequentialEngine eng(*alg, c.queries[reg.query_index], g);
  Totals t;
  for (std::size_t i = 0; i < length; ++i) {
    const csm::UpdateOutcome out = eng.process(c.stream[i]);
    if (i < skip) continue;
    t.positive += out.positive;
    t.negative += out.negative;
  }
  return t;
}

Divergence make_divergence(const FuzzCase& c, const Registration& reg,
                           const unsigned threads, const std::uint32_t reg_index,
                           std::string message) {
  Divergence d;
  d.seed = c.seed;
  d.algorithm = std::string(reg.algorithm);
  d.lane = Lane::kBatch;
  d.threads = threads;
  d.query_index = reg_index;
  d.message = std::move(message);
  return d;
}

std::string totals_message(const char* lane, const std::size_t handle,
                           const Totals& got_t, const Totals& want) {
  char buf[192];
  std::snprintf(buf, sizeof buf,
                "multi[%s]: handle %zu got +%llu/-%llu, independent run "
                "+%llu/-%llu",
                lane, handle, static_cast<unsigned long long>(got_t.positive),
                static_cast<unsigned long long>(got_t.negative),
                static_cast<unsigned long long>(want.positive),
                static_cast<unsigned long long>(want.negative));
  return buf;
}

}  // namespace

std::vector<std::string_view> multi_check_algorithms() {
  return {"graphflow", "symbi", "turboflux", "newsp", "calig"};
}

std::vector<Divergence> check_multi_case(const FuzzCase& c,
                                         const MultiCheckOptions& opts) {
  std::vector<Divergence> out;
  if (c.queries.empty() || c.stream.empty()) return out;

  const std::vector<std::string_view> algs = multi_check_algorithms();
  std::vector<Registration> regs;
  for (std::uint32_t qi = 0; qi < c.queries.size(); ++qi)
    regs.push_back({qi, algs[qi % algs.size()]});
  if (opts.duplicate_registration) regs.push_back(regs.front());

  // Ground truth once per registration (the duplicate reuses its original's).
  std::vector<Totals> expected;
  for (std::size_t r = 0; r < regs.size(); ++r) {
    if (opts.duplicate_registration && r + 1 == regs.size()) {
      expected.push_back(expected.front());
      break;
    }
    expected.push_back(sequential_totals(c, regs[r], 0, c.stream.size()));
  }

  // Lane "static": shared engine at every thread count, again at twice the
  // fork grain (forked_batch_size, so the classify and safe-apply phases run
  // on the pool rather than inline), plus the sharing-off baseline at the
  // first thread count.
  struct StaticVariant {
    unsigned threads;
    unsigned batch_size;  ///< Config::batch_size; 0 = one lane per worker
    bool sharing;
    const char* lane;
  };
  std::vector<StaticVariant> variants;
  for (const unsigned t : opts.thread_counts) variants.push_back({t, 0, true, "static"});
  for (const unsigned t : opts.thread_counts)
    if (t > 1) variants.push_back({t, forked_batch_size(t), true, "static/forked"});
  variants.push_back({opts.thread_counts.front(), 0, false, "static/no-share"});
  for (const StaticVariant& v : variants) {
    graph::DataGraph g = c.graph;
    Config cfg;
    cfg.threads = v.threads;
    cfg.batch_size = v.batch_size;
    MultiQueryEngine engine(g, cfg);
    engine.set_shared_evaluation(v.sharing);
    std::vector<std::size_t> handles;
    for (const Registration& reg : regs)
      handles.push_back(engine.add_query(reg.algorithm, c.queries[reg.query_index]));
    const MultiStreamResult res = engine.process_stream(c.stream);
    for (std::size_t r = 0; r < regs.size(); ++r) {
      const std::size_t h = handles[r];
      const Totals got_t{res.positive[h], res.negative[h]};
      if (got_t.positive != expected[r].positive ||
          got_t.negative != expected[r].negative) {
        out.push_back(make_divergence(c, regs[r], v.threads,
                                      static_cast<std::uint32_t>(r),
                                      totals_message(v.lane, h, got_t, expected[r])));
        out.back().batch_size = v.batch_size;
        if (opts.stop_at_first) return out;
      }
    }
  }

  // Lane "churn": runtime add/remove at the stream midpoint.
  if (opts.runtime_churn && c.stream.size() >= 2) {
    const std::size_t mid = c.stream.size() / 2;
    const Registration& removed = regs.front();
    const Registration added{static_cast<std::uint32_t>(
                                 (regs.front().query_index + 1) % c.queries.size()),
                             algs[1 % algs.size()]};
    const Totals want_removed = sequential_totals(c, removed, 0, mid);
    const Totals want_added = sequential_totals(c, added, mid, c.stream.size());

    for (const unsigned threads : opts.thread_counts) {
      graph::DataGraph g = c.graph;
      Config cfg;
      cfg.threads = threads;
      MultiQueryEngine engine(g, cfg);
      const std::size_t h_removed =
          engine.add_query(removed.algorithm, c.queries[removed.query_index]);
      const MultiStreamResult first =
          engine.process_stream(std::span(c.stream).subspan(0, mid));

      const std::size_t h_added =
          engine.add_query(added.algorithm, c.queries[added.query_index]);
      if (!engine.remove_query(h_removed)) {
        out.push_back(make_divergence(c, removed, threads, 0,
                                      "multi[churn]: remove_query returned false "
                                      "for a live handle"));
        if (opts.stop_at_first) return out;
      }
      const MultiStreamResult second =
          engine.process_stream(std::span(c.stream).subspan(mid));

      const Totals got_removed{first.positive[h_removed] +
                                   second.positive[h_removed],
                               first.negative[h_removed] +
                                   second.negative[h_removed]};
      if (got_removed.positive != want_removed.positive ||
          got_removed.negative != want_removed.negative) {
        out.push_back(
            make_divergence(c, removed, threads, 0,
                            totals_message("churn/removed", h_removed,
                                           got_removed, want_removed)));
        if (opts.stop_at_first) return out;
      }
      const Totals got_added{second.positive[h_added], second.negative[h_added]};
      if (got_added.positive != want_added.positive ||
          got_added.negative != want_added.negative) {
        out.push_back(make_divergence(c, added, threads, 1,
                                      totals_message("churn/added", h_added,
                                                     got_added, want_added)));
        if (opts.stop_at_first) return out;
      }
    }
  }
  return out;
}

}  // namespace paracosm::verify
