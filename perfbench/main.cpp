// perfbench — the binary behind the repository's wall-clock benchmark.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 --work-dir DIR
//
// Builds the workload's inputs from the seed, runs it against the library's
// public API and prints, as the last line of standard output, one JSON
// object {"correct", "attempted", "failed", "metrics"}. --trace 0 measures
// the end-to-end metrics; --trace 1 runs the per-layer replay instead and
// writes its spans to DIR/spans-NAME.json. perfbench/run.py builds this
// binary and is the command to run.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "measure.hpp"

namespace {

// Timings from these builds are not comparable; refuse to produce them.
// This is the benchmark's only build guard.
#if !defined(NDEBUG)
constexpr const char* kRefused = "assertions enabled (Debug build)";
#elif defined(PARACOSM_VERIFY)
constexpr const char* kRefused = "PARACOSM_VERIFY build";
#else
constexpr const char* kRefused = PERFBENCH_SANITIZE[0] != '\0' ? "sanitizer build" : nullptr;
#endif

#if defined(PARACOSM_TRACE_ENABLED)
constexpr bool kTraceCompiled = true;
#else
constexpr bool kTraceCompiled = false;
#endif

void print_json_string(const std::string& s) {
  std::putchar('"');
  for (const char c : s) {
    if (c == '"' || c == '\\') std::putchar('\\');
    if (static_cast<unsigned char>(c) < 0x20)
      std::printf("\\u%04x", c);
    else
      std::putchar(c);
  }
  std::putchar('"');
}

/// {"name": {"value": v, "unit": u}, ...}
void print_metrics(const std::vector<perfbench::Metric>& metrics) {
  std::printf("{");
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const perfbench::Metric& m = metrics[i];
    if (i > 0) std::printf(", ");
    print_json_string(m.name);
    std::printf(": {\"value\": %.17g, \"unit\": ", std::isfinite(m.value) ? m.value : 0.0);
    print_json_string(m.unit);
    std::printf("}");
  }
  std::printf("}");
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, work_dir = ".";
  std::uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    if (key == "--workload") workload = val;
    else if (key == "--seed") seed = std::strtoull(val, nullptr, 10);
    else if (key == "--seconds") seconds = std::atof(val);
    else if (key == "--trace") trace = std::atoi(val);
    else if (key == "--work-dir") work_dir = val;
    else {
      std::fprintf(stderr, "perfbench: unknown option %s\n", key.c_str());
      return 2;
    }
  }
  const perfbench::WorkloadSpec* spec = perfbench::find_workload(workload);
  if (spec == nullptr || seconds <= 0 || (trace != 0 && trace != 1)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--work-dir DIR]\n");
    return 2;
  }
  if (kRefused != nullptr) {
    std::fprintf(stderr, "perfbench: refusing to measure: %s\n", kRefused);
    return 3;
  }

  std::printf("{\"provenance\": {\"build_type\": \"%s\", \"compiler\": \"%s\", "
              "\"paracosm_trace\": %s, \"paracosm_verify\": false, "
              "\"paracosm_sanitize\": \"%s\", \"engine_threads\": %u, "
              "\"workload\": \"%s\", \"seed\": %llu}}\n",
              PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER,
              kTraceCompiled ? "true" : "false", PERFBENCH_SANITIZE,
              perfbench::kThreads, spec->name.c_str(),
              static_cast<unsigned long long>(seed));
  std::fflush(stdout);

  perfbench::RunResult res;
  try {
    const perfbench::Inputs in = perfbench::make_inputs(*spec, seed);
    res = trace == 0 ? perfbench::measure(*spec, in, seconds, work_dir)
                     : perfbench::replay(*spec, in, work_dir,
                                         work_dir + "/spans-" + spec->name + ".json");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  for (const perfbench::Metric& m : res.metrics)
    if (!std::isfinite(m.value)) res.fail(0, "metric " + m.name + " is not finite");
  for (const std::string& e : res.errors)
    std::fprintf(stderr, "perfbench: FAILED: %s\n", e.c_str());

  const bool correct = res.errors.empty() && res.failed == 0;
  res.diagnostics.insert(
      res.diagnostics.begin(),
      {"failed_share",
       res.attempted > 0 ? static_cast<double>(res.failed) / static_cast<double>(res.attempted)
                         : 1.0,
       "ratio"});
  std::printf("{\"diagnostics\": ");
  print_metrics(res.diagnostics);
  std::printf("}\n");
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": ",
              correct ? "true" : "false",
              static_cast<unsigned long long>(res.attempted),
              static_cast<unsigned long long>(res.failed));
  print_metrics(res.metrics);
  std::printf("}\n");
  return correct ? 0 : 1;
}
