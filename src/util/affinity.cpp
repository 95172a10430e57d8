#include "util/affinity.hpp"

#include <thread>

#if defined(__linux__)
#include <sched.h>
#endif

namespace paracosm::util {

std::vector<unsigned> affinity_cpus() {
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    std::vector<unsigned> out;
    for (unsigned c = 0; c < CPU_SETSIZE; ++c)
      if (CPU_ISSET(c, &set)) out.push_back(c);
    if (!out.empty()) return out;
  }
#endif
  unsigned n = std::thread::hardware_concurrency();
  if (n == 0) n = 1;
  std::vector<unsigned> out(n);
  for (unsigned i = 0; i < n; ++i) out[i] = i;
  return out;
}

unsigned affinity_cpu_count() {
  auto cpus = affinity_cpus();
  return cpus.empty() ? 1u : static_cast<unsigned>(cpus.size());
}

}  // namespace paracosm::util
