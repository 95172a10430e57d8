// CPUs this process may run on. The default worker count comes from here, so
// taskset- or cgroup-restricted runs size their pools to the CPUs they were
// given rather than to std::thread::hardware_concurrency().
#pragma once

#include <vector>

namespace paracosm::util {

/// CPUs this process may run on (sched_getaffinity), ascending. Falls back to
/// 0..hardware_concurrency-1 where the syscall is unavailable.
[[nodiscard]] std::vector<unsigned> affinity_cpus();

/// |affinity_cpus()|, never 0. The correct default worker count: honors
/// taskset/cgroup cpuset restrictions that hardware_concurrency ignores.
[[nodiscard]] unsigned affinity_cpu_count();

}  // namespace paracosm::util
