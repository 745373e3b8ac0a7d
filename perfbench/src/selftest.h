// Self-tests of the benchmark's own code: the percentile rule, failure
// accounting, output verification, and two invariants on a small
// tool_start run (lane time == sum of syscall time; tracing leaves virtual
// time unchanged). Returns the process exit code.
#ifndef PERFBENCH_SRC_SELFTEST_H_
#define PERFBENCH_SRC_SELFTEST_H_

namespace perfbench {

int RunSelfTests();

}  // namespace perfbench

#endif  // PERFBENCH_SRC_SELFTEST_H_
