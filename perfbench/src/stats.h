// Sample statistics and op accounting for the benchmark.
#ifndef PERFBENCH_SRC_STATS_H_
#define PERFBENCH_SRC_STATS_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

// Nearest-rank quantile of an ascending vector: the value at rank
// ceil(num/den * n). Requires a non-empty vector and 0 < num <= den.
uint64_t NearestRank(const std::vector<uint64_t>& sorted, uint64_t num, uint64_t den);

// The tail percentile the benchmark reports: the target percentile when at
// least `min_beyond` samples rank beyond it, else the highest percentile
// that still has `min_beyond` samples beyond it. `valid` is false when the
// set is too small for any (n <= min_beyond).
struct TailPercentile {
  bool valid = false;
  uint64_t value = 0;
  double pct = 0.0;      // the percentile actually reported
  uint64_t samples = 0;  // sample count
  uint64_t beyond = 0;   // samples ranked beyond it
};
TailPercentile TailAt(const std::vector<uint64_t>& sorted, uint64_t target_pct,
                      uint64_t min_beyond);

// The syscalls the workloads issue, each timed by the client.
enum class Sys : uint8_t { kGetdents, kStat, kOpen, kRead, kPread, kPwrite, kClose, kUnlink };
inline constexpr size_t kNumSys = 8;
const char* SysName(Sys sys);

struct SysTotals {
  uint64_t calls = 0;
  uint64_t virt_ns = 0;
  uint64_t wall_ns = 0;
};

// One client's account of the ops it attempted. Every op counts in
// `attempted`; an op that returned an error, or whose output did not match
// the seeded inputs, counts in `failed` (mismatches also in `mismatches`).
// Latency samples are kept for ops that succeeded.
struct OpLog {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t mismatches = 0;
  uint64_t read_bytes = 0;
  uint64_t write_bytes = 0;
  uint64_t max_write_virt_ns = 0;
  std::array<SysTotals, kNumSys> sys{};
  std::vector<uint64_t> virt_ns;
  std::vector<uint64_t> wall_ns;
  std::map<std::string, uint64_t> errors;  // "syscall: error" -> count

  void Merge(const OpLog& other);
  uint64_t SysVirtNs() const;
  double error_rate() const {
    return attempted == 0 ? 0.0 : static_cast<double>(failed) / static_cast<double>(attempted);
  }
};

double Median(std::vector<double> v);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_STATS_H_
