#include "perfbench/src/stats.h"

#include <algorithm>

namespace perfbench {

uint64_t NearestRank(const std::vector<uint64_t>& sorted, uint64_t num, uint64_t den) {
  const uint64_t n = sorted.size();
  uint64_t rank = (num * n + den - 1) / den;
  rank = std::clamp<uint64_t>(rank, 1, n);
  return sorted[rank - 1];
}

TailPercentile TailAt(const std::vector<uint64_t>& sorted, uint64_t target_pct,
                      uint64_t min_beyond) {
  TailPercentile out;
  const uint64_t n = sorted.size();
  out.samples = n;
  if (n <= min_beyond) {
    return out;
  }
  uint64_t rank = (target_pct * n + 99) / 100;
  if (n - rank < min_beyond) {
    rank = n - min_beyond;
  }
  out.valid = true;
  out.value = sorted[rank - 1];
  out.beyond = n - rank;
  out.pct = rank == (target_pct * n + 99) / 100
                ? static_cast<double>(target_pct)
                : 100.0 * static_cast<double>(rank) / static_cast<double>(n);
  return out;
}

const char* SysName(Sys sys) {
  switch (sys) {
    case Sys::kGetdents:
      return "getdents";
    case Sys::kStat:
      return "stat";
    case Sys::kOpen:
      return "open";
    case Sys::kRead:
      return "read";
    case Sys::kPread:
      return "pread";
    case Sys::kPwrite:
      return "pwrite";
    case Sys::kClose:
      return "close";
    case Sys::kUnlink:
      return "unlink";
  }
  return "?";
}

void OpLog::Merge(const OpLog& other) {
  attempted += other.attempted;
  failed += other.failed;
  mismatches += other.mismatches;
  read_bytes += other.read_bytes;
  write_bytes += other.write_bytes;
  max_write_virt_ns = std::max(max_write_virt_ns, other.max_write_virt_ns);
  for (size_t i = 0; i < kNumSys; ++i) {
    sys[i].calls += other.sys[i].calls;
    sys[i].virt_ns += other.sys[i].virt_ns;
    sys[i].wall_ns += other.sys[i].wall_ns;
  }
  virt_ns.insert(virt_ns.end(), other.virt_ns.begin(), other.virt_ns.end());
  wall_ns.insert(wall_ns.end(), other.wall_ns.begin(), other.wall_ns.end());
  for (const auto& [what, count] : other.errors) {
    errors[what] += count;
  }
}

uint64_t OpLog::SysVirtNs() const {
  uint64_t total = 0;
  for (const SysTotals& s : sys) {
    total += s.virt_ns;
  }
  return total;
}

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

}  // namespace perfbench
