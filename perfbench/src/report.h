// Turning a finished measured phase into named metrics.
#ifndef PERFBENCH_SRC_REPORT_H_
#define PERFBENCH_SRC_REPORT_H_

#include <string>
#include <vector>

#include "perfbench/src/layers.h"
#include "perfbench/src/workloads.h"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;  // printed beside the value, not in the JSON
  // In the JSON result (and BENCHMARK.json). Off for metrics that are
  // printed but cannot be guarded; README.md says why for each.
  bool guarded = true;
};

// What the measured phase recorded, per mode (Client::kUntraced/kTraced).
struct PhaseResult {
  struct Slice {
    size_t mode = 0;
    uint64_t ops = 0;
    double wall_s = 0.0;
    uint64_t cpu_ns = 0;
  };
  std::vector<Slice> slices;
  LayerCounters layers[2];
  std::vector<double> setup_s;
  double peak_rss_mb = 0.0;  // taken when the measured phase ends

  // Wall-clock figures are medians over the mode's slices, so a burst of
  // interference from outside the process moves a few slices, not the run.
  double MedianSliceOpsPerSec(size_t mode) const;
  double MedianSliceCpuUsPerOp(size_t mode) const;
};

// The end-to-end metrics of `mode`'s slices.
std::vector<Metric> EndToEndMetrics(const Workload& w, const PhaseResult& r, size_t mode);
// The per-layer metrics of the traced slices (needs a traced phase).
std::vector<Metric> PerLayerMetrics(const Workload& w, const PhaseResult& r);

// All clients' logs of one mode, merged.
OpLog MergedLog(const Workload& w, size_t mode);
// Per client: lane virtual time of the mode's slices minus the sum of its
// syscalls' virtual time. Zero when every virtual ns is inside a syscall.
std::vector<int64_t> LaneResiduals(const Workload& w, size_t mode);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_REPORT_H_
