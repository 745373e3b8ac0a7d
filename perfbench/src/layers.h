// Per-layer counters: snapshots of every public stats() the per-layer
// metrics use, taken between slices so deltas cover measured work only.
#ifndef PERFBENCH_SRC_LAYERS_H_
#define PERFBENCH_SRC_LAYERS_H_

#include <array>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "perfbench/src/stack.h"
#include "perfbench/src/trace.h"
#include "src/obs/metrics.h"

namespace perfbench {

struct LayerCounters {
  uint64_t cpu_ns = 0;  // process user + sys (getrusage)
  // kernel.dcache
  uint64_t dcache_hits = 0, dcache_misses = 0, dcache_negative_hits = 0;
  // kernel.page_cache
  uint64_t pc_hits = 0, pc_misses = 0, pc_evictions = 0, pc_ref_copies = 0;
  // kernel.disk
  uint64_t disk_read_bytes = 0, disk_write_bytes = 0, disk_flushes = 0;
  // fuse.fs
  uint64_t background_flushes = 0, foreground_throttles = 0;
  // fuse.conn
  uint64_t requests = 0, doorbells = 0, reaps = 0, reaped_requests = 0, spin_parks = 0,
           splice_fallbacks = 0, spliced_bytes = 0, copied_bytes = 0;
  // fuse.server_pool
  uint64_t pool_dispatches = 0, pool_soft_sheds = 0, pool_hard_sheds = 0,
           pool_thread_growths = 0;
  // core.cntrfs via the TimingHandler, indexed by opcode
  std::array<TimingHandler::OpTotals, TimingHandler::kMaxOps> handler{};
  // obs request-phase histograms (queue, service, transit), all mounts/ops
  std::array<std::array<uint64_t, cntr::obs::Histogram::kBuckets>, 3> phase_buckets{};

  // Adds b - a (a snapshot pair) into this accumulator.
  void AddDelta(const LayerCounters& a, const LayerCounters& b);
};

class LayerProbe {
 public:
  // Resolves the obs histograms of every mount of `stack` once.
  explicit LayerProbe(Stack& stack);
  LayerCounters Take() const;

 private:
  Stack& stack_;
  std::vector<std::array<cntr::obs::Histogram*, 3>> phase_hists_;
};

// Nearest-rank style quantile of a log-bucket histogram, via the obs
// Snapshot's own interpolation.
double BucketQuantile(const std::array<uint64_t, cntr::obs::Histogram::kBuckets>& buckets,
                      double q);

// Process CPU (user + sys) in ns, and peak RSS in MB (10^6 bytes).
uint64_t ProcessCpuNs();
double PeakRssMb();

}  // namespace perfbench

#endif  // PERFBENCH_SRC_LAYERS_H_
