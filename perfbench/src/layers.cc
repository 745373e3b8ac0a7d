#include "perfbench/src/layers.h"

#include <sys/resource.h>

#include <cstdint>
#include <string>

#include "src/fuse/fuse_proto.h"

namespace perfbench {

namespace {

constexpr const char* kPhases[3] = {"queue", "service", "transit"};

template <size_t N>
void AddArray(std::array<uint64_t, N>& acc, const std::array<uint64_t, N>& a,
              const std::array<uint64_t, N>& b) {
  for (size_t i = 0; i < N; ++i) {
    acc[i] += b[i] - a[i];
  }
}

}  // namespace

void LayerCounters::AddDelta(const LayerCounters& a, const LayerCounters& b) {
#define PERFBENCH_ADD(field) field += b.field - a.field
  PERFBENCH_ADD(cpu_ns);
  PERFBENCH_ADD(dcache_hits);
  PERFBENCH_ADD(dcache_misses);
  PERFBENCH_ADD(dcache_negative_hits);
  PERFBENCH_ADD(pc_hits);
  PERFBENCH_ADD(pc_misses);
  PERFBENCH_ADD(pc_evictions);
  PERFBENCH_ADD(pc_ref_copies);
  PERFBENCH_ADD(disk_read_bytes);
  PERFBENCH_ADD(disk_write_bytes);
  PERFBENCH_ADD(disk_flushes);
  PERFBENCH_ADD(background_flushes);
  PERFBENCH_ADD(foreground_throttles);
  PERFBENCH_ADD(requests);
  PERFBENCH_ADD(doorbells);
  PERFBENCH_ADD(reaps);
  PERFBENCH_ADD(reaped_requests);
  PERFBENCH_ADD(spin_parks);
  PERFBENCH_ADD(splice_fallbacks);
  PERFBENCH_ADD(spliced_bytes);
  PERFBENCH_ADD(copied_bytes);
  PERFBENCH_ADD(pool_dispatches);
  PERFBENCH_ADD(pool_soft_sheds);
  PERFBENCH_ADD(pool_hard_sheds);
  PERFBENCH_ADD(pool_thread_growths);
  for (size_t op = 0; op < handler.size(); ++op) {
    PERFBENCH_ADD(handler[op].count);
    PERFBENCH_ADD(handler[op].virt_ns);
    PERFBENCH_ADD(handler[op].wall_ns);
    PERFBENCH_ADD(handler[op].cpu_ns);
  }
#undef PERFBENCH_ADD
  for (size_t p = 0; p < phase_buckets.size(); ++p) {
    AddArray(phase_buckets[p], a.phase_buckets[p], b.phase_buckets[p]);
  }
}

LayerProbe::LayerProbe(Stack& stack) : stack_(stack) {
  cntr::obs::MetricsRegistry& registry = stack.kernel().metrics();
  for (size_t m = 0; m < stack.mounts(); ++m) {
    const std::string& mount = stack.fs(m).conn().mount_label();
    for (uint32_t op = 0; op < TimingHandler::kMaxOps; ++op) {
      const std::string name = cntr::fuse::FuseOpcodeName(static_cast<cntr::fuse::FuseOpcode>(op));
      if (name == "?") {
        continue;
      }
      std::array<cntr::obs::Histogram*, 3> hists{};
      for (size_t p = 0; p < 3; ++p) {
        // Same series RequestMetrics records into (idempotent lookup).
        hists[p] = registry.GetHistogram("cntr_fuse_request_ns",
                                         {{"mount", mount}, {"op", name}, {"phase", kPhases[p]}});
      }
      phase_hists_.push_back(hists);
    }
  }
}

LayerCounters LayerProbe::Take() const {
  LayerCounters c;
  c.cpu_ns = ProcessCpuNs();
  cntr::kernel::Kernel& k = stack_.kernel();
  const auto dcache = k.dcache().stats();
  c.dcache_hits = dcache.hits;
  c.dcache_misses = dcache.misses;
  c.dcache_negative_hits = dcache.negative_hits;
  const auto pc = k.page_cache().stats();
  c.pc_hits = pc.hits;
  c.pc_misses = pc.misses;
  c.pc_evictions = pc.evictions;
  c.pc_ref_copies = pc.ref_copies;
  const auto disk = k.disk().stats();
  c.disk_read_bytes = disk.bytes_read;
  c.disk_write_bytes = disk.bytes_written;
  c.disk_flushes = disk.flushes;
  for (size_t m = 0; m < stack_.mounts(); ++m) {
    cntr::fuse::FuseFs& fs = stack_.fs(m);
    c.background_flushes += fs.background_flushes();
    c.foreground_throttles += fs.foreground_throttles();
    const auto conn = fs.conn().stats();
    c.requests += conn.requests;
    c.doorbells += conn.doorbells;
    c.reaps += conn.reaps;
    c.reaped_requests += conn.reaped_requests;
    c.spin_parks += conn.spin_parks;
    c.splice_fallbacks += conn.splice_fallbacks;
    c.spliced_bytes += conn.spliced_bytes;
    c.copied_bytes += conn.copied_bytes;
    if (const TimingHandler* timing = stack_.timing(m)) {
      for (size_t op = 0; op < c.handler.size(); ++op) {
        const auto t = timing->totals(op);
        c.handler[op].count += t.count;
        c.handler[op].virt_ns += t.virt_ns;
        c.handler[op].wall_ns += t.wall_ns;
        c.handler[op].cpu_ns += t.cpu_ns;
      }
    }
  }
  if (cntr::fuse::FuseServerPool* pool = stack_.pool()) {
    const auto ps = pool->stats();
    c.pool_dispatches = ps.dispatches;
    c.pool_soft_sheds = ps.soft_sheds;
    c.pool_hard_sheds = ps.hard_sheds;
    c.pool_thread_growths = ps.thread_growths;
  }
  for (const auto& hists : phase_hists_) {
    for (size_t p = 0; p < 3; ++p) {
      const auto snap = hists[p]->Snap();
      for (size_t i = 0; i < snap.buckets.size(); ++i) {
        c.phase_buckets[p][i] += snap.buckets[i];
      }
    }
  }
  return c;
}

double BucketQuantile(const std::array<uint64_t, cntr::obs::Histogram::kBuckets>& buckets,
                      double q) {
  cntr::obs::Histogram::Snapshot snap;
  snap.buckets = buckets;
  for (uint64_t b : buckets) {
    snap.count += b;
  }
  snap.max = UINT64_MAX;
  return snap.Quantile(q);
}

uint64_t ProcessCpuNs() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto ns = [](const timeval& tv) {
    return static_cast<uint64_t>(tv.tv_sec) * 1'000'000'000ULL +
           static_cast<uint64_t>(tv.tv_usec) * 1000ULL;
  };
  return ns(ru.ru_utime) + ns(ru.ru_stime);
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) * 1024.0 / 1e6;  // ru_maxrss is in KiB
}

}  // namespace perfbench
