#include "perfbench/src/report.h"

#include <algorithm>
#include <cctype>
#include <cstdio>

#include "src/fuse/fuse_proto.h"

namespace perfbench {

namespace {

using cntr::fuse::FuseOpcode;

// The CNTRFS opcodes reported one by one; every other opcode is folded
// into core.cntrfs.other.
constexpr FuseOpcode kReportedOps[] = {
    FuseOpcode::kLookup,  FuseOpcode::kGetattr,    FuseOpcode::kOpen,
    FuseOpcode::kRead,    FuseOpcode::kWrite,      FuseOpcode::kRelease,
    FuseOpcode::kOpendir, FuseOpcode::kReaddirPlus, FuseOpcode::kReleasedir,
    FuseOpcode::kMknod,   FuseOpcode::kUnlink,     FuseOpcode::kGetxattr,
    FuseOpcode::kBatchForget,
};

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }
double Ratio(uint64_t num, uint64_t den) {
  return Ratio(static_cast<double>(num), static_cast<double>(den));
}

std::string Lower(const char* s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  return out;
}

}  // namespace

double PhaseResult::MedianSliceOpsPerSec(size_t mode) const {
  std::vector<double> v;
  for (const Slice& s : slices) {
    if (s.mode == mode && s.ops > 0) {
      v.push_back(Ratio(static_cast<double>(s.ops), s.wall_s));
    }
  }
  return Median(std::move(v));
}

double PhaseResult::MedianSliceCpuUsPerOp(size_t mode) const {
  std::vector<double> v;
  for (const Slice& s : slices) {
    if (s.mode == mode && s.ops > 0) {
      v.push_back(static_cast<double>(s.cpu_ns) / 1e3 / static_cast<double>(s.ops));
    }
  }
  return Median(std::move(v));
}

OpLog MergedLog(const Workload& w, size_t mode) {
  OpLog all;
  for (const auto& c : w.clients()) {
    all.Merge(c->log(mode));
  }
  return all;
}

std::vector<int64_t> LaneResiduals(const Workload& w, size_t mode) {
  std::vector<int64_t> out;
  for (const auto& c : w.clients()) {
    out.push_back(static_cast<int64_t>(c->virt_ns(mode)) -
                  static_cast<int64_t>(c->log(mode).SysVirtNs()));
  }
  return out;
}

std::vector<Metric> EndToEndMetrics(const Workload& w, const PhaseResult& r, size_t mode) {
  OpLog all = MergedLog(w, mode);
  // Clients run side by side on their own lanes: throughput adds up.
  double virt_ops = 0.0;
  double virt_bytes = 0.0;
  for (const auto& c : w.clients()) {
    const double secs = static_cast<double>(c->virt_ns(mode)) * 1e-9;
    const OpLog& log = c->log(mode);
    virt_ops += Ratio(static_cast<double>(log.attempted), secs);
    virt_bytes += Ratio(static_cast<double>(log.read_bytes + log.write_bytes), secs);
  }
  std::sort(all.virt_ns.begin(), all.virt_ns.end());
  std::sort(all.wall_ns.begin(), all.wall_ns.end());
  const bool have = !all.virt_ns.empty();
  const TailPercentile tail = TailAt(all.virt_ns, 99, 10);
  char note[128];
  std::snprintf(note, sizeof(note), "p%.3f of %llu samples, %llu beyond", tail.pct,
                static_cast<unsigned long long>(tail.samples),
                static_cast<unsigned long long>(tail.beyond));

  std::vector<Metric> m;
  m.push_back({"virt_ops_per_s", virt_ops, "1/s", ""});
  m.push_back({"virt_mb_per_s", virt_bytes / 1e6, "MB/s", ""});
  // Quantized by the cost model: they read the same on most seeds.
  m.push_back({"virt_p50_us", have ? NearestRank(all.virt_ns, 1, 2) / 1e3 : 0.0, "us",
               "not guarded", false});
  m.push_back({"virt_p99_us", tail.valid ? tail.value / 1e3 : 0.0, "us",
               std::string(note) + "; not guarded", false});
  m.push_back({"wall_ops_per_s", r.MedianSliceOpsPerSec(mode), "1/s", "median over slices"});
  // These two flip with host load (a FUSE waiter catches its completion
  // spinning, or parks), by more than any bound between two sets of runs.
  m.push_back({"wall_p50_us", have ? NearestRank(all.wall_ns, 1, 2) / 1e3 : 0.0, "us",
               "not guarded", false});
  m.push_back({"cpu_us_per_op", r.MedianSliceCpuUsPerOp(mode), "us",
               "median over slices; not guarded", false});
  // 0 on a clean run; the JSON carries it as attempted/failed.
  m.push_back({"error_rate", all.error_rate(), "ratio", "not guarded", false});
  m.push_back({"setup_s", Median(r.setup_s), "s",
               "median of " + std::to_string(r.setup_s.size()) + " set-ups"});
  m.push_back({"peak_rss_mb", r.peak_rss_mb, "MB", ""});
  return m;
}

std::vector<Metric> PerLayerMetrics(const Workload& w, const PhaseResult& r) {
  const size_t mode = Client::kTraced;
  const LayerCounters& L = r.layers[mode];
  const OpLog all = MergedLog(w, mode);
  const double ops = static_cast<double>(all.attempted);
  std::vector<Metric> m;

  // Run length is wall-bounded, so event counts are reported per client op
  // and times per call: a faster build does more ops, not bigger counters.
  auto per_op = [ops](uint64_t n) { return Ratio(static_cast<double>(n), ops); };
  for (size_t s = 0; s < kNumSys; ++s) {
    const std::string base = std::string("kernel.syscall.") + SysName(static_cast<Sys>(s));
    const SysTotals& t = all.sys[s];
    m.push_back({base + ".calls", static_cast<double>(t.calls), "count", ""});
    m.push_back({base + ".virt_ns", Ratio(t.virt_ns, t.calls), "ns/call", ""});
    m.push_back({base + ".wall_ns", Ratio(t.wall_ns, t.calls), "ns/call", ""});
  }

  m.push_back({"kernel.dcache.hit_ratio", Ratio(L.dcache_hits, L.dcache_hits + L.dcache_misses),
               "ratio", ""});
  m.push_back({"kernel.dcache.misses", per_op(L.dcache_misses), "1/op", ""});
  m.push_back({"kernel.dcache.negative_hits", per_op(L.dcache_negative_hits), "1/op", ""});
  m.push_back(
      {"kernel.page_cache.hit_ratio", Ratio(L.pc_hits, L.pc_hits + L.pc_misses), "ratio", ""});
  m.push_back({"kernel.page_cache.evictions", per_op(L.pc_evictions), "1/op", ""});
  m.push_back({"kernel.page_cache.ref_copies", per_op(L.pc_ref_copies), "1/op", ""});
  m.push_back({"kernel.disk.read_bytes_per_user_byte", Ratio(L.disk_read_bytes, all.read_bytes),
               "B/B", ""});
  m.push_back({"kernel.disk.write_bytes_per_user_byte",
               Ratio(L.disk_write_bytes, all.write_bytes), "B/B", ""});
  m.push_back({"kernel.disk.flushes", per_op(L.disk_flushes), "1/op", ""});

  m.push_back({"fuse.fs.background_flushes", per_op(L.background_flushes), "1/op", ""});
  m.push_back({"fuse.fs.foreground_throttles", per_op(L.foreground_throttles), "1/op", ""});
  m.push_back({"fuse.fs.worst_write_virt_us", all.max_write_virt_ns / 1e3, "us", ""});

  m.push_back({"fuse.conn.requests_per_op", per_op(L.requests), "1/op", ""});
  m.push_back({"fuse.conn.doorbells_per_request", Ratio(L.doorbells, L.requests), "ratio", ""});
  m.push_back({"fuse.conn.reqs_per_reap", Ratio(L.reaped_requests, L.reaps), "ratio", ""});
  m.push_back({"fuse.conn.spin_parks", per_op(L.spin_parks), "1/op", ""});
  m.push_back({"fuse.conn.splice_fallbacks", per_op(L.splice_fallbacks), "1/op", ""});
  static constexpr const char* kPhaseNames[3] = {"queue", "service", "transit"};
  for (size_t p = 0; p < 3; ++p) {
    m.push_back({std::string("fuse.conn.") + kPhaseNames[p] + "_p50_us",
                 BucketQuantile(L.phase_buckets[p], 0.5) / 1e3, "us", ""});
  }
  m.push_back({"splice.spliced_share",
               Ratio(L.spliced_bytes, L.spliced_bytes + L.copied_bytes), "ratio", ""});

  TimingHandler::OpTotals other;
  uint64_t handler_cpu_ns = 0;
  for (size_t op = 0; op < L.handler.size(); ++op) {
    const auto& t = L.handler[op];
    handler_cpu_ns += t.cpu_ns;
    const bool reported = std::any_of(std::begin(kReportedOps), std::end(kReportedOps),
                                      [op](FuseOpcode o) { return static_cast<size_t>(o) == op; });
    if (!reported) {
      other.count += t.count;
      other.virt_ns += t.virt_ns;
      other.wall_ns += t.wall_ns;
      other.cpu_ns += t.cpu_ns;
    }
  }
  auto add_op = [&](const std::string& name, const TimingHandler::OpTotals& t) {
    const std::string base = "core.cntrfs." + name;
    m.push_back({base + ".count", per_op(t.count), "1/op", ""});
    m.push_back({base + ".virt_ns", Ratio(t.virt_ns, t.count), "ns/req", ""});
    m.push_back({base + ".wall_ns", Ratio(t.wall_ns, t.count), "ns/req", ""});
    m.push_back({base + ".cpu_ns", Ratio(t.cpu_ns, t.count), "ns/req", ""});
  };
  for (FuseOpcode op : kReportedOps) {
    add_op(Lower(cntr::fuse::FuseOpcodeName(op)), L.handler[static_cast<size_t>(op)]);
  }
  add_op("other", other);

  uint64_t client_cpu_ns = 0;
  for (const auto& c : w.clients()) {
    client_cpu_ns += c->cpu_ns(mode);
  }
  const double rest_ns = static_cast<double>(L.cpu_ns) - static_cast<double>(client_cpu_ns) -
                         static_cast<double>(handler_cpu_ns);
  m.push_back({"cpu.client_us_per_op", Ratio(client_cpu_ns / 1e3, ops), "us", ""});
  m.push_back({"cpu.handler_us_per_op", Ratio(handler_cpu_ns / 1e3, ops), "us", ""});
  m.push_back({"cpu.rest_us_per_op", Ratio(rest_ns / 1e3, ops), "us", ""});

  m.push_back({"fuse.server_pool.dispatches", per_op(L.pool_dispatches), "1/op", ""});
  m.push_back({"fuse.server_pool.soft_sheds", static_cast<double>(L.pool_soft_sheds), "count", ""});
  m.push_back({"fuse.server_pool.hard_sheds", static_cast<double>(L.pool_hard_sheds), "count", ""});
  m.push_back({"fuse.server_pool.thread_growths", static_cast<double>(L.pool_thread_growths),
               "count", ""});

  const double untraced_rate = r.MedianSliceOpsPerSec(Client::kUntraced);
  const double traced_rate = r.MedianSliceOpsPerSec(mode);
  m.push_back({"trace.overhead_pct", 100.0 * (Ratio(untraced_rate, traced_rate) - 1.0), "%",
               "untraced " + std::to_string(untraced_rate) + " vs traced " +
                   std::to_string(traced_rate) + " wall ops/s"});
  return m;
}

}  // namespace perfbench
