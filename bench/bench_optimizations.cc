// Figure 3 reproduction: effectiveness of the CNTRFS optimizations (§3.3,
// §5.2.3). Four panels, each toggling one optimization:
//   (a) read cache   (FOPEN_KEEP_CACHE)    — threaded reads, paper ~10x
//   (b) writeback    (FUSE_WRITEBACK_CACHE)— sequential writes, paper: with
//       the cache, CntrFS exceeds the native write throughput (~+65%)
//   (c) batching     (PARALLEL_DIROPS + ASYNC_READ + BATCH_FORGET)
//                                          — compilebench read, paper ~2.5x
//   (d) splice read                        — sequential reads, paper ~5%
//   (e) readdirplus  (FUSE_READDIRPLUS)    — compilebench read cold walk:
//       batched metadata replaces the per-child LOOKUP round trips behind
//       the paper's worst outliers (13.3x compilebench-read, 7.1x postmark)
//   (f) splice transport — 1MB-record sequential READ/WRITE where every
//       pass rides the request path: page refs on the channel pipe lanes
//       vs. the double-copy baseline (target >= 2x per-byte)
//   (g) adaptive I/O windows — FUSE_MAX_PAGES-negotiated 1MiB windows with
//       per-file readahead ramping vs. the legacy 128KiB fixed windows
//       (target >= 1.5x sequential), random access unchanged, and streaming
//       writes with watermark+flusher writeback vs. the old 256MB
//       flush-everything threshold (no synchronous stall).
//   (h) proxied socket throughput (§3.2.4) — the socket proxy's segment
//       path (splice moves PipeSegment references socket->pipe->socket)
//       vs. the byte-copy relay (read(2)/write(2) through a proxy buffer,
//       two page copies per hop).
//   (i) failure-plane hook overhead — fault probes, deadline stamping and
//       the admission gate armed but never firing vs. a plain mount
//       (guarded <=2%; docs/robustness.md).
//   (j) submission rings — GETATTR storm and 4KB random-read ops/sec under
//       the ring cost profile vs. the per-request wakeup cost profile
//       (target >= 1.5x on the GETATTR storm; docs/transport.md).
//       Panels (a)-(i) are pinned to the wakeup profile so their numbers
//       stay bit-identical to the pre-ring baselines.
//   (k) observability plane overhead — the panel (j) GETATTR storm and the
//       panel (f) spliced read/write with tracing off vs. on (guarded <=2%;
//       docs/observability.md). The traced runs also publish per-opcode
//       p50/p95/p99 latency from the registry histograms.
// Plus the ablation the paper explains but ships disabled: splice write.
//
// With --json <path>, every panel metric is also written as a flat JSON
// object plus a nested "obs" block (the traced GETATTR storm's full registry
// SnapshotJson); CI diffs the flat keys against bench/baselines.json (see
// bench/check_regression.py) and archives the whole artifact. With
// --metrics-json <path>, the same registry snapshot is written standalone.
#include <algorithm>
#include <atomic>
#include <cctype>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/core/socket_proxy.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/workloads/harness.h"

using namespace cntr;
using namespace cntr::workloads;
using cntr::fuse::FuseMountOptions;

namespace {

// Panels (a)-(i) predate the ring cost profile and are regression-guarded
// bit-for-bit: the mount never offers kFuseRingSubmission, so it keeps the
// paper-era wakeup cost profile (a round trip plus the contention premium
// per request) and transport work cannot move their numbers. Panel (j)
// measures the ring profile itself.
FuseMountOptions OptimizedNoRings() {
  FuseMountOptions o = FuseMountOptions::Optimized();
  o.ring_enabled = false;
  return o;
}

double RunCntr(Workload& workload, const FuseMountOptions& fuse) {
  HarnessOptions opts;
  opts.fuse = fuse;
  auto side = BenchSide::MakeCntrFs(opts);
  if (!side.ok()) {
    return -1;
  }
  auto result = (*side)->Run(workload);
  return result.ok() ? result->value : -1;
}

double RunNative(Workload& workload) {
  HarnessOptions opts;
  auto side = BenchSide::MakeNative(opts);
  if (!side.ok()) {
    return -1;
  }
  auto result = (*side)->Run(workload);
  return result.ok() ? result->value : -1;
}

// RunCntr plus a look at the mount's registry before the kernel dies:
// per-opcode latency quantiles (microseconds, flat keys for the baseline
// diff) and the full SnapshotJson (nested into the --json artifact).
struct ObservedRun {
  double value = -1;
  std::map<std::string, double> quantiles;
  std::string snapshot_json;
};

ObservedRun RunCntrObserved(Workload& workload, const FuseMountOptions& fuse,
                            const std::vector<std::string>& ops) {
  HarnessOptions opts;
  opts.fuse = fuse;
  auto side = BenchSide::MakeCntrFs(opts);
  if (!side.ok()) {
    return {};
  }
  auto result = (*side)->Run(workload);
  ObservedRun run;
  run.value = result.ok() ? result->value : -1;
  obs::MetricsRegistry& reg = (*side)->kernel().metrics();
  for (const std::string& op : ops) {
    // The bench mount is the kernel's first, so its rollup label is "m0".
    obs::Histogram* h = reg.GetHistogram(
        "cntr_fuse_request_ns", {{"mount", "m0"}, {"op", op}, {"phase", "total"}});
    obs::Histogram::Snapshot snap = h->Snap();
    if (snap.count == 0) {
      continue;
    }
    std::string prefix = "k_" + op;
    for (char& c : prefix) {
      c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    }
    run.quantiles[prefix + "_p50_us"] = snap.Quantile(0.50) / 1000.0;
    run.quantiles[prefix + "_p95_us"] = snap.Quantile(0.95) / 1000.0;
    run.quantiles[prefix + "_p99_us"] = snap.Quantile(0.99) / 1000.0;
  }
  run.snapshot_json = reg.SnapshotJson();
  return run;
}

constexpr uint64_t kMB = 1024 * 1024;

// --- Panel (f) workloads: the transport-bound shapes where the per-byte
// copy premium dominates.
//
// Sequential 1MB-record reads of a server-warm file. The mount runs with
// keep_cache off, so each reopen drops the kernel-side pages and every pass
// pays the full READ round-trip path while the server's cache stays hot —
// the copy-vs-splice delta in isolation, not disk time.
class SeqReadTransport : public Workload {
 public:
  SeqReadTransport(uint64_t file_mb, int passes) : file_mb_(file_mb), passes_(passes) {}

  std::string Name() const override { return "Splice panel: 1MB seq read"; }

  Status Setup(WorkloadEnv& env) override {
    CNTR_RETURN_IF_ERROR(env.WriteFileAt("splice-read.dat", file_mb_ * kMB, kMB));
    // Warm the server side (and flush writeback) with one untimed pass.
    CNTR_ASSIGN_OR_RETURN(kernel::Fd fd, env.Open("splice-read.dat", kernel::kORdOnly));
    CNTR_RETURN_IF_ERROR(env.ReadBack(fd, file_mb_ * kMB, kMB).status());
    return env.Close(fd);
  }

  StatusOr<WorkloadResult> Run(WorkloadEnv& env) override {
    const uint64_t size = file_mb_ * kMB;
    SimTimer timer(env.kernel().clock());
    uint64_t bytes = 0;
    for (int pass = 0; pass < passes_; ++pass) {
      CNTR_ASSIGN_OR_RETURN(kernel::Fd fd, env.Open("splice-read.dat", kernel::kORdOnly));
      CNTR_ASSIGN_OR_RETURN(uint64_t n, env.ReadBack(fd, size, kMB));
      bytes += n;
      CNTR_RETURN_IF_ERROR(env.Close(fd));
    }
    uint64_t ns = timer.ElapsedNs();
    return WorkloadResult{static_cast<double>(bytes) / kMB / (static_cast<double>(ns) * 1e-9),
                          "MB/s", true, ns};
  }

 private:
  uint64_t file_mb_;
  int passes_;
};

// Sequential 1MB-record writes through a write-through mount (writeback
// cache off), so every write() is an in-band WRITE round trip: gifted page
// refs on the lane vs. the user->kernel->server double copy.
class SeqWriteTransport : public Workload {
 public:
  explicit SeqWriteTransport(uint64_t file_mb) : file_mb_(file_mb) {}

  std::string Name() const override { return "Splice panel: 1MB seq write"; }

  StatusOr<WorkloadResult> Run(WorkloadEnv& env) override {
    const uint64_t size = file_mb_ * kMB;
    CNTR_ASSIGN_OR_RETURN(kernel::Fd fd,
                          env.Open("splice-write.dat",
                                   kernel::kOWrOnly | kernel::kOCreat | kernel::kOTrunc));
    SimTimer timer(env.kernel().clock());
    CNTR_RETURN_IF_ERROR(env.WriteOut(fd, size, kMB));
    uint64_t ns = timer.ElapsedNs();
    CNTR_RETURN_IF_ERROR(env.Close(fd));
    return WorkloadResult{static_cast<double>(size) / kMB / (static_cast<double>(ns) * 1e-9),
                          "MB/s", true, ns};
  }

 private:
  uint64_t file_mb_;
};

// --- Panel (g) workloads: window sizing, not transport. ---

// Single-pass random 4KiB reads over a server-warm file, every page visited
// at most once (cold on the kernel side). A fixed-at-ceiling readahead
// would fill up to 256 pages per miss; the ramp must collapse instead, so
// this number is window-size-insensitive.
class RandomReadTransport : public Workload {
 public:
  RandomReadTransport(uint64_t file_mb, int reads) : file_mb_(file_mb), reads_(reads) {}

  std::string Name() const override { return "Adaptive panel: 4KB random read"; }

  Status Setup(WorkloadEnv& env) override {
    CNTR_RETURN_IF_ERROR(env.WriteFileAt("adaptive-rand.dat", file_mb_ * kMB, kMB));
    CNTR_ASSIGN_OR_RETURN(kernel::Fd fd, env.Open("adaptive-rand.dat", kernel::kORdOnly));
    CNTR_RETURN_IF_ERROR(env.ReadBack(fd, file_mb_ * kMB, kMB).status());  // warm the server
    CNTR_RETURN_IF_ERROR(env.Close(fd));
    env.DropCaches();
    return Status::Ok();
  }

  StatusOr<WorkloadResult> Run(WorkloadEnv& env) override {
    CNTR_ASSIGN_OR_RETURN(kernel::Fd fd, env.Open("adaptive-rand.dat", kernel::kORdOnly));
    const uint64_t pages = file_mb_ * kMB / 4096;
    char buf[4096];
    SimTimer timer(env.kernel().clock());
    uint64_t bytes = 0;
    // Deterministic large-stride walk: offsets never sequential.
    uint64_t page = 1;
    for (int i = 0; i < reads_; ++i) {
      page = (page + pages / 2 + 3) % pages;
      CNTR_ASSIGN_OR_RETURN(size_t n,
                            env.kernel().Pread(env.proc(), fd, buf, sizeof(buf), page * 4096));
      bytes += n;
    }
    uint64_t ns = timer.ElapsedNs();
    CNTR_RETURN_IF_ERROR(env.Close(fd));
    return WorkloadResult{static_cast<double>(bytes) / kMB / (static_cast<double>(ns) * 1e-9),
                          "MB/s", true, ns};
  }

 private:
  uint64_t file_mb_;
  int reads_;
};

// Streaming writeback write: dirties far more than the old 256MB
// flush-everything threshold and records the worst single write() stall —
// the flush storm the watermark+flusher design removes. The final
// close-time flush is excluded (iozone-style per-op timing).
class StreamingWriteStall : public Workload {
 public:
  explicit StreamingWriteStall(uint64_t file_mb) : file_mb_(file_mb) {}

  std::string Name() const override { return "Adaptive panel: streaming write"; }

  StatusOr<WorkloadResult> Run(WorkloadEnv& env) override {
    CNTR_ASSIGN_OR_RETURN(kernel::Fd fd,
                          env.Open("streaming.dat",
                                   kernel::kOWrOnly | kernel::kOCreat | kernel::kOTrunc));
    std::vector<char> buf(kMB, 's');
    max_write_stall_ns_ = 0;
    SimTimer timer(env.kernel().clock());
    for (uint64_t i = 0; i < file_mb_; ++i) {
      uint64_t before = env.kernel().clock().NowNs();
      CNTR_ASSIGN_OR_RETURN(size_t n, env.kernel().Write(env.proc(), fd, buf.data(), kMB));
      if (n != kMB) {
        return Status::Error(EIO, "short write");
      }
      max_write_stall_ns_ = std::max(max_write_stall_ns_,
                                     env.kernel().clock().NowNs() - before);
    }
    uint64_t ns = timer.ElapsedNs();
    CNTR_RETURN_IF_ERROR(env.Close(fd));
    return WorkloadResult{static_cast<double>(file_mb_ * kMB) / kMB /
                              (static_cast<double>(ns) * 1e-9),
                          "MB/s", true, ns};
  }

  double max_write_stall_ms() const { return static_cast<double>(max_write_stall_ns_) * 1e-6; }

 private:
  uint64_t file_mb_;
  uint64_t max_write_stall_ns_ = 0;
};

// Aggregate MB/s of `kClients` independent processes sequentially re-reading
// their own server-warm files through one shared /dev/fuse queue (the
// paper's single-channel configuration), each on its own virtual lane. The
// queue is a serial resource: every request occupies it for the round trip
// plus server-side handling, so the window size decides how often the
// clients collide on it — the shape where FUSE_MAX_PAGES pays the most.
double RunMultiClientSeqRead(const FuseMountOptions& fuse) {
  constexpr int kClients = 4;
  constexpr uint64_t kFileBytes = 8ull << 20;
  constexpr int kPasses = 2;
  constexpr uint32_t kRecord = 1 << 20;

  HarnessOptions opts;
  opts.fuse = fuse;
  auto side = BenchSide::MakeCntrFs(opts);
  if (!side.ok()) {
    return -1;
  }
  kernel::Kernel& k = (*side)->kernel();

  std::vector<kernel::ProcessPtr> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.push_back(k.Fork(*k.init(), "seq-client"));
  }
  // Setup (untimed): write + warm-read each client's file server-side.
  std::vector<std::string> paths;
  for (int c = 0; c < kClients; ++c) {
    paths.push_back("/cntrmnt/data/bench/adaptive-mc-" + std::to_string(c) + ".dat");
    auto fd = k.Open(*clients[c], paths[c], kernel::kOWrOnly | kernel::kOCreat, 0644);
    if (!fd.ok()) {
      return -1;
    }
    std::vector<char> chunk(128 * 1024, 'm');
    for (uint64_t off = 0; off < kFileBytes; off += chunk.size()) {
      (void)k.Write(*clients[c], fd.value(), chunk.data(), chunk.size());
    }
    (void)k.Fsync(*clients[c], fd.value());
    (void)k.Close(*clients[c], fd.value());
    auto warm = k.Open(*clients[c], paths[c], kernel::kORdOnly);
    if (warm.ok()) {
      std::vector<char> buf(kRecord);
      while (true) {
        auto n = k.Read(*clients[c], warm.value(), buf.data(), buf.size());
        if (!n.ok() || n.value() == 0) {
          break;
        }
      }
      (void)k.Close(*clients[c], warm.value());
    }
  }

  std::vector<SimClock::LanePtr> lanes;
  std::atomic<uint64_t> total_bytes{0};
  for (int c = 0; c < kClients; ++c) {
    lanes.push_back(std::make_shared<SimClock::Lane>());
  }
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      SimClock::LaneScope scope(lanes[c]);
      uint64_t bytes = 0;
      std::vector<char> buf(kRecord);
      for (int pass = 0; pass < kPasses; ++pass) {
        auto fd = k.Open(*clients[c], paths[c], kernel::kORdOnly);
        if (!fd.ok()) {
          return;
        }
        while (true) {
          auto n = k.Read(*clients[c], fd.value(), buf.data(), buf.size());
          if (!n.ok() || n.value() == 0) {
            break;
          }
          bytes += n.value();
        }
        (void)k.Close(*clients[c], fd.value());
      }
      total_bytes.fetch_add(bytes);
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  uint64_t makespan = 0;
  for (const auto& lane : lanes) {
    makespan = std::max(makespan, lane->local_ns.load());
  }
  k.clock().Advance(makespan);
  return makespan > 0 ? static_cast<double>(total_bytes.load()) / kMB /
                            (static_cast<double>(makespan) * 1e-9)
                      : 0;
}

// --- Panel (h): proxied socket throughput. ---
//
// One client streams `kProxyTotal` through the proxy to a host server, all
// three endpoints nonblocking and driven from this thread (RunOnce), so the
// virtual-time result is deterministic. On the segment path every byte
// crosses the proxy as two splice hops (splice_page_ns each); the copy
// relay pays two full page copies plus the same syscalls.
double RunProxyThroughput(bool segment_splice) {
  constexpr uint64_t kProxyTotal = 64ull << 20;
  auto k = kernel::Kernel::Create();
  auto container = k->Fork(*k->init(), "app-container");
  auto client_proc = k->Fork(*k->init(), "app-client");
  auto host = k->Fork(*k->init(), "x11-host");
  auto listen = k->SocketListen(*host, "/tmp/bench-host.sock");
  if (!listen.ok()) {
    return -1;
  }
  core::SocketProxy proxy(k.get(), container, host);
  proxy.SetSegmentSplice(segment_splice);
  if (!proxy.Forward("/tmp/bench-app.sock", "/tmp/bench-host.sock").ok()) {
    return -1;
  }
  auto client = k->SocketConnect(*client_proc, "/tmp/bench-app.sock");
  if (!client.ok()) {
    return -1;
  }
  kernel::Fd server = -1;
  for (int i = 0; i < 50 && server < 0; ++i) {
    proxy.RunOnce(0);
    auto conn = k->SocketAccept(*host, listen.value(), /*nonblock=*/true);
    if (conn.ok()) {
      server = conn.value();
    }
  }
  if (server < 0) {
    return -1;
  }
  for (auto [proc, fd] : {std::pair{client_proc.get(), client.value()},
                          std::pair{host.get(), server}}) {
    auto file = k->GetFile(*proc, fd);
    if (file.ok()) {
      file.value()->set_flags(file.value()->flags() | kernel::kONonblock);
    }
  }

  std::vector<char> chunk(256 * 1024, 'p');
  std::vector<char> sink(256 * 1024);
  uint64_t sent = 0;
  uint64_t received = 0;
  SimTimer timer(k->clock());
  for (uint64_t spins = 0; received < kProxyTotal; ++spins) {
    if (spins > kProxyTotal / 1024) {
      return -1;  // no forward progress
    }
    while (sent < kProxyTotal) {
      auto n = k->Write(*client_proc, client.value(), chunk.data(),
                        std::min<uint64_t>(chunk.size(), kProxyTotal - sent));
      if (!n.ok() || n.value() == 0) {
        break;  // client ring full; let the proxy move it
      }
      sent += n.value();
    }
    proxy.RunOnce(0);
    while (true) {
      auto n = k->Read(*host, server, sink.data(), sink.size());
      if (!n.ok() || n.value() == 0) {
        break;
      }
      received += n.value();
    }
  }
  uint64_t ns = timer.ElapsedNs();
  proxy.Stop();
  return ns > 0 ? static_cast<double>(received) / kMB / (static_cast<double>(ns) * 1e-9) : -1;
}

// --- Panel (j) workloads: small-op storms. ---
//
// Per-op payloads are tiny, so the per-request transport handshake IS the
// cost. This is the shape the submission rings target: sqe + doorbell + cqe
// (3250ns) against the 6000ns wakeup round trip, with multi-reap burst
// amortization on the server side. Panels (a)-(i) run the wakeup profile;
// these two run both profiles on otherwise identical mounts.

// Stat storm over a small working set with the attribute cache disabled:
// every stat() is a dcache hit plus one GETATTR round trip, nothing else —
// the purest per-request handshake measurement the mount can produce.
class GetattrStorm : public Workload {
 public:
  explicit GetattrStorm(int ops) : ops_(ops) {}

  std::string Name() const override { return "Ring panel: GETATTR storm"; }

  Status Setup(WorkloadEnv& env) override {
    for (int f = 0; f < kFiles; ++f) {
      CNTR_RETURN_IF_ERROR(env.WriteFileAt(FileName(f), 4096, 4096));
    }
    return Status::Ok();
  }

  StatusOr<WorkloadResult> Run(WorkloadEnv& env) override {
    SimTimer timer(env.kernel().clock());
    for (int i = 0; i < ops_; ++i) {
      CNTR_RETURN_IF_ERROR(
          env.kernel().Stat(env.proc(), env.Path(FileName(i % kFiles))).status());
    }
    uint64_t ns = timer.ElapsedNs();
    return WorkloadResult{static_cast<double>(ops_) / (static_cast<double>(ns) * 1e-9),
                          "ops/s", true, ns};
  }

 private:
  static constexpr int kFiles = 16;
  static std::string FileName(int f) { return "storm-" + std::to_string(f) + ".dat"; }
  int ops_;
};

// 4KB random reads, server-warm and kernel-cold (the large stride collapses
// the readahead ramp): one single-page READ round trip per op, the smallest
// data-carrying request shape.
class SmallReadStorm : public Workload {
 public:
  SmallReadStorm(uint64_t file_mb, int reads) : file_mb_(file_mb), reads_(reads) {}

  std::string Name() const override { return "Ring panel: 4KB random read"; }

  Status Setup(WorkloadEnv& env) override {
    CNTR_RETURN_IF_ERROR(env.WriteFileAt("storm-rand.dat", file_mb_ * kMB, kMB));
    CNTR_ASSIGN_OR_RETURN(kernel::Fd fd, env.Open("storm-rand.dat", kernel::kORdOnly));
    CNTR_RETURN_IF_ERROR(env.ReadBack(fd, file_mb_ * kMB, kMB).status());  // warm the server
    CNTR_RETURN_IF_ERROR(env.Close(fd));
    env.DropCaches();
    return Status::Ok();
  }

  StatusOr<WorkloadResult> Run(WorkloadEnv& env) override {
    CNTR_ASSIGN_OR_RETURN(kernel::Fd fd, env.Open("storm-rand.dat", kernel::kORdOnly));
    const uint64_t pages = file_mb_ * kMB / 4096;
    char buf[4096];
    SimTimer timer(env.kernel().clock());
    uint64_t page = 1;
    for (int i = 0; i < reads_; ++i) {
      page = (page + pages / 2 + 3) % pages;
      CNTR_RETURN_IF_ERROR(
          env.kernel().Pread(env.proc(), fd, buf, sizeof(buf), page * 4096).status());
    }
    uint64_t ns = timer.ElapsedNs();
    CNTR_RETURN_IF_ERROR(env.Close(fd));
    return WorkloadResult{static_cast<double>(reads_) / (static_cast<double>(ns) * 1e-9),
                          "ops/s", true, ns};
  }

 private:
  uint64_t file_mb_;
  int reads_;
};

}  // namespace

int main(int argc, char** argv) {
  const char* json_path = nullptr;
  const char* metrics_json_path = nullptr;
  for (int i = 1; i < argc - 1; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      json_path = argv[i + 1];
    } else if (std::strcmp(argv[i], "--metrics-json") == 0) {
      metrics_json_path = argv[i + 1];
    }
  }
  std::map<std::string, double> metrics;

  std::printf("=== Figure 3: Effectiveness of optimizations ===\n\n");

  // (a) Read cache: concurrent readers reopening the file.
  {
    auto workload = MakeThreadedIoReopen(4);
    FuseMountOptions off = OptimizedNoRings();
    off.keep_cache = false;
    FuseMountOptions on = OptimizedNoRings();
    double before = RunCntr(*workload, off);
    double after = RunCntr(*workload, on);
    metrics["a_read_cache_before"] = before;
    metrics["a_read_cache_after"] = after;
    std::printf("(a) Read cache (threaded read, 4 threads) [MB/s]\n");
    std::printf("    before %.0f   after %.0f   speedup %.1fx   (paper: ~10x)\n\n", before,
                after, before > 0 ? after / before : 0);
  }

  // (b) Writeback cache: sequential 4KB writes vs the native baseline,
  // timed per-op as iozone does (the final close/flush is excluded).
  {
    auto workload = MakeIoZoneWriteNoClose(48);
    FuseMountOptions off = OptimizedNoRings();
    off.writeback_cache = false;
    FuseMountOptions on = OptimizedNoRings();
    double before = RunCntr(*workload, off);
    double after = RunCntr(*workload, on);
    double native = RunNative(*workload);
    metrics["b_writeback_before"] = before;
    metrics["b_writeback_after"] = after;
    metrics["b_writeback_native"] = native;
    std::printf("(b) Writeback cache (IOzone sequential write) [MB/s]\n");
    std::printf("    before %.0f   after %.0f   native %.0f   speedup %.1fx   after/native %.2f"
                "   (paper: after > native, ~1.65x)\n\n",
                before, after, native, before > 0 ? after / before : 0,
                native > 0 ? after / native : 0);
  }

  // (c) Batching: compilebench read tree.
  {
    auto workload = MakeCompileBench("read");
    FuseMountOptions off = OptimizedNoRings();
    off.parallel_dirops = false;
    off.async_read = false;
    off.batch_forget = false;
    FuseMountOptions on = OptimizedNoRings();
    double before = RunCntr(*workload, off);
    double after = RunCntr(*workload, on);
    metrics["c_batching_before"] = before;
    metrics["c_batching_after"] = after;
    std::printf("(c) Batching (compilebench read) [MB/s]\n");
    std::printf("    before %.0f   after %.0f   speedup %.1fx   (paper: ~2.5x)\n\n", before,
                after, before > 0 ? after / before : 0);
  }

  // (d) Splice read: sequential reads.
  {
    auto workload = MakeIoZone(false, 64);
    FuseMountOptions off = OptimizedNoRings();
    off.splice_read = false;
    FuseMountOptions on = OptimizedNoRings();
    double before = RunCntr(*workload, off);
    double after = RunCntr(*workload, on);
    metrics["d_splice_read_before"] = before;
    metrics["d_splice_read_after"] = after;
    std::printf("(d) Splice read (IOzone sequential read) [MB/s]\n");
    std::printf("    before %.0f   after %.0f   speedup %+.1f%%   (paper: ~+5%%)\n\n", before,
                after, before > 0 ? (after / before - 1) * 100 : 0);
  }

  // (e) READDIRPLUS: the cold tree walk that made compilebench-read the
  // paper's worst case. Batching each directory's metadata into
  // ⌈K/batch⌉ requests removes the per-child LOOKUP storm.
  {
    auto workload = MakeCompileBench("read");
    FuseMountOptions off = OptimizedNoRings();
    off.readdirplus = false;
    FuseMountOptions on = OptimizedNoRings();
    double before = RunCntr(*workload, off);
    double after = RunCntr(*workload, on);
    double native = RunNative(*workload);
    metrics["e_readdirplus_before"] = before;
    metrics["e_readdirplus_after"] = after;
    std::printf("(e) READDIRPLUS (compilebench read, cold tree) [MB/s]\n");
    std::printf("    before %.0f   after %.0f   native %.0f   speedup %.1fx\n\n", before, after,
                native, before > 0 ? after / before : 0);
  }

  // (f) Splice transport: pipe-backed data lanes. 1MB sequential payloads
  // where the per-byte copy premium dominates; page refs ride the channel
  // pipes (steal/alias into the cache, COW-protected) instead of being
  // copied server->kernel->user.
  {
    SeqReadTransport read_wl(/*file_mb=*/32, /*passes=*/3);
    // Both sides pinned to the legacy 32-page window (max_pages = 32): this
    // panel isolates the transport (copy vs. splice) at a fixed request
    // shape; panel (g) measures the windows themselves.
    FuseMountOptions off = OptimizedNoRings();
    off.keep_cache = false;  // each reopen re-rides the transport
    off.splice_read = false;
    off.splice_move = false;
    off.max_pages = 32;
    FuseMountOptions on = OptimizedNoRings();
    on.keep_cache = false;
    on.max_pages = 32;
    double before = RunCntr(read_wl, off);
    double after = RunCntr(read_wl, on);
    metrics["f_transport_read_copy"] = before;
    metrics["f_transport_read_splice"] = after;
    std::printf("(f) Splice transport (1MB sequential read, server-warm) [MB/s]\n");
    std::printf("    copy %.0f   splice %.0f   speedup %.2fx   (target: >=2x)\n", before, after,
                before > 0 ? after / before : 0);

    // 8MB stays under the server-side ExtFs dirty threshold (16MB), so the
    // timed phase measures the transport, not EBS writeback.
    SeqWriteTransport write_wl(/*file_mb=*/8);
    FuseMountOptions woff = OptimizedNoRings();
    woff.writeback_cache = false;     // write-through: WRITEs are in-band
    woff.max_write = 1024 * 1024;     // true 1MB WRITE round trips
    woff.splice_write = false;
    woff.splice_move = false;
    woff.max_pages = 32;
    FuseMountOptions won = OptimizedNoRings();
    won.writeback_cache = false;
    won.max_write = 1024 * 1024;
    won.pipe_pages = 256;             // lane sized to carry the 1MB payload
    won.splice_write = true;
    won.max_pages = 32;
    double wbefore = RunCntr(write_wl, woff);
    double wafter = RunCntr(write_wl, won);
    metrics["f_transport_write_copy"] = wbefore;
    metrics["f_transport_write_splice"] = wafter;
    std::printf("    1MB sequential write (write-through):\n");
    std::printf("    copy %.0f   splice %.0f   speedup %.2fx   (target: >=2x)\n\n", wbefore,
                wafter, wbefore > 0 ? wafter / wbefore : 0);
  }

  // (g) Adaptive I/O windows: FUSE_MAX_PAGES negotiation + readahead
  // ramping + watermark/flusher writeback. Sequential consumers get 1MiB
  // windows without a custom mount; random access and the copy path keep
  // their old shape (the ramp collapses, panel (f) stays pinned).
  {
    SeqReadTransport read_wl(/*file_mb=*/32, /*passes=*/3);
    FuseMountOptions legacy = OptimizedNoRings();
    legacy.keep_cache = false;
    legacy.max_pages = 0;  // 128KiB fixed-ceiling windows (pre-negotiation)
    FuseMountOptions adaptive = OptimizedNoRings();
    adaptive.keep_cache = false;  // defaults: negotiate up to 256 pages
    std::printf("(g) Adaptive I/O windows\n");

    // Sequential spliced write-through: PR 3 needed a custom mount
    // (max_write=1MB, pipe_pages=256) to post its 1MB-round-trip number;
    // negotiation now gets there from the stock mount. This is the shape
    // where the per-request hop is the dominant cost, so the window size
    // shows up ~1:1.
    SeqWriteTransport wt_wl(/*file_mb=*/8);
    FuseMountOptions wt_legacy = OptimizedNoRings();
    wt_legacy.writeback_cache = false;
    wt_legacy.splice_write = true;
    wt_legacy.max_pages = 0;  // PR 3 default mount: 128KiB max_write
    FuseMountOptions wt_adaptive = OptimizedNoRings();
    wt_adaptive.writeback_cache = false;
    wt_adaptive.splice_write = true;
    double wt_128k = RunCntr(wt_wl, wt_legacy);
    double wt_1m = RunCntr(wt_wl, wt_adaptive);
    metrics["g_wt_write_128k"] = wt_128k;
    metrics["g_wt_write_1m"] = wt_1m;
    std::printf("    1MB sequential spliced write-through [MB/s]:\n");
    std::printf("    128KiB windows %.0f   1MiB negotiated %.0f   speedup %.2fx   "
                "(target: >=1.5x)\n",
                wt_128k, wt_1m, wt_128k > 0 ? wt_1m / wt_128k : 0);

    // Sequential read: the user-visible copy (copy_page_ns per 4KiB) bounds
    // this shape — the negotiated windows amortize the round trips away and
    // land server-warm FUSE reads at native-warm parity, which caps the
    // ratio well below the write panel's.
    double seq_legacy = RunCntr(read_wl, legacy);
    double seq_adaptive = RunCntr(read_wl, adaptive);
    metrics["g_seq_read_128k"] = seq_legacy;
    metrics["g_seq_read_1m"] = seq_adaptive;
    std::printf("    1MB sequential read, single stream (server-warm) [MB/s]:\n");
    std::printf("    128KiB windows %.0f   1MiB negotiated %.0f   speedup %.2fx   "
                "(native-warm parity)\n",
                seq_legacy, seq_adaptive, seq_legacy > 0 ? seq_adaptive / seq_legacy : 0);

    // Four clients on the paper's single shared queue: the round trips the
    // big windows remove are exactly the requests the clients collide on.
    // (Real-thread arrival order adds a few percent of jitter here, so this
    // row is reported but not regression-guarded.)
    double mc_legacy = RunMultiClientSeqRead(legacy);
    double mc_adaptive = RunMultiClientSeqRead(adaptive);
    metrics["g_mc_seq_read_128k"] = mc_legacy;
    metrics["g_mc_seq_read_1m"] = mc_adaptive;
    std::printf("    4-client sequential read, one shared queue [aggregate MB/s]:\n");
    std::printf("    128KiB windows %.0f   1MiB negotiated %.0f   speedup %.2fx\n",
                mc_legacy, mc_adaptive, mc_legacy > 0 ? mc_adaptive / mc_legacy : 0);

    RandomReadTransport rand_wl(/*file_mb=*/64, /*reads=*/4096);
    double rand_legacy = RunCntr(rand_wl, legacy);
    double rand_adaptive = RunCntr(rand_wl, adaptive);
    metrics["g_rand_read_128k"] = rand_legacy;
    metrics["g_rand_read_1m"] = rand_adaptive;
    std::printf("    4KB random read (server-warm) [MB/s]:\n");
    std::printf("    128KiB ceiling %.0f   1MiB ceiling %.0f   delta %+.1f%%   "
                "(target: unchanged)\n",
                rand_legacy, rand_adaptive,
                rand_legacy > 0 ? (rand_adaptive / rand_legacy - 1) * 100 : 0);

    // Streaming write past the old 256MB threshold: the legacy config
    // (flushers off, flush-everything at the hard watermark) stalls one
    // write() for the whole drain; watermarks + background flushers keep
    // every write bounded.
    StreamingWriteStall write_old(/*file_mb=*/320);
    StreamingWriteStall write_new(/*file_mb=*/320);
    FuseMountOptions old_wb = OptimizedNoRings();
    old_wb.flusher_threads = 0;
    old_wb.dirty_soft_bytes = 256ull << 20;
    old_wb.dirty_hard_bytes = 256ull << 20;  // the old single threshold
    old_wb.per_inode_dirty_bytes = UINT64_MAX;
    FuseMountOptions new_wb = OptimizedNoRings();  // watermarks + flushers
    double wr_old = RunCntr(write_old, old_wb);
    double wr_new = RunCntr(write_new, new_wb);
    metrics["g_stream_write_old"] = wr_old;
    metrics["g_stream_write_new"] = wr_new;
    metrics["g_stream_stall_old_ms"] = write_old.max_write_stall_ms();
    metrics["g_stream_stall_new_ms"] = write_new.max_write_stall_ms();
    std::printf("    320MB streaming write, writeback [MB/s / worst write() stall]:\n");
    std::printf("    old 256MB threshold %.0f MB/s, stall %.1f ms   "
                "watermarks+flushers %.0f MB/s, stall %.1f ms   (target: no flush stall)\n\n",
                wr_old, write_old.max_write_stall_ms(), wr_new,
                write_new.max_write_stall_ms());
  }

  // (h) Proxied socket throughput: the §3.2.4 forwarding path, segment
  // splice vs. the byte-copy relay.
  {
    double copy = RunProxyThroughput(/*segment_splice=*/false);
    double spliced = RunProxyThroughput(/*segment_splice=*/true);
    metrics["h_proxy_copy"] = copy;
    metrics["h_proxy_splice"] = spliced;
    std::printf("(h) Socket proxy (64MB streamed through one forwarded connection) [MB/s]\n");
    std::printf("    copy relay %.0f   segment splice %.0f   speedup %.2fx   (target: >=2x)\n\n",
                copy, spliced, copy > 0 ? spliced / copy : 0);
  }

  // (i) Failure-plane hook overhead: the fault-injection probes, deadline
  // stamping, errseq cursors and the admission gate stay compiled into the
  // hot path (docs/robustness.md); with nothing armed they must cost <=2%.
  // The "on" side arms the whole plane without ever tripping it — generous
  // deadline, sweeper running, admission cap far above the workload's
  // concurrency — so the panel measures bookkeeping, not failures.
  {
    auto metadata_wl = MakeCompileBench("read");  // dense request path
    SeqReadTransport data_wl(/*file_mb=*/32, /*passes=*/3);
    FuseMountOptions off = OptimizedNoRings();
    FuseMountOptions on = OptimizedNoRings();
    on.request_deadline_ns = 60'000'000'000;  // 60s virtual: never expires
    on.deadline_grace_ms = 10'000;            // sweeper armed, never fires
    on.max_background = 4096;                 // gate checked, never blocks
    on.abort_after_timeouts = 8;
    FuseMountOptions data_off = off;
    data_off.keep_cache = false;  // each reopen re-rides the transport
    FuseMountOptions data_on = on;
    data_on.keep_cache = false;
    double meta_off = RunCntr(*metadata_wl, off);
    double meta_on = RunCntr(*metadata_wl, on);
    double data_off_v = RunCntr(data_wl, data_off);
    double data_on_v = RunCntr(data_wl, data_on);
    double overhead = 0;
    if (meta_off > 0 && data_off_v > 0) {
      overhead = std::max((1 - meta_on / meta_off) * 100, (1 - data_on_v / data_off_v) * 100);
    }
    metrics["i_failure_plane_meta_off"] = meta_off;
    metrics["i_failure_plane_meta_on"] = meta_on;
    metrics["i_failure_plane_data_off"] = data_off_v;
    metrics["i_failure_plane_data_on"] = data_on_v;
    metrics["i_failure_plane_overhead_pct"] = overhead;
    std::printf("(i) Failure-plane hook overhead (deadlines+gate armed, nothing fires)\n");
    std::printf("    compilebench read: plain %.0f   armed %.0f MB/s\n", meta_off, meta_on);
    std::printf("    1MB seq read:      plain %.0f   armed %.0f MB/s\n", data_off_v, data_on_v);
    std::printf("    worst overhead %.2f%%   (target: <=2%%)\n\n", overhead);
  }

  // (j) Submission rings: small-op storms, ring cost profile vs. the
  // per-request wakeup cost profile on otherwise identical mounts. Tiny
  // payloads make the handshake the dominant per-op cost, so the ring's
  // cheaper round trip (and the server's multi-reap of queued bursts) shows
  // up directly in ops/sec.
  {
    GetattrStorm storm(/*ops=*/8192);
    FuseMountOptions wakeup = OptimizedNoRings();
    wakeup.attr_ttl_ns = 0;  // every stat is a GETATTR round trip
    FuseMountOptions ring = FuseMountOptions::Optimized();
    ring.attr_ttl_ns = 0;
    double storm_wakeup = RunCntr(storm, wakeup);
    double storm_ring = RunCntr(storm, ring);
    metrics["j_getattr_storm_wakeup_ops"] = storm_wakeup;
    metrics["j_getattr_storm_ring_ops"] = storm_ring;
    metrics["j_getattr_storm_speedup"] = storm_wakeup > 0 ? storm_ring / storm_wakeup : 0;
    std::printf("(j) Submission rings (small-op storms) [ops/s]\n");
    std::printf("    GETATTR storm: wakeup %.0f   ring %.0f   speedup %.2fx   "
                "(target: >=1.5x)\n",
                storm_wakeup, storm_ring, storm_wakeup > 0 ? storm_ring / storm_wakeup : 0);

    SmallReadStorm rread(/*file_mb=*/64, /*reads=*/4096);
    FuseMountOptions rr_wakeup = OptimizedNoRings();
    FuseMountOptions rr_ring = FuseMountOptions::Optimized();
    double rread_wakeup = RunCntr(rread, rr_wakeup);
    double rread_ring = RunCntr(rread, rr_ring);
    metrics["j_rand_read_wakeup_ops"] = rread_wakeup;
    metrics["j_rand_read_ring_ops"] = rread_ring;
    std::printf("    4KB random read: wakeup %.0f   ring %.0f   speedup %.2fx\n\n",
                rread_wakeup, rread_ring,
                rread_wakeup > 0 ? rread_ring / rread_wakeup : 0);
  }

  // (k) Observability plane overhead: the same request-dense shapes as
  // panels (j) and (f), tracing off vs. on. Spans and histogram records are
  // virtual-time reads only — the plane never advances the clock — so the
  // panel numbers must be bit-identical (0.00% overhead) by construction;
  // the guard exists so an instrumentation change that starts charging
  // virtual time fails CI instead of silently skewing every other panel.
  // The traced runs double as the quantile source: per-opcode p50/p95/p99
  // from the cntr_fuse_request_ns{phase="total"} histograms.
  std::string obs_snapshot_json;
  {
    GetattrStorm storm_off_wl(/*ops=*/8192);
    GetattrStorm storm_on_wl(/*ops=*/8192);
    FuseMountOptions storm_opts = FuseMountOptions::Optimized();
    storm_opts.attr_ttl_ns = 0;  // every stat is a GETATTR round trip
    obs::SetTracingEnabled(false);
    double storm_off = RunCntr(storm_off_wl, storm_opts);
    obs::SetTracingEnabled(true);
    ObservedRun storm_on = RunCntrObserved(storm_on_wl, storm_opts, {"GETATTR", "LOOKUP"});

    // Panel (f)'s spliced shapes: payload-heavy requests where a per-request
    // instrumentation cost would be amortized worst-case small — kept in the
    // guard so the data path stays covered, not just the metadata path.
    SeqReadTransport read_off_wl(/*file_mb=*/32, /*passes=*/3);
    SeqReadTransport read_on_wl(/*file_mb=*/32, /*passes=*/3);
    FuseMountOptions read_opts = OptimizedNoRings();
    read_opts.keep_cache = false;
    read_opts.max_pages = 32;
    obs::SetTracingEnabled(false);
    double read_off = RunCntr(read_off_wl, read_opts);
    obs::SetTracingEnabled(true);
    ObservedRun read_on = RunCntrObserved(read_on_wl, read_opts, {"READ"});

    SeqWriteTransport write_off_wl(/*file_mb=*/8);
    SeqWriteTransport write_on_wl(/*file_mb=*/8);
    FuseMountOptions write_opts = OptimizedNoRings();
    write_opts.writeback_cache = false;
    write_opts.max_write = 1024 * 1024;
    write_opts.pipe_pages = 256;
    write_opts.splice_write = true;
    write_opts.max_pages = 32;
    obs::SetTracingEnabled(false);
    double write_off = RunCntr(write_off_wl, write_opts);
    obs::SetTracingEnabled(true);
    ObservedRun write_on = RunCntrObserved(write_on_wl, write_opts, {"WRITE"});

    double overhead = 0;
    if (storm_off > 0 && read_off > 0 && write_off > 0) {
      overhead = std::max({(1 - storm_on.value / storm_off) * 100,
                           (1 - read_on.value / read_off) * 100,
                           (1 - write_on.value / write_off) * 100});
    }
    metrics["k_obs_getattr_untraced_ops"] = storm_off;
    metrics["k_obs_getattr_traced_ops"] = storm_on.value;
    metrics["k_obs_read_untraced"] = read_off;
    metrics["k_obs_read_traced"] = read_on.value;
    metrics["k_obs_write_untraced"] = write_off;
    metrics["k_obs_write_traced"] = write_on.value;
    metrics["k_obs_overhead_pct"] = overhead;
    for (const auto* run : {&storm_on, &read_on, &write_on}) {
      for (const auto& [key, value] : run->quantiles) {
        metrics[key] = value;
      }
    }
    obs_snapshot_json = storm_on.snapshot_json;
    std::printf("(k) Observability plane overhead (tracing off vs. on)\n");
    std::printf("    GETATTR storm: untraced %.0f   traced %.0f ops/s\n", storm_off,
                storm_on.value);
    std::printf("    1MB spliced read:  untraced %.0f   traced %.0f MB/s\n", read_off,
                read_on.value);
    std::printf("    1MB spliced write: untraced %.0f   traced %.0f MB/s\n", write_off,
                write_on.value);
    std::printf("    worst overhead %.2f%%   (target: <=2%%; 0.00 by construction)\n",
                overhead);
    auto q = [&](const char* key) {
      auto it = metrics.find(key);
      return it != metrics.end() ? it->second : 0.0;
    };
    std::printf("    GETATTR p50/p95/p99: %.1f / %.1f / %.1f us   "
                "READ: %.0f / %.0f / %.0f us   WRITE: %.0f / %.0f / %.0f us\n\n",
                q("k_getattr_p50_us"), q("k_getattr_p95_us"), q("k_getattr_p99_us"),
                q("k_read_p50_us"), q("k_read_p95_us"), q("k_read_p99_us"),
                q("k_write_p50_us"), q("k_write_p95_us"), q("k_write_p99_us"));
  }

  // Ablation: splice write — implemented but disabled by default because
  // parsing the header after the pipe costs every request a hop (§3.3).
  {
    auto read_tree = MakeCompileBench("read");
    FuseMountOptions off = OptimizedNoRings();
    FuseMountOptions on = OptimizedNoRings();
    on.splice_write = true;
    double without = RunCntr(*read_tree, off);
    double with = RunCntr(*read_tree, on);
    metrics["ablation_splice_write_off"] = without;
    metrics["ablation_splice_write_on"] = with;
    std::printf("(ablation) Splice write on a non-write workload [MB/s]\n");
    std::printf("    off %.0f   on %.0f   regression %.1f%%   (paper: slows all ops; default "
                "off)\n",
                without, with, without > 0 ? (1 - with / without) * 100 : 0);
  }

  if (json_path != nullptr) {
    FILE* f = std::fopen(json_path, "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_path);
      return 1;
    }
    std::fprintf(f, "{\n");
    for (const auto& [key, value] : metrics) {
      std::fprintf(f, "  \"%s\": %.3f,\n", key.c_str(), value);
    }
    // The traced GETATTR storm's full registry snapshot, nested so the
    // flat panel keys stay the regression-diff surface while the artifact
    // still archives every series (check_regression.py sanity-checks it).
    std::fprintf(f, "  \"obs\": %s\n",
                 obs_snapshot_json.empty() ? "{}" : obs_snapshot_json.c_str());
    std::fprintf(f, "}\n");
    std::fclose(f);
  }
  if (metrics_json_path != nullptr) {
    FILE* f = std::fopen(metrics_json_path, "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", metrics_json_path);
      return 1;
    }
    std::fprintf(f, "%s\n", obs_snapshot_json.empty() ? "{}" : obs_snapshot_json.c_str());
    std::fclose(f);
  }
  return 0;
}
