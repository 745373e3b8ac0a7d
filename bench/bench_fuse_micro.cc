// Op-level microbenchmarks of the FUSE path (google-benchmark, manual time
// from the virtual clock): per-op request latency through CntrFS vs the
// native filesystem. Supporting data for Figure 2's per-workload analysis,
// plus the READDIRPLUS before/after bars for the cold-tree-walk hot path.
// One case runs in real time instead: the page-cache insert under dirty
// pressure, whose cost is CPU work that charges no virtual time.
#include <benchmark/benchmark.h>

#include <string>

#include "src/kernel/page_cache.h"
#include "src/workloads/harness.h"

using namespace cntr;
using namespace cntr::workloads;

namespace {

// Measures virtual ns per op of `fn` on a fresh side.
template <typename Fn>
void RunOpBench(benchmark::State& state, bool through_cntr, Fn&& op) {
  HarnessOptions opts;
  auto side = through_cntr ? BenchSide::MakeCntrFs(opts) : BenchSide::MakeNative(opts);
  if (!side.ok()) {
    state.SkipWithError("side setup failed");
    return;
  }
  kernel::Kernel& kernel = (*side)->kernel();
  // Setup: one directory with files to operate on.
  auto proc = kernel.Fork(*kernel.init(), "micro");
  std::string dir = through_cntr ? "/cntrmnt/data/bench" : "/data/bench";
  int i = 0;
  for (auto _ : state) {
    uint64_t before = kernel.clock().NowNs();
    op(kernel, *proc, dir, i++);
    uint64_t elapsed = kernel.clock().NowNs() - before;
    state.SetIterationTime(static_cast<double>(elapsed) * 1e-9);
  }
}

void CreateUnlinkOp(kernel::Kernel& kernel, kernel::Process& proc, const std::string& dir,
                    int i) {
  std::string path = dir + "/micro-" + std::to_string(i);
  auto fd = kernel.Open(proc, path, kernel::kOWrOnly | kernel::kOCreat, 0644);
  if (fd.ok()) {
    (void)kernel.Close(proc, fd.value());
    (void)kernel.Unlink(proc, path);
  }
}

void StatColdOp(kernel::Kernel& kernel, kernel::Process& proc, const std::string& dir,
                int /*i*/) {
  static bool created = false;
  std::string path = dir + "/stat-target";
  if (!created) {
    auto fd = kernel.Open(proc, path, kernel::kOWrOnly | kernel::kOCreat, 0644);
    if (fd.ok()) {
      (void)kernel.Close(proc, fd.value());
    }
    created = true;
  }
  kernel.dcache().Clear();  // force the lookup every iteration
  (void)kernel.Stat(proc, path);
}

// 4KB pwrite against one long-lived fd. The fd is opened once per run and
// closed at the end; a failed open skips the benchmark instead of silently
// timing a no-op against fd -1.
void RunWrite4kBench(benchmark::State& state, bool through_cntr) {
  HarnessOptions opts;
  auto side = through_cntr ? BenchSide::MakeCntrFs(opts) : BenchSide::MakeNative(opts);
  if (!side.ok()) {
    state.SkipWithError("side setup failed");
    return;
  }
  kernel::Kernel& kernel = (*side)->kernel();
  auto proc = kernel.Fork(*kernel.init(), "micro");
  std::string dir = through_cntr ? "/cntrmnt/data/bench" : "/data/bench";
  auto opened = kernel.Open(*proc, dir + "/write-target", kernel::kOWrOnly | kernel::kOCreat,
                            0644);
  if (!opened.ok()) {
    state.SkipWithError(("open failed: " + opened.status().ToString()).c_str());
    return;
  }
  kernel::Fd fd = opened.value();
  char buf[4096] = {};
  int i = 0;
  for (auto _ : state) {
    uint64_t before = kernel.clock().NowNs();
    (void)kernel.Pwrite(*proc, fd, buf, sizeof(buf), static_cast<uint64_t>(i++ % 1024) * 4096);
    uint64_t elapsed = kernel.clock().NowNs() - before;
    state.SetIterationTime(static_cast<double>(elapsed) * 1e-9);
  }
  (void)kernel.Close(*proc, fd);
}

// Cold readdir + stat-every-child of a K-entry directory: the metadata walk
// behind compilebench-read (13.3x) and postmark (7.1x). With READDIRPLUS the
// listing and all child attributes arrive in ⌈K/batch⌉ requests; without it
// every child pays its own LOOKUP round trip.
constexpr int kWalkFiles = 256;

void RunColdWalkBench(benchmark::State& state, bool through_cntr, bool readdirplus) {
  HarnessOptions opts;
  opts.fuse.readdirplus = readdirplus;
  auto side = through_cntr ? BenchSide::MakeCntrFs(opts) : BenchSide::MakeNative(opts);
  if (!side.ok()) {
    state.SkipWithError("side setup failed");
    return;
  }
  kernel::Kernel& kernel = (*side)->kernel();
  auto proc = kernel.Fork(*kernel.init(), "micro");
  std::string dir = (through_cntr ? std::string("/cntrmnt") : std::string("")) +
                    "/data/bench/walk";
  if (!kernel.Mkdir(*proc, dir, 0755).ok()) {
    state.SkipWithError("mkdir failed");
    return;
  }
  for (int i = 0; i < kWalkFiles; ++i) {
    auto fd = kernel.Open(*proc, dir + "/f" + std::to_string(i),
                          kernel::kOWrOnly | kernel::kOCreat, 0644);
    if (!fd.ok()) {
      state.SkipWithError("file setup failed");
      return;
    }
    (void)kernel.Close(*proc, fd.value());
  }
  for (auto _ : state) {
    kernel.dcache().Clear();  // cold tree: every dentry is gone
    uint64_t before = kernel.clock().NowNs();
    auto dfd = kernel.Open(*proc, dir, kernel::kORdOnly | kernel::kODirectory);
    if (!dfd.ok()) {
      state.SkipWithError("opendir failed");
      return;
    }
    auto entries = kernel.Getdents(*proc, dfd.value());
    (void)kernel.Close(*proc, dfd.value());
    if (!entries.ok()) {
      state.SkipWithError("getdents failed");
      return;
    }
    for (const auto& entry : entries.value()) {
      if (entry.name == "." || entry.name == "..") {
        continue;
      }
      (void)kernel.Stat(*proc, dir + "/" + entry.name);
    }
    uint64_t elapsed = kernel.clock().NowNs() - before;
    state.SetIterationTime(static_cast<double>(elapsed) * 1e-9);
  }
  state.counters["files"] = kWalkFiles;
}

// Wall-clock cost of one clean-page insert into a full single-shard pool
// whose cold end holds state.range(0) dirty pages: each insert evicts the
// coldest clean page, which sits behind that pinned run. With
// kMaxPinnedRun dirty pages this is the most an eviction can pass over
// and still find a victim.
void BM_PageCacheInsertUnderDirtyPressure(benchmark::State& state) {
  constexpr uint64_t kCapacityPages = 1024;
  SimClock clock;
  CostModel costs;
  kernel::PageCachePool pool(&clock, &costs, kCapacityPages * kernel::kPageSize, 1);
  const uint64_t dirty_run = static_cast<uint64_t>(state.range(0));
  int dirty_owner = 0;
  int clean_owner = 0;
  char page[kernel::kPageSize] = {};
  for (uint64_t i = 0; i < dirty_run; ++i) {
    pool.StorePage(&dirty_owner, i, page, /*dirty=*/true);
  }
  uint64_t idx = 0;
  while (pool.ResidentBytes() < pool.capacity_bytes()) {
    pool.StorePage(&clean_owner, idx++, page, /*dirty=*/false);
  }
  uint64_t evictions_before = pool.stats().evictions;
  for (auto _ : state) {
    benchmark::DoNotOptimize(pool.StorePage(&clean_owner, idx++, page, /*dirty=*/false));
  }
  if (pool.stats().evictions - evictions_before !=
      static_cast<uint64_t>(state.iterations())) {
    state.SkipWithError("an insert did not evict exactly one page");
  }
  state.counters["dirty_run"] = static_cast<double>(dirty_run);
}

void BM_CreateUnlink_Native(benchmark::State& state) {
  RunOpBench(state, false, CreateUnlinkOp);
}
void BM_CreateUnlink_CntrFs(benchmark::State& state) {
  RunOpBench(state, true, CreateUnlinkOp);
}
void BM_StatCold_Native(benchmark::State& state) { RunOpBench(state, false, StatColdOp); }
void BM_StatCold_CntrFs(benchmark::State& state) { RunOpBench(state, true, StatColdOp); }
void BM_Write4k_Native(benchmark::State& state) { RunWrite4kBench(state, false); }
void BM_Write4k_CntrFs(benchmark::State& state) { RunWrite4kBench(state, true); }
void BM_ColdTreeWalk_Native(benchmark::State& state) {
  RunColdWalkBench(state, false, /*readdirplus=*/false);
}
void BM_ColdTreeWalk_CntrFs(benchmark::State& state) {
  RunColdWalkBench(state, true, /*readdirplus=*/true);
}
void BM_ColdTreeWalk_CntrFsNoReaddirPlus(benchmark::State& state) {
  RunColdWalkBench(state, true, /*readdirplus=*/false);
}

}  // namespace

BENCHMARK(BM_CreateUnlink_Native)->UseManualTime()->Iterations(2000);
BENCHMARK(BM_CreateUnlink_CntrFs)->UseManualTime()->Iterations(2000);
BENCHMARK(BM_StatCold_Native)->UseManualTime()->Iterations(2000);
BENCHMARK(BM_StatCold_CntrFs)->UseManualTime()->Iterations(2000);
BENCHMARK(BM_Write4k_Native)->UseManualTime()->Iterations(2000);
BENCHMARK(BM_Write4k_CntrFs)->UseManualTime()->Iterations(2000);
BENCHMARK(BM_ColdTreeWalk_Native)->UseManualTime()->Iterations(50);
BENCHMARK(BM_ColdTreeWalk_CntrFs)->UseManualTime()->Iterations(50);
BENCHMARK(BM_ColdTreeWalk_CntrFsNoReaddirPlus)->UseManualTime()->Iterations(50);
BENCHMARK(BM_PageCacheInsertUnderDirtyPressure)
    ->Arg(0)
    ->Arg(cntr::kernel::PageCachePool::kMaxPinnedRun);

BENCHMARK_MAIN();
