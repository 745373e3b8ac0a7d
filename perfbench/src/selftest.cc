#include "perfbench/src/selftest.h"

#include <cstdio>
#include <numeric>
#include <vector>

#include "perfbench/src/inputs.h"
#include "perfbench/src/report.h"
#include "perfbench/src/testbed.h"

namespace perfbench {

namespace {

int g_failures = 0;

void Check(bool ok, const char* what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) {
    ++g_failures;
  }
}

std::vector<uint64_t> Iota(uint64_t n) {
  std::vector<uint64_t> v(n);
  std::iota(v.begin(), v.end(), 1);
  return v;
}

void TestPercentiles() {
  Check(NearestRank(Iota(4), 1, 2) == 2, "median of 1..4 is rank 2");
  Check(NearestRank(Iota(5), 1, 2) == 3, "median of 1..5 is rank 3");
  Check(NearestRank(Iota(1), 1, 2) == 1, "median of one sample");

  TailPercentile t = TailAt(Iota(1000), 99, 10);
  Check(t.valid && t.value == 990 && t.pct == 99.0 && t.beyond == 10 && t.samples == 1000,
        "p99 of 1000 samples has 10 beyond it");
  t = TailAt(Iota(2000), 99, 10);
  Check(t.valid && t.value == 1980 && t.pct == 99.0 && t.beyond == 20, "p99 of 2000 samples");
  t = TailAt(Iota(500), 99, 10);
  Check(t.valid && t.value == 490 && t.pct == 98.0 && t.beyond == 10,
        "500 samples fall back to p98 (10 beyond)");
  t = TailAt(Iota(11), 99, 10);
  Check(t.valid && t.value == 1 && t.beyond == 10, "11 samples: lowest rank, 10 beyond");
  t = TailAt(Iota(10), 99, 10);
  Check(!t.valid && t.samples == 10, "10 samples: no percentile has 10 beyond");
}

void TestFailureAccounting() {
  auto kernel = cntr::kernel::Kernel::Create(PinnedKernelConfig());
  Client c(kernel.get(), kernel->Fork(*kernel->init(), "t"), nullptr);
  c.RunSlice(Client::kUntraced, [&] {
    (void)c.Open("/no/such/file", cntr::kernel::kORdOnly);
    (void)c.Stat("/");
    c.Mismatch();
    (void)c.Stat("/tmp");
  });
  const OpLog& log = c.log(Client::kUntraced);
  Check(log.attempted == 3, "every op counts as attempted");
  Check(log.failed == 2 && log.mismatches == 1, "an errno and a mismatch both count as failed");
  Check(log.virt_ns.size() == 2 && log.wall_ns.size() == 2,
        "latency samples only from ops that returned success");
  Check(log.error_rate() == 2.0 / 3.0, "error_rate = failed / attempted");
  Check(c.virt_ns(Client::kUntraced) == log.SysVirtNs(), "lane time = syscall time (bare kernel)");

  OpLog merged;
  merged.Merge(log);
  merged.Merge(log);
  Check(merged.attempted == 6 && merged.failed == 4 && merged.virt_ns.size() == 4,
        "merging logs adds counts and samples");
}

void TestVerification() {
  StampedBlocks blocks(1, 4096, 2);
  std::vector<char> copy(4096);
  const char* data = blocks.Prepare(1, 3, 5, 7);
  std::copy(data, data + 4096, copy.begin());
  Check(blocks.Verify(copy.data(), copy.size(), 1, 3, 5, 7), "a stamped block verifies");
  Check(!blocks.Verify(copy.data(), copy.size(), 1, 3, 5, 6), "a stale version is caught");
  Check(!blocks.Verify(copy.data(), copy.size(), 1, 3, 4, 7), "a wrong offset is caught");
  Check(!blocks.Verify(copy.data(), copy.size(), 0, 3, 5, 7), "a wrong body is caught");
  Check(!blocks.Verify(copy.data(), 4095, 1, 3, 5, 7), "a short read is caught");
  copy[2048] ^= 1;
  Check(!blocks.Verify(copy.data(), copy.size(), 1, 3, 5, 7), "a flipped bit is caught");

  const ToolTree a = MakeToolTree(42);
  const ToolTree b = MakeToolTree(42);
  const ToolTree other = MakeToolTree(43);
  Check(a.total_bytes == b.total_bytes && a.files.size() == b.files.size() &&
            a.files.back().path == b.files.back().path,
        "one seed gives one tree");
  Check(a.files.back().path != other.files.back().path, "another seed gives another tree");
}

struct ToolRun {
  std::vector<uint64_t> virt_ns;
  uint64_t lane_ns = 0;
  uint64_t syscall_ns = 0;
  uint64_t mismatches = 0;
  uint64_t failed = 0;
};

ToolRun RunTool(bool traced, int rounds) {
  ToolRun out;
  Tracer tracer;
  auto w = MakeWorkload("tool_start", 9);
  const cntr::Status st = w->Setup(traced ? &tracer : nullptr);
  if (!st.ok()) {
    std::printf("set-up failed: %s\n", st.ToString().c_str());
    out.failed = 1;
    return out;
  }
  const size_t mode = traced ? Client::kTraced : Client::kUntraced;
  tracer.SetOn(traced);
  for (int i = 0; i < rounds; ++i) {
    w->RunSlice(mode);
  }
  tracer.SetOn(false);
  const Client& c = *w->clients()[0];
  out.virt_ns = c.log(mode).virt_ns;
  out.lane_ns = c.virt_ns(mode);
  out.syscall_ns = c.log(mode).SysVirtNs();
  out.mismatches = c.log(mode).mismatches;
  out.failed = c.log(mode).failed;
  if (traced) {
    Check(tracer.span_count() > out.virt_ns.size(), "traced run recorded client and handler spans");
  }
  return out;
}

void TestToolStartInvariants() {
  const ToolRun plain = RunTool(false, 2);
  const ToolRun traced = RunTool(true, 2);
  Check(plain.failed == 0 && traced.failed == 0 && plain.mismatches == 0,
        "tool_start runs without failures");
  Check(plain.lane_ns == plain.syscall_ns, "untraced: client lane time = sum of syscall time");
  Check(traced.lane_ns == traced.syscall_ns, "traced: client lane time = sum of syscall time");
  Check(plain.lane_ns == traced.lane_ns, "traced and untraced lane time are identical");
  Check(plain.virt_ns == traced.virt_ns, "traced and untraced op latencies are identical");
  if (plain.lane_ns != traced.lane_ns || plain.lane_ns != plain.syscall_ns) {
    std::printf("  lane untraced=%llu traced=%llu syscalls untraced=%llu traced=%llu\n",
                static_cast<unsigned long long>(plain.lane_ns),
                static_cast<unsigned long long>(traced.lane_ns),
                static_cast<unsigned long long>(plain.syscall_ns),
                static_cast<unsigned long long>(traced.syscall_ns));
  }
}

}  // namespace

int RunSelfTests() {
  TestPercentiles();
  TestFailureAccounting();
  TestVerification();
  TestToolStartInvariants();
  std::printf("%d failure(s)\n", g_failures);
  return g_failures == 0 ? 0 : 1;
}

}  // namespace perfbench
