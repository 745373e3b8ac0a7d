// Per-request tracing tests: span phase math, spans under the wakeup and
// ring cost profiles (including out-of-order ring completion), outcome tagging,
// the tracing kill switch, the slow-request log's level gate and rate limit,
// the /proc/cntr/metrics exposition, and torn-free FuseConn::stats() reads
// under concurrent traffic.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/fuse/fuse_conn.h"
#include "src/kernel/kernel.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/util/logging.h"

namespace cntr::obs {
namespace {

using cntr::CostModel;
using cntr::SimClock;
using fuse::FuseConn;
using fuse::FuseOpcode;
using fuse::FuseReply;
using fuse::FuseRequest;
using fuse::kFuseRootId;

FuseRequest GetattrFrom(kernel::Pid pid) {
  FuseRequest req;
  req.opcode = FuseOpcode::kGetattr;
  req.nodeid = kFuseRootId;
  req.pid = pid;
  return req;
}

// Restores the global tracing gate on scope exit so a failing test cannot
// leak a disabled plane into its siblings.
class TracingGuard {
 public:
  explicit TracingGuard(bool enabled) : old_(TracingEnabled()) {
    SetTracingEnabled(enabled);
  }
  ~TracingGuard() { SetTracingEnabled(old_); }

 private:
  bool old_;
};

Histogram::Snapshot PhaseSnap(MetricsRegistry* reg, const std::string& mount,
                              const char* op, const char* phase) {
  return reg
      ->GetHistogram("cntr_fuse_request_ns",
                     {{"mount", mount}, {"op", op}, {"phase", phase}})
      ->Snap();
}

uint64_t OutcomeCount(MetricsRegistry* reg, const std::string& mount, const char* op,
                      const char* outcome) {
  return reg
      ->GetCounter("cntr_fuse_requests_total",
                   {{"mount", mount}, {"op", op}, {"outcome", outcome}})
      ->Value();
}

// --- Phase math on hand-stamped spans (fully deterministic). ---

TEST(BreakdownTest, FullSpanYieldsAllPhases) {
  TraceSpan span;
  span.enqueue_ns = 100;
  span.reap_ns.store(150);
  span.dispatch_ns.store(160);
  span.reply_ns.store(200);
  SpanBreakdown b = Breakdown(span, /*wake_ns=*/230);
  EXPECT_EQ(b.total_ns, 130u);
  EXPECT_EQ(b.queue_ns, 50u);
  EXPECT_EQ(b.service_ns, 40u);
  EXPECT_EQ(b.transit_ns, 30u);
}

TEST(BreakdownTest, MissingStampsClampToZero) {
  // A request resolved out from under the server (timeout/abort): only the
  // enqueue stamp exists. Phases collapse to zero instead of wrapping.
  TraceSpan span;
  span.enqueue_ns = 1000;
  SpanBreakdown b = Breakdown(span, /*wake_ns=*/5000);
  EXPECT_EQ(b.total_ns, 4000u);
  EXPECT_EQ(b.queue_ns, 0u);
  EXPECT_EQ(b.service_ns, 0u);
  EXPECT_EQ(b.transit_ns, 0u);

  // Reaped and dispatched but never replied: service and transit stay zero.
  span.reap_ns.store(1500);
  span.dispatch_ns.store(1600);
  b = Breakdown(span, 5000);
  EXPECT_EQ(b.queue_ns, 500u);
  EXPECT_EQ(b.service_ns, 0u);
  EXPECT_EQ(b.transit_ns, 0u);
}

TEST(BreakdownTest, BackwardsWakeClampsTotal) {
  TraceSpan span;
  span.enqueue_ns = 500;
  EXPECT_EQ(Breakdown(span, /*wake_ns=*/400).total_ns, 0u);
}

TEST(TraceTest, MakeSpanHonoursTheKillSwitch) {
  {
    TracingGuard on(true);
    SpanPtr span = MakeSpan(42);
    ASSERT_NE(span, nullptr);
    EXPECT_EQ(span->enqueue_ns, 42u);
  }
  {
    TracingGuard off(false);
    EXPECT_EQ(MakeSpan(42), nullptr);
  }
}

// --- Spans across the legacy wakeup transport. ---

TEST(TraceTransportTest, LegacyRoundTripLandsPhaseHistograms) {
  MetricsRegistry reg;
  SimClock clock;
  CostModel costs;
  FuseConn conn(&clock, &costs, 1, nullptr, &reg);
  const std::string mount = conn.mount_label();

  std::thread client([&] {
    auto reply = conn.SendAndWait(GetattrFrom(7));
    EXPECT_TRUE(reply.ok());
  });
  auto req = conn.ReadRequest();
  ASSERT_TRUE(req.has_value());
  ASSERT_NE(req->span, nullptr) << "tracing on: the request must carry a span";
  conn.WriteReply(req->unique, FuseReply{});
  client.join();

  for (const char* phase : {"total", "queue", "service", "transit"}) {
    EXPECT_EQ(PhaseSnap(&reg, mount, "GETATTR", phase).count, 1u) << phase;
  }
  // The wakeup cost profile charges virtual time, so the round trip is
  // strictly positive and at least as long as any single phase.
  Histogram::Snapshot total = PhaseSnap(&reg, mount, "GETATTR", "total");
  EXPECT_GT(total.sum, 0u);
  for (const char* phase : {"queue", "service", "transit"}) {
    EXPECT_LE(PhaseSnap(&reg, mount, "GETATTR", phase).sum, total.sum) << phase;
  }
  EXPECT_EQ(OutcomeCount(&reg, mount, "GETATTR", "ok"), 1u);
  conn.Abort();
}

TEST(TraceTransportTest, ErrnoRepliesTagTheErrorOutcome) {
  MetricsRegistry reg;
  SimClock clock;
  CostModel costs;
  FuseConn conn(&clock, &costs, 1, nullptr, &reg);

  std::thread client([&] {
    auto reply = conn.SendAndWait(GetattrFrom(9));
    ASSERT_FALSE(reply.ok()) << "errno replies surface as a Status";
    EXPECT_EQ(reply.status().error(), ENOENT);
  });
  auto req = conn.ReadRequest();
  ASSERT_TRUE(req.has_value());
  FuseReply reply;
  reply.error = ENOENT;
  conn.WriteReply(req->unique, std::move(reply));
  client.join();

  EXPECT_EQ(OutcomeCount(&reg, conn.mount_label(), "GETATTR", "error"), 1u);
  EXPECT_EQ(OutcomeCount(&reg, conn.mount_label(), "GETATTR", "ok"), 0u);
  conn.Abort();
}

TEST(TraceTransportTest, AbortUnderTheWaiterTagsTheAbortOutcome) {
  MetricsRegistry reg;
  SimClock clock;
  CostModel costs;
  FuseConn conn(&clock, &costs, 1, nullptr, &reg);

  std::thread client([&] {
    auto reply = conn.SendAndWait(GetattrFrom(11));
    EXPECT_FALSE(reply.ok());
  });
  auto req = conn.ReadRequest();
  ASSERT_TRUE(req.has_value());
  conn.Abort();  // die with the request in the server's hands
  client.join();

  EXPECT_EQ(OutcomeCount(&reg, conn.mount_label(), "GETATTR", "abort"), 1u);
}

TEST(TraceTransportTest, TracingOffSkipsHistogramsButNotOutcomes) {
  TracingGuard off(false);
  MetricsRegistry reg;
  SimClock clock;
  CostModel costs;
  FuseConn conn(&clock, &costs, 1, nullptr, &reg);

  std::thread client([&] { (void)conn.SendAndWait(GetattrFrom(13)); });
  auto req = conn.ReadRequest();
  ASSERT_TRUE(req.has_value());
  EXPECT_EQ(req->span, nullptr);
  conn.WriteReply(req->unique, FuseReply{});
  client.join();

  EXPECT_EQ(PhaseSnap(&reg, conn.mount_label(), "GETATTR", "total").count, 0u)
      << "no span, no histogram sample";
  EXPECT_EQ(OutcomeCount(&reg, conn.mount_label(), "GETATTR", "ok"), 1u)
      << "plain counters keep working with tracing off";
  conn.Abort();
}

// --- Spans across the ring transport, completions out of order. ---

TEST(TraceTransportTest, RingOutOfOrderCompletionKeepsSpansStraight) {
  MetricsRegistry reg;
  SimClock clock;
  CostModel costs;
  FuseConn conn(&clock, &costs, 1, nullptr, &reg);
  ASSERT_GT(conn.ConfigureRing(64), 0u);
  const std::string mount = conn.mount_label();

  constexpr int kClients = 4;
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      auto reply = conn.SendAndWait(GetattrFrom(100 + c));
      EXPECT_TRUE(reply.ok());
    });
  }
  // Collect every request before answering, then complete in reverse
  // submission order: each waiter's wake pairs with its own span.
  std::vector<FuseRequest> pending;
  while (pending.size() < kClients) {
    std::vector<FuseRequest> batch = conn.ReadRequestBatch(0);
    ASSERT_FALSE(batch.empty());
    for (FuseRequest& req : batch) {
      ASSERT_NE(req.span, nullptr);
      EXPECT_NE(req.span->reap_ns.load(), 0u) << "reap stamped at ring claim";
      pending.push_back(std::move(req));
    }
  }
  for (auto it = pending.rbegin(); it != pending.rend(); ++it) {
    conn.WriteReply(it->unique, FuseReply{});
  }
  for (auto& t : clients) {
    t.join();
  }

  EXPECT_EQ(OutcomeCount(&reg, mount, "GETATTR", "ok"), static_cast<uint64_t>(kClients));
  for (const char* phase : {"total", "queue", "service", "transit"}) {
    Histogram::Snapshot snap = PhaseSnap(&reg, mount, "GETATTR", phase);
    EXPECT_EQ(snap.count, static_cast<uint64_t>(kClients)) << phase;
    EXPECT_LE(snap.Quantile(0.50), snap.Quantile(0.95)) << phase;
    EXPECT_LE(snap.Quantile(0.95), snap.Quantile(0.99)) << phase;
  }
  // Every request went out un-spliced: the path counter says copied.
  EXPECT_EQ(reg.GetCounter("cntr_fuse_payloads_total",
                           {{"mount", mount}, {"op", "GETATTR"}, {"path", "copied"}})
                ->Value(),
            static_cast<uint64_t>(kClients));
  conn.Abort();
}

// --- The slow-request log: level-gated and rate-limited. ---

TEST(SlowRequestLogTest, RespectsTheLogLevelGate) {
  MetricsRegistry reg;
  RequestMetrics rm(&reg, "m0", nullptr);
  rm.SetSlowThresholdNs(1);

  TraceSpan span;
  span.enqueue_ns = 100;
  span.reply_ns.store(150);

  SetGlobalLogLevel(LogLevel::kOff);
  testing::internal::CaptureStderr();
  for (int i = 0; i < 5; ++i) {
    rm.RecordRequest(/*opcode=*/3, &span, /*wake_ns=*/100000, Outcome::kOk, false);
  }
  EXPECT_EQ(testing::internal::GetCapturedStderr(), "")
      << "a silenced build must not emit slow-request lines";
  SetGlobalLogLevel(LogLevel::kWarn);
}

TEST(SlowRequestLogTest, EmitsRateLimitedWarnings) {
  MetricsRegistry reg;
  RequestMetrics rm(&reg, "m0", nullptr);
  rm.SetSlowThresholdNs(1);

  TraceSpan span;
  span.enqueue_ns = 100;
  span.reply_ns.store(150);

  SetGlobalLogLevel(LogLevel::kWarn);
  testing::internal::CaptureStderr();
  // Far past the limiter's per-second budget (10): the storm must collapse
  // to at most the budget's worth of lines.
  for (int i = 0; i < 200; ++i) {
    rm.RecordRequest(/*opcode=*/3, &span, /*wake_ns=*/100000, Outcome::kOk, false);
  }
  std::string err = testing::internal::GetCapturedStderr();
  size_t lines = 0;
  for (size_t pos = 0; (pos = err.find("slow request:", pos)) != std::string::npos;
       ++pos) {
    ++lines;
  }
  EXPECT_GE(lines, 1u) << err;
  EXPECT_LE(lines, 20u) << "the rate limiter must swallow the storm";
}

TEST(SlowRequestLogTest, ThresholdZeroDisables) {
  MetricsRegistry reg;
  RequestMetrics rm(&reg, "m0", nullptr);
  ASSERT_EQ(rm.slow_threshold_ns(), 0u) << "no env override: disabled by default";

  TraceSpan span;
  span.enqueue_ns = 100;
  testing::internal::CaptureStderr();
  rm.RecordRequest(/*opcode=*/3, &span, /*wake_ns=*/1'000'000'000, Outcome::kOk, false);
  EXPECT_EQ(testing::internal::GetCapturedStderr(), "");
}

// --- /proc/cntr/metrics: the registry through the simulated procfs. ---

std::string ReadAll(kernel::Kernel& k, kernel::Process& proc, const std::string& path) {
  auto fd = k.Open(proc, path, kernel::kORdOnly);
  EXPECT_TRUE(fd.ok()) << path << ": " << fd.status().ToString();
  if (!fd.ok()) {
    return "";
  }
  std::string out;
  char buf[4096];
  while (true) {
    auto n = k.Read(proc, fd.value(), buf, sizeof(buf));
    EXPECT_TRUE(n.ok());
    if (!n.ok() || n.value() == 0) {
      break;
    }
    out.append(buf, n.value());
  }
  (void)k.Close(proc, fd.value());
  return out;
}

TEST(ProcfsMetricsTest, RendersTheKernelRegistry) {
  auto k = kernel::Kernel::Create();
  auto init = k->init();

  std::string text = ReadAll(*k, *init, "/proc/cntr/metrics");
  ASSERT_FALSE(text.empty());
  // Kernel-subsystem gauges registered at construction.
  EXPECT_NE(text.find("# TYPE cntr_page_cache_hits gauge"), std::string::npos) << text;
  EXPECT_NE(text.find("cntr_dcache_entries"), std::string::npos);
  EXPECT_NE(text.find("cntr_disk_read_ops"), std::string::npos);
  EXPECT_NE(text.find("cntr_splice_spliced_pages"), std::string::npos);
  EXPECT_NE(text.find("cntr_fault_hits"), std::string::npos);

  // The file is a live view: instruments added later show on the next read.
  k->metrics().GetCounter("cntr_probe_total", {{"mount", "m0"}})->Add(5);
  text = ReadAll(*k, *init, "/proc/cntr/metrics");
  EXPECT_NE(text.find("cntr_probe_total{mount=\"m0\"} 5"), std::string::npos);
}

TEST(ProcfsMetricsTest, DirectoryListsTheMetricsFile) {
  auto k = kernel::Kernel::Create();
  auto init = k->init();
  auto st = k->Stat(*init, "/proc/cntr/metrics");
  EXPECT_TRUE(st.ok()) << st.status().ToString();
  auto dir = k->Open(*init, "/proc/cntr", kernel::kORdOnly);
  ASSERT_TRUE(dir.ok()) << dir.status().ToString();
  auto entries = k->Getdents(*init, dir.value());
  ASSERT_TRUE(entries.ok()) << entries.status().ToString();
  bool found = false;
  for (const auto& e : entries.value()) {
    found = found || e.name == "metrics";
  }
  EXPECT_TRUE(found);
  (void)k->Close(*init, dir.value());
}

// --- FuseConn::stats() under fire: every field is an instrument read, so a
// concurrent snapshot can never tear. (TSan is the real assertion here.) ---

TEST(StatsConsistencyTest, ConcurrentSnapshotsUnderTraffic) {
  MetricsRegistry reg;
  SimClock clock;
  CostModel costs;
  FuseConn conn(&clock, &costs, 2, nullptr, &reg);

  constexpr int kClients = 4;
  constexpr int kPerClient = 64;
  std::atomic<bool> done{false};

  // One worker per channel, each draining its own queue until the abort
  // empties it — the shape the real server runs.
  std::vector<std::thread> servers;
  for (size_t ch = 0; ch < 2; ++ch) {
    servers.emplace_back([&, ch] {
      while (true) {
        std::vector<FuseRequest> batch = conn.ReadRequestBatch(ch, /*max_batch=*/8);
        if (batch.empty()) {
          return;  // aborted and drained
        }
        for (FuseRequest& req : batch) {
          conn.WriteReply(req.unique, FuseReply{});
        }
      }
    });
  }
  std::thread reader([&] {
    // Cross-counter skew is inherent to lock-free aggregation, but each
    // counter must read clean and monotonic — a torn read would show up as
    // a wild value going backwards. (TSan is the sharper assertion here.)
    uint64_t last_requests = 0;
    uint64_t last_replies = 0;
    while (!done.load()) {
      FuseConn::Stats s = conn.stats();
      EXPECT_GE(s.requests, last_requests);
      EXPECT_GE(s.replies, last_replies);
      EXPECT_LE(s.requests, static_cast<uint64_t>(kClients) * kPerClient);
      last_requests = s.requests;
      last_replies = s.replies;
    }
  });
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < kPerClient; ++i) {
        auto reply = conn.SendAndWait(GetattrFrom(500 + c));
        EXPECT_TRUE(reply.ok());
      }
    });
  }
  for (auto& t : clients) {
    t.join();
  }
  done.store(true);
  reader.join();
  conn.Abort();
  for (auto& t : servers) {
    t.join();
  }

  FuseConn::Stats s = conn.stats();
  EXPECT_EQ(s.requests, static_cast<uint64_t>(kClients) * kPerClient);
  EXPECT_EQ(s.replies, static_cast<uint64_t>(kClients) * kPerClient);
}

}  // namespace
}  // namespace cntr::obs
