// Submission-ring transport tests: negotiation and fallback, out-of-order
// completion to the right waiters, SQ-full backpressure vs. the admission
// gate, FORGET ordering across a reap boundary, interrupt and deadline
// expiry of ring-resident requests, abort with entries in flight, multi-reap
// batch accounting, the exact charges of both cost profiles, submission-queue
// polling (its adaptive window, closed-loop hits, lost doorbells, abort), the
// paper-era timeline pinned to golden values, splice payloads over rings,
// and the ring fault points degrading cleanly.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "src/core/cntrfs.h"
#include "src/fuse/fuse_conn.h"
#include "src/fuse/fuse_mount.h"
#include "src/fuse/fuse_server.h"
#include "src/kernel/kernel.h"

namespace cntr::fuse {
namespace {

// A pid that routes to channel `want` (pid hashing is sticky, so picking
// pids is picking channels).
kernel::Pid PidOnChannel(const FuseConn& conn, size_t want, kernel::Pid not_before = 1) {
  for (kernel::Pid pid = not_before;; ++pid) {
    if (conn.RouteChannel(pid) == want) {
      return pid;
    }
  }
}

FuseRequest GetattrFrom(kernel::Pid pid) {
  FuseRequest req;
  req.opcode = FuseOpcode::kGetattr;
  req.nodeid = kFuseRootId;
  req.pid = pid;
  return req;
}

FuseRequest ForgetFrom(kernel::Pid pid) {
  FuseRequest req;
  req.opcode = FuseOpcode::kForget;
  req.pid = pid;
  req.forgets.push_back(FuseRequest::Forget{7, 1});
  return req;
}

// --- conn-level: the ring protocol itself ---

TEST(RingTransportTest, ConfigureRingClampsAndIsOneShot) {
  SimClock clock;
  CostModel costs;
  {
    FuseConn conn(&clock, &costs, 2);
    EXPECT_EQ(conn.profile(), TransportProfile::kWakeup);
    EXPECT_EQ(conn.ring_depth(), kDefaultRingDepth);
    // Depth rounds up to a power of two within [kMinRingDepth, kMaxRingDepth].
    EXPECT_EQ(conn.ConfigureRing(10), 16u);
    EXPECT_EQ(conn.profile(), TransportProfile::kRing);
    EXPECT_EQ(conn.ring_depth(), 16u);
    // Already enabled: the switch is one-shot, the current depth sticks.
    EXPECT_EQ(conn.ConfigureRing(256), 16u);
    conn.Abort();
  }
  {
    FuseConn conn(&clock, &costs, 1);
    EXPECT_EQ(conn.ConfigureRing(1), kMinRingDepth);
    EXPECT_EQ(conn.ConfigureRing(1 << 20), kMinRingDepth)
        << "second switch refused: the established depth sticks";
    EXPECT_EQ(conn.ring_depth(), kMinRingDepth);
    conn.Abort();
  }
}

// The two cost profiles, charge by charge, on a raw connection with four
// server threads homed on its one channel (the paper's Figure 4 setup).
TEST(RingTransportTest, CostProfilesChargeExactly) {
  SimClock clock;
  CostModel costs;
  FuseConn conn(&clock, &costs, 1);
  for (int i = 0; i < 4; ++i) {
    conn.AddReader(0);
  }
  auto round_trip = [&] {
    std::thread server([&] {
      auto req = conn.ReadRequest(0);
      ASSERT_TRUE(req.has_value());
      conn.WriteReply(req->unique, FuseReply{});
    });
    uint64_t before = clock.NowNs();
    EXPECT_TRUE(conn.SendAndWait(GetattrFrom(7)).ok());
    server.join();
    return clock.NowNs() - before;
  };
  auto forget = [&] {
    uint64_t before = clock.NowNs();
    conn.SendNoReply(ForgetFrom(7));
    uint64_t spent = clock.NowNs() - before;
    EXPECT_EQ(conn.ReadRequest(0)->opcode, FuseOpcode::kForget);
    return spent;
  };

  // Wakeup profile: one round trip plus the premium of the three extra
  // readers; a FORGET pays half a round trip.
  ASSERT_EQ(conn.profile(), TransportProfile::kWakeup);
  EXPECT_EQ(round_trip(), costs.fuse_round_trip_ns + 3 * costs.fuse_thread_contention_ns);
  EXPECT_EQ(forget(), costs.fuse_round_trip_ns / 2);

  // Ring profile: SQE + doorbell + CQE, no premium; a FORGET is one SQE.
  ASSERT_EQ(conn.ConfigureRing(kDefaultRingDepth), kDefaultRingDepth);
  EXPECT_EQ(round_trip(),
            costs.fuse_ring_sqe_ns + costs.fuse_ring_doorbell_ns + costs.fuse_ring_cqe_ns);
  EXPECT_EQ(forget(), costs.fuse_ring_sqe_ns);

  for (int i = 0; i < 4; ++i) {
    conn.RemoveReader(0);
  }
  conn.Abort();
}

TEST(RingTransportTest, OutOfOrderCompletionReachesTheRightWaiters) {
  SimClock clock;
  CostModel costs;
  FuseConn conn(&clock, &costs, 1);
  ASSERT_GT(conn.ConfigureRing(64), 0u);

  constexpr int kClients = 4;
  std::atomic<int> correct{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      kernel::Pid pid = 100 + c;
      auto reply = conn.SendAndWait(GetattrFrom(pid));
      ASSERT_TRUE(reply.ok()) << reply.status().ToString();
      // The server tagged each reply with its request's pid: delivery into
      // the wrong completion slot would surface as a cross-wired tag.
      if (reply->data == std::to_string(pid)) {
        correct.fetch_add(1);
      }
    });
  }
  // Collect all four requests before answering, then reply in reverse
  // submission order: completions land out of order while every waiter is
  // still live.
  std::vector<FuseRequest> pending;
  while (pending.size() < kClients) {
    std::vector<FuseRequest> batch = conn.ReadRequestBatch(0);
    ASSERT_FALSE(batch.empty());
    for (FuseRequest& req : batch) {
      pending.push_back(std::move(req));
    }
  }
  for (auto it = pending.rbegin(); it != pending.rend(); ++it) {
    FuseReply reply;
    reply.data = std::to_string(it->pid);
    conn.WriteReply(it->unique, std::move(reply));
  }
  for (auto& t : clients) {
    t.join();
  }
  EXPECT_EQ(correct.load(), kClients);
  EXPECT_EQ(conn.stats().replies, static_cast<uint64_t>(kClients));
  conn.Abort();
}

TEST(RingTransportTest, SqFullBackpressureBlocksSubmittersUntilTheServerDrains) {
  SimClock clock;
  CostModel costs;
  FuseConn conn(&clock, &costs, 1);
  ASSERT_EQ(conn.ConfigureRing(kMinRingDepth), kMinRingDepth);

  // 3x more concurrent submitters than the ring has slots: the excess must
  // park (bounded waits) and land once the server starts reaping — no
  // errors, no spinning forever, and the overflow is visible in the stats.
  constexpr int kClients = 3 * static_cast<int>(kMinRingDepth);
  std::atomic<int> ok{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      auto reply = conn.SendAndWait(GetattrFrom(200 + c));
      if (reply.ok()) {
        ok.fetch_add(1);
      }
    });
  }
  // Let the ring actually fill before serving.
  while (conn.channel_queue_depth(0) < kMinRingDepth) {
    std::this_thread::yield();
  }
  std::thread server([&] {
    int served = 0;
    while (served < kClients) {
      std::vector<FuseRequest> batch = conn.ReadRequestBatch(0);
      ASSERT_FALSE(batch.empty());
      for (FuseRequest& req : batch) {
        conn.WriteReply(req.unique, FuseReply{});
        ++served;
      }
    }
  });
  for (auto& t : clients) {
    t.join();
  }
  server.join();
  EXPECT_EQ(ok.load(), kClients);
  EXPECT_GE(conn.stats().sq_overflows, 1u)
      << "submitters outnumbered ring slots 3:1; someone must have hit a full ring";
  EXPECT_EQ(conn.stats().admission_waits, 0u);
  conn.Abort();
}

TEST(RingTransportTest, AdmissionGateFiresBeforeTheRingEverFills) {
  SimClock clock;
  CostModel costs;
  FuseConn conn(&clock, &costs, 1);
  ASSERT_GT(conn.ConfigureRing(64), 0u);
  conn.SetMaxBackground(2);  // cap far below the ring depth

  constexpr int kClients = 8;
  std::atomic<int> ok{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      auto reply = conn.SendAndWait(GetattrFrom(300 + c));
      if (reply.ok()) {
        ok.fetch_add(1);
      }
    });
  }
  std::thread server([&] {
    int served = 0;
    while (served < kClients) {
      std::vector<FuseRequest> batch = conn.ReadRequestBatch(0);
      ASSERT_FALSE(batch.empty());
      for (FuseRequest& req : batch) {
        conn.WriteReply(req.unique, FuseReply{});
        ++served;
      }
    }
  });
  for (auto& t : clients) {
    t.join();
  }
  server.join();
  EXPECT_EQ(ok.load(), kClients);
  EXPECT_GE(conn.stats().admission_waits, 1u) << "the gate must have blocked someone";
  EXPECT_EQ(conn.stats().sq_overflows, 0u)
      << "with in-flight capped at 2 the 64-deep ring can never fill";
  conn.Abort();
}

TEST(RingTransportTest, ForgetStaysOrderedBehindLookupAcrossOneReap) {
  SimClock clock;
  CostModel costs;
  FuseConn conn(&clock, &costs, 1);
  ASSERT_GT(conn.ConfigureRing(64), 0u);

  std::thread client([&] {
    FuseRequest lookup;
    lookup.opcode = FuseOpcode::kLookup;
    lookup.nodeid = kFuseRootId;
    lookup.name = "child";
    lookup.pid = 42;
    auto reply = conn.SendAndWait(std::move(lookup));
    EXPECT_TRUE(reply.ok()) << reply.status().ToString();
  });
  while (conn.channel_queue_depth(0) == 0) {
    std::this_thread::yield();
  }
  // The FORGET that balances the LOOKUP, same pid: the SQ is FIFO, so one
  // reap must deliver both in submission order.
  conn.SendNoReply(ForgetFrom(42));
  ASSERT_EQ(conn.channel_queue_depth(0), 2u);

  std::vector<FuseRequest> batch = conn.ReadRequestBatch(0);
  ASSERT_EQ(batch.size(), 2u) << "one reap drains the whole burst";
  EXPECT_EQ(batch[0].opcode, FuseOpcode::kLookup);
  EXPECT_EQ(batch[1].opcode, FuseOpcode::kForget);
  conn.WriteReply(batch[0].unique, FuseReply{});
  client.join();

  auto stats = conn.stats();
  EXPECT_GE(stats.max_reqs_per_reap, 2u);
  EXPECT_GE(stats.reaped_requests, 2u);
  EXPECT_GE(stats.reaps, 1u);
  conn.Abort();
}

TEST(RingTransportTest, InterruptResolvesARingResidentRequest) {
  SimClock clock;
  CostModel costs;
  FuseConn conn(&clock, &costs, 1);
  ASSERT_GT(conn.ConfigureRing(64), 0u);

  std::atomic<int> eintr{0};
  std::thread client([&] {
    auto reply = conn.SendAndWait(GetattrFrom(77));
    if (reply.error() == EINTR) {
      eintr.fetch_add(1);
    }
  });
  while (conn.channel_queue_depth(0) == 0) {
    std::this_thread::yield();
  }
  // Nobody has reaped it: the SQE is still ring-resident. The killed-client
  // path resolves it without the server's help.
  EXPECT_EQ(conn.InterruptPid(77), 1u);
  client.join();
  EXPECT_EQ(eintr.load(), 1);
  EXPECT_GE(conn.stats().interrupts, 1u);
  // The dead SQE is dropped at reap time, not delivered.
  conn.Abort();
  EXPECT_TRUE(conn.ReadRequestBatch(0).empty());
}

TEST(RingTransportTest, DeadlineExpiresARingResidentRequest) {
  SimClock clock;
  CostModel costs;
  FuseConn conn(&clock, &costs, 1);
  ASSERT_GT(conn.ConfigureRing(64), 0u);
  // Tight virtual deadline, short real grace: the sweeper expires the
  // never-served request even though no server thread exists at all.
  conn.SetRequestDeadline(/*virtual_ns=*/50'000, /*real_grace_ms=*/5);

  auto reply = conn.SendAndWait(GetattrFrom(88));
  EXPECT_EQ(reply.error(), ETIMEDOUT);
  EXPECT_GE(conn.stats().timeouts, 1u);
  conn.Abort();
}

TEST(RingTransportTest, AbortWakesRingWaitersOnAllChannels) {
  SimClock clock;
  CostModel costs;
  FuseConn conn(&clock, &costs, 4);
  ASSERT_GT(conn.ConfigureRing(64), 0u);

  std::atomic<int> enotconn{0};
  std::vector<std::thread> clients;
  for (size_t ch = 0; ch < 4; ++ch) {
    kernel::Pid pid = PidOnChannel(conn, ch);
    clients.emplace_back([&, pid] {
      auto reply = conn.SendAndWait(GetattrFrom(pid));
      if (reply.error() == ENOTCONN) {
        enotconn.fetch_add(1);
      }
    });
  }
  for (size_t ch = 0; ch < 4; ++ch) {
    while (conn.channel_queue_depth(ch) == 0) {
      std::this_thread::yield();
    }
  }
  conn.Abort();
  for (auto& t : clients) {
    t.join();
  }
  EXPECT_EQ(enotconn.load(), 4);
  // Post-abort: sends fail fast, the rings are drained, readers exit.
  EXPECT_EQ(conn.SendAndWait(GetattrFrom(1)).error(), ENOTCONN);
  EXPECT_TRUE(conn.ReadRequestBatch(0).empty());
  EXPECT_EQ(conn.lane_bytes_in_flight(), 0u);
}

TEST(RingTransportTest, MultiReapDrainsAForgetBurstInOnePass) {
  SimClock clock;
  CostModel costs;
  FuseConn conn(&clock, &costs, 1);
  ASSERT_GT(conn.ConfigureRing(64), 0u);

  constexpr size_t kBurst = 16;
  for (size_t i = 0; i < kBurst; ++i) {
    conn.SendNoReply(ForgetFrom(9));
  }
  std::vector<FuseRequest> batch = conn.ReadRequestBatch(0);
  EXPECT_EQ(batch.size(), kBurst);
  auto stats = conn.stats();
  EXPECT_GE(stats.max_reqs_per_reap, kBurst);
  EXPECT_GE(stats.reaped_requests, kBurst);
  EXPECT_EQ(conn.stats().forgets, kBurst);
  conn.Abort();
}

// --- submission-queue polling ---

uint64_t ConnCounter(const FuseConn& conn, const char* name) {
  return conn.metrics_registry()->GetCounter(name, {{"mount", conn.mount_label()}})->Value();
}

// A server loop that answers every GETATTR with its nodeid, until the
// connection aborts.
void ServeGetattrs(FuseConn& conn) {
  while (true) {
    std::vector<FuseRequest> batch = conn.ReadRequestBatch(0);
    if (batch.empty()) {
      return;
    }
    for (const FuseRequest& req : batch) {
      FuseReply reply;
      reply.data = std::to_string(req.nodeid);
      conn.WriteReply(req.unique, std::move(reply));
    }
  }
}

FuseRequest GetattrOf(uint64_t nodeid) {
  FuseRequest req = GetattrFrom(5);
  req.nodeid = nodeid;
  return req;
}

TEST(RingTransportTest, SqPollWindowHitRestoresMissHalvesZeroProbesEveryEighth) {
  constexpr uint64_t kFull = SqPollWindow::kFullNs;
  SqPollWindow window;
  EXPECT_EQ(window.Next(), kFull);
  // Each miss halves the window, down to zero.
  uint64_t expect = kFull;
  while (expect != 0) {
    window.Record(false);
    expect /= 2;
    ASSERT_EQ(window.window_ns(), expect);
  }
  // At zero only every 8th post-reply idle probes, with the full window;
  // a probe that misses leaves the window at zero.
  for (int round = 0; round < 2; ++round) {
    for (uint32_t i = 1; i < SqPollWindow::kProbeEvery; ++i) {
      EXPECT_EQ(window.Next(), 0u) << "idle " << i << " of round " << round;
    }
    EXPECT_EQ(window.Next(), kFull);
    window.Record(false);
    EXPECT_EQ(window.window_ns(), 0u);
  }
  // A probe that hits restores the full window.
  for (uint32_t i = 1; i < SqPollWindow::kProbeEvery; ++i) {
    EXPECT_EQ(window.Next(), 0u);
  }
  EXPECT_EQ(window.Next(), kFull);
  window.Record(true);
  EXPECT_EQ(window.Next(), kFull);
  // So does a hit on a shrunken window.
  window.Record(false);
  window.Record(false);
  EXPECT_EQ(window.Next(), kFull / 4);
  window.Record(true);
  EXPECT_EQ(window.Next(), kFull);
}

// One worker, one closed-loop caller: the worker polls after each reply and
// catches the caller's next request without a wakeup. The two hand off so
// that the caller submits while the poll runs, however long the caller's
// path between a reply and its next request is (in a ThreadSanitizer build
// it runs past the window): the worker starts its next read when the
// caller is ready, and the caller sends once it sees the poll (or after
// 2 ms, when the window is at zero and this idle does not probe).
TEST(RingTransportTest, ClosedLoopCallerHitsTheSqPoll) {
  SimClock clock;
  CostModel costs;
  FuseConn conn(&clock, &costs, 1);
  ASSERT_GT(conn.ConfigureRing(64), 0u);
  constexpr uint64_t kRequests = 200;
  std::atomic<uint64_t> ready{0};  // requests the caller is ready to send
  std::thread worker([&] {
    for (uint64_t served = 0;;) {
      while (ready.load() == served && !conn.aborted()) {
      }
      std::vector<FuseRequest> batch = conn.ReadRequestBatch(0);
      if (batch.empty()) {
        return;
      }
      for (const FuseRequest& req : batch) {
        FuseReply reply;
        reply.data = std::to_string(req.nodeid);
        conn.WriteReply(req.unique, std::move(reply));
        ++served;
      }
    }
  });
  uint64_t correct = 0;
  for (uint64_t i = 0; i < kRequests; ++i) {
    ready.fetch_add(1);
    const auto give_up = std::chrono::steady_clock::now() + std::chrono::milliseconds(2);
    while (!conn.sq_polling() && std::chrono::steady_clock::now() < give_up) {
    }
    auto reply = conn.SendAndWait(GetattrOf(1000 + i));
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    correct += reply->data == std::to_string(1000 + i) ? 1 : 0;
  }
  conn.Abort();
  worker.join();
  EXPECT_EQ(correct, kRequests);
  EXPECT_GT(ConnCounter(conn, "cntr_fuse_conn_sq_poll_hits_total"), 0u)
      << "misses " << ConnCounter(conn, "cntr_fuse_conn_sq_poll_misses_total");
}

// Every doorbell lost and requests spaced past the poll window: nothing
// wakes the parked worker, and its bounded 1 ms park still serves them.
TEST(RingTransportTest, LostDoorbellsStillResolveThroughTheBoundedPark) {
  SimClock clock;
  CostModel costs;
  fault::FaultRegistry faults;
  FuseConn conn(&clock, &costs, 1, &faults);
  ASSERT_GT(conn.ConfigureRing(64), 0u);
  fault::FaultSpec spec;
  spec.fail_every = 1;
  faults.Arm("fuse.ring.doorbell_lost", spec);
  std::thread worker([&] { ServeGetattrs(conn); });
  constexpr int kRequests = 10;
  int correct = 0;
  for (int i = 0; i < kRequests; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    auto reply = conn.SendAndWait(GetattrOf(7000 + i));
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    correct += reply->data == std::to_string(7000 + i) ? 1 : 0;
  }
  conn.Abort();
  worker.join();
  EXPECT_EQ(correct, kRequests);
  EXPECT_GE(faults.Fired("fuse.ring.doorbell_lost"), static_cast<uint64_t>(kRequests));
  EXPECT_GT(ConnCounter(conn, "cntr_fuse_conn_sq_poll_misses_total"), 0u);
}

// Abort() while a worker polls: the poll checks aborted() and the read
// returns empty at once instead of running out its window and parking.
TEST(RingTransportTest, AbortDuringASqPollReturnsPromptly) {
  SimClock clock;
  CostModel costs;
  bool caught = false;
  // A poll lasts one window; retry on a fresh connection when this thread
  // was descheduled through all of it.
  for (int attempt = 0; attempt < 50 && !caught; ++attempt) {
    FuseConn conn(&clock, &costs, 1);
    ASSERT_GT(conn.ConfigureRing(64), 0u);
    std::atomic<bool> returned{false};
    std::vector<FuseRequest> batch;
    std::chrono::steady_clock::time_point returned_at;
    std::thread worker([&] {
      batch = conn.ReadRequestBatch(0);
      returned_at = std::chrono::steady_clock::now();
      returned.store(true);
    });
    const auto give_up = std::chrono::steady_clock::now() + std::chrono::milliseconds(20);
    while (!conn.sq_polling() && std::chrono::steady_clock::now() < give_up) {
    }
    const auto aborted_at = std::chrono::steady_clock::now();
    caught = conn.sq_polling();
    conn.Abort();
    worker.join();
    EXPECT_TRUE(returned.load());
    EXPECT_TRUE(batch.empty());
    if (caught) {
      EXPECT_LT(returned_at - aborted_at, std::chrono::milliseconds(50));
      EXPECT_EQ(ConnCounter(conn, "cntr_fuse_conn_sq_poll_hits_total"), 0u);
    }
  }
  EXPECT_TRUE(caught) << "no attempt observed a poll in progress";
}

// queued_depth() is the pool controller's overload signal. A submitter
// counts its SQE before publishing it, so a reaper that pops and
// decrements at once can never drive the count below zero; it used to wrap
// to 2^64-1 for an instant, which the controller read as a backlog past
// every watermark and answered with a hard shed.
TEST(RingTransportTest, QueuedDepthNeverExceedsRequestsInFlight) {
  SimClock clock;
  CostModel costs;
  FuseConn conn(&clock, &costs, 2);
  ASSERT_GT(conn.ConfigureRing(16), 0u);

  constexpr int kPushers = 3;
  constexpr uint64_t kPerPusher = 50000;
  constexpr uint64_t kTotal = kPushers * kPerPusher;
  std::atomic<uint64_t> started{0};  // bumped before each submission
  std::atomic<uint64_t> reaped{0};   // bumped after each reaped batch
  std::atomic<uint64_t> samples{0};
  std::atomic<uint64_t> violations{0};
  std::atomic<uint64_t> worst{0};
  // In flight = submissions started minus requests reaped. Reading reaped
  // first and started last makes the bound conservative: the count the
  // depth reflects lies between the two reads. `started` is read with an
  // RMW: it cannot move ahead of the depth read (a thread fence would do
  // the same, but ThreadSanitizer does not model fences).
  auto sample = [&] {
    uint64_t done = reaped.load();
    uint64_t depth = conn.queued_depth();
    uint64_t in_flight = started.fetch_add(0) - done;
    samples.fetch_add(1, std::memory_order_relaxed);
    if (depth > in_flight) {
      violations.fetch_add(1, std::memory_order_relaxed);
      uint64_t w = worst.load(std::memory_order_relaxed);
      while (w < depth && !worst.compare_exchange_weak(w, depth)) {
      }
    }
  };
  std::vector<std::thread> threads;
  for (int p = 0; p < kPushers; ++p) {
    kernel::Pid pid = PidOnChannel(conn, p % 2, static_cast<kernel::Pid>(100 * (p + 1)));
    threads.emplace_back([&conn, &started, pid] {
      for (uint64_t i = 0; i < kPerPusher; ++i) {
        started.fetch_add(1);
        conn.SendNoReply(ForgetFrom(pid));
      }
    });
  }
  // Reapers sample right after each pass: a decrement that overtook its
  // submitter's count would be visible exactly then.
  for (size_t r = 0; r < 2; ++r) {
    threads.emplace_back([&conn, &reaped, &sample, r] {
      while (reaped.load() < kTotal) {
        reaped.fetch_add(conn.TryReadRequestBatch(r).size());
        sample();
      }
    });
  }
  while (reaped.load() < kTotal) {
    sample();
  }
  for (std::thread& t : threads) {
    t.join();
  }
  EXPECT_EQ(violations.load(), 0u) << "of " << samples.load() << " samples; worst depth "
                                   << worst.load();
  EXPECT_EQ(conn.queued_depth(), 0u);
  EXPECT_EQ(reaped.load(), kTotal);
  conn.Abort();
}

// --- mount-level: negotiation, fallback, splice composition, faults ---

class RingMountTest : public ::testing::Test {
 protected:
  void Mount(FuseMountOptions opts) {
    kernel_ = kernel::Kernel::Create();
    RegisterFuseDevice(kernel_.get());
    server_proc_ = kernel_->Fork(*kernel_->init(), "cntrfs");
    ASSERT_TRUE(kernel_->Unshare(*server_proc_, kernel::kCloneNewNs).ok());
    auto server = core::CntrFsServer::Create(kernel_.get(), server_proc_, "/");
    ASSERT_TRUE(server.ok());
    cntrfs_ = std::move(server).value();
    auto dev = OpenFuseDevice(kernel_.get(), *kernel_->init());
    ASSERT_TRUE(dev.ok());
    conn_ = dev->second;
    fuse_server_ = std::make_unique<FuseServer>(conn_, cntrfs_.get(), 2);
    fuse_server_->Start();
    ASSERT_TRUE(kernel_->Mkdir(*kernel_->init(), "/m", 0755).ok());
    auto fs = MountFuse(kernel_.get(), *kernel_->init(), "/m", conn_, opts);
    ASSERT_TRUE(fs.ok()) << fs.status().ToString();
    fuse_fs_ = std::move(fs).value();
    proc_ = kernel_->Fork(*kernel_->init(), "app");
  }

  void TearDown() override {
    if (fuse_fs_ != nullptr) {
      fuse_fs_->Shutdown();
    }
    if (fuse_server_ != nullptr) {
      fuse_server_->Stop();
    }
  }

  void Remount(FuseMountOptions opts) {
    TearDown();
    fuse_fs_.reset();
    fuse_server_.reset();
    conn_.reset();
    cntrfs_.reset();
    proc_.reset();
    server_proc_.reset();
    kernel_.reset();
    Mount(opts);
  }

  void SeedFile(const std::string& path, const std::string& data) {
    auto fd = kernel_->Open(*kernel_->init(), path,
                            kernel::kOWrOnly | kernel::kOCreat | kernel::kOTrunc, 0644);
    ASSERT_TRUE(fd.ok());
    size_t off = 0;
    while (off < data.size()) {
      auto n = kernel_->Write(*kernel_->init(), fd.value(), data.data() + off,
                              data.size() - off);
      ASSERT_TRUE(n.ok());
      off += n.value();
    }
    ASSERT_TRUE(kernel_->Close(*kernel_->init(), fd.value()).ok());
  }

  std::string ReadThroughMount(const std::string& path, size_t size) {
    auto fd = kernel_->Open(*proc_, path, kernel::kORdOnly);
    EXPECT_TRUE(fd.ok()) << fd.status().ToString();
    std::string out(size, '\0');
    size_t off = 0;
    while (off < size) {
      auto n = kernel_->Read(*proc_, fd.value(), out.data() + off, size - off);
      EXPECT_TRUE(n.ok()) << n.status().ToString();
      if (!n.ok() || n.value() == 0) {
        break;
      }
      off += n.value();
    }
    out.resize(off);
    EXPECT_TRUE(kernel_->Close(*proc_, fd.value()).ok());
    return out;
  }

  // One deterministic single-client workload; returns the virtual duration.
  uint64_t RunWorkload() {
    uint64_t start = kernel_->clock().NowNs();
    std::string data(256 * 1024, 'r');
    auto fd = kernel_->Open(*proc_, "/m/tmp/det.dat",
                            kernel::kORdWr | kernel::kOCreat | kernel::kOTrunc, 0644);
    EXPECT_TRUE(fd.ok());
    EXPECT_TRUE(kernel_->Write(*proc_, fd.value(), data.data(), data.size()).ok());
    EXPECT_TRUE(kernel_->Fsync(*proc_, fd.value()).ok());
    char buf[4096];
    EXPECT_TRUE(kernel_->Pread(*proc_, fd.value(), buf, sizeof(buf), 0).ok());
    EXPECT_TRUE(kernel_->Close(*proc_, fd.value()).ok());
    EXPECT_TRUE(kernel_->Stat(*proc_, "/m/tmp/det.dat").ok());
    return kernel_->clock().NowNs() - start;
  }

  std::unique_ptr<kernel::Kernel> kernel_;
  kernel::ProcessPtr server_proc_;
  kernel::ProcessPtr proc_;
  std::shared_ptr<FuseConn> conn_;
  std::unique_ptr<core::CntrFsServer> cntrfs_;
  std::unique_ptr<FuseServer> fuse_server_;
  std::shared_ptr<FuseFs> fuse_fs_;
};

TEST_F(RingMountTest, NegotiationIsOnByDefaultAndOptOutStaysLegacy) {
  Mount(FuseMountOptions::Optimized());
  EXPECT_TRUE(fuse_fs_->ring_enabled());
  EXPECT_EQ(conn_->profile(), TransportProfile::kRing);
  EXPECT_EQ(conn_->ring_depth(), FuseMountOptions::Optimized().ring_depth);
  EXPECT_TRUE(kernel_->Stat(*proc_, "/m/tmp").ok());
  EXPECT_GE(conn_->stats().reaped_requests, 1u) << "traffic rode the rings";

  // Mount-side opt-out: the flag is never offered, the conn keeps the
  // wakeup profile — on the same rings, which every mount rides.
  FuseMountOptions off = FuseMountOptions::Optimized();
  off.ring_enabled = false;
  Remount(off);
  EXPECT_FALSE(fuse_fs_->ring_enabled());
  EXPECT_EQ(conn_->profile(), TransportProfile::kWakeup);
  EXPECT_TRUE(kernel_->Stat(*proc_, "/m/tmp").ok());
  auto stats = conn_->stats();
  EXPECT_GE(stats.reaped_requests, 1u);
  EXPECT_EQ(stats.max_reqs_per_reap, 1u) << "the wakeup profile reaps one at a time";
}

TEST_F(RingMountTest, PaperConfigStaysOnWakeupPathBitIdentically) {
  // Golden virtual durations of RunWorkload(), recorded when the paper-era
  // wakeup handshake was still a separate request path. The wakeup cost
  // profile must reproduce those timelines exactly, and the ring profile
  // must keep its own.
  FuseMountOptions no_rings = FuseMountOptions::Optimized();
  no_rings.ring_enabled = false;  // bench_optimizations' OptimizedNoRings()
  struct Case {
    const char* name;
    FuseMountOptions opts;
    TransportProfile profile;
    uint64_t golden_ns;
  };
  const Case cases[] = {
      {"Paper", FuseMountOptions::Paper(), TransportProfile::kWakeup, 176'950},
      {"Baseline", FuseMountOptions::Baseline(), TransportProfile::kWakeup, 224'100},
      {"OptimizedNoRings", no_rings, TransportProfile::kWakeup, 170'300},
      {"Optimized", FuseMountOptions::Optimized(), TransportProfile::kRing, 139'300},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    Remount(c.opts);
    EXPECT_EQ(conn_->profile(), c.profile);
    EXPECT_EQ(RunWorkload(), c.golden_ns);
  }
}

TEST_F(RingMountTest, SplicePayloadsRideTheRingsAndLanesDrain) {
  std::string want(512 * 1024 + 1234, '\0');
  for (size_t i = 0; i < want.size(); ++i) {
    want[i] = static_cast<char>('A' + (i / 7 + i / 4096) % 23);
  }
  Mount(FuseMountOptions::Optimized());
  ASSERT_TRUE(fuse_fs_->ring_enabled());
  ASSERT_TRUE(fuse_fs_->splice_read_enabled());
  SeedFile("/data/ring-splice.dat", want);
  EXPECT_EQ(ReadThroughMount("/m/data/ring-splice.dat", want.size()), want);
  auto stats = conn_->stats();
  EXPECT_GT(stats.spliced_bytes, 0u) << "payload pages rode the lanes";
  EXPECT_GE(stats.reaps, 1u) << "requests rode the rings";
  EXPECT_EQ(conn_->lane_bytes_in_flight(), 0u) << "lanes drained after delivery";
}

TEST_F(RingMountTest, RingFaultPointsDegradeCleanly) {
  FuseMountOptions opts = FuseMountOptions::Optimized();
  opts.request_deadline_ns = 200'000;
  opts.deadline_grace_ms = 20;
  opts.abort_after_timeouts = 2;

  for (const char* point : {"fuse.conn.sq_overflow", "fuse.ring.doorbell_lost",
                            "fuse.ring.reap"}) {
    SCOPED_TRACE(point);
    Remount(opts);
    ASSERT_TRUE(fuse_fs_->ring_enabled());
    fault::FaultSpec spec;
    spec.error = ENOBUFS;
    spec.fail_at = 1;
    spec.one_shot = true;
    kernel_->faults().Arm(point, spec);
    // Ops may see an error (sq_overflow fails the submission) or a stall
    // that self-heals (lost doorbell, poisoned reap pass) — none may hang.
    for (int i = 0; i < 4; ++i) {
      (void)kernel_->Stat(*proc_, "/m/tmp");
    }
    kernel_->faults().DisarmAll();
    EXPECT_EQ(conn_->lane_bytes_in_flight(), 0u);
    // The mount still serves.
    EXPECT_TRUE(kernel_->Stat(*proc_, "/m/tmp").ok());
  }
}

}  // namespace
}  // namespace cntr::fuse
