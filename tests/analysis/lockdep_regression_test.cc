// Regression tests for the three real wait-cycle findings the lockdep
// validator flagged when the Checked* wrappers were first adopted (each ran
// as a hard deadlock *shape*, benign only because reshape_mu_'s exclusive
// side happens to be try-lock-only today):
//
//   1. A timed-out submitter escalated to FuseConn::Abort() while still
//      holding reshape_mu_ shared — Abort sweeps and notifies every
//      channel's completion condvar (fuse.ring.cq.cv), and other submitters
//      park on it holding reshape_mu_ shared (cq.cv <-> reshape_mu_ cycle).
//   2. A ring submitter freed its completion slot and woke SQ-full parkers
//      (sq_cv) before releasing reshape_mu_; the parkers hold reshape_mu_
//      shared (sq_cv <-> reshape_mu_ cycle).
//   3. FuseServerPool::RunControllerPass quarantined a crashed mount —
//      Abort(), notifying fuse.ring.cq.cv — while holding
//      controller_pass_mu_, which the same pass also holds while blocking on
//      queued_depth()'s reshape_mu_ (reshape ~> cq.cv ~> controller_pass ~>
//      reshape).
//   4. MetricsRegistry exposition invoked sampling callbacks under the
//      registry mutex; callbacks take subsystem locks (dcache shards,
//      page-cache stats) that instrumented request paths hold while
//      recording into the registry (registry ~> shard vs shard ~> registry).
//
// Each test drives the fixed path with the validator armed and a capturing
// handler installed: a regression reintroducing the inversion fails here
// with the full two-stack report, without needing CNTR_LOCKDEP=1 in the
// environment.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/analysis/lockdep.h"
#include "src/fuse/fuse_conn.h"
#include "src/fuse/fuse_server.h"
#include "src/fuse/fuse_server_pool.h"
#include "src/obs/metrics.h"
#include "src/util/sim_clock.h"

namespace cntr::analysis {
namespace {

using fuse::FuseConn;
using fuse::FuseHandler;
using fuse::FuseReply;
using fuse::FuseRequest;
using fuse::FuseServerPool;
using fuse::FuseServerPoolOptions;

class LockdepRegressionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    was_enabled_ = LockdepEnabled();
    SetLockdepEnabled(false);
    LockdepResetForTest();
    SetLockdepReportHandler([this](const LockdepReport& r) {
      ++reports_;
      last_ = r;
    });
    SetLockdepEnabled(true);
  }

  void TearDown() override {
    SetLockdepEnabled(was_enabled_);
    SetLockdepReportHandler(nullptr);
    LockdepResetForTest();
  }

  std::atomic<int> reports_{0};
  LockdepReport last_;
  bool was_enabled_ = false;
};

// Finding 1: timeout-escalated Abort no longer runs under reshape_mu_. The
// timed-out waiters park on fuse.ring.cq.cv holding reshape_mu_ shared
// (recording reshape -> cq.cv); the escalating Abort notifies that condvar.
TEST_F(LockdepRegressionTest, TimeoutEscalatedAbortDoesNotNotifyUnderReshape) {
  SimClock clock;
  CostModel costs;
  FuseConn conn(&clock, &costs);
  conn.SetRequestDeadline(1'000'000, /*real_grace_ms=*/10);
  conn.SetAbortOnConsecutiveTimeouts(2);
  EXPECT_EQ(conn.SendAndWait(FuseRequest{}).error(), ETIMEDOUT);
  EXPECT_EQ(conn.SendAndWait(FuseRequest{}).error(), ETIMEDOUT);
  EXPECT_TRUE(conn.aborted());
  EXPECT_EQ(conn.SendAndWait(FuseRequest{}).error(), ENOTCONN);
  EXPECT_EQ(reports_.load(), 0) << last_.details;
}

// Finding 2: completion-side sq_cv wakeups are deferred past the reshape
// window. Over-subscribe a minimum-depth ring so submitters park SQ-full
// (recording the reshape -> sq_cv wait edge), then complete everything —
// every completing submitter wakes the parkers on its way out.
TEST_F(LockdepRegressionTest, RingSqWakeupsHappenOutsideTheReshapeWindow) {
  SimClock clock;
  CostModel costs;
  FuseConn conn(&clock, &costs, 1);
  ASSERT_EQ(conn.ConfigureRing(fuse::kMinRingDepth), fuse::kMinRingDepth);

  constexpr int kClients = 3 * static_cast<int>(fuse::kMinRingDepth);
  std::atomic<int> ok{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      FuseRequest req;
      req.opcode = fuse::FuseOpcode::kGetattr;
      if (conn.SendAndWait(std::move(req)).ok()) {
        ok.fetch_add(1);
      }
    });
  }
  while (conn.channel_queue_depth(0) < fuse::kMinRingDepth) {
    std::this_thread::yield();
  }
  std::thread server([&] {
    int served = 0;
    while (served < kClients) {
      std::vector<FuseRequest> batch = conn.ReadRequestBatch(0);
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
  conn.Abort();
  EXPECT_EQ(reports_.load(), 0) << last_.details;
}

// Finding 3: the controller pass defers quarantine Aborts until
// controller_pass_mu_ is released. A submitter parked on another
// connection's fuse.ring.cq.cv records the class-level reshape -> cq.cv edge;
// the pass must quarantine the crashed mount (Abort -> notify) and poll the
// healthy mount's queued_depth (reshape_mu_) without closing the cycle.
TEST_F(LockdepRegressionTest, ControllerPassQuarantineAbortsOutsidePassLock) {
  class NullHandler : public FuseHandler {
   public:
    FuseReply Handle(const FuseRequest&) override { return FuseReply{}; }
  };
  SimClock clock;
  CostModel costs;
  NullHandler handler;

  // Standalone connection with a parked submitter: once its spin budget
  // runs out it records reshape(shared) -> fuse.ring.cq.cv in the class
  // graph, exactly what a live tenant's in-flight request contributes.
  FuseConn parked(&clock, &costs);
  std::thread submitter([&] {
    (void)parked.SendAndWait(FuseRequest{});  // resolves ENOTCONN on Abort
  });
  while (parked.stats().spin_parks == 0) {
    std::this_thread::yield();
  }

  FuseServerPoolOptions opts;
  opts.min_threads = 1;
  opts.max_threads = 1;
  opts.controller_interval_ms = 0;  // manual passes only
  FuseServerPool pool(opts);
  auto crashed = std::make_shared<FuseConn>(&clock, &costs);
  auto healthy = std::make_shared<FuseConn>(&clock, &costs);
  pool.AddMount(crashed, &handler);
  pool.AddMount(healthy, &handler);
  crashed->Abort();  // health check in the next pass quarantines it

  pool.RunControllerPass();

  parked.Abort();  // release the parked submitter
  submitter.join();
  pool.Stop();
  EXPECT_EQ(reports_.load(), 0) << last_.details;
}

// Finding 4: exposition samples callbacks with the registry mutex
// released. The subsystem lock below stands in for a dcache shard: the
// request path locks it and then touches the registry (shard -> registry);
// the callback samples subsystem state under the same lock. Rendering
// under the old scheme added registry -> shard and closed the cycle.
TEST_F(LockdepRegressionTest, ExpositionSamplesCallbacksOutsideRegistryLock) {
  obs::MetricsRegistry registry;
  CheckedMutex subsys("test.lockdep.metrics.subsys");
  uint64_t value = 0;

  uint64_t handle = registry.AddCallback("test_subsys_gauge", {}, [&] {
    std::lock_guard<CheckedMutex> lock(subsys);
    return static_cast<double>(value);
  });

  // Instrumented request path: subsystem lock held while resolving an
  // instrument (which takes the registry mutex).
  {
    std::lock_guard<CheckedMutex> lock(subsys);
    value = 7;
    registry.GetCounter("test_requests_total")->Add(1);
  }

  EXPECT_NE(registry.SnapshotJson().find("\"test_subsys_gauge\":7"),
            std::string::npos);
  EXPECT_NE(registry.RenderPrometheus().find("test_subsys_gauge 7"),
            std::string::npos);
  registry.RemoveCallback(handle);
  EXPECT_EQ(reports_.load(), 0) << last_.details;
}

}  // namespace
}  // namespace cntr::analysis
