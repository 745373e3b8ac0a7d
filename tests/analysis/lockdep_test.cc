// Tests for the lockdep-style concurrency validator (src/analysis/).
//
// Deliberate inversions here are provoked on *distinct instances* of the
// offending classes with no real contention, so the underlying std
// primitives never actually deadlock — the validator works on the
// class-dependency graph, which is exactly the point: the bug is reported
// from any interleaving, not just the racy one.
#include "src/analysis/lockdep.h"

#include <gtest/gtest.h>

#include <mutex>
#include <shared_mutex>
#include <thread>
#include <vector>

#include "src/kernel/kernel.h"

namespace cntr::analysis {
namespace {

class LockdepTest : public ::testing::Test {
 protected:
  void SetUp() override {
    was_enabled_ = LockdepEnabled();
    SetLockdepEnabled(true);
    LockdepResetForTest();
    SetLockdepReportHandler([this](const LockdepReport& r) {
      std::lock_guard<std::mutex> lock(reports_mu_);
      reports_.push_back(r);
    });
  }

  void TearDown() override {
    SetLockdepReportHandler(nullptr);
    LockdepResetForTest();
    SetLockdepEnabled(was_enabled_);
  }

  size_t ReportCount() {
    std::lock_guard<std::mutex> lock(reports_mu_);
    return reports_.size();
  }
  LockdepReport Report(size_t i) {
    std::lock_guard<std::mutex> lock(reports_mu_);
    return reports_.at(i);
  }

  std::mutex reports_mu_;
  std::vector<LockdepReport> reports_;
  bool was_enabled_ = false;
};

TEST_F(LockdepTest, AbBaInversionDetectedWithBothStacks) {
  CheckedMutex a("test.lockdep.a");
  CheckedMutex b("test.lockdep.b");

  // Establish A -> B.
  a.lock();
  b.lock();
  b.unlock();
  a.unlock();
  EXPECT_EQ(ReportCount(), 0u);
  EXPECT_EQ(LockdepEdgeCount(), 1u);

  // The inverted order, on other instances of the same classes, closes the
  // cycle — reported before anything blocks.
  CheckedMutex a2("test.lockdep.a");
  CheckedMutex b2("test.lockdep.b");
  b2.lock();
  a2.lock();
  a2.unlock();
  b2.unlock();

  ASSERT_EQ(ReportCount(), 1u);
  LockdepReport r = Report(0);
  EXPECT_EQ(r.kind, LockdepReport::Kind::kCycle);
  EXPECT_NE(r.details.find("test.lockdep.a"), std::string::npos);
  EXPECT_NE(r.details.find("test.lockdep.b"), std::string::npos);
  // Two stacks: where the existing A -> B edge was recorded, and the
  // acquisition that closed the cycle.
  EXPECT_NE(r.details.find("first recorded"), std::string::npos);
  EXPECT_NE(r.details.find("closing edge"), std::string::npos);
}

TEST_F(LockdepTest, InversionAcrossThreadsDetected) {
  CheckedMutex a("test.lockdep.xthread.a");
  CheckedMutex b("test.lockdep.xthread.b");
  CheckedMutex a2("test.lockdep.xthread.a");
  CheckedMutex b2("test.lockdep.xthread.b");

  std::thread t1([&] {
    a.lock();
    b.lock();
    b.unlock();
    a.unlock();
  });
  t1.join();

  std::thread t2([&] {
    b2.lock();
    a2.lock();
    a2.unlock();
    b2.unlock();
  });
  t2.join();

  EXPECT_EQ(ReportCount(), 1u);
}

TEST_F(LockdepTest, EachInversionReportedOnce) {
  CheckedMutex a("test.lockdep.oneshot.a");
  CheckedMutex b("test.lockdep.oneshot.b");

  a.lock();
  b.lock();
  b.unlock();
  a.unlock();

  CheckedMutex a2("test.lockdep.oneshot.a");
  CheckedMutex b2("test.lockdep.oneshot.b");
  for (int i = 0; i < 3; ++i) {
    b2.lock();
    a2.lock();
    a2.unlock();
    b2.unlock();
  }
  EXPECT_EQ(ReportCount(), 1u) << "one report per distinct inversion";
}

TEST_F(LockdepTest, ThreeLockCycleDetectedTransitively) {
  CheckedMutex a("test.lockdep.tri.a");
  CheckedMutex b("test.lockdep.tri.b");
  CheckedMutex c("test.lockdep.tri.c");

  a.lock();
  b.lock();
  b.unlock();
  a.unlock();
  b.lock();
  c.lock();
  c.unlock();
  b.unlock();
  EXPECT_EQ(ReportCount(), 0u);

  CheckedMutex a2("test.lockdep.tri.a");
  CheckedMutex c2("test.lockdep.tri.c");
  c2.lock();
  a2.lock();  // closes c -> a with a ~> b ~> c recorded
  a2.unlock();
  c2.unlock();
  ASSERT_EQ(ReportCount(), 1u);
  EXPECT_GE(Report(0).cycle_nodes.size(), 3u);
}

TEST_F(LockdepTest, CondVarWaitNotifyCycleDetected) {
  // The PR-2 shape: a waiter parks on a condvar while still holding an
  // unrelated lock; the only notify path needs that same lock.
  CheckedMutex guard("test.lockdep.cv.guard");
  CheckedMutex m("test.lockdep.cv.m");
  CheckedCondVar cv("test.lockdep.cv.cv");

  // Waiter records guard -> cv (times out immediately; no real partner).
  guard.lock();
  {
    std::unique_lock<CheckedMutex> lk(m);
    cv.wait_for(lk, std::chrono::microseconds(1));
  }
  guard.unlock();
  EXPECT_EQ(ReportCount(), 0u);

  // Notifier holding the same guard closes the cycle cv -> guard -> cv.
  guard.lock();
  cv.notify_one();
  guard.unlock();

  ASSERT_EQ(ReportCount(), 1u);
  EXPECT_EQ(Report(0).kind, LockdepReport::Kind::kCycle);
  EXPECT_NE(Report(0).details.find("test.lockdep.cv.cv"), std::string::npos);
  EXPECT_NE(Report(0).details.find("test.lockdep.cv.guard"), std::string::npos);
}

TEST_F(LockdepTest, NotifyUnderOwnMutexIsNotACycle) {
  // Notify-under-the-associated-mutex is legal (just mildly inefficient):
  // the waiter RELEASES that mutex while parked, so no wait-for edge exists
  // from the waiter side.
  CheckedMutex m("test.lockdep.cvok.m");
  CheckedCondVar cv("test.lockdep.cvok.cv");

  {
    std::unique_lock<CheckedMutex> lk(m);
    cv.wait_for(lk, std::chrono::microseconds(1));
  }
  m.lock();
  cv.notify_all();
  m.unlock();
  EXPECT_EQ(ReportCount(), 0u);
}

TEST_F(LockdepTest, SharedLockReadRecursionAllowed) {
  // Two stripes of one reader-heavy class taken shared concurrently-ish:
  // readers do not exclude readers, so same-class read nesting is legal.
  CheckedSharedMutex s1("test.lockdep.shared.rw");
  CheckedSharedMutex s2("test.lockdep.shared.rw");

  s1.lock_shared();
  s2.lock_shared();
  s2.unlock_shared();
  s1.unlock_shared();
  EXPECT_EQ(ReportCount(), 0u);
}

TEST_F(LockdepTest, SharedWriteRecursionReported) {
  CheckedSharedMutex s1("test.lockdep.sharedw.rw");
  CheckedSharedMutex s2("test.lockdep.sharedw.rw");

  s1.lock();
  s2.lock();  // exclusive same-class nesting: possible self-deadlock
  s2.unlock();
  s1.unlock();
  ASSERT_EQ(ReportCount(), 1u);
  EXPECT_EQ(Report(0).kind, LockdepReport::Kind::kRecursion);
}

TEST_F(LockdepTest, ReadUnderWriteSameClassReported) {
  CheckedSharedMutex s1("test.lockdep.sharedrw.rw");
  CheckedSharedMutex s2("test.lockdep.sharedrw.rw");

  s1.lock();
  s2.lock_shared();  // a queued writer between the two would deadlock this
  s2.unlock_shared();
  s1.unlock();
  EXPECT_EQ(ReportCount(), 1u);
}

TEST_F(LockdepTest, MutexSameClassRecursionReported) {
  CheckedMutex m1("test.lockdep.rec.m");
  CheckedMutex m2("test.lockdep.rec.m");

  m1.lock();
  m2.lock();
  m2.unlock();
  m1.unlock();
  ASSERT_EQ(ReportCount(), 1u);
  EXPECT_EQ(Report(0).kind, LockdepReport::Kind::kRecursion);
  EXPECT_NE(Report(0).details.find("recursive"), std::string::npos);
}

TEST_F(LockdepTest, StripedSubclassOrderedNestingAllowed) {
  // The lock_nested analogue: each stripe of a sharded table declares its
  // index as a subclass, so index-ordered nesting is distinct graph nodes
  // in a consistent order — legal.
  CheckedMutex s0("test.lockdep.stripe.shard", 0);
  CheckedMutex s1("test.lockdep.stripe.shard", 1);
  CheckedMutex s2("test.lockdep.stripe.shard", 2);

  for (int i = 0; i < 2; ++i) {
    s0.lock();
    s1.lock();
    s2.lock();
    s2.unlock();
    s1.unlock();
    s0.unlock();
  }
  EXPECT_EQ(ReportCount(), 0u);
}

TEST_F(LockdepTest, StripedSubclassOutOfOrderNestingReported) {
  CheckedMutex s0("test.lockdep.stripebad.shard", 0);
  CheckedMutex s1("test.lockdep.stripebad.shard", 1);

  s0.lock();
  s1.lock();
  s1.unlock();
  s0.unlock();

  CheckedMutex s0b("test.lockdep.stripebad.shard", 0);
  CheckedMutex s1b("test.lockdep.stripebad.shard", 1);
  s1b.lock();
  s0b.lock();  // inverted stripe order: reported like any other inversion
  s0b.unlock();
  s1b.unlock();
  EXPECT_EQ(ReportCount(), 1u);
}

TEST_F(LockdepTest, SetSubclassBeforeUseRebindsNode) {
  // Striped containers default-construct their elements and stamp the
  // stripe index afterwards (std::vector<Shard> can't pass constructor
  // args); both orders must name distinct nodes.
  CheckedMutex a("test.lockdep.setsub.shard");
  CheckedMutex b("test.lockdep.setsub.shard");
  a.set_subclass(1);
  b.set_subclass(2);

  a.lock();
  b.lock();
  b.unlock();
  a.unlock();
  EXPECT_EQ(ReportCount(), 0u);
}

TEST_F(LockdepTest, LockNestedReleasesExactlyTheSubclassNode) {
  // The memfs rename idiom: several same-class inodes held at once, each
  // acquisition naming its role via lock_nested. Release must pop exactly
  // the node the acquisition pushed — if unlocking the nested child popped
  // the base parent's entry instead, the second child acquisition below
  // would see its node still "held" and report a false recursion.
  CheckedMutex parent("test.lockdep.nested.inode");
  CheckedMutex child_a("test.lockdep.nested.inode");
  CheckedMutex child_b("test.lockdep.nested.inode");

  parent.lock();
  child_a.lock_nested(2);
  child_a.unlock();
  child_b.lock_nested(2);  // same subclass again: legal, node was released
  child_b.unlock();
  parent.unlock();
  EXPECT_EQ(ReportCount(), 0u);

  // Full rename shape: base parent -> second parent (1) -> child (2),
  // repeated to confirm the recorded edges stay acyclic.
  CheckedMutex second("test.lockdep.nested.inode");
  for (int i = 0; i < 2; ++i) {
    parent.lock();
    second.lock_nested(1);
    child_a.lock_nested(2);
    child_a.unlock();
    second.unlock();
    parent.unlock();
  }
  EXPECT_EQ(ReportCount(), 0u);

  // Inverting the declared hierarchy is still an inversion.
  CheckedMutex child_c("test.lockdep.nested.inode");
  CheckedMutex second_b("test.lockdep.nested.inode");
  child_c.lock_nested(2);
  second_b.lock_nested(1);
  second_b.unlock();
  child_c.unlock();
  EXPECT_EQ(ReportCount(), 1u);
}

TEST_F(LockdepTest, TryLockAddsNoEdges) {
  // try_lock can't block, so it neither cycle-checks nor records
  // dependencies — the std::scoped_lock avoidance dance stays clean.
  CheckedMutex a("test.lockdep.try.a");
  CheckedMutex b("test.lockdep.try.b");

  a.lock();
  ASSERT_TRUE(b.try_lock());
  b.unlock();
  a.unlock();
  EXPECT_EQ(LockdepEdgeCount(), 0u);
  EXPECT_EQ(ReportCount(), 0u);
}

TEST_F(LockdepTest, ScopedLockTwoInstancesSameClassClean) {
  // std::scoped_lock over two same-class instances (Process::Merge idiom):
  // the std::lock algorithm's blocking acquisitions happen with none of the
  // set held, the rest are trylocks — no recursion false positive.
  CheckedMutex m1("test.lockdep.scoped.m");
  CheckedMutex m2("test.lockdep.scoped.m");
  {
    std::scoped_lock lock(m1, m2);
  }
  EXPECT_EQ(ReportCount(), 0u);
}

TEST_F(LockdepTest, GateOffIsPassthrough) {
  SetLockdepEnabled(false);
  CheckedMutex a("test.lockdep.off.a");
  CheckedMutex b("test.lockdep.off.b");
  CheckedMutex a2("test.lockdep.off.a");
  CheckedMutex b2("test.lockdep.off.b");

  a.lock();
  b.lock();
  b.unlock();
  a.unlock();
  b2.lock();
  a2.lock();
  a2.unlock();
  b2.unlock();

  EXPECT_EQ(ReportCount(), 0u);
  EXPECT_EQ(LockdepEdgeCount(), 0u);
  EXPECT_EQ(LockdepReportCount(), 0u);
}

TEST_F(LockdepTest, GateOffVirtualTimeBitIdentity) {
  // The validator never reads or advances SimClock: a lock-heavy kernel
  // workload (pipe ping-pong through the dcache'd VFS) must accrue exactly
  // the same virtual time armed and disarmed. This is the unit-level slice
  // of the bench panels' bit-identity guarantee.
  auto run = [](bool armed) -> uint64_t {
    SetLockdepEnabled(armed);
    auto kernel = kernel::Kernel::Create();
    auto proc = kernel->Fork(*kernel->init(), "lockdep-bitident");
    auto pipe = kernel->Pipe(*proc);
    EXPECT_TRUE(pipe.ok());
    auto [rfd, wfd] = pipe.value();
    char buf[256];
    for (int i = 0; i < 64; ++i) {
      EXPECT_TRUE(kernel->Write(*proc, wfd, buf, sizeof(buf)).ok());
      EXPECT_TRUE(kernel->Read(*proc, rfd, buf, sizeof(buf)).ok());
    }
    return kernel->clock().NowNs();
  };

  const uint64_t with_lockdep = run(true);
  const uint64_t without = run(false);
  EXPECT_EQ(with_lockdep, without);
}

TEST_F(LockdepTest, ResetClearsGraphAndReports) {
  CheckedMutex a("test.lockdep.reset.a");
  CheckedMutex b("test.lockdep.reset.b");
  a.lock();
  b.lock();
  b.unlock();
  a.unlock();
  EXPECT_EQ(LockdepEdgeCount(), 1u);

  LockdepResetForTest();
  EXPECT_EQ(LockdepEdgeCount(), 0u);
  EXPECT_EQ(LockdepReportCount(), 0u);

  // The same order revalidates cleanly from scratch.
  a.lock();
  b.lock();
  b.unlock();
  a.unlock();
  EXPECT_EQ(ReportCount(), 0u);
}

}  // namespace
}  // namespace cntr::analysis
