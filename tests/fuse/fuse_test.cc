// Unit tests for the FUSE layer: the connection queue, protocol round
// trips, abort semantics, forget batching, and mount-option behaviour
// (observed through server-side statistics).
#include <gtest/gtest.h>

#include <atomic>
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

TEST(FuseConnTest, RoundTripThroughManualServer) {
  SimClock clock;
  CostModel costs;
  FuseConn conn(&clock, &costs);

  std::thread server([&] {
    auto req = conn.ReadRequest();
    ASSERT_TRUE(req.has_value());
    EXPECT_EQ(req->opcode, FuseOpcode::kGetattr);
    EXPECT_EQ(req->nodeid, 42u);
    FuseReply reply;
    reply.attr.ino = 42;
    conn.WriteReply(req->unique, std::move(reply));
  });

  FuseRequest req;
  req.opcode = FuseOpcode::kGetattr;
  req.nodeid = 42;
  auto reply = conn.SendAndWait(std::move(req));
  server.join();
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->attr.ino, 42u);
}

TEST(FuseConnTest, RoundTripChargesVirtualTime) {
  SimClock clock;
  CostModel costs;
  FuseConn conn(&clock, &costs);
  std::thread server([&] {
    auto req = conn.ReadRequest();
    conn.WriteReply(req->unique, FuseReply{});
  });
  uint64_t before = clock.NowNs();
  (void)conn.SendAndWait(FuseRequest{});
  server.join();
  EXPECT_GE(clock.NowNs() - before, costs.fuse_round_trip_ns);
}

TEST(FuseConnTest, ErrorRepliesBecomeStatus) {
  SimClock clock;
  CostModel costs;
  FuseConn conn(&clock, &costs);
  std::thread server([&] {
    auto req = conn.ReadRequest();
    conn.WriteReply(req->unique, FuseReply::Error(ENOENT));
  });
  auto reply = conn.SendAndWait(FuseRequest{});
  server.join();
  EXPECT_EQ(reply.error(), ENOENT);
}

TEST(FuseConnTest, AbortWakesWaitersWithEnotconn) {
  SimClock clock;
  CostModel costs;
  FuseConn conn(&clock, &costs);
  std::thread aborter([&] {
    (void)conn.ReadRequest();  // take the request, never answer
    conn.Abort();
  });
  auto reply = conn.SendAndWait(FuseRequest{});
  aborter.join();
  EXPECT_EQ(reply.error(), ENOTCONN);
  // Further sends fail immediately.
  EXPECT_EQ(conn.SendAndWait(FuseRequest{}).error(), ENOTCONN);
  // Server readers see end-of-stream.
  EXPECT_FALSE(conn.ReadRequest().has_value());
}

TEST(FuseConnTest, NoReplyRequestsDoNotBlock) {
  SimClock clock;
  CostModel costs;
  FuseConn conn(&clock, &costs);
  FuseRequest forget;
  forget.opcode = FuseOpcode::kForget;
  conn.SendNoReply(std::move(forget));  // must not deadlock
  auto req = conn.ReadRequest();
  ASSERT_TRUE(req.has_value());
  EXPECT_EQ(req->opcode, FuseOpcode::kForget);
  EXPECT_EQ(req->unique, 0u);  // no reply slot
  conn.Abort();
}

TEST(FuseConnTest, ContentionCostGrowsWithReaders) {
  SimClock clock;
  CostModel costs;
  FuseConn conn_one(&clock, &costs);
  FuseConn conn_many(&clock, &costs);
  conn_one.AddReader();
  for (int i = 0; i < 8; ++i) {
    conn_many.AddReader();
  }
  auto measure = [&](FuseConn& conn) {
    std::thread server([&] {
      auto req = conn.ReadRequest();
      conn.WriteReply(req->unique, FuseReply{});
    });
    uint64_t before = clock.NowNs();
    (void)conn.SendAndWait(FuseRequest{});
    server.join();
    return clock.NowNs() - before;
  };
  EXPECT_GT(measure(conn_many), measure(conn_one));
}

// --- FuseFs behaviour through a real CntrFS server ---

class FuseFsTest : public ::testing::Test {
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
    fuse_server_ = std::make_unique<FuseServer>(dev->second, cntrfs_.get(), 2);
    fuse_server_->Start();
    ASSERT_TRUE(kernel_->Mkdir(*kernel_->init(), "/m", 0755).ok());
    auto fs = MountFuse(kernel_.get(), *kernel_->init(), "/m", dev->second, opts);
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

  std::unique_ptr<kernel::Kernel> kernel_;
  kernel::ProcessPtr server_proc_;
  kernel::ProcessPtr proc_;
  std::unique_ptr<core::CntrFsServer> cntrfs_;
  std::unique_ptr<FuseServer> fuse_server_;
  std::shared_ptr<FuseFs> fuse_fs_;
};

TEST_F(FuseFsTest, WritebackDefersServerWrites) {
  Mount(FuseMountOptions::Optimized());
  auto fd = kernel_->Open(*proc_, "/m/tmp/wb", kernel::kOWrOnly | kernel::kOCreat, 0644);
  ASSERT_TRUE(fd.ok());
  std::string data(64 * 1024, 'w');
  ASSERT_TRUE(kernel_->Write(*proc_, fd.value(), data.data(), data.size()).ok());
  EXPECT_EQ(cntrfs_->stats().writes, 0u) << "writeback cache must absorb the write";
  ASSERT_TRUE(kernel_->Fsync(*proc_, fd.value()).ok());
  EXPECT_GT(cntrfs_->stats().writes, 0u) << "fsync must flush to the server";
  ASSERT_TRUE(kernel_->Close(*proc_, fd.value()).ok());
}

TEST_F(FuseFsTest, SyncModeWritesThroughImmediately) {
  FuseMountOptions opts = FuseMountOptions::Optimized();
  opts.writeback_cache = false;
  Mount(opts);
  auto fd = kernel_->Open(*proc_, "/m/tmp/sync", kernel::kOWrOnly | kernel::kOCreat, 0644);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(kernel_->Write(*proc_, fd.value(), "now", 3).ok());
  EXPECT_GT(cntrfs_->stats().writes, 0u) << "sync mode must hit the server per write";
}

TEST_F(FuseFsTest, KeepCacheServesRereadsWithoutServer) {
  Mount(FuseMountOptions::Optimized());
  // Seed a file directly on the host.
  auto seed = kernel_->Open(*kernel_->init(), "/tmp/warm", kernel::kOWrOnly | kernel::kOCreat,
                            0644);
  ASSERT_TRUE(seed.ok());
  std::string data(16 * 1024, 'k');
  ASSERT_TRUE(kernel_->Write(*kernel_->init(), seed.value(), data.data(), data.size()).ok());
  ASSERT_TRUE(kernel_->Close(*kernel_->init(), seed.value()).ok());

  auto read_once = [&] {
    auto fd = kernel_->Open(*proc_, "/m/tmp/warm", kernel::kORdOnly);
    ASSERT_TRUE(fd.ok());
    char buf[16 * 1024];
    ASSERT_TRUE(kernel_->Read(*proc_, fd.value(), buf, sizeof(buf)).ok());
    ASSERT_TRUE(kernel_->Close(*proc_, fd.value()).ok());
  };
  read_once();
  uint64_t after_first = cntrfs_->stats().reads;
  read_once();
  EXPECT_EQ(cntrfs_->stats().reads, after_first)
      << "second open must be served from the kernel page cache";
}

TEST_F(FuseFsTest, NoKeepCacheInvalidatesOnOpen) {
  FuseMountOptions opts = FuseMountOptions::Optimized();
  opts.keep_cache = false;
  Mount(opts);
  auto seed = kernel_->Open(*kernel_->init(), "/tmp/cold", kernel::kOWrOnly | kernel::kOCreat,
                            0644);
  ASSERT_TRUE(seed.ok());
  std::string data(16 * 1024, 'c');
  ASSERT_TRUE(kernel_->Write(*kernel_->init(), seed.value(), data.data(), data.size()).ok());
  ASSERT_TRUE(kernel_->Close(*kernel_->init(), seed.value()).ok());

  auto read_once = [&] {
    auto fd = kernel_->Open(*proc_, "/m/tmp/cold", kernel::kORdOnly);
    ASSERT_TRUE(fd.ok());
    char buf[16 * 1024];
    ASSERT_TRUE(kernel_->Read(*proc_, fd.value(), buf, sizeof(buf)).ok());
    ASSERT_TRUE(kernel_->Close(*proc_, fd.value()).ok());
  };
  read_once();
  uint64_t after_first = cntrfs_->stats().reads;
  read_once();
  EXPECT_GT(cntrfs_->stats().reads, after_first)
      << "every open must invalidate and re-fetch without FOPEN_KEEP_CACHE";
}

TEST_F(FuseFsTest, LookupsDeduplicateHardlinksToOneNodeid) {
  Mount(FuseMountOptions::Optimized());
  ASSERT_TRUE(kernel_->Open(*proc_, "/m/tmp/orig", kernel::kOWrOnly | kernel::kOCreat, 0644)
                  .ok());
  ASSERT_TRUE(kernel_->Link(*proc_, "/m/tmp/orig", "/m/tmp/alias").ok());
  kernel_->dcache().Clear();
  auto a = kernel_->Resolve(*proc_, "/m/tmp/orig");
  auto b = kernel_->Resolve(*proc_, "/m/tmp/alias");
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->inode.get(), b->inode.get());
}

TEST_F(FuseFsTest, AbortedConnectionFailsOperationsCleanly) {
  Mount(FuseMountOptions::Optimized());
  fuse_fs_->Shutdown();
  auto fd = kernel_->Open(*proc_, "/m/tmp/after-abort", kernel::kOWrOnly | kernel::kOCreat,
                          0644);
  // The transport speaks ENOTCONN, but the filesystem boundary degrades an
  // aborted mount to EIO — the same error a dead disk produces.
  EXPECT_EQ(fd.error(), EIO);
}

TEST_F(FuseFsTest, RepeatedEnoentLookupsServeFromNegativeDentries) {
  Mount(FuseMountOptions::Optimized());
  ASSERT_EQ(kernel_->Stat(*proc_, "/m/tmp/nope").error(), ENOENT);
  uint64_t after_first = cntrfs_->stats().lookups;
  for (int i = 0; i < 8; ++i) {
    ASSERT_EQ(kernel_->Stat(*proc_, "/m/tmp/nope").error(), ENOENT);
  }
  EXPECT_EQ(cntrfs_->stats().lookups, after_first)
      << "repeated misses within the entry TTL must not round-trip";
  EXPECT_GT(kernel_->dcache().stats().negative_hits, 0u);
}

TEST_F(FuseFsTest, LocalCreateBuriesNegativeDentry) {
  Mount(FuseMountOptions::Optimized());
  ASSERT_EQ(kernel_->Stat(*proc_, "/m/tmp/soon").error(), ENOENT);
  auto fd = kernel_->Open(*proc_, "/m/tmp/soon", kernel::kOWrOnly | kernel::kOCreat, 0644);
  ASSERT_TRUE(fd.ok()) << fd.status().ToString();
  ASSERT_TRUE(kernel_->Close(*proc_, fd.value()).ok());
  EXPECT_TRUE(kernel_->Stat(*proc_, "/m/tmp/soon").ok())
      << "a local create must overwrite the cached ENOENT immediately";
}

TEST_F(FuseFsTest, OCreatOpensServerSideFileDespiteStaleNegativeDentry) {
  Mount(FuseMountOptions::Optimized());
  ASSERT_EQ(kernel_->Stat(*proc_, "/m/tmp/raced").error(), ENOENT);  // caches negative
  // Created underneath the mount within the negative entry's TTL.
  auto seed = kernel_->Open(*kernel_->init(), "/tmp/raced", kernel::kOWrOnly | kernel::kOCreat,
                            0644);
  ASSERT_TRUE(seed.ok());
  ASSERT_TRUE(kernel_->Write(*kernel_->init(), seed.value(), "body", 4).ok());
  ASSERT_TRUE(kernel_->Close(*kernel_->init(), seed.value()).ok());
  // POSIX: O_CREAT without O_EXCL must open the existing file, not EEXIST.
  auto fd = kernel_->Open(*proc_, "/m/tmp/raced", kernel::kORdWr | kernel::kOCreat, 0644);
  ASSERT_TRUE(fd.ok()) << fd.status().ToString();
  char buf[8] = {};
  auto n = kernel_->Read(*proc_, fd.value(), buf, sizeof(buf));
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(std::string(buf, n.value()), "body");
  // O_EXCL still reports the (real) existence.
  EXPECT_EQ(kernel_->Open(*proc_, "/m/tmp/raced",
                          kernel::kOWrOnly | kernel::kOCreat | kernel::kOExcl, 0644)
                .error(),
            EEXIST);
}

TEST_F(FuseFsTest, NegativeDentryExpiresSoServerSideCreatesAppear) {
  Mount(FuseMountOptions::Optimized());
  ASSERT_EQ(kernel_->Stat(*proc_, "/m/tmp/later").error(), ENOENT);
  // Created underneath the mount (the server's view), bypassing the kernel
  // dcache hooks: visible only after the negative entry's TTL runs out —
  // exactly Linux's FUSE entry_timeout semantics.
  auto fd = kernel_->Open(*kernel_->init(), "/tmp/later", kernel::kOWrOnly | kernel::kOCreat,
                          0644);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(kernel_->Close(*kernel_->init(), fd.value()).ok());
  kernel_->clock().Advance(2'000'000'000);  // outlive the 1s entry TTL
  EXPECT_TRUE(kernel_->Stat(*proc_, "/m/tmp/later").ok());
}

// CNTRFS nodeids are never reused, so every drop-and-re-lookup cycle gives
// a file a fresh nodeid. The nodeid -> inode map must shed the dead entry
// with the inode, or it grows by one entry per evicted inode forever (and,
// with make_shared, each dead weak_ptr pins a whole FuseInode allocation).
TEST_F(FuseFsTest, InodeTableStaysBoundedAcrossDentryDrops) {
  Mount(FuseMountOptions::Optimized());
  constexpr int kFiles = 40;
  for (int i = 0; i < kFiles; ++i) {
    auto fd = kernel_->Open(*kernel_->init(), "/tmp/it" + std::to_string(i),
                            kernel::kOWrOnly | kernel::kOCreat, 0644);
    ASSERT_TRUE(fd.ok());
    ASSERT_TRUE(kernel_->Close(*kernel_->init(), fd.value()).ok());
  }
  for (int cycle = 0; cycle < 20; ++cycle) {
    // Every other file stays pinned across the drop; the rest die with it.
    std::vector<kernel::InodePtr> held;
    for (int i = 0; i < kFiles; ++i) {
      auto path = kernel_->Resolve(*proc_, "/m/tmp/it" + std::to_string(i));
      ASSERT_TRUE(path.ok()) << path.status().ToString();
      if (i % 2 == 0) {
        held.push_back(path->inode);
      }
    }
    kernel_->dcache().Clear();
    // Live FUSE inodes: the held files and the mount root.
    EXPECT_LE(fuse_fs_->inode_table_size(), held.size() + 1) << "cycle " << cycle;
    // A held inode is still the one a lookup of its nodeid resolves to.
    auto again = kernel_->Resolve(*proc_, "/m/tmp/it0");
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(again->inode.get(), held.front().get()) << "cycle " << cycle;
    kernel_->dcache().Clear();
  }
}

// ~FuseInode runs after its weak_ptr has expired. A lookup that lands in
// that window installs a live replacement under the same nodeid, and the
// dying inode must not erase it: the next lookup would then materialize a
// second inode (a second page cache) for one server file.
TEST_F(FuseFsTest, DyingInodeNeverErasesItsLiveReplacement) {
  Mount(FuseMountOptions::Optimized());
  auto fd = kernel_->Open(*kernel_->init(), "/tmp/race", kernel::kOWrOnly | kernel::kOCreat,
                          0644);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(kernel_->Close(*kernel_->init(), fd.value()).ok());
  auto tmp = fuse_fs_->root()->Lookup("tmp");
  ASSERT_TRUE(tmp.ok());
  kernel::InodePtr dir = tmp.value();

  // The destructor's erase step, run while the nodeid's entry already holds
  // a live inode (the replacement), must leave that entry alone.
  {
    auto live = dir->Lookup("race");
    ASSERT_TRUE(live.ok());
    auto* fuse_live = dynamic_cast<FuseInode*>(live.value().get());
    ASSERT_NE(fuse_live, nullptr);
    size_t before = fuse_fs_->inode_table_size();
    fuse_fs_->EraseInode(fuse_live->nodeid());
    EXPECT_EQ(fuse_fs_->inode_table_size(), before);
    auto again = dir->Lookup("race");
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(again.value().get(), live.value().get());
  }

  // The same race end to end: one thread materializes and drops the inode
  // over and over while another holds it across pairs of lookups.
  constexpr int kRounds = 3000;
  std::atomic<bool> stop{false};
  std::thread dropper([&] {
    // Materializes the inode alone and drops it at once: each round ends
    // in ~FuseInode, racing the holder's lookups below.
    while (!stop.load(std::memory_order_relaxed)) {
      auto child = dir->Lookup("race");
      ASSERT_TRUE(child.ok());
    }
  });
  int split = 0;
  for (int i = 0; i < kRounds; ++i) {
    auto first = dir->Lookup("race");
    auto second = dir->Lookup("race");
    EXPECT_TRUE(first.ok() && second.ok());
    if (!first.ok() || !second.ok()) {
      break;  // still join the dropper below
    }
    if (first.value().get() != second.value().get()) {
      ++split;
    }
  }
  stop.store(true, std::memory_order_relaxed);
  dropper.join();
  EXPECT_EQ(split, 0) << "a held inode lost its table entry to a dying twin";
  EXPECT_LE(fuse_fs_->inode_table_size(), 2u);  // root and tmp
}

TEST_F(FuseFsTest, StatfsForwardsToServer) {
  Mount(FuseMountOptions::Optimized());
  auto statfs = kernel_->Statfs(*proc_, "/m");
  ASSERT_TRUE(statfs.ok());
  EXPECT_EQ(statfs->fs_type, "tmpfs");  // the server's root filesystem
}

}  // namespace
}  // namespace cntr::fuse
