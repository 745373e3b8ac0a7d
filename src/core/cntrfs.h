// CNTRFS — the passthrough FUSE server at the heart of CNTR (paper §3, §4).
//
// The server runs as a process of the simulated kernel (on the host or
// inside the "fat" container after setns) and serves that process's view of
// the filesystem — mount crossings and all — to the slim container through
// the FUSE protocol.
//
// Fidelity notes, matching the Rust implementation's behaviour:
//  * Every LOOKUP costs one open() plus one stat() on the server side, and
//    hardlinks are deduplicated through a (dev, ino) table — the exact
//    mechanism the paper blames for the compilebench/postmark outliers
//    (§5.2.2).
//  * POSIX ACL decisions are delegated to the underlying filesystem by
//    impersonating the caller's fsuid/fsgid per request (setfsuid-style);
//    supplementary groups do not travel, which reproduces the xfstests #375
//    failure (§5.1).
//  * RLIMIT_FSIZE of the calling process is not enforced because operations
//    replay as the server (§5.1, #228).
#ifndef CNTR_SRC_CORE_CNTRFS_H_
#define CNTR_SRC_CORE_CNTRFS_H_

#include <array>
#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "src/fuse/fuse_proto.h"
#include "src/fuse/fuse_server.h"
#include "src/kernel/kernel.h"
#include "src/util/hash.h"
#include "src/analysis/lockdep.h"

namespace cntr::core {

class CntrFsServer : public fuse::FuseHandler {
 public:
  // Serves `source_root` (usually "/") as seen by `server_proc`.
  static StatusOr<std::unique_ptr<CntrFsServer>> Create(kernel::Kernel* kernel,
                                                        kernel::ProcessPtr server_proc,
                                                        const std::string& source_root);

  fuse::FuseReply Handle(const fuse::FuseRequest& request) override;
  void OnDestroy() override;

  // Thin view over registry-backed instruments (cntr_cntrfs_* series,
  // labeled server="c<N>"): the handlers bump sharded registry counters —
  // never a stats lock, the Figure 4 scaling path goes through every one of
  // them — and this snapshot just reads them back.
  struct Stats {
    uint64_t lookups = 0;
    uint64_t reads = 0;
    uint64_t writes = 0;
    uint64_t creates = 0;
    uint64_t forgets = 0;
    uint64_t readdirplus = 0;     // READDIRPLUS batches served
    uint64_t readdirs = 0;        // plain READDIR listings served
    uint64_t spliced_reads = 0;   // READ replies served as page refs
    uint64_t spliced_writes = 0;  // WRITE payloads adopted as page refs
    uint64_t interrupts = 0;      // INTERRUPT notifications observed
  };
  Stats stats() const {
    Stats s;
    s.lookups = lookups_->Value();
    s.reads = reads_->Value();
    s.writes = writes_->Value();
    s.creates = creates_->Value();
    s.forgets = forgets_->Value();
    s.readdirplus = readdirplus_->Value();
    s.readdirs = readdirs_->Value();
    s.spliced_reads = spliced_reads_->Value();
    s.spliced_writes = spliced_writes_->Value();
    s.interrupts = interrupts_->Value();
    return s;
  }

  // Live nodeid-table size: lookups (LOOKUP and READDIRPLUS entries alike)
  // must be balanced by FORGET nlookup counts or this grows without bound.
  size_t NodeTableSize() const;
  size_t node_table_shards() const { return kNodeShards; }

 private:
  CntrFsServer(kernel::Kernel* kernel, kernel::ProcessPtr server_proc, kernel::VfsPath root);

  // (dev, ino) -> nodeid, so hardlinked paths resolve to one FUSE inode.
  using DevIno = std::pair<uint64_t, uint64_t>;

  struct Node {
    kernel::VfsPath path;     // server-side position (mount + inode)
    uint64_t lookup_count = 0;
    // The node's by_dev_ino key, kept so a FORGET drops the mapping without
    // a stat. FORGETs carry no caller lane and are handled whenever a
    // worker gets to them, so any virtual time they charged would land on
    // the shared timeline at a schedule-dependent point.
    DevIno dev_ino;
  };

  // The node table is lock-striped so concurrent channels do not
  // re-serialize on one table mutex. A shard owns both directions of the
  // mapping for its nodes — nodeid -> Node and (dev, ino) -> nodeid — which
  // works because the shard index is derived from the (dev, ino) hash and
  // then baked into the nodeid's low bits: InternNode and DoForget always
  // agree on the shard, and no operation ever holds two shard locks.
  static constexpr size_t kNodeShardBits = 4;
  static constexpr size_t kNodeShards = size_t{1} << kNodeShardBits;
  struct alignas(64) NodeShard {
    mutable analysis::CheckedMutex mu{"cntrfs.node_shard"};
    std::map<uint64_t, Node> nodes;
    std::map<DevIno, uint64_t> by_dev_ino;
    uint64_t next_seq = 1;  // nodeid = (seq << kNodeShardBits) | shard index
  };
  static size_t ShardIndexOf(const kernel::InodeAttr& attr) {
    return HashCombine(HashMix64(attr.dev), attr.ino) & (kNodeShards - 1);
  }
  NodeShard& ShardOfNode(uint64_t nodeid) const {
    return node_shards_[nodeid & (kNodeShards - 1)];
  }

  StatusOr<kernel::VfsPath> NodePath(uint64_t nodeid) const;
  uint64_t InternNode(const kernel::VfsPath& path, const kernel::InodeAttr& attr);
  kernel::Credentials CallerCreds(const fuse::FuseRequest& req) const;

  fuse::FuseReply DoLookup(const fuse::FuseRequest& req);
  fuse::FuseReply DoGetattr(const fuse::FuseRequest& req);
  fuse::FuseReply DoSetattr(const fuse::FuseRequest& req);
  fuse::FuseReply DoOpen(const fuse::FuseRequest& req, bool dir);
  fuse::FuseReply DoRead(const fuse::FuseRequest& req);
  fuse::FuseReply DoWrite(const fuse::FuseRequest& req);
  fuse::FuseReply DoRelease(const fuse::FuseRequest& req);
  fuse::FuseReply DoFsync(const fuse::FuseRequest& req);
  fuse::FuseReply DoReaddir(const fuse::FuseRequest& req);
  fuse::FuseReply DoReaddirPlus(const fuse::FuseRequest& req);
  fuse::FuseReply DoMknod(const fuse::FuseRequest& req);
  fuse::FuseReply DoMkdir(const fuse::FuseRequest& req);
  fuse::FuseReply DoUnlink(const fuse::FuseRequest& req, bool dir);
  fuse::FuseReply DoSymlink(const fuse::FuseRequest& req);
  fuse::FuseReply DoReadlink(const fuse::FuseRequest& req);
  fuse::FuseReply DoLink(const fuse::FuseRequest& req);
  fuse::FuseReply DoRename(const fuse::FuseRequest& req);
  fuse::FuseReply DoStatfs(const fuse::FuseRequest& req);
  fuse::FuseReply DoXattr(const fuse::FuseRequest& req);
  fuse::FuseReply DoAccess(const fuse::FuseRequest& req);
  fuse::FuseReply DoForget(const fuse::FuseRequest& req);
  fuse::FuseReply DoInit(const fuse::FuseRequest& req);

  // Builds the entry reply (nodeid + attr + TTLs) for a resolved child.
  StatusOr<fuse::FuseEntryOut> MakeEntry(const kernel::VfsPath& child);

  kernel::Kernel* kernel_;
  kernel::ProcessPtr server_proc_;
  kernel::VfsPath root_;

  mutable std::array<NodeShard, kNodeShards> node_shards_;

  // Open handles and directory streams each take their own lock: the data
  // plane (READ/WRITE fh resolution) never contends with the metadata plane
  // (node interning), and neither blocks the other's channels.
  mutable analysis::CheckedMutex files_mu_{"cntrfs.files"};
  std::map<uint64_t, kernel::FilePtr> open_files_;
  std::atomic<uint64_t> next_fh_{1};
  // In-flight READDIRPLUS listings, keyed by continuation token: the first
  // batch snapshots the directory and later batches serve windows of the
  // (immutable, shared) snapshot, so concurrent create/unlink cannot skip
  // or duplicate entries mid-walk.
  mutable analysis::CheckedMutex streams_mu_{"cntrfs.streams"};
  std::map<uint64_t, std::shared_ptr<const std::vector<kernel::DirEntry>>> dir_streams_;

  // Registry-backed (kernel->metrics(), labeled server="c<N>"); resolved
  // once at construction, stable for the registry's lifetime.
  obs::Counter* lookups_;
  obs::Counter* reads_;
  obs::Counter* writes_;
  obs::Counter* creates_;
  obs::Counter* forgets_;
  obs::Counter* readdirplus_;
  obs::Counter* readdirs_;
  obs::Counter* spliced_reads_;
  obs::Counter* spliced_writes_;
  obs::Counter* interrupts_;

  // TTLs handed to the kernel side; mirror rust-fuse defaults.
  uint64_t entry_ttl_ns_ = 1'000'000'000;
  uint64_t attr_ttl_ns_ = 1'000'000'000;
};

}  // namespace cntr::core

#endif  // CNTR_SRC_CORE_CNTRFS_H_
