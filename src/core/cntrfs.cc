#include "src/core/cntrfs.h"

#include <algorithm>
#include <cerrno>

#include "src/util/logging.h"
#include "src/analysis/lockdep.h"

namespace cntr::core {

using fuse::FuseEntryOut;
using fuse::FuseOpcode;
using fuse::FuseReply;
using fuse::FuseRequest;
using kernel::Credentials;
using kernel::InodeAttr;
using kernel::VfsPath;

namespace {

FuseReply ErrorReply(const Status& status) {
  return FuseReply::Error(status.error() != 0 ? status.error() : EIO);
}

// Handler-dispatch injection point: a kFail here models the server failing a
// request before touching the backing filesystem (ACL daemon down, signal
// mid-handler, ...).
CNTR_FAULT_POINT(kFaultDispatch, "cntrfs.dispatch");

}  // namespace

StatusOr<std::unique_ptr<CntrFsServer>> CntrFsServer::Create(kernel::Kernel* kernel,
                                                             kernel::ProcessPtr server_proc,
                                                             const std::string& source_root) {
  CNTR_ASSIGN_OR_RETURN(VfsPath root, kernel->Resolve(*server_proc, source_root));
  return std::unique_ptr<CntrFsServer>(
      new CntrFsServer(kernel, std::move(server_proc), std::move(root)));
}

CntrFsServer::CntrFsServer(kernel::Kernel* kernel, kernel::ProcessPtr server_proc, VfsPath root)
    : kernel_(kernel), server_proc_(std::move(server_proc)), root_(std::move(root)) {
  // Per-server rollup scope: each CNTRFS instance of a kernel exports its
  // own cntr_cntrfs_* series (attach fleets run several side by side).
  obs::MetricsRegistry& reg = kernel_->metrics();
  const obs::Labels labels = {
      {"server", "c" + std::to_string(reg.AllocScope("cntrfs"))}};
  auto counter = [&](const char* name) { return reg.GetCounter(name, labels); };
  lookups_ = counter("cntr_cntrfs_lookups_total");
  reads_ = counter("cntr_cntrfs_reads_total");
  writes_ = counter("cntr_cntrfs_writes_total");
  creates_ = counter("cntr_cntrfs_creates_total");
  forgets_ = counter("cntr_cntrfs_forgets_total");
  readdirplus_ = counter("cntr_cntrfs_readdirplus_total");
  readdirs_ = counter("cntr_cntrfs_readdirs_total");
  spliced_reads_ = counter("cntr_cntrfs_spliced_reads_total");
  spliced_writes_ = counter("cntr_cntrfs_spliced_writes_total");
  interrupts_ = counter("cntr_cntrfs_interrupts_total");
  // Per-stripe lockdep subclass for the node table. No operation holds two
  // shard locks today (see header comment); the annotation keeps that true
  // under the validator — an unordered two-shard hold becomes a report.
  for (size_t i = 0; i < node_shards_.size(); ++i) {
    node_shards_[i].mu.set_subclass(static_cast<uint32_t>(i + 1));
  }
}

StatusOr<VfsPath> CntrFsServer::NodePath(uint64_t nodeid) const {
  if (nodeid == fuse::kFuseRootId) {
    return root_;
  }
  NodeShard& shard = ShardOfNode(nodeid);
  std::lock_guard<analysis::CheckedMutex> lock(shard.mu);
  auto it = shard.nodes.find(nodeid);
  if (it == shard.nodes.end()) {
    return Status::Error(ESTALE, "unknown nodeid");
  }
  return it->second.path;
}

uint64_t CntrFsServer::InternNode(const VfsPath& path, const InodeAttr& attr) {
  size_t shard_idx = ShardIndexOf(attr);
  NodeShard& shard = node_shards_[shard_idx];
  std::lock_guard<analysis::CheckedMutex> lock(shard.mu);
  DevIno key{attr.dev, attr.ino};
  auto it = shard.by_dev_ino.find(key);
  if (it != shard.by_dev_ino.end()) {
    auto nit = shard.nodes.find(it->second);
    if (nit != shard.nodes.end()) {
      ++nit->second.lookup_count;
      return it->second;
    }
  }
  uint64_t nodeid = (shard.next_seq++ << kNodeShardBits) | shard_idx;
  shard.nodes[nodeid] = Node{path, 1, key};
  shard.by_dev_ino[key] = nodeid;
  return nodeid;
}

Credentials CntrFsServer::CallerCreds(const FuseRequest& req) const {
  // setfsuid/setfsgid impersonation: DAC checks use the caller's ids, but
  // root callers keep the server's capability set (DAC_OVERRIDE et al.).
  // Supplementary groups deliberately do not travel (paper §5.1, #375).
  if (req.uid == kernel::kRootUid) {
    return server_proc_->creds;
  }
  return Credentials::User(req.uid, req.gid);
}

StatusOr<FuseEntryOut> CntrFsServer::MakeEntry(const VfsPath& child) {
  // One stat() after the open(): attribute fetch plus the syscall crossing.
  kernel_->clock().Advance(kernel_->costs().syscall_entry_ns);
  CNTR_ASSIGN_OR_RETURN(InodeAttr attr, child.inode->Getattr());
  FuseEntryOut entry;
  entry.nodeid = InternNode(child, attr);
  entry.attr = attr;
  entry.entry_ttl_ns = entry_ttl_ns_;
  entry.attr_ttl_ns = attr_ttl_ns_;
  return entry;
}

FuseReply CntrFsServer::Handle(const FuseRequest& req) {
  if (auto hit = kernel_->faults().Check(kFaultDispatch)) {
    kernel_->clock().Advance(hit.latency_ns);
    if (hit.action == fault::FaultAction::kFail) {
      return FuseReply::Error(hit.error);
    }
  }
  switch (req.opcode) {
    case FuseOpcode::kInit:
      return DoInit(req);
    case FuseOpcode::kLookup:
      return DoLookup(req);
    case FuseOpcode::kGetattr:
      return DoGetattr(req);
    case FuseOpcode::kSetattr:
      return DoSetattr(req);
    case FuseOpcode::kOpen:
      return DoOpen(req, /*dir=*/false);
    case FuseOpcode::kOpendir:
      return DoOpen(req, /*dir=*/true);
    case FuseOpcode::kRead:
      return DoRead(req);
    case FuseOpcode::kWrite:
      return DoWrite(req);
    case FuseOpcode::kRelease:
    case FuseOpcode::kReleasedir:
      return DoRelease(req);
    case FuseOpcode::kFlush:
      return FuseReply{};
    case FuseOpcode::kFsync:
      return DoFsync(req);
    case FuseOpcode::kReaddir:
      return DoReaddir(req);
    case FuseOpcode::kReaddirPlus:
      return DoReaddirPlus(req);
    case FuseOpcode::kMknod:
      return DoMknod(req);
    case FuseOpcode::kMkdir:
      return DoMkdir(req);
    case FuseOpcode::kUnlink:
      return DoUnlink(req, /*dir=*/false);
    case FuseOpcode::kRmdir:
      return DoUnlink(req, /*dir=*/true);
    case FuseOpcode::kSymlink:
      return DoSymlink(req);
    case FuseOpcode::kReadlink:
      return DoReadlink(req);
    case FuseOpcode::kLink:
      return DoLink(req);
    case FuseOpcode::kRename:
      return DoRename(req);
    case FuseOpcode::kStatfs:
      return DoStatfs(req);
    case FuseOpcode::kSetxattr:
    case FuseOpcode::kGetxattr:
    case FuseOpcode::kListxattr:
    case FuseOpcode::kRemovexattr:
      return DoXattr(req);
    case FuseOpcode::kAccess:
      return DoAccess(req);
    case FuseOpcode::kForget:
    case FuseOpcode::kBatchForget:
      return DoForget(req);
    case FuseOpcode::kDestroy:
      return FuseReply{};
    case FuseOpcode::kInterrupt:
      // Cancellation notice for an in-flight request (unique 0: no reply).
      // The passthrough handlers never block indefinitely, so observing the
      // notification is all there is to do; the transport already resolved
      // the waiter with EINTR.
      interrupts_->Add();
      return FuseReply{};
    case FuseOpcode::kCreate:
      // The kernel side issues MKNOD + OPEN instead of atomic CREATE.
      return FuseReply::Error(ENOSYS);
  }
  return FuseReply::Error(ENOSYS);
}

FuseReply CntrFsServer::DoInit(const FuseRequest& req) {
  FuseReply reply;
  reply.init_flags = req.init_flags;  // accept everything the kernel offers
  if ((req.init_flags & fuse::kFuseMaxPages) != 0) {
    // FUSE_MAX_PAGES: grant the requested payload window up to the protocol
    // ceiling (256 pages = 1MiB). Raising max_write/readahead this way is
    // pure win for the passthrough server — bigger windows amortize the
    // per-request round trip the paper's §3.3 optimizations all attack.
    reply.max_pages = std::min(req.max_pages, fuse::kFuseMaxMaxPages);
  }
  return reply;
}

FuseReply CntrFsServer::DoLookup(const FuseRequest& req) {
  lookups_->Add();
  auto dir = NodePath(req.nodeid);
  if (!dir.ok()) {
    return ErrorReply(dir.status());
  }
  if (req.name == "..") {
    return FuseReply::Error(ENOENT);
  }
  // open(O_PATH|O_NOFOLLOW) + fstat + inode-table bookkeeping: the per-
  // lookup tax the paper blames for compilebench/postmark (§5.2.2).
  kernel_->clock().Advance(kernel_->costs().cntrfs_lookup_ns);
  kernel_->clock().Advance(kernel_->costs().syscall_entry_ns);
  auto child = kernel_->LookupChild(*server_proc_, dir.value(), req.name);
  if (!child.ok()) {
    return ErrorReply(child.status());
  }
  auto entry = MakeEntry(child.value());
  if (!entry.ok()) {
    return ErrorReply(entry.status());
  }
  FuseReply reply;
  reply.entry = entry.value();
  return reply;
}

FuseReply CntrFsServer::DoGetattr(const FuseRequest& req) {
  auto path = NodePath(req.nodeid);
  if (!path.ok()) {
    return ErrorReply(path.status());
  }
  kernel_->clock().Advance(kernel_->costs().syscall_entry_ns);
  auto attr = path->inode->Getattr();
  if (!attr.ok()) {
    return ErrorReply(attr.status());
  }
  FuseReply reply;
  reply.attr = attr.value();
  reply.attr_ttl_ns = attr_ttl_ns_;
  return reply;
}

FuseReply CntrFsServer::DoSetattr(const FuseRequest& req) {
  auto path = NodePath(req.nodeid);
  if (!path.ok()) {
    return ErrorReply(path.status());
  }
  kernel_->clock().Advance(kernel_->costs().syscall_entry_ns);
  Status st = path->inode->Setattr(req.setattr, CallerCreds(req));
  if (!st.ok()) {
    return ErrorReply(st);
  }
  auto attr = path->inode->Getattr();
  if (!attr.ok()) {
    return ErrorReply(attr.status());
  }
  FuseReply reply;
  reply.attr = attr.value();
  reply.attr_ttl_ns = attr_ttl_ns_;
  return reply;
}

FuseReply CntrFsServer::DoOpen(const FuseRequest& req, bool dir) {
  auto path = NodePath(req.nodeid);
  if (!path.ok()) {
    return ErrorReply(path.status());
  }
  kernel_->clock().Advance(kernel_->costs().syscall_entry_ns);
  Credentials creds = CallerCreds(req);
  auto attr = path->inode->Getattr();
  if (!attr.ok()) {
    return ErrorReply(attr.status());
  }
  int mask = 0;
  if (kernel::WantsRead(req.flags)) {
    mask |= kernel::kAccessRead;
  }
  if (kernel::WantsWrite(req.flags)) {
    mask |= kernel::kAccessWrite;
  }
  if (dir) {
    mask = kernel::kAccessRead;
  }
  Status perm = kernel::CheckAccess(attr.value(), creds, mask);
  if (!perm.ok()) {
    return ErrorReply(perm);
  }
  int flags = dir ? kernel::kORdOnly : req.flags;
  auto file = path->inode->Open(flags & ~kernel::kODirect, creds);
  if (!file.ok()) {
    return ErrorReply(file.status());
  }
  FuseReply reply;
  reply.fh = next_fh_.fetch_add(1);
  {
    std::lock_guard<analysis::CheckedMutex> lock(files_mu_);
    open_files_[reply.fh] = file.value();
  }
  reply.open_flags = fuse::kFOpenKeepCache;
  return reply;
}

FuseReply CntrFsServer::DoRead(const FuseRequest& req) {
  reads_->Add();
  kernel::FilePtr file;
  {
    std::lock_guard<analysis::CheckedMutex> lock(files_mu_);
    auto it = open_files_.find(req.fh);
    if (it != open_files_.end()) {
      file = it->second;
    }
  }
  if (file == nullptr) {
    return FuseReply::Error(EBADF);
  }
  kernel_->clock().Advance(kernel_->costs().syscall_entry_ns);
  if (req.splice_ok && req.size > 0 && req.offset % kernel::kPageSize == 0) {
    // Zero-copy serving: splice(backing file -> lane). The refs alias the
    // server's page cache — no byte of payload is copied on this side; the
    // kernel end steals or aliases them into its own cache (SPLICE_MOVE).
    auto pages = file->ReadPageRefs(req.size, req.offset);
    if (pages.ok()) {
      FuseReply reply;
      reply.pages = std::move(pages).value();
      spliced_reads_->Add();
      return reply;
    }
    // EOPNOTSUPP (no page cache behind this file), EBADF (write-only
    // handle), unaligned EINVAL: fall through to the byte path below,
    // which also handles the transient-handle retry.
  }
  FuseReply reply;
  reply.data.resize(req.size);
  auto n = file->Read(reply.data.data(), req.size, req.offset);
  if (!n.ok() && n.error() == EBADF) {
    // Writeback read-modify-write arrives against a write-only handle; the
    // kernel reads pages by nodeid, so serve through a transient read
    // handle (what the real server does with its O_PATH-derived fds).
    auto path = NodePath(req.nodeid);
    if (path.ok()) {
      auto opened = path->inode->Open(kernel::kORdOnly, server_proc_->creds);
      if (opened.ok()) {
        n = opened.value()->Read(reply.data.data(), req.size, req.offset);
      }
    }
  }
  if (!n.ok()) {
    return ErrorReply(n.status());
  }
  reply.data.resize(n.value());
  return reply;
}

FuseReply CntrFsServer::DoWrite(const FuseRequest& req) {
  writes_->Add();
  kernel::FilePtr file;
  {
    std::lock_guard<analysis::CheckedMutex> lock(files_mu_);
    auto it = open_files_.find(req.fh);
    if (it != open_files_.end()) {
      file = it->second;
    }
  }
  if (file == nullptr && req.fh == UINT64_MAX) {
    // Writeback flush without a live handle: open transiently by nodeid.
    auto path = NodePath(req.nodeid);
    if (!path.ok()) {
      return ErrorReply(path.status());
    }
    auto opened = path->inode->Open(kernel::kOWrOnly, server_proc_->creds);
    if (!opened.ok()) {
      return ErrorReply(opened.status());
    }
    file = opened.value();
  }
  if (file == nullptr) {
    return FuseReply::Error(EBADF);
  }
  kernel_->clock().Advance(kernel_->costs().syscall_entry_ns);
  if (req.spliced && !req.payload_pages.empty()) {
    // Spliced WRITE: adopt the payload pages straight into the backing
    // filesystem's cache (steal when unique, alias + COW when the kernel's
    // writeback cache still shares them).
    auto n = file->WritePageRefs(req.payload_pages, req.offset);
    if (n.ok()) {
      spliced_writes_->Add();
      FuseReply reply;
      reply.count = static_cast<uint32_t>(n.value());
      return reply;
    }
    int err = n.error();
    if (err != EOPNOTSUPP && err != EINVAL && err != EBADF) {
      return ErrorReply(n.status());
    }
    // Copy fallback: flatten the refs and write them as bytes, paying the
    // copy the splice path avoided.
    std::string flat;
    for (const auto& ref : req.payload_pages) {
      flat.append(ref.data(), ref.len);
      kernel_->clock().Advance(kernel_->costs().copy_page_ns);
    }
    auto w = file->Write(flat.data(), flat.size(), req.offset);
    if (!w.ok()) {
      return ErrorReply(w.status());
    }
    FuseReply reply;
    reply.count = static_cast<uint32_t>(w.value());
    return reply;
  }
  auto n = file->Write(req.data.data(), req.data.size(), req.offset);
  if (!n.ok()) {
    return ErrorReply(n.status());
  }
  FuseReply reply;
  reply.count = static_cast<uint32_t>(n.value());
  return reply;
}

FuseReply CntrFsServer::DoRelease(const FuseRequest& req) {
  kernel::FilePtr file;
  {
    std::lock_guard<analysis::CheckedMutex> lock(files_mu_);
    auto it = open_files_.find(req.fh);
    if (it != open_files_.end()) {
      file = std::move(it->second);
      open_files_.erase(it);
    }
  }
  if (file != nullptr && file.use_count() == 1) {
    (void)file->Release();
  }
  return FuseReply{};
}

FuseReply CntrFsServer::DoFsync(const FuseRequest& req) {
  kernel::FilePtr file;
  {
    std::lock_guard<analysis::CheckedMutex> lock(files_mu_);
    auto it = open_files_.find(req.fh);
    if (it != open_files_.end()) {
      file = it->second;
    }
  }
  if (file == nullptr) {
    // Flush-by-nodeid (writeback without an open handle): fsync the inode
    // through a transient handle.
    auto path = NodePath(req.nodeid);
    if (!path.ok()) {
      return ErrorReply(path.status());
    }
    auto opened = path->inode->Open(kernel::kORdWr, server_proc_->creds);
    if (!opened.ok()) {
      return ErrorReply(opened.status());
    }
    file = opened.value();
  }
  kernel_->clock().Advance(kernel_->costs().syscall_entry_ns);
  Status st = file->Fsync(req.datasync);
  if (!st.ok()) {
    return ErrorReply(st);
  }
  return FuseReply{};
}

FuseReply CntrFsServer::DoReaddir(const FuseRequest& req) {
  readdirs_->Add();
  kernel::FilePtr file;
  {
    std::lock_guard<analysis::CheckedMutex> lock(files_mu_);
    auto it = open_files_.find(req.fh);
    if (it != open_files_.end()) {
      file = it->second;
    }
  }
  if (file == nullptr) {
    return FuseReply::Error(EBADF);
  }
  kernel_->clock().Advance(kernel_->costs().syscall_entry_ns);
  auto entries = file->Readdir();
  if (!entries.ok()) {
    return ErrorReply(entries.status());
  }
  FuseReply reply;
  reply.entries = std::move(entries).value();
  return reply;
}

FuseReply CntrFsServer::DoReaddirPlus(const FuseRequest& req) {
  readdirplus_->Add();
  auto dir = NodePath(req.nodeid);
  if (!dir.ok()) {
    return ErrorReply(dir.status());
  }
  // First batch (fh == 0): list the directory once through a transient
  // server-side handle (the real server reads via its O_PATH-derived fd, no
  // kernel OPENDIR needed) and snapshot it. Later batches serve windows of
  // the snapshot named by the continuation token, so a concurrent
  // create/unlink cannot shift the entry cursor mid-walk. A stale/evicted
  // token re-snapshots under the same token — one generation switch, then
  // consistent again.
  std::shared_ptr<const std::vector<kernel::DirEntry>> listing;
  if (req.fh != 0) {
    std::lock_guard<analysis::CheckedMutex> lock(streams_mu_);
    auto it = dir_streams_.find(req.fh);
    if (it != dir_streams_.end()) {
      listing = it->second;
    }
  }
  if (listing == nullptr) {
    auto opened = dir->inode->Open(kernel::kORdOnly, server_proc_->creds);
    if (!opened.ok()) {
      return ErrorReply(opened.status());
    }
    kernel_->clock().Advance(kernel_->costs().syscall_entry_ns);
    auto entries = opened.value()->Readdir();
    if (!entries.ok()) {
      return ErrorReply(entries.status());
    }
    listing = std::make_shared<const std::vector<kernel::DirEntry>>(
        std::move(entries).value());
  }
  // One getdents64 window of `req.size` entries starting at the cursor.
  size_t begin = std::min<size_t>(req.offset, listing->size());
  size_t end = req.size > 0 ? std::min<size_t>(begin + req.size, listing->size())
                            : listing->size();
  FuseReply reply;
  reply.entries_plus.reserve(end - begin);
  for (size_t i = begin; i < end; ++i) {
    fuse::FuseDirentPlus dent;
    dent.dirent = (*listing)[i];
    // Each child is stat'ed through the open directory handle — one
    // fstatat(dirfd, name) instead of the open(O_PATH)+fstat pair a LOOKUP
    // costs (no cntrfs_lookup_ns tax). Batching the attrs into this single
    // reply is what collapses the cold-walk round-trip storm (§5.2.2).
    if (dent.dirent.name != "." && dent.dirent.name != "..") {
      auto child = kernel_->LookupChild(*server_proc_, dir.value(), dent.dirent.name);
      if (child.ok()) {
        auto entry = MakeEntry(child.value());
        if (entry.ok()) {
          dent.entry = entry.value();  // nodeid stays 0 on failure
        }
      }
    }
    reply.entries_plus.push_back(std::move(dent));
  }
  // Keep (or retire) the stream. The client stops after any short window
  // (getdents semantics), so a full window means it will come back — keep
  // the snapshot even when the cursor sits exactly at the end, or the final
  // empty probe of an exact-multiple listing would re-list the directory.
  bool full_window = req.size > 0 && (end - begin) == req.size;
  if (full_window) {
    uint64_t token = req.fh != 0 ? req.fh : next_fh_.fetch_add(1);
    std::lock_guard<analysis::CheckedMutex> lock(streams_mu_);
    // Bound abandoned streams (a client that errors mid-walk never sends
    // the final short-window request); evicting the oldest is safe — a
    // stale token just re-snapshots once.
    if (dir_streams_.count(token) == 0 && dir_streams_.size() >= 256) {
      dir_streams_.erase(dir_streams_.begin());
    }
    dir_streams_[token] = std::move(listing);
    reply.fh = token;
  } else if (req.fh != 0) {
    std::lock_guard<analysis::CheckedMutex> lock(streams_mu_);
    dir_streams_.erase(req.fh);
  }
  // Spliced payload stream: pack the direntplus records into pages so the
  // batch rides the channel lane like READ data (vmsplice of the server's
  // reply buffer). The kernel unpacks from pages — or from `data` if the
  // lane was full and the transport flattened the payload. No pack cost is
  // charged: the typed copy path ships the same records for free, and the
  // lane's copy fallback already bills the flatten — charging here too
  // would double-bill exactly the contended case.
  if (req.splice_ok && !reply.entries_plus.empty()) {
    reply.pages = PackDirentsPlus(reply.entries_plus);
    reply.entries_plus.clear();
  }
  return reply;
}

FuseReply CntrFsServer::DoMknod(const FuseRequest& req) {
  creates_->Add();
  auto dir = NodePath(req.nodeid);
  if (!dir.ok()) {
    return ErrorReply(dir.status());
  }
  kernel_->clock().Advance(kernel_->costs().syscall_entry_ns);
  Credentials creds = CallerCreds(req);
  auto dattr = dir->inode->Getattr();
  if (!dattr.ok()) {
    return ErrorReply(dattr.status());
  }
  Status perm = kernel::CheckAccess(dattr.value(), creds,
                                    kernel::kAccessWrite | kernel::kAccessExec);
  if (!perm.ok()) {
    return ErrorReply(perm);
  }
  auto child = dir->inode->Create(req.name, req.mode, req.rdev, creds);
  if (!child.ok()) {
    return ErrorReply(child.status());
  }
  auto entry = MakeEntry(VfsPath{dir->mount, child.value()});
  if (!entry.ok()) {
    return ErrorReply(entry.status());
  }
  FuseReply reply;
  reply.entry = entry.value();
  return reply;
}

FuseReply CntrFsServer::DoMkdir(const FuseRequest& req) {
  auto dir = NodePath(req.nodeid);
  if (!dir.ok()) {
    return ErrorReply(dir.status());
  }
  kernel_->clock().Advance(kernel_->costs().syscall_entry_ns);
  Credentials creds = CallerCreds(req);
  auto dattr = dir->inode->Getattr();
  if (!dattr.ok()) {
    return ErrorReply(dattr.status());
  }
  Status perm = kernel::CheckAccess(dattr.value(), creds,
                                    kernel::kAccessWrite | kernel::kAccessExec);
  if (!perm.ok()) {
    return ErrorReply(perm);
  }
  auto child = dir->inode->Mkdir(req.name, req.mode, creds);
  if (!child.ok()) {
    return ErrorReply(child.status());
  }
  auto entry = MakeEntry(VfsPath{dir->mount, child.value()});
  if (!entry.ok()) {
    return ErrorReply(entry.status());
  }
  FuseReply reply;
  reply.entry = entry.value();
  return reply;
}

FuseReply CntrFsServer::DoUnlink(const FuseRequest& req, bool dir) {
  auto parent = NodePath(req.nodeid);
  if (!parent.ok()) {
    return ErrorReply(parent.status());
  }
  kernel_->clock().Advance(kernel_->costs().syscall_entry_ns);
  Credentials creds = CallerCreds(req);
  auto dattr = parent->inode->Getattr();
  if (!dattr.ok()) {
    return ErrorReply(dattr.status());
  }
  Status perm = kernel::CheckAccess(dattr.value(), creds,
                                    kernel::kAccessWrite | kernel::kAccessExec);
  if (!perm.ok()) {
    return ErrorReply(perm);
  }
  Status st = dir ? parent->inode->Rmdir(req.name) : parent->inode->Unlink(req.name);
  if (!st.ok()) {
    return ErrorReply(st);
  }
  kernel_->dcache().Invalidate(parent->inode.get(), req.name);
  return FuseReply{};
}

FuseReply CntrFsServer::DoSymlink(const FuseRequest& req) {
  auto dir = NodePath(req.nodeid);
  if (!dir.ok()) {
    return ErrorReply(dir.status());
  }
  kernel_->clock().Advance(kernel_->costs().syscall_entry_ns);
  auto child = dir->inode->Symlink(req.name, req.data, CallerCreds(req));
  if (!child.ok()) {
    return ErrorReply(child.status());
  }
  auto entry = MakeEntry(VfsPath{dir->mount, child.value()});
  if (!entry.ok()) {
    return ErrorReply(entry.status());
  }
  FuseReply reply;
  reply.entry = entry.value();
  return reply;
}

FuseReply CntrFsServer::DoReadlink(const FuseRequest& req) {
  auto path = NodePath(req.nodeid);
  if (!path.ok()) {
    return ErrorReply(path.status());
  }
  kernel_->clock().Advance(kernel_->costs().syscall_entry_ns);
  auto target = path->inode->Readlink();
  if (!target.ok()) {
    return ErrorReply(target.status());
  }
  FuseReply reply;
  reply.data = std::move(target).value();
  return reply;
}

FuseReply CntrFsServer::DoLink(const FuseRequest& req) {
  auto dir = NodePath(req.nodeid);
  auto target = NodePath(req.nodeid2);
  if (!dir.ok()) {
    return ErrorReply(dir.status());
  }
  if (!target.ok()) {
    return ErrorReply(target.status());
  }
  kernel_->clock().Advance(kernel_->costs().syscall_entry_ns);
  Status st = dir->inode->Link(req.name, target->inode);
  if (!st.ok()) {
    return ErrorReply(st);
  }
  auto entry = MakeEntry(VfsPath{dir->mount, target->inode});
  if (!entry.ok()) {
    return ErrorReply(entry.status());
  }
  FuseReply reply;
  reply.entry = entry.value();
  return reply;
}

FuseReply CntrFsServer::DoRename(const FuseRequest& req) {
  auto src_dir = NodePath(req.nodeid);
  auto dst_dir = NodePath(req.nodeid2);
  if (!src_dir.ok()) {
    return ErrorReply(src_dir.status());
  }
  if (!dst_dir.ok()) {
    return ErrorReply(dst_dir.status());
  }
  if (src_dir->mount->fs() != dst_dir->mount->fs()) {
    return FuseReply::Error(EXDEV);
  }
  kernel_->clock().Advance(kernel_->costs().syscall_entry_ns);
  Status st = src_dir->mount->fs()->Rename(src_dir->inode, req.name, dst_dir->inode, req.name2,
                                           static_cast<uint32_t>(req.flags));
  if (!st.ok()) {
    return ErrorReply(st);
  }
  kernel_->dcache().Invalidate(src_dir->inode.get(), req.name);
  kernel_->dcache().Invalidate(dst_dir->inode.get(), req.name2);
  return FuseReply{};
}

FuseReply CntrFsServer::DoStatfs(const FuseRequest& /*req*/) {
  kernel_->clock().Advance(kernel_->costs().syscall_entry_ns);
  auto statfs = root_.mount->fs()->Statfs();
  if (!statfs.ok()) {
    return ErrorReply(statfs.status());
  }
  FuseReply reply;
  reply.statfs = statfs.value();
  return reply;
}

FuseReply CntrFsServer::DoXattr(const FuseRequest& req) {
  auto path = NodePath(req.nodeid);
  if (!path.ok()) {
    return ErrorReply(path.status());
  }
  kernel_->clock().Advance(kernel_->costs().syscall_entry_ns);
  FuseReply reply;
  switch (req.opcode) {
    case FuseOpcode::kSetxattr: {
      Status st = path->inode->SetXattr(req.name, req.data, req.flags);
      if (!st.ok()) {
        return ErrorReply(st);
      }
      return reply;
    }
    case FuseOpcode::kGetxattr: {
      auto value = path->inode->GetXattr(req.name);
      if (!value.ok()) {
        return ErrorReply(value.status());
      }
      reply.data = std::move(value).value();
      return reply;
    }
    case FuseOpcode::kListxattr: {
      auto names = path->inode->ListXattr();
      if (!names.ok()) {
        return ErrorReply(names.status());
      }
      reply.names = std::move(names).value();
      return reply;
    }
    case FuseOpcode::kRemovexattr: {
      Status st = path->inode->RemoveXattr(req.name);
      if (!st.ok()) {
        return ErrorReply(st);
      }
      return reply;
    }
    default:
      return FuseReply::Error(ENOSYS);
  }
}

FuseReply CntrFsServer::DoAccess(const FuseRequest& req) {
  auto path = NodePath(req.nodeid);
  if (!path.ok()) {
    return ErrorReply(path.status());
  }
  auto attr = path->inode->Getattr();
  if (!attr.ok()) {
    return ErrorReply(attr.status());
  }
  Status st = kernel::CheckAccess(attr.value(), CallerCreds(req),
                                  static_cast<int>(req.size));
  if (!st.ok()) {
    return ErrorReply(st);
  }
  return FuseReply{};
}

FuseReply CntrFsServer::DoForget(const FuseRequest& req) {
  forgets_->Add();
  // Each forget returns `nlookup` lookups at once (fuse_forget_one): LOOKUP
  // and READDIRPLUS both raise lookup_count, and the kernel sends one FORGET
  // per inode lifetime carrying the full balance. The node's shard owns the
  // (dev, ino) mapping too (shard index is baked into the nodeid), so the
  // whole drop stays under one stripe lock.
  auto drop = [&](const fuse::FuseRequest::Forget& forget) {
    NodeShard& shard = ShardOfNode(forget.nodeid);
    std::lock_guard<analysis::CheckedMutex> lock(shard.mu);
    auto it = shard.nodes.find(forget.nodeid);
    if (it == shard.nodes.end()) {
      return;
    }
    uint64_t returned = std::min(forget.nlookup, it->second.lookup_count);
    it->second.lookup_count -= returned;
    if (it->second.lookup_count == 0) {
      shard.by_dev_ino.erase(it->second.dev_ino);
      shard.nodes.erase(it);
    }
  };
  for (const auto& forget : req.forgets) {
    drop(forget);
  }
  return FuseReply{};
}

size_t CntrFsServer::NodeTableSize() const {
  size_t total = 0;
  for (const NodeShard& shard : node_shards_) {
    std::lock_guard<analysis::CheckedMutex> lock(shard.mu);
    total += shard.nodes.size();
  }
  return total;
}

void CntrFsServer::OnDestroy() {
  {
    std::lock_guard<analysis::CheckedMutex> lock(files_mu_);
    open_files_.clear();
  }
  {
    std::lock_guard<analysis::CheckedMutex> lock(streams_mu_);
    dir_streams_.clear();
  }
  for (NodeShard& shard : node_shards_) {
    std::lock_guard<analysis::CheckedMutex> lock(shard.mu);
    shard.nodes.clear();
    shard.by_dev_ino.clear();
  }
}

}  // namespace cntr::core
