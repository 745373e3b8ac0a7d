#include "src/fuse/fuse_fs.h"

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "src/fault/fault.h"
#include "src/util/logging.h"
#include "src/analysis/lockdep.h"

namespace cntr::fuse {

using kernel::DirEntry;
using kernel::FilePtr;
using kernel::InodeAttr;
using kernel::InodePtr;
using kernel::kPageSize;

namespace {
CNTR_FAULT_POINT(kFaultFlusher, "fuse.flusher");
}  // namespace

// Open file over a FUSE inode; directories carry a dir handle. Registered
// with the owning FuseFs so Reconnect can re-open live handles by nodeid; a
// handle the restarted server cannot resolve goes stale and answers EIO.
class FuseFile : public kernel::FileDescription {
 public:
  FuseFile(std::shared_ptr<FuseInode> inode, int flags, uint64_t fh, bool is_dir)
      : kernel::FileDescription(inode, flags),
        fuse_inode_(std::move(inode)),
        fh_(fh),
        is_dir_(is_dir),
        open_flags_(flags),
        wb_err_seen_(fuse_inode_->fuse_fs()->wb_err_seq()) {
    fuse_inode_->fuse_fs()->RegisterFile(this);
  }

  ~FuseFile() override {
    auto* fs = fuse_inode_->fuse_fs();
    fs->UnregisterFile(this);
    // RELEASE/RELEASEDIR on last close; flush dirty data first so the
    // server observes the bytes (close-to-open consistency).
    if (fs->conn().aborted() || stale_.load(std::memory_order_acquire)) {
      return;
    }
    if (!is_dir_ && writable() && fs->options().writeback_cache) {
      fuse_inode_->FlushDirtyPages(fh());
    }
    FuseRequest req;
    req.opcode = is_dir_ ? FuseOpcode::kReleasedir : FuseOpcode::kRelease;
    req.nodeid = fuse_inode_->nodeid();
    req.fh = fh();
    (void)fs->Call(std::move(req));
  }

  StatusOr<size_t> Read(void* buf, size_t count, uint64_t offset) override {
    if (!readable()) {
      return Status::Error(EBADF);
    }
    if (stale_.load(std::memory_order_acquire)) {
      return Status::Error(EIO, "stale handle after reconnect");
    }
    return fuse_inode_->ReadData(static_cast<char*>(buf), count, offset, fh(), &readahead_);
  }

  StatusOr<size_t> Write(const void* buf, size_t count, uint64_t offset) override {
    if (!writable()) {
      return Status::Error(EBADF);
    }
    if (stale_.load(std::memory_order_acquire)) {
      return Status::Error(EIO, "stale handle after reconnect");
    }
    return fuse_inode_->WriteData(static_cast<const char*>(buf), count, offset, fh());
  }

  Status Fsync(bool datasync) override {
    auto* fs = fuse_inode_->fuse_fs();
    if (stale_.load(std::memory_order_acquire)) {
      return Status::Error(EIO, "stale handle after reconnect");
    }
    Status status = fuse_inode_->FsyncData(datasync, fh());
    // errseq check: a writeback failure since this fd last looked (its own
    // flush just now, a background flusher, anyone's) surfaces here exactly
    // once, even though the lost pages were marked clean at failure time.
    int err = fs->CheckWbErr(&wb_err_seen_);
    if (status.ok() && err != 0) {
      return Status::Error(err, "writeback failed since last fsync (errseq)");
    }
    return status;
  }

  Status Release() override {
    // Last close: flush, then report any unseen writeback error so a lost
    // async write cannot vanish silently (close-time errseq check).
    auto* fs = fuse_inode_->fuse_fs();
    if (!is_dir_ && writable() && fs->options().writeback_cache &&
        !fs->conn().aborted() && !stale_.load(std::memory_order_acquire)) {
      fuse_inode_->FlushDirtyPages(fh());
    }
    int err = fs->CheckWbErr(&wb_err_seen_);
    if (err != 0) {
      return Status::Error(err, "writeback failed before close (errseq)");
    }
    return Status::Ok();
  }

  StatusOr<std::vector<DirEntry>> Readdir() override {
    if (!is_dir_) {
      return Status::Error(ENOTDIR);
    }
    if (stale_.load(std::memory_order_acquire)) {
      return Status::Error(EIO, "stale handle after reconnect");
    }
    // Seekdir detection (Linux: fuse_use_readdirplus refuses mid-stream
    // reads): a consumer that repositions the directory cursor re-lists
    // windows it already has, and priming the same children again is pure
    // tax — once seen, this handle stays on plain READDIR.
    if (offset() != 0) {
      seekdir_observed_ = true;
    }
    if (!seekdir_observed_ && fuse_inode_->DecideReaddirPlus()) {
      return fuse_inode_->ReaddirPlus();
    }
    FuseRequest req;
    req.opcode = FuseOpcode::kReaddir;
    req.nodeid = fuse_inode_->nodeid();
    req.fh = fh();
    CNTR_ASSIGN_OR_RETURN(FuseReply reply, fuse_inode_->fuse_fs()->Call(std::move(req)));
    return reply.entries;
  }

  // Reconnect path: re-open this handle against the restarted server by
  // nodeid. Failure marks the handle stale — EIO from then on, the same
  // contract as a revoked descriptor.
  Status Reopen() {
    auto* fs = fuse_inode_->fuse_fs();
    FuseRequest req;
    req.opcode = is_dir_ ? FuseOpcode::kOpendir : FuseOpcode::kOpen;
    req.nodeid = fuse_inode_->nodeid();
    req.flags = open_flags_;
    auto reply = fs->Call(std::move(req));
    if (!reply.ok()) {
      stale_.store(true, std::memory_order_release);
      return reply.status();
    }
    fh_.store(reply.value().fh, std::memory_order_release);
    stale_.store(false, std::memory_order_release);
    fuse_inode_->NoteOpenFh(reply.value().fh);
    return Status::Ok();
  }

  uint64_t fh() const { return fh_.load(std::memory_order_acquire); }
  bool stale() const { return stale_.load(std::memory_order_acquire); }

 private:
  std::shared_ptr<FuseInode> fuse_inode_;
  // Atomic: Reopen swaps the server handle while other threads may still be
  // draining EIO-bound operations against the old value.
  std::atomic<uint64_t> fh_;
  bool is_dir_;
  int open_flags_;
  std::atomic<bool> stale_{false};
  // errseq cursor, sampled at open: this fd reports only writeback errors
  // that happen after it existed, and each at most once.
  uint64_t wb_err_seen_;
  bool seekdir_observed_ = false;
  // Per-open-file readahead ramp: sequential streams grow toward the
  // negotiated ceiling, random access collapses (see kernel/readahead.h).
  kernel::FileReadahead readahead_;
};

// ---------------------------------------------------------------------------
// FuseFs
// ---------------------------------------------------------------------------

StatusOr<std::shared_ptr<FuseFs>> FuseFs::Create(kernel::Kernel* kernel,
                                                 std::shared_ptr<FuseConn> conn,
                                                 FuseMountOptions opts) {
  auto fs = std::shared_ptr<FuseFs>(
      new FuseFs(kernel, std::move(conn), opts));

  CNTR_RETURN_IF_ERROR(fs->NegotiateInit());

  // GETATTR of the root to seed the root inode.
  FuseRequest getattr;
  getattr.opcode = FuseOpcode::kGetattr;
  getattr.nodeid = kFuseRootId;
  CNTR_ASSIGN_OR_RETURN(FuseReply root_reply, fs->conn_->SendAndWait(std::move(getattr)));

  fs->root_ = std::make_shared<FuseInode>(fs.get(), kFuseRootId, root_reply.attr,
                                          fs->kernel_->NowNs() + opts.attr_ttl_ns);
  {
    std::lock_guard<analysis::CheckedMutex> lock(fs->inodes_mu_);
    fs->inodes_[kFuseRootId] = fs->root_;
  }
  if (opts.writeback_cache && opts.flusher_threads > 0) {
    fs->StartFlushers();
  }
  return fs;
}

FuseFs::FuseFs(kernel::Kernel* kernel, std::shared_ptr<FuseConn> conn, FuseMountOptions opts)
    : kernel::FileSystem(kernel->AllocDevId()), kernel_(kernel), conn_(std::move(conn)),
      opts_(opts) {}

FuseFs::~FuseFs() { StopFlushers(); }

Status FuseFs::NegotiateInit() {
  // INIT negotiation.
  FuseRequest init;
  init.opcode = FuseOpcode::kInit;
  init.init_flags = (opts_.async_read ? kFuseAsyncRead : 0) |
                    (opts_.splice_read ? kFuseSpliceRead : 0) |
                    (opts_.splice_write ? kFuseSpliceWrite : 0) |
                    (opts_.splice_move ? kFuseSpliceMove : 0) |
                    (opts_.parallel_dirops ? kFuseParallelDirops : 0) |
                    (opts_.writeback_cache ? kFuseWritebackCache : 0) |
                    (opts_.readdirplus ? kFuseDoReaddirplus : 0) |
                    (opts_.max_pages > 0 ? kFuseMaxPages : 0) |
                    (opts_.ring_enabled ? kFuseRingSubmission : 0);
  init.max_pages = std::min(opts_.max_pages, kFuseMaxMaxPages);
  // INIT itself always pays the wakeup profile: the connection is fresh,
  // nothing is negotiated yet, and ConfigureRing below only switches a
  // quiet connection — i.e. after this reply has fully drained.
  CNTR_ASSIGN_OR_RETURN(FuseReply init_reply, conn_->SendAndWait(std::move(init)));
  readdirplus_enabled_ =
      opts_.readdirplus && (init_reply.init_flags & kFuseDoReaddirplus) != 0;
  splice_read_enabled_ =
      opts_.splice_read && (init_reply.init_flags & kFuseSpliceRead) != 0;
  splice_write_enabled_ =
      opts_.splice_write && (init_reply.init_flags & kFuseSpliceWrite) != 0;
  splice_move_enabled_ =
      opts_.splice_move && (init_reply.init_flags & kFuseSpliceMove) != 0;

  // Ring profile: both sides must speak it (an old server echoes the flags
  // without the bit and the mount keeps the wakeup profile), and the
  // connection must accept the switch.
  ring_enabled_ = false;
  if (opts_.ring_enabled && (init_reply.init_flags & kFuseRingSubmission) != 0) {
    ring_enabled_ =
        conn_->ConfigureRing(opts_.ring_depth, opts_.ring_spin_budget) > 0;
  }

  // FUSE_MAX_PAGES: an old server echoes the flags without the bit (or
  // grants 0 pages) — fall back to the legacy 32-page / 128KiB windows.
  negotiated_max_pages_ = 0;
  if (opts_.max_pages > 0 && (init_reply.init_flags & kFuseMaxPages) != 0 &&
      init_reply.max_pages > 0) {
    negotiated_max_pages_ =
        std::min({init_reply.max_pages, opts_.max_pages, kFuseMaxMaxPages});
  }
  effective_max_write_ = opts_.max_write;
  readahead_ceiling_pages_ = std::max<uint32_t>(1, opts_.readahead_pages);
  if (negotiated_max_pages_ > 0) {
    effective_max_write_ = std::max<uint32_t>(
        opts_.max_write, negotiated_max_pages_ * static_cast<uint32_t>(kPageSize));
    readahead_ceiling_pages_ =
        std::max(readahead_ceiling_pages_, negotiated_max_pages_);
  }

  if (splice_read_enabled_ || splice_write_enabled_) {
    // Size the channel data lanes (fcntl(F_SETPIPE_SZ) at mount time),
    // clamped to the pipe limits so an oversized pipe_pages degrades to the
    // largest legal lane instead of silently keeping the default (which
    // would bounce every large payload to the copy path).
    size_t lane_bytes =
        static_cast<size_t>(std::max<uint32_t>(1, opts_.pipe_pages)) * kPageSize;
    if (opts_.lane_autosize) {
      // Lane follow-through: a negotiation that raised the payload window
      // past pipe_pages must grow the lanes with it, or every big window
      // would silently bounce to the copy path.
      if (splice_read_enabled_) {
        lane_bytes = std::max<size_t>(
            lane_bytes, static_cast<size_t>(readahead_ceiling_pages_) * kPageSize);
      }
      if (splice_write_enabled_) {
        lane_bytes = std::max<size_t>(lane_bytes, effective_max_write_);
      }
    }
    lane_bytes = std::min<size_t>(lane_bytes, kernel::kPipeMaxCapacity);
    CNTR_RETURN_IF_ERROR(conn_->SetLaneCapacity(lane_bytes).status());
  }
  conn_->SetLaneAutosize(opts_.lane_autosize);

  // Failure plane: deadlines, the admission gate, and the
  // consecutive-miss abort policy (all default-off).
  if (opts_.request_deadline_ns != 0) {
    conn_->SetRequestDeadline(opts_.request_deadline_ns, opts_.deadline_grace_ms);
  }
  conn_->SetMaxBackground(opts_.max_background);
  conn_->SetAbortOnConsecutiveTimeouts(opts_.abort_after_timeouts);
  // Observability: 0 keeps whatever CNTR_SLOW_REQUEST_NS seeded.
  if (opts_.slow_request_ns != 0) {
    conn_->SetSlowRequestNs(opts_.slow_request_ns);
  }
  return Status::Ok();
}

void FuseFs::RecordWbErr(int err) {
  if (err == 0) {
    return;
  }
  wb_err_.store(err, std::memory_order_release);
  wb_err_seq_.fetch_add(1, std::memory_order_acq_rel);
}

int FuseFs::CheckWbErr(uint64_t* seen) const {
  uint64_t seq = wb_err_seq_.load(std::memory_order_acquire);
  if (seq == *seen) {
    return 0;
  }
  *seen = seq;
  return wb_err_.load(std::memory_order_acquire);
}

void FuseFs::RegisterFile(FuseFile* file) {
  std::lock_guard<analysis::CheckedMutex> lock(files_mu_);
  live_files_.push_back(file);
}

void FuseFs::UnregisterFile(FuseFile* file) {
  std::lock_guard<analysis::CheckedMutex> lock(files_mu_);
  live_files_.erase(std::remove(live_files_.begin(), live_files_.end(), file),
                    live_files_.end());
}

Status FuseFs::Reconnect(std::shared_ptr<FuseConn> conn) {
  if (conn == nullptr || conn.get() == conn_.get()) {
    return Status::Error(EINVAL, "reconnect needs a fresh connection");
  }
  if (root_ == nullptr) {
    return Status::Error(ENOTCONN, "filesystem already shut down");
  }
  if (!conn_->aborted()) {
    // The old transport must be dead before the swap (its parked waiters
    // resolve through its abort path, they never migrate): adopting a
    // replacement under a healthy connection is a caller bug, not a repair.
    return Status::Error(EINVAL, "reconnect over a live connection");
  }
  conn_ = std::move(conn);
  CNTR_RETURN_IF_ERROR(NegotiateInit());

  // Refresh the root attributes from the restarted server.
  FuseRequest getattr;
  getattr.opcode = FuseOpcode::kGetattr;
  getattr.nodeid = kFuseRootId;
  CNTR_ASSIGN_OR_RETURN(FuseReply root_reply, conn_->SendAndWait(std::move(getattr)));
  root_->PrimeAttr(root_reply.attr, opts_.attr_ttl_ns);

  // Re-open every live handle by nodeid. A failure marks that one handle
  // stale (EIO) without failing the reconnect: the mount as a whole is
  // healthy again, individual revoked descriptors are the per-fd story.
  std::vector<FuseFile*> files;
  {
    std::lock_guard<analysis::CheckedMutex> lock(files_mu_);
    files = live_files_;
  }
  for (FuseFile* file : files) {
    (void)file->Reopen();
  }

  // Restart the writeback machinery: reap any flusher threads the crash
  // killed (a fuse.flusher kKill fault exits the thread body but leaves it
  // joinable), then bring the pool back to full strength.
  if (opts_.writeback_cache && opts_.flusher_threads > 0 &&
      flusher_count_.load(std::memory_order_acquire) < opts_.flusher_threads) {
    StopFlushers();
    StartFlushers();
  }
  return Status::Ok();
}

InodePtr FuseFs::root() { return root_; }

StatusOr<kernel::StatFs> FuseFs::Statfs() {
  FuseRequest req;
  req.opcode = FuseOpcode::kStatfs;
  req.nodeid = kFuseRootId;
  CNTR_ASSIGN_OR_RETURN(FuseReply reply, Call(std::move(req)));
  return reply.statfs;
}

Status FuseFs::Rename(const InodePtr& old_dir, const std::string& old_name,
                      const InodePtr& new_dir, const std::string& new_name, uint32_t flags) {
  auto* od = dynamic_cast<FuseInode*>(old_dir.get());
  auto* nd = dynamic_cast<FuseInode*>(new_dir.get());
  if (od == nullptr || nd == nullptr) {
    return Status::Error(EXDEV);
  }
  FuseRequest req;
  req.opcode = FuseOpcode::kRename;
  req.nodeid = od->nodeid();
  req.nodeid2 = nd->nodeid();
  req.name = old_name;
  req.name2 = new_name;
  req.flags = static_cast<int32_t>(flags);
  return Call(std::move(req)).status();
}

StatusOr<FuseReply> FuseFs::Call(FuseRequest req) {
  // Stamp the caller's identity (fuse_in_header.pid): the transport routes
  // requests to their sticky per-process channel with it.
  if (req.pid == 0) {
    req.pid = kernel::Kernel::CurrentPid();
  }
  // Without FUSE_PARALLEL_DIROPS, directory operations serialize on the
  // directory mutex: an extra queue round per op, and the server-side
  // lookup work cannot overlap any other traffic (Figure 3c's "before").
  if (!opts_.parallel_dirops &&
      (req.opcode == FuseOpcode::kLookup || req.opcode == FuseOpcode::kReaddir ||
       req.opcode == FuseOpcode::kReaddirPlus || req.opcode == FuseOpcode::kOpendir)) {
    kernel_->clock().Advance(kernel_->costs().fuse_round_trip_ns);
    if (req.opcode == FuseOpcode::kLookup) {
      kernel_->clock().Advance(kernel_->costs().cntrfs_lookup_ns);
    }
  }
  // Splice write moves the whole request through a pipe before the header
  // can be parsed, adding a context switch to *every* operation (§3.3 —
  // the reason it defaults to off). The payload-side win (page refs riding
  // the channel lane instead of being copied) is what buys that hop back on
  // large writes; the producers attach payload_pages and set `spliced`.
  if (opts_.splice_write) {
    kernel_->clock().Advance(kernel_->costs().fuse_round_trip_ns / 2);
  }
  auto reply = conn_->SendAndWait(std::move(req));
  if (!reply.ok() && reply.status().error() == ENOTCONN) {
    // Crash degradation: an aborted mount answers EIO at the filesystem
    // boundary — the error a dead disk would produce — instead of leaking
    // the transport's ENOTCONN to applications.
    return Status::Error(EIO, "fuse mount aborted");
  }
  return reply;
}

InodePtr FuseFs::GetOrCreateInode(const FuseEntryOut& entry) {
  std::shared_ptr<FuseInode> existing;
  {
    std::lock_guard<analysis::CheckedMutex> lock(inodes_mu_);
    auto it = inodes_.find(entry.nodeid);
    if (it != inodes_.end()) {
      existing = it->second.lock();
    }
    if (existing == nullptr) {
      auto inode = std::make_shared<FuseInode>(this, entry.nodeid, entry.attr,
                                               kernel_->NowNs() + entry.attr_ttl_ns);
      inodes_[entry.nodeid] = inode;
      return inode;
    }
    // The server interned another lookup for this nodeid; remember it so
    // the eventual FORGET returns the full balance.
    existing->nlookup_.fetch_add(1, std::memory_order_relaxed);
  }
  // The server's reply carries fresher attributes than the cached inode.
  existing->PrimeAttr(entry.attr, entry.attr_ttl_ns);
  return existing;
}

void FuseFs::EraseInode(uint64_t nodeid) {
  std::lock_guard<analysis::CheckedMutex> lock(inodes_mu_);
  auto it = inodes_.find(nodeid);
  // A lookup that found this entry already expired may have installed a
  // live replacement for the same nodeid: that one stays.
  if (it != inodes_.end() && it->second.expired()) {
    inodes_.erase(it);
  }
}

size_t FuseFs::inode_table_size() const {
  std::lock_guard<analysis::CheckedMutex> lock(inodes_mu_);
  return inodes_.size();
}

InodePtr FuseFs::PrimeChild(FuseInode* dir, const std::string& name, const FuseEntryOut& entry) {
  InodePtr child = GetOrCreateInode(entry);
  if (auto* fchild = dynamic_cast<FuseInode*>(child.get())) {
    fchild->SetParentHint(std::static_pointer_cast<FuseInode>(dir->shared_from_this()));
    // Adaptivity sample: the first cache-hit Getattr on this child claims
    // the flag and credits `dir` with a consumed priming.
    fchild->attr_primed_unclaimed_.store(true, std::memory_order_relaxed);
  }
  kernel_->dcache().Insert(dir, name, child, entry.entry_ttl_ns);
  return child;
}

void FuseFs::QueueForget(uint64_t nodeid, uint64_t nlookup) {
  if (conn_->aborted()) {
    return;
  }
  if (!opts_.batch_forget) {
    FuseRequest req;
    req.opcode = FuseOpcode::kForget;
    req.nodeid = nodeid;
    // The forget rides the dropping caller's sticky channel, behind the
    // LOOKUP replies whose balance it returns — never reordered ahead.
    req.pid = kernel::Kernel::CurrentPid();
    req.forgets.push_back(FuseRequest::Forget{nodeid, nlookup});
    conn_->SendNoReply(std::move(req));
    return;
  }
  std::vector<FuseRequest::Forget> batch;
  {
    std::lock_guard<analysis::CheckedMutex> lock(forget_mu_);
    forget_queue_.push_back(FuseRequest::Forget{nodeid, nlookup});
    if (forget_queue_.size() < 64) {
      return;
    }
    batch.swap(forget_queue_);
  }
  FuseRequest req;
  req.opcode = FuseOpcode::kBatchForget;
  req.pid = kernel::Kernel::CurrentPid();
  req.forgets = std::move(batch);
  conn_->SendNoReply(std::move(req));
}

void FuseFs::FlushForgets() {
  std::vector<FuseRequest::Forget> batch;
  {
    std::lock_guard<analysis::CheckedMutex> lock(forget_mu_);
    batch.swap(forget_queue_);
  }
  if (batch.empty() || conn_->aborted()) {
    return;
  }
  FuseRequest req;
  req.opcode = FuseOpcode::kBatchForget;
  req.pid = kernel::Kernel::CurrentPid();
  req.forgets = std::move(batch);
  conn_->SendNoReply(std::move(req));
}

void FuseFs::NoteDirty(FuseInode* inode, uint64_t newly_dirty_bytes) {
  dirty_bytes_.fetch_add(newly_dirty_bytes);
  {
    std::lock_guard<analysis::CheckedMutex> lock(dirty_mu_);
    if (!inode->dirty_registered_) {
      inode->dirty_registered_ = true;
      dirty_inodes_.push_back(DirtyRef{
          inode, std::static_pointer_cast<FuseInode>(inode->weak_from_this().lock())});
    }
  }
  uint64_t total = dirty_bytes_.load();
  bool have_flushers = flusher_count_.load(std::memory_order_acquire) > 0;
  if (have_flushers) {
    // Background draining: one file past its per-inode limit is handed to
    // the flushers; past the soft watermark the whole registered dirty set
    // is (an idle inode's dirty tail must not be able to pin the pool above
    // the watermark). The writer continues immediately either way.
    if (total >= opts_.dirty_soft_bytes) {
      std::vector<DirtyRef> all;
      {
        std::lock_guard<analysis::CheckedMutex> lock(dirty_mu_);
        all = dirty_inodes_;
      }
      for (const DirtyRef& r : all) {
        if (auto pinned = r.ref.lock()) {
          QueueFlush(pinned.get());
        }
      }
    } else if (kernel_->page_cache().DirtyBytes(inode) >= opts_.per_inode_dirty_bytes) {
      QueueFlush(inode);
    }
    // Hard watermark: dirty production is outrunning the flushers. Throttle
    // the writer with bounded work — it cleans its *own* inode, never the
    // whole dirty set (balance_dirty_pages-style write-behind).
    if (total >= opts_.dirty_hard_bytes) {
      foreground_throttles_.fetch_add(1, std::memory_order_relaxed);
      inode->FlushDirtyPages(UINT64_MAX);
    }
  } else if (total >= opts_.dirty_hard_bytes) {
    // Legacy behaviour (flushers disabled): the writer synchronously drains
    // everything at the hard watermark — the flush storm the adaptive path
    // exists to avoid.
    foreground_throttles_.fetch_add(1, std::memory_order_relaxed);
    FlushAllDirty();
  }
}

void FuseFs::SubDirty(uint64_t bytes) {
  uint64_t cur = dirty_bytes_.load();
  while (!dirty_bytes_.compare_exchange_weak(cur, cur - std::min(cur, bytes))) {
  }
}

void FuseFs::ForgetDirty(FuseInode* inode) {
  std::lock_guard<analysis::CheckedMutex> lock(dirty_mu_);
  std::erase_if(dirty_inodes_, [&](const DirtyRef& r) { return r.key == inode; });
  inode->dirty_registered_ = false;
}

void FuseFs::FlushAllDirty() {
  std::vector<DirtyRef> victims;
  {
    std::lock_guard<analysis::CheckedMutex> lock(dirty_mu_);
    victims.swap(dirty_inodes_);
    for (const DirtyRef& r : victims) {
      r.key->dirty_registered_ = false;
    }
  }
  for (const DirtyRef& r : victims) {
    // Pin the inode across the flush; one that died already dropped (and
    // de-accounted) its dirty pages in ~FuseInode.
    if (auto inode = r.ref.lock()) {
      inode->FlushDirtyPages(UINT64_MAX);
    }
  }
}

void FuseFs::StartFlushers() {
  std::lock_guard<analysis::CheckedMutex> lock(flush_mu_);
  flushers_stop_ = false;
  flushers_.reserve(opts_.flusher_threads);
  for (uint32_t i = 0; i < opts_.flusher_threads; ++i) {
    flushers_.emplace_back([this] { FlusherLoop(); });
  }
  flusher_count_.store(static_cast<uint32_t>(flushers_.size()), std::memory_order_release);
}

void FuseFs::StopFlushers() {
  {
    std::lock_guard<analysis::CheckedMutex> lock(flush_mu_);
    if (flushers_.empty()) {
      return;
    }
    flushers_stop_ = true;
    // Writers fall back to the synchronous path from here on; the vector
    // itself is only mutated below, after the join.
    flusher_count_.store(0, std::memory_order_release);
  }
  flush_cv_.notify_all();
  for (std::thread& t : flushers_) {
    if (t.joinable()) {
      t.join();
    }
  }
  flushers_.clear();
}

void FuseFs::QueueFlush(FuseInode* inode) {
  if (inode->flush_queued_.exchange(true, std::memory_order_acq_rel)) {
    return;  // already queued
  }
  {
    std::lock_guard<analysis::CheckedMutex> lock(flush_mu_);
    flush_queue_.push_back(DirtyRef{
        inode, std::static_pointer_cast<FuseInode>(inode->weak_from_this().lock())});
  }
  flush_cv_.notify_one();
}

void FuseFs::FlusherLoop() {
  // Each flusher runs on its own SimClock lane: its round trips and the
  // server work they trigger accrue to a parallel virtual timeline, so
  // background writeback genuinely overlaps foreground progress instead of
  // inflating it (the whole point over the old synchronous drain).
  SimClock::LaneScope lane(std::make_shared<SimClock::Lane>());
  while (true) {
    DirtyRef work;
    {
      std::unique_lock<analysis::CheckedMutex> lock(flush_mu_);
      flush_cv_.wait(lock, [&] { return flushers_stop_ || !flush_queue_.empty(); });
      if (flushers_stop_ && flush_queue_.empty()) {
        return;
      }
      work = std::move(flush_queue_.front());
      flush_queue_.pop_front();
    }
    if (auto inode = work.ref.lock()) {
      inode->flush_queued_.store(false, std::memory_order_release);
      if (auto hit = kernel_->faults().Check(kFaultFlusher)) {
        if (hit.latency_ns != 0) {
          kernel_->clock().Advance(hit.latency_ns);
        }
        if (hit.action == fault::FaultAction::kKill) {
          // Flusher thread death: account it gone so writers fall back to
          // the synchronous path instead of queueing into the void.
          flusher_count_.fetch_sub(1, std::memory_order_acq_rel);
          return;
        }
        if (hit.action == fault::FaultAction::kFail) {
          // Simulated writeback failure without a round trip: the dirty
          // data is considered lost, and the errseq stream carries it.
          RecordWbErr(hit.error);
          continue;
        }
        continue;  // kDrop: skip this inode's flush (stays dirty, requeues)
      }
      // A flusher that wakes to a dead connection must not start a doomed
      // WRITE storm; FlushDirtyPages itself re-checks between runs for the
      // mid-flush abort.
      if (conn_->aborted()) {
        continue;
      }
      inode->FlushDirtyPages(UINT64_MAX);
      background_flushes_.fetch_add(1, std::memory_order_relaxed);
    } else if (work.key != nullptr) {
      // Died in the queue: nothing to flush (the destructor de-accounted).
    }
  }
}

Status FuseFs::Shutdown() {
  StopFlushers();
  // The final flush is the last chance to get dirty bytes to the server;
  // sample the errseq stream around it so a failure surfaces to the detach
  // caller even with no fd left open to report it.
  uint64_t wb_seen = wb_err_seq_.load(std::memory_order_acquire);
  FlushAllDirty();
  FlushForgets();
  Status result = Status::Ok();
  int err = CheckWbErr(&wb_seen);
  if (err != 0) {
    result = Status::Error(err, "writeback failed during detach (dirty data lost)");
  }
  if (!conn_->aborted()) {
    FuseRequest req;
    req.opcode = FuseOpcode::kDestroy;
    conn_->SendNoReply(std::move(req));
  }
  conn_->Abort();
  // Break the root's fs_ref_ cycle. The mount (and any live dcache entry or
  // open file) still holds its own inode references, and each of those pins
  // the fs until released.
  root_.reset();
  return result;
}

// ---------------------------------------------------------------------------
// FuseInode
// ---------------------------------------------------------------------------

FuseInode::FuseInode(FuseFs* fs, uint64_t nodeid, const InodeAttr& attr, uint64_t attr_expiry_ns)
    : kernel::Inode(fs, nodeid), fs_(fs), fs_ref_(fs->shared_from_this()), nodeid_(nodeid),
      attr_(attr), attr_expiry_ns_(attr_expiry_ns) {
  attr_.ino = nodeid;
  attr_.dev = fs->dev_id();
}

FuseInode::~FuseInode() {
  // Dirty pages dropped with the inode leave the writeback set for good:
  // return their bytes or the watermarks drift permanently upward.
  fs_->SubDirty(fs_->kernel()->page_cache().DropAll(this));
  fs_->ForgetDirty(this);
  fs_->EraseInode(nodeid_);
  if (nodeid_ != kFuseRootId) {
    fs_->QueueForget(nodeid_, nlookup_.load(std::memory_order_relaxed));
  }
}

bool FuseInode::AttrFreshLocked() const {
  return fs_->kernel()->NowNs() < attr_expiry_ns_;
}

void FuseInode::UpdateAttrLocked(const InodeAttr& attr, uint64_t ttl_ns) {
  attr_ = attr;
  attr_.ino = nodeid_;
  attr_.dev = fs_->dev_id();
  // The mount option caps the server-proposed validity, so attr_ttl_ns = 0
  // disables the attribute cache outright (every stat round-trips).
  attr_expiry_ns_ = fs_->kernel()->NowNs() + std::min(ttl_ns, fs_->options().attr_ttl_ns);
}

StatusOr<InodeAttr> FuseInode::Getattr() {
  {
    std::lock_guard<analysis::CheckedMutex> lock(mu_);
    if (AttrFreshLocked()) {
      fs_->kernel()->clock().Advance(fs_->kernel()->costs().dcache_hit_ns);
      // First read of a READDIRPLUS-primed attribute: credit the directory
      // — its per-child stat batching just saved a round trip.
      if (attr_primed_unclaimed_.exchange(false, std::memory_order_relaxed)) {
        if (auto parent = parent_hint_.lock()) {
          parent->NoteChildAttrConsumed();
        }
      }
      return attr_;
    }
  }
  FuseRequest req;
  req.opcode = FuseOpcode::kGetattr;
  req.nodeid = nodeid_;
  CNTR_ASSIGN_OR_RETURN(FuseReply reply, fs_->Call(std::move(req)));
  // A stat round trip on a child is the signal Linux feeds back as
  // FUSE_I_ADVISE_RDPLUS: stats are happening here, batching them pays.
  if (auto parent = ParentHint()) {
    parent->AdviseReaddirPlus();
  }
  std::lock_guard<analysis::CheckedMutex> lock(mu_);
  UpdateServerAttrLocked(reply.attr, reply.attr_ttl_ns != 0 ? reply.attr_ttl_ns
                                                            : fs_->options().attr_ttl_ns);
  return attr_;
}

Status FuseInode::Setattr(const kernel::SetattrRequest& sreq, const kernel::Credentials& cred) {
  FuseRequest req;
  req.opcode = FuseOpcode::kSetattr;
  req.nodeid = nodeid_;
  req.setattr = sreq;
  req.uid = cred.fsuid;
  req.gid = cred.fsgid;
  CNTR_ASSIGN_OR_RETURN(FuseReply reply, fs_->Call(std::move(req)));
  if (sreq.size.has_value()) {
    // Truncate drops dirty pages without a flush: return their bytes to the
    // writeback accounting or the watermarks drift permanently upward.
    fs_->SubDirty(fs_->kernel()->page_cache().TruncatePages(this, *sreq.size));
  }
  std::lock_guard<analysis::CheckedMutex> lock(mu_);
  UpdateAttrLocked(reply.attr, fs_->options().attr_ttl_ns);
  return Status::Ok();
}

StatusOr<InodePtr> FuseInode::Lookup(const std::string& name) {
  // fuse_advise_use_readdirplus: a LOOKUP round trip in this directory
  // means names (and their attrs) are being resolved one by one — batching
  // them pays, so lift any `ls`-style suppression.
  AdviseReaddirPlus();
  FuseRequest req;
  req.opcode = FuseOpcode::kLookup;
  req.nodeid = nodeid_;
  req.name = name;
  CNTR_ASSIGN_OR_RETURN(FuseReply reply, fs_->Call(std::move(req)));
  InodePtr child = fs_->GetOrCreateInode(reply.entry);
  if (auto* fchild = dynamic_cast<FuseInode*>(child.get())) {
    fchild->SetParentHint(std::static_pointer_cast<FuseInode>(shared_from_this()));
  }
  return child;
}

StatusOr<InodePtr> FuseInode::Create(const std::string& name, kernel::Mode mode,
                                     kernel::Dev rdev, const kernel::Credentials& cred) {
  FuseRequest req;
  req.opcode = FuseOpcode::kMknod;
  req.nodeid = nodeid_;
  req.name = name;
  req.mode = mode;
  req.rdev = rdev;
  req.uid = cred.fsuid;
  req.gid = cred.fsgid;
  CNTR_ASSIGN_OR_RETURN(FuseReply reply, fs_->Call(std::move(req)));
  InodePtr child = fs_->GetOrCreateInode(reply.entry);
  if (auto* fchild = dynamic_cast<FuseInode*>(child.get())) {
    fchild->SetParentHint(std::static_pointer_cast<FuseInode>(shared_from_this()));
  }
  return child;
}

StatusOr<InodePtr> FuseInode::Mkdir(const std::string& name, kernel::Mode mode,
                                    const kernel::Credentials& cred) {
  FuseRequest req;
  req.opcode = FuseOpcode::kMkdir;
  req.nodeid = nodeid_;
  req.name = name;
  req.mode = mode;
  req.uid = cred.fsuid;
  req.gid = cred.fsgid;
  CNTR_ASSIGN_OR_RETURN(FuseReply reply, fs_->Call(std::move(req)));
  InodePtr child = fs_->GetOrCreateInode(reply.entry);
  if (auto* fchild = dynamic_cast<FuseInode*>(child.get())) {
    fchild->SetParentHint(std::static_pointer_cast<FuseInode>(shared_from_this()));
  }
  return child;
}

Status FuseInode::Unlink(const std::string& name) {
  FuseRequest req;
  req.opcode = FuseOpcode::kUnlink;
  req.nodeid = nodeid_;
  req.name = name;
  return fs_->Call(std::move(req)).status();
}

Status FuseInode::Rmdir(const std::string& name) {
  FuseRequest req;
  req.opcode = FuseOpcode::kRmdir;
  req.nodeid = nodeid_;
  req.name = name;
  return fs_->Call(std::move(req)).status();
}

Status FuseInode::Link(const std::string& name, const InodePtr& target) {
  auto* ftarget = dynamic_cast<FuseInode*>(target.get());
  if (ftarget == nullptr) {
    return Status::Error(EXDEV);
  }
  FuseRequest req;
  req.opcode = FuseOpcode::kLink;
  req.nodeid = nodeid_;
  req.name = name;
  req.nodeid2 = ftarget->nodeid();
  return fs_->Call(std::move(req)).status();
}

StatusOr<InodePtr> FuseInode::Symlink(const std::string& name, const std::string& target,
                                      const kernel::Credentials& cred) {
  FuseRequest req;
  req.opcode = FuseOpcode::kSymlink;
  req.nodeid = nodeid_;
  req.name = name;
  req.data = target;
  req.uid = cred.fsuid;
  req.gid = cred.fsgid;
  CNTR_ASSIGN_OR_RETURN(FuseReply reply, fs_->Call(std::move(req)));
  return fs_->GetOrCreateInode(reply.entry);
}

StatusOr<std::vector<DirEntry>> FuseInode::Readdir() {
  if (DecideReaddirPlus()) {
    // READDIRPLUS resolves by nodeid: the server serves the batches through
    // its own handle, so no OPENDIR/RELEASEDIR round trips.
    return ReaddirPlus();
  }
  // OPENDIR + READDIR + RELEASEDIR, as the kernel does for getdents on a
  // freshly opened directory.
  FuseRequest open_req;
  open_req.opcode = FuseOpcode::kOpendir;
  open_req.nodeid = nodeid_;
  CNTR_ASSIGN_OR_RETURN(FuseReply open_reply, fs_->Call(std::move(open_req)));
  FuseRequest read_req;
  read_req.opcode = FuseOpcode::kReaddir;
  read_req.nodeid = nodeid_;
  read_req.fh = open_reply.fh;
  auto entries = fs_->Call(std::move(read_req));
  FuseRequest rel_req;
  rel_req.opcode = FuseOpcode::kReleasedir;
  rel_req.nodeid = nodeid_;
  rel_req.fh = open_reply.fh;
  (void)fs_->Call(std::move(rel_req));
  if (!entries.ok()) {
    return entries.status();
  }
  return entries.value().entries;
}

void FuseInode::PrimeAttr(const InodeAttr& attr, uint64_t ttl_ns) {
  std::lock_guard<analysis::CheckedMutex> lock(mu_);
  UpdateServerAttrLocked(attr, ttl_ns != 0 ? ttl_ns : fs_->options().attr_ttl_ns);
}

void FuseInode::UpdateServerAttrLocked(const InodeAttr& attr, uint64_t ttl_ns) {
  // With the writeback cache the kernel owns size and mtime while dirty
  // pages are unflushed (fuse_write_update_attr): the server's values are
  // stale until writeback, and letting them through would clamp reads and
  // trim flushes of the not-yet-flushed tail.
  if (fs_->options().writeback_cache &&
      fs_->kernel()->page_cache().DirtyBytes(this) > 0) {
    InodeAttr merged = attr;
    merged.size = std::max(attr.size, attr_.size);
    merged.mtime = attr_.mtime;
    UpdateAttrLocked(merged, ttl_ns);
    return;
  }
  UpdateAttrLocked(attr, ttl_ns);
}

bool FuseInode::DecideReaddirPlus() {
  // Roll the sample window: what did the last plus walk prime, and did
  // anyone read it?
  uint32_t primed = rdplus_primed_.exchange(0, std::memory_order_relaxed);
  uint32_t consumed = rdplus_consumed_.exchange(0, std::memory_order_relaxed);
  if (!fs_->readdirplus_enabled()) {
    return false;
  }
  if (primed >= kRdplusMinSample && consumed == 0) {
    // A full sample walk and not one primed attribute was touched: this
    // directory is being `ls`'d, not stat-walked. (A consumer that only
    // path-walks also lands here — its next LOOKUP miss re-advises.)
    rdplus_suppressed_.store(true, std::memory_order_relaxed);
  }
  return !rdplus_suppressed_.load(std::memory_order_relaxed);
}

StatusOr<std::vector<DirEntry>> FuseInode::ReaddirPlus() {
  const uint32_t batch = std::max<uint32_t>(1, fs_->options().readdirplus_batch);
  std::vector<DirEntry> entries;
  uint64_t cursor = 0;
  uint64_t stream = 0;  // server continuation token, 0 on the first batch
  while (true) {
    FuseRequest req;
    req.opcode = FuseOpcode::kReaddirPlus;
    req.nodeid = nodeid_;
    req.fh = stream;
    req.offset = cursor;
    req.size = batch;
    req.splice_ok = fs_->splice_read_enabled();
    CNTR_ASSIGN_OR_RETURN(FuseReply reply, fs_->Call(std::move(req)));
    // A spliced reply carries the direntplus stream packed into pages (or
    // flattened into `data` by the lane's copy fallback): unpack either.
    if (reply.entries_plus.empty() && (!reply.pages.empty() || !reply.data.empty())) {
      reply.entries_plus = UnpackDirentsPlus(reply.pages, reply.data);
    }
    for (const FuseDirentPlus& dent : reply.entries_plus) {
      entries.push_back(dent.dirent);
      // nodeid == 0: "." / ".." or a child the server could not stat — the
      // entry is listed but nothing is primed.
      if (dent.entry.nodeid != 0) {
        (void)fs_->PrimeChild(this, dent.dirent.name, dent.entry);
        rdplus_primed_.fetch_add(1, std::memory_order_relaxed);
      }
    }
    cursor += reply.entries_plus.size();
    stream = reply.fh;
    if (reply.entries_plus.size() < batch) {
      break;
    }
  }
  return entries;
}

StatusOr<std::string> FuseInode::Readlink() {
  FuseRequest req;
  req.opcode = FuseOpcode::kReadlink;
  req.nodeid = nodeid_;
  CNTR_ASSIGN_OR_RETURN(FuseReply reply, fs_->Call(std::move(req)));
  return reply.data;
}

StatusOr<FilePtr> FuseInode::Open(int flags, const kernel::Credentials& cred) {
  // The paper chose mmap support over direct I/O: they are mutually
  // exclusive in FUSE and executables need mmap (§5.1, xfstests #391).
  if (flags & kernel::kODirect) {
    return Status::Error(EINVAL, "CntrFS: direct I/O unsupported (mmap chosen instead)");
  }
  bool is_dir;
  {
    std::lock_guard<analysis::CheckedMutex> lock(mu_);
    is_dir = kernel::IsDir(attr_.mode);
  }
  FuseRequest req;
  req.opcode = is_dir ? FuseOpcode::kOpendir : FuseOpcode::kOpen;
  req.nodeid = nodeid_;
  req.flags = flags;
  req.uid = cred.fsuid;
  req.gid = cred.fsgid;
  CNTR_ASSIGN_OR_RETURN(FuseReply reply, fs_->Call(std::move(req)));

  // Without FOPEN_KEEP_CACHE the kernel invalidates cached pages at every
  // open, so nothing survives across opens/processes (Figure 3a "before").
  bool keep = fs_->options().keep_cache && (reply.open_flags & kFOpenKeepCache);
  if (!is_dir && !keep) {
    // Dropped dirty pages leave the writeback set for good (see Setattr).
    fs_->SubDirty(fs_->kernel()->page_cache().DropAll(this));
  }
  {
    std::lock_guard<analysis::CheckedMutex> lock(mu_);
    last_known_fh_ = reply.fh;
  }
  return FilePtr(std::make_shared<FuseFile>(std::static_pointer_cast<FuseInode>(shared_from_this()),
                                            flags, reply.fh, is_dir));
}

Status FuseInode::SetXattr(const std::string& name, const std::string& value, int flags) {
  FuseRequest req;
  req.opcode = FuseOpcode::kSetxattr;
  req.nodeid = nodeid_;
  req.name = name;
  req.data = value;
  req.flags = flags;
  return fs_->Call(std::move(req)).status();
}

StatusOr<std::string> FuseInode::GetXattr(const std::string& name) {
  FuseRequest req;
  req.opcode = FuseOpcode::kGetxattr;
  req.nodeid = nodeid_;
  req.name = name;
  CNTR_ASSIGN_OR_RETURN(FuseReply reply, fs_->Call(std::move(req)));
  return reply.data;
}

StatusOr<std::vector<std::string>> FuseInode::ListXattr() {
  FuseRequest req;
  req.opcode = FuseOpcode::kListxattr;
  req.nodeid = nodeid_;
  CNTR_ASSIGN_OR_RETURN(FuseReply reply, fs_->Call(std::move(req)));
  return reply.names;
}

Status FuseInode::RemoveXattr(const std::string& name) {
  FuseRequest req;
  req.opcode = FuseOpcode::kRemovexattr;
  req.nodeid = nodeid_;
  req.name = name;
  return fs_->Call(std::move(req)).status();
}

StatusOr<InodePtr> FuseInode::Parent() {
  {
    std::lock_guard<analysis::CheckedMutex> lock(mu_);
    if (!kernel::IsDir(attr_.mode)) {
      return Status::Error(ENOTDIR);
    }
  }
  if (auto parent = ParentHint()) {
    return InodePtr(parent);
  }
  if (nodeid_ == kFuseRootId) {
    return InodePtr(shared_from_this());
  }
  // Fall back to a server-side "..", which CntrFS resolves by handle.
  FuseRequest req;
  req.opcode = FuseOpcode::kLookup;
  req.nodeid = nodeid_;
  req.name = "..";
  CNTR_ASSIGN_OR_RETURN(FuseReply reply, fs_->Call(std::move(req)));
  return fs_->GetOrCreateInode(reply.entry);
}

uint64_t FuseInode::CachedSize() {
  std::lock_guard<analysis::CheckedMutex> lock(mu_);
  return attr_.size;
}

// --- data plane ---

StatusOr<size_t> FuseInode::ReadData(char* buf, size_t count, uint64_t off, uint64_t fh,
                                     kernel::FileReadahead* ra) {
  CNTR_ASSIGN_OR_RETURN(InodeAttr attr, Getattr());  // attr-cache hit in steady state
  if (off >= attr.size || count == 0) {
    return size_t{0};
  }
  count = std::min<uint64_t>(count, attr.size - off);

  auto& pool = fs_->kernel()->page_cache();
  const CostModel& costs = fs_->kernel()->costs();
  const FuseMountOptions& opts = fs_->options();
  uint64_t per_page_hop = opts.splice_read ? costs.splice_page_ns : costs.copy_page_ns;

  uint64_t first = off / kPageSize;
  uint64_t last = (off + count - 1) / kPageSize;
  uint64_t eof_page = (attr.size - 1) / kPageSize;
  char page[kPageSize];

  // Copies the user-visible slice of page `idx` out of `src`.
  auto copy_out = [&](uint64_t idx, const char* src, size_t src_len) {
    uint64_t page_start = idx * kPageSize;
    uint64_t copy_from = std::max(off, page_start);
    uint64_t copy_to = std::min(off + count, page_start + src_len);
    if (copy_to > copy_from) {
      std::memcpy(buf + (copy_from - off), src + (copy_from - page_start),
                  copy_to - copy_from);
      fs_->kernel()->clock().Advance(costs.copy_page_ns);
    }
  };

  uint64_t idx = first;
  while (idx <= last) {
    if (pool.ReadPage(this, idx, page)) {
      copy_out(idx, page, kPageSize);
      ++idx;
      continue;
    }
    // Miss: issue one READ covering a readahead window. FUSE_ASYNC_READ
    // lets the kernel batch a window into one request; without it each page
    // is its own round trip. The window itself is adaptive: this open
    // file's ramp state doubles it per sequential miss up to the
    // FUSE_MAX_PAGES-negotiated ceiling and collapses it on random access
    // (internal callers without ramp state keep the fixed mount window).
    uint32_t run = 1;
    if (opts.async_read) {
      if (ra != nullptr) {
        run = ra->OnMiss(idx, fs_->readahead_ceiling_pages());  // window-grid aligned
      } else {
        uint32_t window = std::max<uint32_t>(
            1, std::min(opts.readahead_pages, fs_->readahead_ceiling_pages()));
        run = window - static_cast<uint32_t>(idx % window);
      }
    }
    run = static_cast<uint32_t>(std::min<uint64_t>(run, eof_page - idx + 1));
    FuseRequest req;
    req.opcode = FuseOpcode::kRead;
    req.nodeid = nodeid_;
    req.fh = fh;
    req.offset = idx * kPageSize;
    req.size = run * kPageSize;
    req.splice_ok = fs_->splice_read_enabled();
    CNTR_ASSIGN_OR_RETURN(FuseReply reply, fs_->Call(std::move(req)));
    if (reply.spliced && !reply.pages.empty()) {
      // Spliced reply: the payload arrived as page references off the
      // channel lane. Full pages install by reference — stolen when the
      // ref is unique, aliased (COW-protected) when the server cache still
      // shares the page and FUSE_SPLICE_MOVE allows it, copied otherwise —
      // and the user copy reads straight from the ref, skipping the
      // store-then-reload round through the cache.
      for (size_t i = 0; i < reply.pages.size(); ++i) {
        const splice::PageRef& ref = reply.pages[i];
        uint64_t at = idx + i;
        if (!pool.HasPage(this, at)) {
          if (ref.len == kPageSize) {
            auto res = pool.StorePageRef(this, at, ref, /*dirty=*/false,
                                         /*allow_alias=*/fs_->splice_move_enabled());
            fs_->kernel()->clock().Advance(
                res.mode == kernel::PageCachePool::StoreRefMode::kCopied
                    ? costs.copy_page_ns
                    : costs.splice_page_ns);
          } else {
            // EOF tail: short refs pad into a private page.
            std::memset(page, 0, kPageSize);
            std::memcpy(page, ref.data(), ref.len);
            pool.StorePage(this, at, page, /*dirty=*/false);
            fs_->kernel()->clock().Advance(costs.copy_page_ns);
          }
          if (at <= last) {
            copy_out(at, ref.data(), ref.len);
          }
        } else {
          // Already resident — and possibly newer: a writeback-dirty page
          // holds bytes the server has not seen yet, so the cached copy
          // wins over the reply's ref (the copy path gets this for free by
          // re-reading the pool).
          fs_->kernel()->clock().Advance(costs.splice_page_ns);
          if (at <= last) {
            if (pool.ReadPage(this, at, page)) {
              copy_out(at, page, kPageSize);
            } else {
              copy_out(at, ref.data(), ref.len);  // evicted in between
            }
          }
        }
      }
      idx += reply.pages.size();
      continue;
    }
    // Copy path: store returned pages; the transfer out of the server costs
    // one hop per page.
    for (uint32_t i = 0; i * kPageSize < reply.data.size(); ++i) {
      size_t n = std::min<size_t>(kPageSize, reply.data.size() - i * kPageSize);
      std::memset(page, 0, kPageSize);
      std::memcpy(page, reply.data.data() + i * kPageSize, n);
      if (!pool.HasPage(this, idx + i)) {
        pool.StorePage(this, idx + i, page, /*dirty=*/false);
      }
      fs_->kernel()->clock().Advance(per_page_hop);
    }
    if (!pool.ReadPage(this, idx, page)) {
      return Status::Error(EIO, "fuse read did not return requested page");
    }
    copy_out(idx, page, kPageSize);
    ++idx;
  }
  return count;
}

StatusOr<size_t> FuseInode::WriteData(const char* buf, size_t count, uint64_t off, uint64_t fh) {
  if (count == 0) {
    return size_t{0};
  }
  auto& pool = fs_->kernel()->page_cache();
  const CostModel& costs = fs_->kernel()->costs();
  const FuseMountOptions& opts = fs_->options();

  if (!opts.writeback_cache) {
    // Synchronous write-through: one WRITE request per (negotiated)
    // max_write chunk.
    size_t written = 0;
    while (written < count) {
      size_t n = std::min<size_t>(count - written, fs_->effective_max_write());
      uint64_t cur = off + written;
      FuseRequest req;
      req.opcode = FuseOpcode::kWrite;
      req.nodeid = nodeid_;
      req.fh = fh;
      req.offset = cur;
      // Page-aligned full pages travel as gifted refs on the channel lane
      // (vmsplice + SPLICE_F_GIFT: the pages move, they are not copied
      // user->kernel). Unaligned heads and sub-page tails stay on the copy
      // path — a partial page can never be gifted whole.
      bool spliced = fs_->splice_write_enabled() && cur % kPageSize == 0 && n >= kPageSize;
      if (spliced) {
        n -= n % kPageSize;
        req.payload_pages.reserve(n / kPageSize);
        for (size_t p = 0; p < n / kPageSize; ++p) {
          req.payload_pages.push_back(
              splice::PageRef::Copy(buf + written + p * kPageSize, kPageSize));
          fs_->kernel()->clock().Advance(costs.splice_page_ns);
        }
        req.spliced = true;
        req.size = static_cast<uint32_t>(n);
      } else {
        req.data.assign(buf + written, n);
      }
      CNTR_ASSIGN_OR_RETURN(FuseReply reply, fs_->Call(std::move(req)));
      if (!spliced) {
        fs_->kernel()->clock().Advance(((n + kPageSize - 1) / kPageSize) * costs.copy_page_ns);
      }
      written += reply.count;
      if (reply.count < n) {
        break;
      }
    }
    std::lock_guard<analysis::CheckedMutex> lock(mu_);
    attr_.size = std::max<uint64_t>(attr_.size, off + written);
    attr_.mtime = kernel::Timespec::FromNs(fs_->kernel()->NowNs());
    return written;
  }

  // Writeback: dirty the kernel page cache; the flush happens on fsync,
  // release, or when the dirty threshold trips.
  uint64_t first = off / kPageSize;
  uint64_t last = (off + count - 1) / kPageSize;
  uint64_t newly_dirty = 0;
  char page[kPageSize];
  uint64_t size_now = CachedSize();
  for (uint64_t idx = first; idx <= last; ++idx) {
    uint64_t page_start = idx * kPageSize;
    uint32_t in_off = static_cast<uint32_t>(std::max(off, page_start) - page_start);
    uint32_t in_end =
        static_cast<uint32_t>(std::min(off + count, page_start + kPageSize) - page_start);
    const char* src = buf + (std::max(off, page_start) - off);
    if (in_off == 0 && in_end == kPageSize) {
      if (pool.StorePage(this, idx, src, /*dirty=*/true)) {
        newly_dirty += kPageSize;
      }
    } else {
      auto res = pool.UpdatePage(this, idx, in_off, in_end - in_off, src, true);
      if (res == kernel::PageCachePool::UpdateResult::kNotResident) {
        if (page_start < size_now) {
          // Read-modify-write: fetch the page from the server first.
          FuseRequest req;
          req.opcode = FuseOpcode::kRead;
          req.nodeid = nodeid_;
          req.fh = fh;
          req.offset = page_start;
          req.size = kPageSize;
          auto reply = fs_->Call(std::move(req));
          std::memset(page, 0, kPageSize);
          if (reply.ok()) {
            std::memcpy(page, reply.value().data.data(),
                        std::min<size_t>(kPageSize, reply.value().data.size()));
          }
        } else {
          std::memset(page, 0, kPageSize);
        }
        std::memcpy(page + in_off, src, in_end - in_off);
        if (pool.StorePage(this, idx, page, /*dirty=*/true)) {
          newly_dirty += kPageSize;
        }
      } else if (res == kernel::PageCachePool::UpdateResult::kNewlyDirty) {
        newly_dirty += kPageSize;
      }
    }
    fs_->kernel()->clock().Advance(costs.copy_page_ns);
  }
  {
    std::lock_guard<analysis::CheckedMutex> lock(mu_);
    attr_.size = std::max<uint64_t>(attr_.size, off + count);
    attr_.mtime = kernel::Timespec::FromNs(fs_->kernel()->NowNs());
    last_known_fh_ = fh;
  }
  if (newly_dirty > 0) {
    fs_->NoteDirty(this, newly_dirty);
  }
  return count;
}

uint32_t FuseInode::FlushDirtyPages(uint64_t fh) {
  // One whole-inode flush at a time: a background flusher and a throttled
  // foreground writer (or close/fsync) must not issue duplicate WRITEs for
  // the same extents.
  std::lock_guard<analysis::CheckedMutex> flush_lock(flush_mu_);
  auto& pool = fs_->kernel()->page_cache();
  std::vector<uint64_t> dirty = pool.DirtyPages(this);
  if (dirty.empty()) {
    return 0;
  }
  if (fh == UINT64_MAX) {
    std::lock_guard<analysis::CheckedMutex> lock(mu_);
    fh = last_known_fh_;
  }
  uint64_t size_now = CachedSize();
  uint32_t requests = 0;
  const uint32_t pages_per_write =
      std::max<uint32_t>(1, fs_->effective_max_write() / kPageSize);
  char page[kPageSize];

  size_t i = 0;
  uint64_t cleaned_bytes = 0;
  const bool spliced_flush = fs_->splice_write_enabled();
  // Dirty generation per flushed page: a write that re-dirties a page while
  // its old bytes are in flight must leave it dirty for the next flush.
  std::vector<uint64_t> gens(dirty.size(), 0);
  while (i < dirty.size()) {
    if (fs_->conn().aborted()) {
      // Dead transport mid-flush: every remaining WRITE would fail the same
      // way, so record the lost writeback once and stop issuing round
      // trips. The pages stay dirty; the aborted mount never flushes them
      // (the inode destructor de-accounts).
      fs_->RecordWbErr(EIO);
      fs_->SubDirty(cleaned_bytes);
      return requests;
    }
    // Collect one contiguous run, capped at the negotiated max_write.
    size_t j = i + 1;
    while (j < dirty.size() && dirty[j] == dirty[j - 1] + 1 && (j - i) < pages_per_write) {
      ++j;
    }
    FuseRequest req;
    req.opcode = FuseOpcode::kWrite;
    req.nodeid = nodeid_;
    req.fh = fh;
    req.offset = dirty[i] * kPageSize;
    for (size_t k = i; k < j; ++k) {
      uint64_t page_start = dirty[k] * kPageSize;
      size_t len = static_cast<size_t>(
          std::min<uint64_t>(kPageSize, size_now > page_start ? size_now - page_start : 0));
      if (len == 0) {
        // Beyond the size this flush observed. With a concurrent writer the
        // page may simply be ahead of the size update (pages are dirtied
        // before attr_.size moves), so it must STAY dirty — the next flush
        // sees the grown size and writes it. Cleaning here would silently
        // drop the extension's data.
        gens[k] = 0;  // sentinel: skip the MarkClean below
        continue;
      }
      if (spliced_flush) {
        // The dirty cache pages themselves ride the lane as shared refs
        // (splice cache->pipe); the server adopts or aliases them, and a
        // racing write to the kernel copy COWs instead of corrupting the
        // in-flight payload.
        auto ref = pool.GetPageRef(this, dirty[k], &gens[k]);
        if (!ref.has_value()) {
          // Dropped between snapshot and read (truncate/invalidation race).
          // Pad the run with zeros, but never clean the slot: if a writer
          // re-created the page dirty meanwhile, its bytes must survive
          // this flush (gen 0 = skip sentinel, see below).
          ref = splice::PageRef::Alloc(static_cast<uint32_t>(len));
          gens[k] = 0;
        }
        req.payload_pages.push_back(len == kPageSize
                                        ? *ref
                                        : ref->WithLen(static_cast<uint32_t>(len)));
      } else {
        if (!pool.PeekPage(this, dirty[k], page, &gens[k])) {
          std::memset(page, 0, kPageSize);
          gens[k] = 0;  // dropped mid-flight: skip sentinel (see above)
        }
        req.data.append(page, len);
      }
    }
    if (spliced_flush) {
      req.spliced = !req.payload_pages.empty();
    }
    if (req.data.empty() && req.payload_pages.empty()) {
      i = j;  // every page of the run was skipped: nothing to send
      continue;
    }
    auto flush_reply = fs_->Call(std::move(req));
    ++requests;
    if (!flush_reply.ok()) {
      // Lost write: the server never durably took these bytes. Linux marks
      // the pages clean anyway (keeping them dirty would wedge writeback
      // forever) and records the error in the superblock's errseq stream,
      // so every open fd's next fsync/close reports it exactly once.
      fs_->RecordWbErr(flush_reply.status().error());
    }
    for (size_t k = i; k < j; ++k) {
      // gen 0 never names a dirty page (dirtying bumps it to >= 1): it is
      // the skip sentinel for pages this flush did not write.
      if (gens[k] != 0 && pool.MarkCleanIfGen(this, dirty[k], gens[k])) {
        cleaned_bytes += kPageSize;
      }
    }
    i = j;
  }
  fs_->SubDirty(cleaned_bytes);
  if (pool.DirtyBytes(this) == 0) {
    fs_->ForgetDirty(this);
  }
  return requests;
}

Status FuseInode::FsyncData(bool datasync, uint64_t fh) {
  uint32_t flushed = FlushDirtyPages(fh);
  // With the writeback cache the kernel owns mtime while pages are dirty;
  // fsync writes it back with a SETATTR before FSYNC (fuse_flush_times()).
  if (flushed > 0 && fs_->options().writeback_cache && !datasync) {
    FuseRequest st;
    st.opcode = FuseOpcode::kSetattr;
    st.nodeid = nodeid_;
    {
      std::lock_guard<analysis::CheckedMutex> lock(mu_);
      st.setattr.mtime = attr_.mtime;
    }
    (void)fs_->Call(std::move(st));
  }
  FuseRequest req;
  req.opcode = FuseOpcode::kFsync;
  req.nodeid = nodeid_;
  req.fh = fh;
  req.datasync = datasync;
  return fs_->Call(std::move(req)).status();
}

}  // namespace cntr::fuse
