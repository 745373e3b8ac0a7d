#include "src/fuse/fuse_conn.h"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <type_traits>

#include "src/util/hash.h"
#include "src/analysis/lockdep.h"

namespace cntr::fuse {

namespace {

// Transport-layer injection points (see docs/robustness.md).
CNTR_FAULT_POINT(kFaultConnEnqueue, "fuse.conn.enqueue");
CNTR_FAULT_POINT(kFaultConnReply, "fuse.conn.reply");
CNTR_FAULT_POINT(kFaultLaneTransit, "fuse.lane.transit");
// Ring-transport points: an injected SQ overflow (kFail surfaces the error
// to the submitter, as if the ring were exhausted), a doorbell lost on the
// wire (any action: the wakeup is skipped; the bounded parks on both sides
// self-heal), and a poisoned reap pass (kFail/kDrop: the pass returns empty
// and the burst stays queued for the next one; kKill: the reaping worker
// treats it as a crash and aborts the connection).
CNTR_FAULT_POINT(kFaultSqOverflow, "fuse.conn.sq_overflow");
CNTR_FAULT_POINT(kFaultRingDoorbellLost, "fuse.ring.doorbell_lost");
CNTR_FAULT_POINT(kFaultRingReap, "fuse.ring.reap");

// Fixed-size head of one packed direntplus record; the name bytes follow.
struct PackedDirentPlus {
  uint64_t ino = 0;
  uint8_t type = 0;
  uint16_t name_len = 0;
  uint64_t nodeid = 0;
  uint64_t entry_ttl_ns = 0;
  uint64_t attr_ttl_ns = 0;
  kernel::InodeAttr attr;
};
static_assert(std::is_trivially_copyable_v<PackedDirentPlus>);

std::vector<kernel::PipeSegment> SegmentsOf(const std::vector<splice::PageRef>& pages) {
  std::vector<kernel::PipeSegment> segs;
  segs.reserve(pages.size());
  for (const splice::PageRef& ref : pages) {
    segs.push_back(kernel::PipeSegment::Of(ref));
  }
  return segs;
}

}  // namespace

std::vector<splice::PageRef> PackDirentsPlus(const std::vector<FuseDirentPlus>& entries) {
  std::string bytes;
  uint32_t count = static_cast<uint32_t>(entries.size());
  bytes.append(reinterpret_cast<const char*>(&count), sizeof(count));
  for (const FuseDirentPlus& dent : entries) {
    PackedDirentPlus rec;
    rec.ino = dent.dirent.ino;
    rec.type = static_cast<uint8_t>(dent.dirent.type);
    rec.name_len = static_cast<uint16_t>(dent.dirent.name.size());
    rec.nodeid = dent.entry.nodeid;
    rec.entry_ttl_ns = dent.entry.entry_ttl_ns;
    rec.attr_ttl_ns = dent.entry.attr_ttl_ns;
    rec.attr = dent.entry.attr;
    bytes.append(reinterpret_cast<const char*>(&rec), sizeof(rec));
    bytes.append(dent.dirent.name);
  }
  return splice::ChopIntoPages(bytes.data(), bytes.size());
}

std::vector<FuseDirentPlus> UnpackDirentsPlus(const std::vector<splice::PageRef>& pages,
                                              const std::string& flat) {
  std::string bytes;
  if (!pages.empty()) {
    for (const splice::PageRef& ref : pages) {
      bytes.append(ref.data(), ref.len);
    }
  } else {
    bytes = flat;
  }
  std::vector<FuseDirentPlus> out;
  size_t pos = 0;
  if (bytes.size() < sizeof(uint32_t)) {
    return out;
  }
  uint32_t count = 0;
  std::memcpy(&count, bytes.data(), sizeof(count));
  pos += sizeof(count);
  out.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    if (pos + sizeof(PackedDirentPlus) > bytes.size()) {
      break;  // truncated stream: serve what parsed cleanly
    }
    PackedDirentPlus rec;
    std::memcpy(&rec, bytes.data() + pos, sizeof(rec));
    pos += sizeof(rec);
    if (pos + rec.name_len > bytes.size()) {
      break;
    }
    FuseDirentPlus dent;
    dent.dirent.name.assign(bytes.data() + pos, rec.name_len);
    pos += rec.name_len;
    dent.dirent.ino = rec.ino;
    dent.dirent.type = static_cast<kernel::DType>(rec.type);
    dent.entry.nodeid = rec.nodeid;
    dent.entry.entry_ttl_ns = rec.entry_ttl_ns;
    dent.entry.attr_ttl_ns = rec.attr_ttl_ns;
    dent.entry.attr = rec.attr;
    out.push_back(std::move(dent));
  }
  return out;
}

const char* FuseOpcodeName(FuseOpcode op) {
  switch (op) {
    case FuseOpcode::kLookup:
      return "LOOKUP";
    case FuseOpcode::kForget:
      return "FORGET";
    case FuseOpcode::kGetattr:
      return "GETATTR";
    case FuseOpcode::kSetattr:
      return "SETATTR";
    case FuseOpcode::kReadlink:
      return "READLINK";
    case FuseOpcode::kSymlink:
      return "SYMLINK";
    case FuseOpcode::kMknod:
      return "MKNOD";
    case FuseOpcode::kMkdir:
      return "MKDIR";
    case FuseOpcode::kUnlink:
      return "UNLINK";
    case FuseOpcode::kRmdir:
      return "RMDIR";
    case FuseOpcode::kRename:
      return "RENAME";
    case FuseOpcode::kLink:
      return "LINK";
    case FuseOpcode::kOpen:
      return "OPEN";
    case FuseOpcode::kRead:
      return "READ";
    case FuseOpcode::kWrite:
      return "WRITE";
    case FuseOpcode::kStatfs:
      return "STATFS";
    case FuseOpcode::kRelease:
      return "RELEASE";
    case FuseOpcode::kFsync:
      return "FSYNC";
    case FuseOpcode::kSetxattr:
      return "SETXATTR";
    case FuseOpcode::kGetxattr:
      return "GETXATTR";
    case FuseOpcode::kListxattr:
      return "LISTXATTR";
    case FuseOpcode::kRemovexattr:
      return "REMOVEXATTR";
    case FuseOpcode::kFlush:
      return "FLUSH";
    case FuseOpcode::kInit:
      return "INIT";
    case FuseOpcode::kOpendir:
      return "OPENDIR";
    case FuseOpcode::kReaddir:
      return "READDIR";
    case FuseOpcode::kReleasedir:
      return "RELEASEDIR";
    case FuseOpcode::kAccess:
      return "ACCESS";
    case FuseOpcode::kCreate:
      return "CREATE";
    case FuseOpcode::kInterrupt:
      return "INTERRUPT";
    case FuseOpcode::kDestroy:
      return "DESTROY";
    case FuseOpcode::kBatchForget:
      return "BATCH_FORGET";
    case FuseOpcode::kReaddirPlus:
      return "READDIRPLUS";
  }
  return "?";
}

namespace {

// RequestMetrics lives below the fuse layer and labels series through this
// adapter (unknown opcodes render as "op<N>" on its side).
const char* OpcodeNameU32(uint32_t op) {
  return FuseOpcodeName(static_cast<FuseOpcode>(op));
}

}  // namespace

FuseConn::FuseConn(SimClock* clock, const CostModel* costs, size_t num_channels,
                   fault::FaultRegistry* faults, obs::MetricsRegistry* metrics)
    : clock_(clock),
      costs_(costs),
      faults_(faults),
      registry_(metrics != nullptr ? metrics : &obs::MetricsRegistry::Global()) {
  mount_label_ = "m" + std::to_string(registry_->AllocScope("mount"));
  const obs::Labels labels{{"mount", mount_label_}};
  auto counter = [&](const char* name) { return registry_->GetCounter(name, labels); };
  requests_ = counter("cntr_fuse_conn_requests_total");
  replies_ = counter("cntr_fuse_conn_replies_total");
  forgets_ = counter("cntr_fuse_conn_forgets_total");
  spliced_bytes_ = counter("cntr_fuse_conn_spliced_bytes_total");
  copied_bytes_ = counter("cntr_fuse_conn_copied_bytes_total");
  splice_fallbacks_ = counter("cntr_fuse_conn_splice_fallbacks_total");
  lane_growths_ = counter("cntr_fuse_conn_lane_growths_total");
  timeouts_ = counter("cntr_fuse_conn_timeouts_total");
  late_replies_ = counter("cntr_fuse_conn_late_replies_total");
  interrupts_ = counter("cntr_fuse_conn_interrupts_total");
  admission_waits_ = counter("cntr_fuse_conn_admission_waits_total");
  sheds_ = counter("cntr_fuse_conn_shed_total");
  req_metrics_ =
      std::make_unique<obs::RequestMetrics>(registry_, mount_label_, &OpcodeNameU32);
  std::lock_guard<analysis::CheckedMutex> lock(config_mu_);
  InstallChannels(std::clamp<size_t>(num_channels, 1, kMaxChannels));
}

void FuseConn::RecordOutcome(FuseOpcode op, const obs::SpanPtr& span,
                             obs::Outcome outcome, bool spliced) {
  // Wake stamp: NowNs on the waiter's own timeline. Reads only — the
  // observability plane never advances the clock.
  req_metrics_->RecordRequest(static_cast<uint32_t>(op), span.get(), clock_->NowNs(),
                              outcome, spliced);
}

FuseConn::~FuseConn() { StopSweeper(); }

void FuseConn::InstallChannels(size_t n) {
  for (size_t i = 0; i < n; ++i) {
    auto ch = std::make_unique<FuseChannel>();
    if (ring_enabled_.load(std::memory_order_acquire)) {
      // A reshape after the ring switch keeps every channel on the ring
      // transport (mixed-mode channels would split the unique encoding).
      ch->ring_owner = std::make_unique<RingState>(
          ring_depth_.load(std::memory_order_acquire),
          ring_spin_budget_.load(std::memory_order_acquire));
      ch->ring.store(ch->ring_owner.get(), std::memory_order_release);
    }
    owned_channels_.push_back(std::move(ch));
    channel_table_[i].store(owned_channels_.back().get(), std::memory_order_release);
  }
  num_channels_.store(n, std::memory_order_release);
}

size_t FuseConn::ConfigureRing(size_t depth, uint32_t spin_budget) {
  if (depth == 0) {
    return 0;  // opt out: stay on the wakeup path
  }
  std::lock_guard<analysis::CheckedMutex> config(config_mu_);
  if (ring_enabled()) {
    // Rings are fixed for the connection's life: replacing a published
    // RingState under a concurrently scanning worker would free memory it
    // may still hold. A different geometry needs a fresh connection.
    return ring_depth();
  }
  if (aborted() || queued_total_.load() != 0) {
    return 0;
  }
  // Like ConfigureChannels, the switch is only honoured on a quiet
  // connection: in-flight legacy uniques do not carry a slot index, so they
  // could never be completed through a ring. Parked readers are fine — they
  // discover the rings on their next scan.
  for (const auto& ch : owned_channels_) {
    std::lock_guard<analysis::CheckedMutex> lock(ch->mu);
    if (!ch->pending.empty() || !ch->queue.empty()) {
      return 0;
    }
  }
  size_t d = std::clamp(depth, kMinRingDepth, kMaxRingDepth);
  // Round up to a power of two (the MPMC ring and the slot mask need it).
  size_t pow2 = kMinRingDepth;
  while (pow2 < d) {
    pow2 <<= 1;
  }
  ring_depth_.store(pow2, std::memory_order_release);
  ring_spin_budget_.store(spin_budget == 0 ? 1 : spin_budget, std::memory_order_release);
  for (const auto& ch : owned_channels_) {
    ch->ring_owner = std::make_unique<RingState>(pow2, spin_budget);
    ch->ring.store(ch->ring_owner.get(), std::memory_order_release);
  }
  ring_enabled_.store(true, std::memory_order_release);
  RecomputeSpinBudget();
  return pow2;
}

size_t FuseConn::ConfigureChannels(size_t requested) {
  size_t n = std::clamp<size_t>(requested, 1, kMaxChannels);
  std::lock_guard<analysis::CheckedMutex> config(config_mu_);
  // Reshaping with traffic in flight would orphan queued uniques (their
  // channel index is baked into the id), so only honour the request on a
  // quiet connection. Old channels stay in owned_channels_, so even a
  // sender racing this (a protocol violation — the server reshapes before
  // it starts answering) only ever sees valid memory.
  if (n != num_channels() && reader_threads_.load() == 0 &&
      queued_total_.load() == 0 && !aborted()) {
    bool busy = false;
    for (const auto& ch : owned_channels_) {
      std::lock_guard<analysis::CheckedMutex> lock(ch->mu);
      busy |= !ch->pending.empty() || !ch->queue.empty();
    }
    if (!busy) {
      InstallChannels(n);
      RecomputeSpinBudget();
    }
  }
  return num_channels();
}

size_t FuseConn::TryReshapeChannels(size_t requested) {
  size_t n = std::clamp<size_t>(requested, 1, kMaxChannels);
  // Exclusive acquisition proves no submitter is inside its route-to-enqueue
  // window (they hold reshape_mu_ shared for the whole send); try_lock keeps
  // the controller non-blocking — a busy connection just isn't reshaped this
  // round.
  std::unique_lock<analysis::CheckedSharedMutex> reshape(reshape_mu_, std::try_to_lock);
  if (!reshape.owns_lock()) {
    return num_channels();
  }
  std::lock_guard<analysis::CheckedMutex> config(config_mu_);
  if (n == num_channels() || aborted() || queued_total_.load() != 0 ||
      in_flight_.load(std::memory_order_acquire) != 0) {
    return num_channels();
  }
  size_t lane_cap = 0;
  for (const auto& ch : owned_channels_) {
    std::lock_guard<analysis::CheckedMutex> lock(ch->mu);
    if (!ch->pending.empty() || !ch->queue.empty()) {
      return num_channels();
    }
    lane_cap = std::max(lane_cap, ch->lane_out[0]->capacity());
  }
  InstallChannels(n);
  // Fresh channels are born at the construction-time lane default; carry the
  // negotiated (or autosized) capacity over so a reshape never shrinks the
  // payload window behind the mount's back.
  if (lane_cap > kDefaultLanePages * kernel::kPageSize) {
    for (size_t i = owned_channels_.size() - n; i < owned_channels_.size(); ++i) {
      for (size_t l = 0; l < kLanePoolSize; ++l) {
        (void)owned_channels_[i]->lane_in[l]->SetCapacity(lane_cap);
        (void)owned_channels_[i]->lane_out[l]->SetCapacity(lane_cap);
      }
    }
  }
  RecomputeSpinBudget();
  return num_channels();
}

size_t FuseConn::RouteChannel(kernel::Pid pid) const {
  return HashMix64(static_cast<uint64_t>(pid)) % num_channels();
}

void FuseConn::NotifyWork() {
  // A shared pool's workers never park in ReadRequestBatch (they use the
  // non-blocking drain), so the idle-worker handshake below cannot reach
  // them; the observer is their doorbell.
  NotifyWorkObserver();
  // Busy-server fast path: no parked worker, no global lock — the enqueue
  // touched only its channel's mutex. The seq_cst pairing with ReadRequest
  // (queued_total_ store before idle_workers_ load here; idle_workers_
  // increment before queued_total_ re-check there) guarantees that either
  // we see the parked worker or it sees our request.
  if (idle_workers_.load() == 0) {
    return;
  }
  // Empty critical section: a worker that evaluated "no work" under idle_mu_
  // is already parked in wait() by the time we acquire, so the notify below
  // cannot be lost.
  { std::lock_guard<analysis::CheckedMutex> lock(idle_mu_); }
  work_cv_.notify_one();
}

namespace {

// Copy fallback shared by both gate directions: flattens page refs into a
// byte buffer, charging one copy per page.
uint64_t FlattenPages(std::vector<splice::PageRef>& pages, std::string& data, SimClock* clock,
                      const CostModel* costs) {
  uint64_t bytes = 0;
  for (const splice::PageRef& ref : pages) {
    data.append(ref.data(), ref.len);
    bytes += ref.len;
    clock->Advance(costs->copy_page_ns);
  }
  pages.clear();
  return bytes;
}

}  // namespace

// Fallback pressure needed before the autosizer doubles a lane that the
// payload *would* fit: repeated lane-full bounces mean in-flight payloads
// keep the lane saturated, so more headroom pays.
inline constexpr uint32_t kLaneGrowPressure = 4;

bool FuseConn::MaybeGrowLanes(FuseChannel& ch, uint64_t wanted_bytes) {
  if (!lane_autosize()) {
    return false;
  }
  size_t cap = ch.lane_out[0]->capacity();
  size_t target = cap;
  if (wanted_bytes > cap) {
    // The payload can never fit a lane at this size: grow straight to
    // cover it.
    target = wanted_bytes;
  } else if (ch.fallback_pressure.fetch_add(1, std::memory_order_relaxed) + 1 >=
             kLaneGrowPressure) {
    target = cap * 2;
  }
  target = std::min<size_t>(target, kernel::kPipeMaxCapacity);
  if (target <= cap) {
    return false;
  }
  // The whole pool stays symmetric. EBUSY (in-flight payload above the
  // target on a shrinking ring) cannot happen on growth; a failure here is
  // only the 1MiB ceiling, which the min above already respects.
  bool grew = false;
  for (size_t i = 0; i < kLanePoolSize; ++i) {
    for (auto* lane : {ch.lane_in[i].get(), ch.lane_out[i].get()}) {
      grew |= lane->SetCapacity(target).ok();
    }
  }
  if (grew) {
    ch.fallback_pressure.store(0, std::memory_order_relaxed);
    lane_growths_->Add();
  }
  return grew;
}

namespace {

// Pushes `pages` onto the first lane of `pool` with room (all-or-nothing
// per lane). Returns the lane index, or nullopt when every lane is full.
std::optional<uint32_t> PushToPool(
    const std::array<std::shared_ptr<kernel::PipeBuffer>, kLanePoolSize>& pool,
    const std::vector<splice::PageRef>& pages) {
  for (size_t i = 0; i < kLanePoolSize; ++i) {
    auto pushed = pool[i]->PushSegments(SegmentsOf(pages),
                                        /*nonblock=*/true, /*require_all=*/true);
    if (pushed.ok()) {
      return static_cast<uint32_t>(i);
    }
  }
  return std::nullopt;
}

}  // namespace

void FuseConn::GateRequestPayload(FuseChannel& ch, FuseRequest& request) {
  bool splice_on = ch.splice_enabled.load(std::memory_order_acquire);
  if (!splice_on) {
    // Per-channel opt-out covers both directions: no spliced reply either.
    request.splice_ok = false;
  }
  if (!request.spliced || request.payload_pages.empty()) {
    return;
  }
  uint64_t bytes = 0;
  for (const splice::PageRef& ref : request.payload_pages) {
    bytes += ref.len;
  }
  if (faults_ != nullptr && splice_on) {
    if (auto hit = faults_->Check(kFaultLaneTransit)) {
      // An unusable lane is not fatal to the request — the payload takes
      // the copy path whole, which is exactly the fallback contract.
      clock_->Advance(hit.latency_ns);
      splice_on = false;
    }
  }
  if (splice_on) {
    // All-or-nothing per lane: the payload occupies lane capacity until the
    // server consumes the request (TryPop drains it), which is the
    // backpressure a real pipe applies to concurrent spliced writers.
    auto lane = PushToPool(ch.lane_in, request.payload_pages);
    if (!lane.has_value() && MaybeGrowLanes(ch, bytes)) {
      lane = PushToPool(ch.lane_in, request.payload_pages);
    }
    if (lane.has_value()) {
      request.lane_idx = *lane;
      spliced_bytes_->Add(bytes);
      return;
    }
  }
  // Lane full or channel opted out: flatten to the copy path — the payload
  // is copied through userspace buffers again, one page at a time.
  FlattenPages(request.payload_pages, request.data, clock_, costs_);
  request.spliced = false;
  copied_bytes_->Add(bytes);
  splice_fallbacks_->Add();
}

void FuseConn::GateReplyPayload(FuseChannel& ch, FuseReply& reply) {
  if (reply.pages.empty()) {
    return;
  }
  uint64_t bytes = reply.payload_bytes();
  bool splice_on = ch.splice_enabled.load(std::memory_order_acquire);
  if (faults_ != nullptr && splice_on) {
    if (auto hit = faults_->Check(kFaultLaneTransit)) {
      clock_->Advance(hit.latency_ns);
      splice_on = false;
    }
  }
  if (splice_on) {
    auto lane = PushToPool(ch.lane_out, reply.pages);
    if (!lane.has_value() && MaybeGrowLanes(ch, bytes)) {
      lane = PushToPool(ch.lane_out, reply.pages);
    }
    if (lane.has_value()) {
      reply.spliced = true;
      reply.lane_idx = *lane;
      spliced_bytes_->Add(bytes);
      return;
    }
  }
  // Copy fallback: the server write()s the payload into the reply buffer.
  FlattenPages(reply.pages, reply.data, clock_, costs_);
  reply.spliced = false;
  copied_bytes_->Add(bytes);
  splice_fallbacks_->Add();
}

StatusOr<size_t> FuseConn::SetLaneCapacity(size_t bytes) {
  std::lock_guard<analysis::CheckedMutex> config(config_mu_);
  // Best effort across the whole channel set: a failure on one lane (EBUSY
  // with payload in flight) must not strand the rest at a different size.
  std::optional<size_t> applied;
  std::optional<Status> first_error;
  for (const auto& ch : owned_channels_) {
    for (size_t i = 0; i < kLanePoolSize; ++i) {
      for (auto* lane : {ch->lane_in[i].get(), ch->lane_out[i].get()}) {
        auto cap = lane->SetCapacity(bytes);
        if (cap.ok()) {
          applied = cap.value();
        } else if (!first_error.has_value()) {
          first_error = cap.status();
        }
      }
    }
  }
  if (first_error.has_value()) {
    return *first_error;
  }
  if (!applied.has_value()) {
    return Status::Error(EINVAL);  // no lanes
  }
  return *applied;
}

void FuseConn::FinishInFlight() {
  in_flight_.fetch_sub(1, std::memory_order_acq_rel);
  if (EffectiveAdmissionCap() != 0) {
    { std::lock_guard<analysis::CheckedMutex> lock(admission_mu_); }
    admission_cv_.notify_one();
  }
}

uint32_t FuseConn::EffectiveAdmissionCap() const {
  uint32_t cap = max_background_.load(std::memory_order_acquire);
  uint32_t budget = admission_budget_.load(std::memory_order_acquire);
  if (cap == 0) {
    return budget;
  }
  if (budget == 0) {
    return cap;
  }
  return std::min(cap, budget);
}

void FuseConn::SetMaxBackground(uint32_t cap) {
  max_background_.store(cap, std::memory_order_release);
  // Wake every parked waiter to re-evaluate under the new cap: widening (or
  // disarming) the gate must release them — a waiter that parked under the
  // old cap has no other wakeup source when no request ever finishes.
  { std::lock_guard<analysis::CheckedMutex> lock(admission_mu_); }
  admission_cv_.notify_all();
}

void FuseConn::SetAdmissionBudget(uint32_t budget) {
  admission_budget_.store(budget, std::memory_order_release);
  { std::lock_guard<analysis::CheckedMutex> lock(admission_mu_); }
  admission_cv_.notify_all();
}

void FuseConn::SetWorkObserver(std::function<void()> observer) {
  std::shared_ptr<const std::function<void()>> holder;
  if (observer) {
    holder = std::make_shared<const std::function<void()>>(std::move(observer));
  }
  std::lock_guard<analysis::CheckedMutex> lock(observer_mu_);
  work_observer_ = std::move(holder);
  observer_armed_.store(work_observer_ != nullptr, std::memory_order_release);
}

void FuseConn::NotifyWorkObserver() {
  if (!observer_armed_.load(std::memory_order_relaxed)) {
    return;  // no pool attached: one relaxed load, nothing else
  }
  std::shared_ptr<const std::function<void()>> cb;
  {
    std::lock_guard<analysis::CheckedMutex> lock(observer_mu_);
    cb = work_observer_;
  }
  if (cb != nullptr) {
    (*cb)();
  }
}

void FuseConn::SetServerParallelism(uint32_t threads) {
  declared_parallelism_.store(threads, std::memory_order_release);
  RecomputeSpinBudget();
}

void FuseConn::RecomputeSpinBudget() {
  uint32_t budget = ring_spin_budget_.load(std::memory_order_acquire);
  uint32_t threads = declared_parallelism_.load(std::memory_order_acquire);
  uint32_t channels = static_cast<uint32_t>(num_channels());
  if (threads != 0 && threads < channels) {
    // Oversubscribed (pool threads < active channels): a waiter spinning the
    // full budget is betting the server polls its channel promptly, which an
    // oversubscribed pool cannot do — scale the budget by the serving ratio
    // so waiters park early instead of burning the difference.
    budget = std::max<uint32_t>(1, static_cast<uint32_t>(
        static_cast<uint64_t>(budget) * threads / channels));
  }
  effective_spin_budget_.store(budget, std::memory_order_release);
}

StatusOr<FuseReply> FuseConn::SendAndWait(FuseRequest request) {
  if (faults_ != nullptr) {
    if (auto hit = faults_->Check(kFaultConnEnqueue)) {
      clock_->Advance(hit.latency_ns);
      if (hit.action == fault::FaultAction::kFail) {
        RecordOutcome(request.opcode, nullptr, obs::Outcome::kFault, false);
        return Status::Error(hit.error, "injected /dev/fuse enqueue fault");
      }
    }
  }
  // Overload shedding (pool hard watermark): bounce new work before it
  // touches a channel, with the same error a drowned request would
  // eventually earn. Requests already admitted are unaffected.
  if (shed_new_requests_.load(std::memory_order_acquire)) {
    sheds_->Add();
    RecordOutcome(request.opcode, nullptr, obs::Outcome::kTimeout, false);
    return Status::Error(ETIMEDOUT, "fuse connection shedding load");
  }
  // Admission gate: a stalled server means in-flight requests pile up; past
  // the effective cap (the tighter of max_background and the pool's
  // per-tenant budget) new callers park here (congestion backpressure)
  // instead of growing the channel queues without bound. The predicate
  // re-reads the cap on every wake — both setters notify_all, so widening or
  // disarming the gate releases parked waiters — and an abort resolves them
  // right here with ENOTCONN instead of letting them re-park.
  uint32_t cap = EffectiveAdmissionCap();
  if (cap != 0 && in_flight_.load(std::memory_order_acquire) >= cap) {
    admission_waits_->Add();
    std::unique_lock<analysis::CheckedMutex> gate(admission_mu_);
    admission_cv_.wait(gate, [&] {
      if (aborted()) {
        return true;
      }
      uint32_t now_cap = EffectiveAdmissionCap();
      return now_cap == 0 ||
             in_flight_.load(std::memory_order_acquire) < now_cap;
    });
    if (aborted()) {
      RecordOutcome(request.opcode, nullptr, obs::Outcome::kAbort, false);
      return Status::Error(ENOTCONN, "fuse connection aborted");
    }
  }
  in_flight_.fetch_add(1, std::memory_order_acq_rel);

  // Route-to-enqueue window: held shared so a live reshape
  // (TryReshapeChannels) can never swap the channel set while this request's
  // channel index is in hand (the unique bakes the index in; a torn view
  // would strand the reply).
  std::shared_lock<analysis::CheckedSharedMutex> reshape(reshape_mu_);
  size_t ch_idx = RouteChannel(request.pid);
  FuseChannel& ch = Channel(ch_idx);
  if (RingState* ring = ch.ring.load(std::memory_order_acquire)) {
    RingPostActions post;
    StatusOr<FuseReply> result =
        RingSendAndWait(ch, *ring, ch_idx, std::move(request), &post);
    // Wakeups and connection teardown are delivered after the reshape
    // window closes: notifying sq_cv (or sweeping every channel's waiters
    // in Abort) while still pinning the channel topology is the
    // reshape_mu_ <-> cv wait cycle lockdep flags. The ring outlives the
    // unlock — channels (and their rings) stay in owned_channels_ until
    // the connection dies.
    reshape.unlock();
    if (post.wake_submitters) {
      RingWakeSubmitters(*ring);
    }
    if (post.abort_conn) {
      Abort();
    }
    return result;
  }
  uint64_t unique = MakeUnique(ch_idx);
  request.unique = unique;
  request.channel = static_cast<uint32_t>(ch_idx);
  request.lane = SimClock::current_lane();
  const FuseOpcode op = request.opcode;
  // Enqueue stamp before any transport charge, so the queue phase carries
  // everything the caller pays between submit and server pickup (payload
  // gating, backlog wait, the round-trip charge itself).
  request.span = obs::MakeSpan(clock_->NowNs());
  obs::SpanPtr span = request.span;
  GateRequestPayload(ch, request);
  const bool req_spliced = request.spliced;

  // One round trip: enqueue + server wakeup + reply + caller wakeup. With
  // more than one server thread homed on this channel, each dequeue pays a
  // small contention premium (futex churn, cacheline bouncing) — per
  // channel, which is the whole point of cloning the queue.
  uint64_t cost = costs_->fuse_round_trip_ns;
  int readers = ch.readers.load(std::memory_order_relaxed);
  if (readers > 1) {
    cost += static_cast<uint64_t>(readers - 1) * costs_->fuse_thread_contention_ns;
  }

  std::unique_lock<analysis::CheckedMutex> lock(ch.mu);
  if (aborted()) {
    clock_->Advance(cost);
    FinishInFlight();
    RecordOutcome(op, span, obs::Outcome::kAbort, req_spliced);
    return Status::Error(ENOTCONN, "fuse connection aborted");
  }
  // Channel occupancy: on parallel lanes, arriving at a busy channel means
  // waiting out its backlog first (the single-queue plateau). On the shared
  // timeline every thread's advances already sum, so the backlog wait is
  // implicit and charging it again would double-count.
  if (request.lane != nullptr) {
    uint64_t now = clock_->NowNs();
    uint64_t busy = ch.busy_until_ns.load(std::memory_order_relaxed);
    if (busy > now) {
      clock_->Advance(busy - now);
    }
  }
  clock_->Advance(cost);
  BumpBusyUntil(ch, clock_->NowNs());

  requests_->Add();
  ch.enqueued.fetch_add(1, std::memory_order_relaxed);
  {
    FuseChannel::PendingReply entry;
    entry.pid = request.pid;
    uint64_t deadline = deadline_ns_.load(std::memory_order_acquire);
    if (deadline != 0) {
      entry.deadline_ns = clock_->NowNs() + deadline;
      entry.enqueued_real = std::chrono::steady_clock::now();
    }
    ch.pending.emplace(unique, std::move(entry));
  }
  ch.queue.push_back(std::move(request));
  if (ch.queue.size() > ch.max_depth.load(std::memory_order_relaxed)) {
    ch.max_depth.store(ch.queue.size(), std::memory_order_relaxed);  // ch.mu held
  }
  queued_total_.fetch_add(1);  // seq_cst: pairs with NotifyWork fast path
  lock.unlock();
  NotifyWork();

  lock.lock();
  auto it = ch.pending.find(unique);
  ch.reply_cv.wait(lock, [&] {
    return it->second.done || it->second.timed_out || it->second.interrupted || aborted();
  });
  if (!it->second.done) {
    bool timed_out = it->second.timed_out;
    bool interrupted = it->second.interrupted;
    uint64_t deadline_abs = it->second.deadline_ns;
    ch.pending.erase(it);
    lock.unlock();
    // Nothing below touches the channel set, and the timeout branch can
    // escalate to Abort() — which sweeps and notifies every channel's
    // reply_cv. Other submitters park on reply_cv holding reshape_mu_
    // shared, so the sweep must not run under it (lockdep: reply_cv <->
    // reshape_mu_ wait cycle).
    reshape.unlock();
    FinishInFlight();
    if (timed_out) {
      // Model the wait the caller actually endured: the request ran out its
      // full deadline on the caller's own timeline.
      uint64_t now = clock_->NowNs();
      if (deadline_abs > now) {
        clock_->Advance(deadline_abs - now);
      }
      // Stalled-server degradation: enough deadline misses in a row and the
      // connection is declared dead rather than timing out forever.
      uint32_t misses = consecutive_timeouts_.fetch_add(1, std::memory_order_acq_rel) + 1;
      uint32_t abort_after = abort_after_timeouts_.load(std::memory_order_acquire);
      if (abort_after != 0 && misses >= abort_after && !aborted()) {
        Abort();
      }
      RecordOutcome(op, span, obs::Outcome::kTimeout, req_spliced);
      return Status::Error(ETIMEDOUT, "fuse request deadline expired");
    }
    if (interrupted) {
      RecordOutcome(op, span, obs::Outcome::kInterrupt, req_spliced);
      return Status::Error(EINTR, "fuse request interrupted");
    }
    RecordOutcome(op, span, obs::Outcome::kAbort, req_spliced);
    return Status::Error(ENOTCONN, "fuse connection aborted");
  }
  FuseReply reply = std::move(it->second.reply);
  ch.pending.erase(it);
  lock.unlock();
  FinishInFlight();
  consecutive_timeouts_.store(0, std::memory_order_release);
  if (reply.spliced) {
    // Consume the lane bytes this reply occupied since WriteReply; the page
    // identity arrived with the reply itself.
    ch.lane_out[reply.lane_idx % kLanePoolSize]->DrainBytes(reply.payload_bytes());
  }
  RecordOutcome(op, span,
                reply.error != 0 ? obs::Outcome::kError : obs::Outcome::kOk,
                req_spliced || reply.spliced);
  if (reply.error != 0) {
    return Status::Error(reply.error);
  }
  return reply;
}

void FuseConn::SendNoReply(FuseRequest request) {
  std::shared_lock<analysis::CheckedSharedMutex> reshape(reshape_mu_);
  size_t ch_idx = RouteChannel(request.pid);
  FuseChannel& ch = Channel(ch_idx);
  const FuseOpcode op = request.opcode;
  request.unique = 0;  // no reply expected
  request.channel = static_cast<uint32_t>(ch_idx);
  // No lane: nothing blocks on a forget, so the submitting thread's lane may
  // be torn down long before the queue drains — a reply-carrying request is
  // different, because its caller sleeps until the worker is done with the
  // lane.
  request.lane = nullptr;
  if (RingState* ring = ch.ring.load(std::memory_order_acquire)) {
    RingSendNoReply(ch, *ring, ch_idx, std::move(request));
    return;
  }
  clock_->Advance(costs_->fuse_round_trip_ns / 2);
  {
    std::lock_guard<analysis::CheckedMutex> lock(ch.mu);
    if (aborted()) {
      return;
    }
    forgets_->Add();
    ch.enqueued.fetch_add(1, std::memory_order_relaxed);
    ch.queue.push_back(std::move(request));
    if (ch.queue.size() > ch.max_depth.load(std::memory_order_relaxed)) {
      ch.max_depth.store(ch.queue.size(), std::memory_order_relaxed);  // ch.mu held
    }
    queued_total_.fetch_add(1);  // seq_cst: pairs with NotifyWork fast path
  }
  NotifyWork();
  // Fire-and-forget submissions have no span (nothing waits, so there is no
  // wake to measure); the outcome counter still ticks per opcode.
  RecordOutcome(op, nullptr, obs::Outcome::kOk, false);
}

std::optional<FuseRequest> FuseConn::TryPop(FuseChannel& ch) {
  std::optional<FuseRequest> req;
  {
    std::lock_guard<analysis::CheckedMutex> lock(ch.mu);
    if (ch.queue.empty()) {
      return std::nullopt;
    }
    req = std::move(ch.queue.front());
    ch.queue.pop_front();
    queued_total_.fetch_sub(1);
  }
  if (req->spliced && !req->payload_pages.empty()) {
    // One /dev/fuse read consumes header + spliced payload together: free
    // the lane capacity this request held since submission.
    uint64_t bytes = 0;
    for (const splice::PageRef& ref : req->payload_pages) {
      bytes += ref.len;
    }
    ch.lane_in[req->lane_idx % kLanePoolSize]->DrainBytes(bytes);
  }
  if (req->span != nullptr) {
    // Reap stamp on the *submitter's* timeline: the worker has not adopted
    // the request's lane yet (LaneScope happens in the server loop), so a
    // plain NowNs() here would read the worker's unrelated timeline.
    req->span->reap_ns.store(clock_->NowOnLane(req->lane),
                             std::memory_order_relaxed);
  }
  return req;
}

std::optional<FuseRequest> FuseConn::ReadRequest(size_t home_channel) {
  std::vector<FuseRequest> batch = ReadRequestBatch(home_channel, 1);
  if (batch.empty()) {
    return std::nullopt;
  }
  return std::move(batch.front());
}

std::vector<FuseRequest> FuseConn::ReadRequestBatch(size_t home_channel,
                                                    size_t max_batch) {
  std::vector<FuseRequest> batch;
  if (max_batch == 0) {
    max_batch = 1;
  }
  const size_t n = num_channels();
  const size_t home = home_channel % n;
  while (true) {
    // Home channel first, then steal from siblings in ring order so a
    // single hot channel still drains through every idle worker.
    for (size_t i = 0; i < n; ++i) {
      FuseChannel& ch = Channel((home + i) % n);
      if (RingState* ring = ch.ring.load(std::memory_order_acquire)) {
        if (RingReap(ch, *ring, batch, max_batch) > 0) {
          return batch;
        }
      } else if (auto req = TryPop(ch)) {
        batch.push_back(std::move(*req));
        return batch;
      }
    }
    std::unique_lock<analysis::CheckedMutex> idle(idle_mu_);
    idle_workers_.fetch_add(1);  // seq_cst: pairs with NotifyWork's fast path
    if (queued_total_.load() > 0) {
      idle_workers_.fetch_sub(1);
      continue;  // raced with an enqueue; rescan
    }
    if (aborted()) {
      idle_workers_.fetch_sub(1);
      return batch;  // empty
    }
    if (ring_enabled()) {
      // Ring doorbells are best-effort (and can be injected away); the
      // bounded park makes a lost one cost at most a tick, not a hang.
      work_cv_.wait_for(idle, std::chrono::milliseconds(1),
                        [&] { return queued_total_.load() > 0 || aborted(); });
    } else {
      work_cv_.wait(idle, [&] { return queued_total_.load() > 0 || aborted(); });
    }
    idle_workers_.fetch_sub(1);
    if (queued_total_.load() == 0 && aborted()) {
      return batch;  // empty
    }
  }
}

std::vector<FuseRequest> FuseConn::TryReadRequestBatch(size_t start_channel,
                                                       size_t max_batch) {
  std::vector<FuseRequest> batch;
  if (max_batch == 0) {
    max_batch = 1;
  }
  const size_t n = num_channels();
  const size_t start = start_channel % n;
  // One pass over every channel, start-channel first; never parks — an
  // empty result means "nothing queued right now" and the pool's scheduler
  // decides what to do with that.
  for (size_t i = 0; i < n && batch.size() < max_batch; ++i) {
    FuseChannel& ch = Channel((start + i) % n);
    if (RingState* ring = ch.ring.load(std::memory_order_acquire)) {
      RingReap(ch, *ring, batch, max_batch - batch.size());
    } else {
      while (batch.size() < max_batch) {
        auto req = TryPop(ch);
        if (!req.has_value()) {
          break;
        }
        batch.push_back(std::move(*req));
      }
    }
  }
  return batch;
}

void FuseConn::WriteReply(uint64_t unique, FuseReply reply) {
  if (faults_ != nullptr) {
    if (auto hit = faults_->Check(kFaultConnReply)) {
      clock_->Advance(hit.latency_ns);
      if (hit.action == fault::FaultAction::kDrop) {
        // The reply is lost on the wire: the waiter's deadline (or the
        // sweeper, or Abort) must resolve it.
        return;
      }
      if (hit.action == fault::FaultAction::kFail) {
        reply = FuseReply::Error(hit.error);
      }
    }
  }
  FuseChannel& ch = ChannelOfUnique(unique);
  if (RingState* ring = ch.ring.load(std::memory_order_acquire)) {
    RingWriteReply(ch, *ring, unique, std::move(reply));
    return;
  }
  std::lock_guard<analysis::CheckedMutex> lock(ch.mu);
  // The channel stays occupied through the server-side handling (the worker
  // runs on the caller's lane, so NowNs here includes the service time).
  BumpBusyUntil(ch, clock_->NowNs());
  auto it = ch.pending.find(unique);
  if (it == ch.pending.end()) {
    // Forget, expired-and-collected, or aborted waiter: nothing delivered.
    late_replies_->Add();
    return;
  }
  if (it->second.timed_out || it->second.interrupted ||
      (it->second.deadline_ns != 0 && clock_->NowNs() > it->second.deadline_ns)) {
    // The waiter's deadline expired (or it was interrupted) before this
    // reply landed: drop the payload, resolve the waiter if it has not been
    // already. Exactly one of {reply, timeout, interrupt} wins per request.
    if (!it->second.timed_out && !it->second.interrupted) {
      it->second.timed_out = true;
      timeouts_->Add();
    }
    late_replies_->Add();
    ch.reply_cv.notify_all();
    return;
  }
  // Payload onto the lane (or flattened) only for a live waiter — a dead
  // waiter's pages are simply dropped with the reply.
  GateReplyPayload(ch, reply);
  replies_->Add();
  it->second.reply = std::move(reply);
  it->second.done = true;
  ch.reply_cv.notify_all();
}

// --- submission-ring transport ---------------------------------------------
//
// Slot discipline (see fuse_ring.h): plain slot fields are written only
// under kSlotInit (the submitter) and read only by owners of a claim state —
// the completer under kSlotCompleting, the sweeper/interrupt under
// kSlotSweeping, the waiter after observing a terminal state. Every claim is
// a CAS from kSlotPending carrying the generation, so a claim can never land
// on a recycled slot unnoticed.

void FuseConn::RingWakeWaiters(RingState& ring) {
  if (ring.parked_waiters.load(std::memory_order_seq_cst) == 0) {
    return;  // common case: the waiter is spin-polling its slot, no syscall
  }
  if (faults_ != nullptr) {
    if (auto hit = faults_->Check(kFaultRingDoorbellLost)) {
      clock_->Advance(hit.latency_ns);
      return;  // lost on the wire: the waiter's bounded park self-heals
    }
  }
  { std::lock_guard<analysis::CheckedMutex> lock(ring.cq_mu); }
  ring.cq_cv.notify_all();
}

void FuseConn::RingWakeSubmitters(RingState& ring) {
  if (ring.sq_waiters.load(std::memory_order_seq_cst) == 0) {
    return;
  }
  { std::lock_guard<analysis::CheckedMutex> lock(ring.sq_mu); }
  ring.sq_cv.notify_all();
}

int FuseConn::RingAllocSlot(RingState& ring) {
  size_t start = static_cast<size_t>(
      ring.alloc_hint.fetch_add(1, std::memory_order_relaxed));
  for (size_t i = 0; i < ring.depth; ++i) {
    size_t idx = (start + i) % ring.depth;
    RingSlot& slot = ring.slots[idx];
    uint64_t ctrl = slot.ctrl.load(std::memory_order_relaxed);
    if (SlotState(ctrl) != kSlotFree) {
      continue;
    }
    if (slot.ctrl.compare_exchange_strong(ctrl, SlotCtrl(SlotGen(ctrl), kSlotInit),
                                          std::memory_order_acq_rel)) {
      return static_cast<int>(idx);
    }
  }
  return -1;
}

bool FuseConn::RingPushSqe(FuseChannel& ch, RingState& ring, FuseRequest request) {
  bool overflowed = false;
  // Deterministic doorbell rule: every reply-carrying SQE pays the doorbell;
  // fire-and-forget entries (FORGETs, interrupt notifications) ride the next
  // burst for free. Charging by *actual* SQ occupancy would make virtual
  // time depend on real-time worker scheduling (whether the previous entry
  // was already reaped), breaking run-to-run determinism.
  const bool rings_doorbell = request.unique != 0;
  for (;;) {
    if (aborted()) {
      return false;
    }
    bool was_empty = ring.sq.SizeApprox() == 0;
    // Count before publishing: once the entry is in the SQ a worker may reap
    // it and decrement at once, and a count that trailed the push would
    // wrap queued_depth() below zero for the pool controller to read.
    queued_total_.fetch_add(1);  // seq_cst: pairs with parked workers
    if (ring.sq.TryPush(std::move(request))) {
      ch.enqueued.fetch_add(1, std::memory_order_relaxed);
      uint64_t depth_now = ring.sq.SizeApprox();
      uint64_t md = ch.max_depth.load(std::memory_order_relaxed);
      while (md < depth_now && !ch.max_depth.compare_exchange_weak(
                                   md, depth_now, std::memory_order_relaxed)) {
      }
      if (was_empty) {
        // Burst head (stats only: this is a real-time observation).
        ring.doorbells.fetch_add(1, std::memory_order_relaxed);
      }
      if (rings_doorbell) {
        clock_->Advance(costs_->fuse_ring_doorbell_ns);
      }
      bool lost = false;
      if (faults_ != nullptr) {
        if (auto hit = faults_->Check(kFaultRingDoorbellLost)) {
          clock_->Advance(hit.latency_ns);
          lost = true;  // the workers' bounded parks self-heal
        }
      }
      if (!lost) {
        NotifyWork();
      }
      return true;
    }
    queued_total_.fetch_sub(1);  // not published: undo the count
    // Ring exhausted: backpressure the submitter with a bounded park until a
    // reap frees a cell (or the connection dies).
    if (!overflowed) {
      overflowed = true;
      ring.sq_overflows.fetch_add(1, std::memory_order_relaxed);
    }
    ring.sq_waiters.fetch_add(1, std::memory_order_seq_cst);
    {
      std::unique_lock<analysis::CheckedMutex> lock(ring.sq_mu);
      ring.sq_cv.wait_for(lock, std::chrono::milliseconds(1));
    }
    ring.sq_waiters.fetch_sub(1, std::memory_order_seq_cst);
  }
}

bool FuseConn::RingClaimSqe(RingState& ring, const FuseRequest& req) {
  RingSlot& slot = ring.slots[SlotOfUnique(req.unique) % ring.depth];
  for (;;) {
    uint64_t ctrl = slot.ctrl.load(std::memory_order_acquire);
    uint64_t state = SlotState(ctrl);
    if (state == kSlotInit || state == kSlotSweeping || state == kSlotCompleting) {
      std::this_thread::yield();  // transient owner; it resolves fast
      continue;
    }
    if (state != kSlotPending) {
      return false;  // waiter already resolved: drop the stale entry
    }
    uint64_t sweeping = SlotCtrl(SlotGen(ctrl), kSlotSweeping);
    if (!slot.ctrl.compare_exchange_weak(ctrl, sweeping, std::memory_order_acq_rel)) {
      continue;
    }
    // Exclusive: fields are stable for this generation.
    bool ours = slot.unique == req.unique;
    if (ours) {
      // The server has now seen the request: an interrupt from here on must
      // send the kInterrupt notification instead of silently dropping.
      slot.claimed.store(true, std::memory_order_relaxed);
    }
    slot.ctrl.store(SlotCtrl(SlotGen(ctrl), kSlotPending), std::memory_order_release);
    return ours;
  }
}

size_t FuseConn::RingReap(FuseChannel& ch, RingState& ring,
                          std::vector<FuseRequest>& out, size_t max_batch) {
  if (ring.sq.SizeApprox() == 0) {
    return 0;
  }
  if (faults_ != nullptr) {
    if (auto hit = faults_->Check(kFaultRingReap)) {
      clock_->Advance(hit.latency_ns);
      if (hit.action == fault::FaultAction::kKill) {
        Abort();  // the reaping worker crashed mid-pass
        return 0;
      }
      return 0;  // poisoned pass: the burst stays queued for the next one
    }
  }
  size_t delivered = 0;
  FuseRequest req;
  while (delivered < max_batch && ring.sq.TryPop(req)) {
    queued_total_.fetch_sub(1);
    if (req.spliced && !req.payload_pages.empty()) {
      // One /dev/fuse read consumes header + spliced payload together: free
      // the lane capacity the entry held since submission (dropped entries
      // included — their payload dies with them).
      uint64_t bytes = 0;
      for (const splice::PageRef& ref : req.payload_pages) {
        bytes += ref.len;
      }
      ch.lane_in[req.lane_idx % kLanePoolSize]->DrainBytes(bytes);
    }
    if (req.unique != 0 && !RingClaimSqe(ring, req)) {
      continue;  // interrupt/timeout/abort won the race before the server saw it
    }
    if (req.span != nullptr) {
      // Reap stamp on the submitter's timeline (see TryPop): the reaping
      // worker adopts the lane only later, in the server loop.
      req.span->reap_ns.store(clock_->NowOnLane(req.lane),
                              std::memory_order_relaxed);
    }
    out.push_back(std::move(req));
    ++delivered;
  }
  if (delivered > 0) {
    ring.reaps.fetch_add(1, std::memory_order_relaxed);
    ring.reaped_requests.fetch_add(delivered, std::memory_order_relaxed);
    uint64_t cur = ring.max_reqs_per_reap.load(std::memory_order_relaxed);
    while (cur < delivered && !ring.max_reqs_per_reap.compare_exchange_weak(
                                  cur, delivered, std::memory_order_relaxed)) {
    }
    RingWakeSubmitters(ring);  // SQ cells freed
  }
  return delivered;
}

StatusOr<FuseReply> FuseConn::RingSendAndWait(FuseChannel& ch, RingState& ring,
                                              size_t ch_idx, FuseRequest request,
                                              RingPostActions* post) {
  const FuseOpcode op = request.opcode;
  // Injected SQ overflow: surfaces to the submitter as a full-ring
  // submission failure.
  if (faults_ != nullptr) {
    if (auto hit = faults_->Check(kFaultSqOverflow)) {
      clock_->Advance(hit.latency_ns);
      ring.sq_overflows.fetch_add(1, std::memory_order_relaxed);
      FinishInFlight();
      if (hit.action == fault::FaultAction::kKill) {
        post->abort_conn = true;
        RecordOutcome(op, nullptr, obs::Outcome::kAbort, false);
        return Status::Error(ENOTCONN, "fuse connection aborted");
      }
      RecordOutcome(op, nullptr, obs::Outcome::kFault, false);
      return Status::Error(hit.error != 0 ? hit.error : ENOBUFS,
                           "injected submission-ring overflow");
    }
  }
  // Claim a completion slot. None free means the full ring depth is already
  // in flight — park like a full SQ (the admission gate, when armed, trips
  // first and keeps this loop cold).
  int slot_idx;
  bool overflowed = false;
  for (;;) {
    if (aborted()) {
      FinishInFlight();
      RecordOutcome(op, nullptr, obs::Outcome::kAbort, false);
      return Status::Error(ENOTCONN, "fuse connection aborted");
    }
    slot_idx = RingAllocSlot(ring);
    if (slot_idx >= 0) {
      break;
    }
    if (!overflowed) {
      overflowed = true;
      ring.sq_overflows.fetch_add(1, std::memory_order_relaxed);
    }
    ring.sq_waiters.fetch_add(1, std::memory_order_seq_cst);
    {
      std::unique_lock<analysis::CheckedMutex> lock(ring.sq_mu);
      ring.sq_cv.wait_for(lock, std::chrono::milliseconds(1));
    }
    ring.sq_waiters.fetch_sub(1, std::memory_order_seq_cst);
  }
  RingSlot& slot = ring.slots[slot_idx];
  const uint64_t gen = SlotGen(slot.ctrl.load(std::memory_order_relaxed));

  uint64_t unique = MakeRingUnique(ch_idx, static_cast<size_t>(slot_idx));
  request.unique = unique;
  request.channel = static_cast<uint32_t>(ch_idx);
  request.lane = SimClock::current_lane();
  // Enqueue stamp before any transport charge, so the queue phase carries
  // everything the caller pays between submit and server pickup (payload
  // gating, channel occupancy, the SQE fill itself).
  request.span = obs::MakeSpan(clock_->NowNs());
  obs::SpanPtr span = request.span;
  GateRequestPayload(ch, request);
  const bool req_spliced = request.spliced;

  // Channel occupancy across parallel lanes (same contract as the wakeup
  // path) — but no per-reader contention premium: SQ producers and the
  // reaping consumer never contend on a queue lock.
  if (request.lane != nullptr) {
    uint64_t now = clock_->NowNs();
    uint64_t busy = ch.busy_until_ns.load(std::memory_order_relaxed);
    if (busy > now) {
      clock_->Advance(busy - now);
    }
  }
  clock_->Advance(costs_->fuse_ring_sqe_ns);
  BumpBusyUntil(ch, clock_->NowNs());
  requests_->Add();

  // Fill the slot under kSlotInit, then publish it Pending.
  slot.unique = unique;
  slot.pid = request.pid;
  slot.deadline_ns = 0;
  uint64_t deadline = deadline_ns_.load(std::memory_order_acquire);
  if (deadline != 0) {
    slot.deadline_ns = clock_->NowNs() + deadline;
    slot.enqueued_real = std::chrono::steady_clock::now();
  }
  slot.claimed.store(false, std::memory_order_relaxed);
  slot.ctrl.store(SlotCtrl(gen, kSlotPending), std::memory_order_release);

  // Submit. The submitting window is refcounted so Abort can wait out
  // in-progress pushes before draining the SQ.
  ring.submitting.fetch_add(1, std::memory_order_seq_cst);
  bool pushed = RingPushSqe(ch, ring, std::move(request));
  ring.submitting.fetch_sub(1, std::memory_order_seq_cst);

  // Wait: adaptive spin on our own completion slot, then bounded park. The
  // budget is the post-backoff effective value, not the ring's configured
  // one — an oversubscribed pool (threads < channels) shrinks it so waiters
  // park early instead of spinning for service that cannot arrive yet.
  const uint32_t spin_budget =
      std::max<uint32_t>(1, effective_spin_budget_.load(std::memory_order_acquire));
  uint32_t spins = 0;
  uint64_t terminal = 0;
  for (;;) {
    uint64_t ctrl = slot.ctrl.load(std::memory_order_acquire);
    uint64_t state = SlotState(ctrl);
    if (SlotGen(ctrl) == gen && (state == kSlotDone || state == kSlotTimedOut ||
                                 state == kSlotInterrupted)) {
      terminal = state;
      break;
    }
    if (!pushed || aborted()) {
      // The connection died (or the push never landed): reclaim our Pending
      // slot unless a completer/sweeper races us — then take its outcome.
      if (SlotGen(ctrl) == gen && state == kSlotPending) {
        if (slot.ctrl.compare_exchange_weak(ctrl, SlotCtrl(gen + 1, kSlotFree),
                                            std::memory_order_acq_rel)) {
          post->wake_submitters = true;
          FinishInFlight();
          RecordOutcome(op, span, obs::Outcome::kAbort, req_spliced);
          return Status::Error(ENOTCONN, "fuse connection aborted");
        }
      } else {
        std::this_thread::yield();  // transient owner; its outcome lands next
      }
      continue;
    }
    if (++spins < spin_budget) {
      if ((spins & 63) == 0) {
        std::this_thread::yield();
      }
      continue;
    }
    if (spins == spin_budget) {
      ring.spin_parks.fetch_add(1, std::memory_order_relaxed);
    }
    // Spin budget exhausted: park bounded. A completion doorbell lost on the
    // wire costs at most one tick, never a hang.
    ring.parked_waiters.fetch_add(1, std::memory_order_seq_cst);
    {
      std::unique_lock<analysis::CheckedMutex> lock(ring.cq_mu);
      uint64_t c = slot.ctrl.load(std::memory_order_seq_cst);
      uint64_t s = SlotState(c);
      bool resolved = SlotGen(c) == gen && (s == kSlotDone || s == kSlotTimedOut ||
                                            s == kSlotInterrupted);
      if (!resolved && !aborted()) {
        ring.cq_cv.wait_for(lock, std::chrono::milliseconds(1));
      }
    }
    ring.parked_waiters.fetch_sub(1, std::memory_order_seq_cst);
  }

  // Terminal: take the outcome, free the slot for reuse (gen bump), then
  // release capacity to parked submitters.
  FuseReply reply;
  uint64_t deadline_abs = slot.deadline_ns;
  if (terminal == kSlotDone) {
    reply = std::move(slot.reply);
    slot.reply = FuseReply{};
  }
  slot.ctrl.store(SlotCtrl(gen + 1, kSlotFree), std::memory_order_release);
  post->wake_submitters = true;
  FinishInFlight();
  if (terminal == kSlotTimedOut) {
    // Model the wait the caller actually endured: the request ran out its
    // full deadline on the caller's own timeline.
    uint64_t now = clock_->NowNs();
    if (deadline_abs > now) {
      clock_->Advance(deadline_abs - now);
    }
    uint32_t misses = consecutive_timeouts_.fetch_add(1, std::memory_order_acq_rel) + 1;
    uint32_t abort_after = abort_after_timeouts_.load(std::memory_order_acquire);
    if (abort_after != 0 && misses >= abort_after && !aborted()) {
      post->abort_conn = true;
    }
    RecordOutcome(op, span, obs::Outcome::kTimeout, req_spliced);
    return Status::Error(ETIMEDOUT, "fuse request deadline expired");
  }
  if (terminal == kSlotInterrupted) {
    RecordOutcome(op, span, obs::Outcome::kInterrupt, req_spliced);
    return Status::Error(EINTR, "fuse request interrupted");
  }
  consecutive_timeouts_.store(0, std::memory_order_release);
  if (reply.spliced) {
    // Consume the lane bytes this reply occupied since RingWriteReply.
    ch.lane_out[reply.lane_idx % kLanePoolSize]->DrainBytes(reply.payload_bytes());
  }
  RecordOutcome(op, span,
                reply.error != 0 ? obs::Outcome::kError : obs::Outcome::kOk,
                req_spliced || reply.spliced);
  if (reply.error != 0) {
    return Status::Error(reply.error);
  }
  return reply;
}

void FuseConn::RingSendNoReply(FuseChannel& ch, RingState& ring, size_t ch_idx,
                               FuseRequest request) {
  (void)ch_idx;
  // Fire-and-forget: one SQE fill, no completion slot, no waiting. The
  // doorbell (if this lands a burst head) is charged inside the push.
  const FuseOpcode op = request.opcode;
  clock_->Advance(costs_->fuse_ring_sqe_ns);
  ring.submitting.fetch_add(1, std::memory_order_seq_cst);
  bool pushed = RingPushSqe(ch, ring, std::move(request));
  if (pushed) {
    forgets_->Add();
  }
  ring.submitting.fetch_sub(1, std::memory_order_seq_cst);
  if (pushed) {
    RecordOutcome(op, nullptr, obs::Outcome::kOk, false);
  }
}

void FuseConn::RingWriteReply(FuseChannel& ch, RingState& ring, uint64_t unique,
                              FuseReply reply) {
  // The channel stays occupied through the server-side handling (the worker
  // runs on the caller's lane, so NowNs here includes the service time).
  BumpBusyUntil(ch, clock_->NowNs());
  RingSlot& slot = ring.slots[SlotOfUnique(unique) % ring.depth];
  for (;;) {
    uint64_t ctrl = slot.ctrl.load(std::memory_order_acquire);
    uint64_t state = SlotState(ctrl);
    if (state == kSlotInit || state == kSlotSweeping) {
      std::this_thread::yield();  // transient owner; it resolves fast
      continue;
    }
    if (state != kSlotPending) {
      // Resolved (timeout/interrupt/abort) or recycled: nothing delivered.
      late_replies_->Add();
      return;
    }
    uint64_t completing = SlotCtrl(SlotGen(ctrl), kSlotCompleting);
    if (!slot.ctrl.compare_exchange_weak(ctrl, completing, std::memory_order_acq_rel)) {
      continue;
    }
    if (slot.unique != unique) {
      // The slot was recycled by a new request: this reply's waiter is gone.
      slot.ctrl.store(SlotCtrl(SlotGen(ctrl), kSlotPending), std::memory_order_release);
      late_replies_->Add();
      return;
    }
    if (slot.deadline_ns != 0 && clock_->NowNs() > slot.deadline_ns) {
      // The virtual deadline expired before this reply landed: drop the
      // payload, resolve the waiter as timed out. Exactly one of
      // {reply, timeout, interrupt} wins per request.
      slot.ctrl.store(SlotCtrl(SlotGen(ctrl), kSlotTimedOut), std::memory_order_release);
      timeouts_->Add();
      late_replies_->Add();
      RingWakeWaiters(ring);
      return;
    }
    // Payload onto the lane (or flattened) only for a live waiter, then one
    // CQE publish. Out-of-order by construction: each reply lands in its own
    // slot, whichever worker finishes first.
    GateReplyPayload(ch, reply);
    clock_->Advance(costs_->fuse_ring_cqe_ns);
    slot.reply = std::move(reply);
    replies_->Add();
    slot.ctrl.store(SlotCtrl(SlotGen(ctrl), kSlotDone), std::memory_order_release);
    RingWakeWaiters(ring);
    return;
  }
}

bool FuseConn::RingInterrupt(FuseChannel& ch, RingState& ring, size_t ch_idx,
                             uint64_t unique) {
  RingSlot& slot = ring.slots[SlotOfUnique(unique) % ring.depth];
  for (;;) {
    uint64_t ctrl = slot.ctrl.load(std::memory_order_acquire);
    uint64_t state = SlotState(ctrl);
    if (state == kSlotInit || state == kSlotSweeping || state == kSlotCompleting) {
      std::this_thread::yield();
      continue;
    }
    if (state != kSlotPending) {
      return false;  // already resolved (or never existed): nothing to do
    }
    uint64_t sweeping = SlotCtrl(SlotGen(ctrl), kSlotSweeping);
    if (!slot.ctrl.compare_exchange_weak(ctrl, sweeping, std::memory_order_acq_rel)) {
      continue;
    }
    if (slot.unique != unique) {
      slot.ctrl.store(SlotCtrl(SlotGen(ctrl), kSlotPending), std::memory_order_release);
      return false;
    }
    bool claimed = slot.claimed.load(std::memory_order_relaxed);
    slot.ctrl.store(SlotCtrl(SlotGen(ctrl), kSlotInterrupted), std::memory_order_release);
    interrupts_->Add();
    RingWakeWaiters(ring);
    if (claimed) {
      // The server already reaped it: send the INTERRUPT notification so it
      // can observe the cancellation (its eventual reply is dropped as
      // late). An unclaimed SQE is instead dropped at reap time.
      EnqueueInterruptNotify(ch, ch_idx, unique);
    }
    return true;
  }
}

void FuseConn::Abort() {
  aborted_.store(true, std::memory_order_release);
  // Sweep every channel ever created (including any retired by a reshape):
  // a waiter parked on a stale channel must still wake with ENOTCONN.
  std::lock_guard<analysis::CheckedMutex> config(config_mu_);
  for (auto& ch : owned_channels_) {
    {
      std::lock_guard<analysis::CheckedMutex> lock(ch->mu);
    }
    ch->reply_cv.notify_all();
    if (RingState* ring = ch->ring.load(std::memory_order_acquire)) {
      // Wait out in-progress submitters (they observe aborted_ within one
      // bounded park), then drain the SQ so ring-in-flight entries go to
      // zero; waiters reclaim their own Pending slots once woken.
      while (ring->submitting.load(std::memory_order_seq_cst) != 0) {
        std::this_thread::yield();
      }
      FuseRequest drained;
      while (ring->sq.TryPop(drained)) {
        queued_total_.fetch_sub(1);
      }
      {
        std::lock_guard<analysis::CheckedMutex> lock(ring->cq_mu);
      }
      ring->cq_cv.notify_all();
      {
        std::lock_guard<analysis::CheckedMutex> lock(ring->sq_mu);
      }
      ring->sq_cv.notify_all();
    }
    // Waiters that died mid-transit leave payload parked on the lanes; a
    // dead connection must not strand that capacity.
    for (size_t i = 0; i < kLanePoolSize; ++i) {
      ch->lane_in[i]->Clear();
      ch->lane_out[i]->Clear();
    }
  }
  {
    std::lock_guard<analysis::CheckedMutex> lock(idle_mu_);
  }
  work_cv_.notify_all();
  // Admission-gated callers must not stay parked on a dead connection.
  {
    std::lock_guard<analysis::CheckedMutex> lock(admission_mu_);
  }
  admission_cv_.notify_all();
  // A shared pool serving this mount needs a wake too: its workers must
  // notice the abort and let the health controller quarantine the mount.
  NotifyWorkObserver();
  // The sweeper has nothing left to expire; let it drain out.
  sweeper_cv_.notify_all();
}

void FuseConn::SetRequestDeadline(uint64_t virtual_ns, uint64_t real_grace_ms) {
  deadline_ns_.store(virtual_ns, std::memory_order_release);
  deadline_grace_ms_.store(real_grace_ms, std::memory_order_release);
  if (virtual_ns == 0 || real_grace_ms == 0) {
    StopSweeper();
    return;
  }
  std::lock_guard<analysis::CheckedMutex> lock(sweeper_mu_);
  if (!sweeper_.joinable()) {
    sweeper_stop_ = false;
    sweeper_ = std::thread([this] { SweeperLoop(); });
  }
}

void FuseConn::SweeperLoop() {
  std::unique_lock<analysis::CheckedMutex> lock(sweeper_mu_);
  while (!sweeper_stop_) {
    uint64_t grace_ms =
        std::max<uint64_t>(deadline_grace_ms_.load(std::memory_order_acquire), 1);
    // Wake at a fraction of the grace so expiry lands within ~25% of it.
    sweeper_cv_.wait_for(lock,
                         std::chrono::milliseconds(std::max<uint64_t>(grace_ms / 4, 1)));
    if (sweeper_stop_) {
      break;
    }
    if (aborted() || deadline_ns_.load(std::memory_order_acquire) == 0) {
      continue;
    }
    lock.unlock();
    // Expire requests that have sat unanswered past the real-time grace:
    // the virtual deadline cannot fire on its own when the server is wedged
    // and never calls WriteReply, so wall time is the backstop.
    auto now_real = std::chrono::steady_clock::now();
    auto grace = std::chrono::milliseconds(grace_ms);
    {
      std::lock_guard<analysis::CheckedMutex> config(config_mu_);
      for (auto& ch : owned_channels_) {
        if (RingState* ring = ch->ring.load(std::memory_order_acquire)) {
          // Ring channels carry their pending set in the completion slots:
          // claim each Pending slot transiently, expire it if it has sat
          // unanswered past the real-time grace.
          bool expired_ring = false;
          for (RingSlot& slot : ring->slots) {
            uint64_t ctrl = slot.ctrl.load(std::memory_order_acquire);
            if (SlotState(ctrl) != kSlotPending) {
              continue;
            }
            uint64_t sweeping = SlotCtrl(SlotGen(ctrl), kSlotSweeping);
            if (!slot.ctrl.compare_exchange_strong(ctrl, sweeping,
                                                   std::memory_order_acq_rel)) {
              continue;  // racing claim; revisit next tick
            }
            bool expire =
                slot.deadline_ns != 0 && now_real - slot.enqueued_real >= grace;
            slot.ctrl.store(
                SlotCtrl(SlotGen(ctrl), expire ? kSlotTimedOut : kSlotPending),
                std::memory_order_release);
            if (expire) {
              timeouts_->Add();
              expired_ring = true;
            }
          }
          if (expired_ring) {
            {
              std::lock_guard<analysis::CheckedMutex> lock(ring->cq_mu);
            }
            ring->cq_cv.notify_all();
          }
          continue;
        }
        bool expired_any = false;
        {
          std::lock_guard<analysis::CheckedMutex> chlock(ch->mu);
          for (auto& [unique, entry] : ch->pending) {
            if (entry.deadline_ns == 0 || entry.done || entry.timed_out ||
                entry.interrupted) {
              continue;
            }
            if (now_real - entry.enqueued_real >= grace) {
              entry.timed_out = true;
              timeouts_->Add();
              expired_any = true;
            }
          }
        }
        if (expired_any) {
          ch->reply_cv.notify_all();
        }
      }
    }
    lock.lock();
  }
}

void FuseConn::StopSweeper() {
  std::thread t;
  {
    std::lock_guard<analysis::CheckedMutex> lock(sweeper_mu_);
    sweeper_stop_ = true;
    t = std::move(sweeper_);
  }
  sweeper_cv_.notify_all();
  if (t.joinable()) {
    t.join();
  }
  // Re-arming later restarts a fresh thread.
  {
    std::lock_guard<analysis::CheckedMutex> lock(sweeper_mu_);
    sweeper_stop_ = false;
  }
}

bool FuseConn::Interrupt(uint64_t unique) {
  FuseChannel& ch = ChannelOfUnique(unique);
  size_t ch_idx = unique & (kMaxChannels - 1);
  if (RingState* ring = ch.ring.load(std::memory_order_acquire)) {
    return RingInterrupt(ch, *ring, ch_idx, unique);
  }
  bool in_flight_now = false;
  {
    std::lock_guard<analysis::CheckedMutex> lock(ch.mu);
    auto it = ch.pending.find(unique);
    if (it == ch.pending.end() || it->second.done || it->second.timed_out ||
        it->second.interrupted) {
      return false;  // already resolved (or never existed): nothing to do
    }
    // Still queued: remove it before the server ever dequeues it, releasing
    // any lane capacity its spliced payload held (exactly what TryPop would
    // have consumed).
    auto qit = std::find_if(ch.queue.begin(), ch.queue.end(),
                            [&](const FuseRequest& r) { return r.unique == unique; });
    if (qit != ch.queue.end()) {
      if (qit->spliced && !qit->payload_pages.empty()) {
        uint64_t bytes = 0;
        for (const splice::PageRef& ref : qit->payload_pages) {
          bytes += ref.len;
        }
        ch.lane_in[qit->lane_idx % kLanePoolSize]->DrainBytes(bytes);
      }
      ch.queue.erase(qit);
      queued_total_.fetch_sub(1);
    } else {
      in_flight_now = true;
    }
    it->second.interrupted = true;
    interrupts_->Add();
  }
  ch.reply_cv.notify_all();
  if (in_flight_now) {
    // The server already holds the request: send the INTERRUPT notification
    // so it can observe the cancellation (its eventual reply is dropped as
    // late either way).
    EnqueueInterruptNotify(ch, ch_idx, unique);
  }
  return true;
}

uint32_t FuseConn::InterruptPid(kernel::Pid pid) {
  uint32_t count = 0;
  std::lock_guard<analysis::CheckedMutex> config(config_mu_);
  for (auto& ch : owned_channels_) {
    if (RingState* ring = ch->ring.load(std::memory_order_acquire)) {
      // Scan the completion slots for this pid's in-flight requests and
      // resolve each the same way RingInterrupt would (the slot claim
      // doubles as the unique lookup — no pending map in ring mode).
      for (RingSlot& slot : ring->slots) {
        uint64_t ctrl = slot.ctrl.load(std::memory_order_acquire);
        if (SlotState(ctrl) != kSlotPending) {
          continue;
        }
        uint64_t sweeping = SlotCtrl(SlotGen(ctrl), kSlotSweeping);
        if (!slot.ctrl.compare_exchange_strong(ctrl, sweeping,
                                               std::memory_order_acq_rel)) {
          continue;  // racing claim; that owner resolves it
        }
        if (slot.pid != pid) {
          slot.ctrl.store(SlotCtrl(SlotGen(ctrl), kSlotPending),
                          std::memory_order_release);
          continue;
        }
        uint64_t unique = slot.unique;
        bool claimed = slot.claimed.load(std::memory_order_relaxed);
        slot.ctrl.store(SlotCtrl(SlotGen(ctrl), kSlotInterrupted),
                        std::memory_order_release);
        interrupts_->Add();
        RingWakeWaiters(*ring);
        if (claimed) {
          EnqueueInterruptNotify(*ch, unique & (kMaxChannels - 1), unique);
        }
        ++count;
      }
      continue;
    }
    std::vector<uint64_t> found;
    {
      std::lock_guard<analysis::CheckedMutex> lock(ch->mu);
      for (auto& [unique, entry] : ch->pending) {
        if (entry.pid == pid && !entry.done && !entry.timed_out && !entry.interrupted) {
          found.push_back(unique);
        }
      }
    }
    for (uint64_t unique : found) {
      if (Interrupt(unique)) {
        ++count;
      }
    }
  }
  return count;
}

void FuseConn::EnqueueInterruptNotify(FuseChannel& ch, size_t ch_idx, uint64_t unique) {
  FuseRequest notify;
  notify.unique = 0;  // notification: the server never replies to it
  notify.opcode = FuseOpcode::kInterrupt;
  notify.interrupt_unique = unique;
  notify.channel = static_cast<uint32_t>(ch_idx);
  notify.lane = nullptr;
  if (RingState* ring = ch.ring.load(std::memory_order_acquire)) {
    // Best effort: a notification that finds the ring full is dropped — the
    // waiter is already unblocked either way.
    ring->submitting.fetch_add(1, std::memory_order_seq_cst);
    if (!aborted()) {
      // Counted before the push, as in RingPushSqe.
      queued_total_.fetch_add(1);  // seq_cst: pairs with parked workers
      if (ring->sq.TryPush(std::move(notify))) {
        NotifyWork();
      } else {
        queued_total_.fetch_sub(1);
      }
    }
    ring->submitting.fetch_sub(1, std::memory_order_seq_cst);
    return;
  }
  {
    std::lock_guard<analysis::CheckedMutex> lock(ch.mu);
    if (aborted()) {
      return;
    }
    ch.queue.push_back(std::move(notify));
    queued_total_.fetch_add(1);  // seq_cst: pairs with NotifyWork fast path
  }
  NotifyWork();
}

size_t FuseConn::lane_bytes_in_flight() const {
  size_t total = 0;
  std::lock_guard<analysis::CheckedMutex> config(config_mu_);
  for (const auto& ch : owned_channels_) {
    for (size_t i = 0; i < kLanePoolSize; ++i) {
      total += ch->lane_in[i]->Available();
      total += ch->lane_out[i]->Available();
    }
  }
  return total;
}

void FuseConn::AddReader(size_t channel) {
  Channel(channel).readers.fetch_add(1);
  reader_threads_.fetch_add(1);
}

void FuseConn::RemoveReader(size_t channel) {
  Channel(channel).readers.fetch_sub(1);
  reader_threads_.fetch_sub(1);
}

}  // namespace cntr::fuse
