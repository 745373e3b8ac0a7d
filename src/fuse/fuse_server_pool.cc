#include "src/fuse/fuse_server_pool.h"

#include <algorithm>

#include "src/fault/fault.h"
#include "src/util/logging.h"
#include "src/util/sim_clock.h"
#include "src/analysis/lockdep.h"

namespace cntr::fuse {

namespace {

// Pool-layer injection points (joining the kill-at-op-N sweep; see
// docs/robustness.md). Dispatch faults are charged to the *mount*, never
// the worker: kKill crashes the mount's filesystem (connection abort →
// quarantine), kFail replaces the reply with an error, kDrop swallows it.
// The quarantine point poisons a reconnect attempt, so the sweep exercises
// the backoff/terminal path too.
CNTR_FAULT_POINT(kFaultPoolDispatch, "fuse.pool.dispatch");
CNTR_FAULT_POINT(kFaultPoolQuarantine, "fuse.pool.quarantine");

// Channel autoscaling thresholds: grow when the deepest channel's
// max-queue-depth high-water reaches kGrowDepthPerChannel x channels,
// shrink (halve) after kShrinkIdleScans controller passes with no new
// requests. Both paths go through TryReshapeChannels, which only fires on
// a quiet connection.
constexpr uint64_t kGrowDepthPerChannel = 4;
constexpr uint32_t kShrinkIdleScans = 8;
constexpr size_t kAutoscaleMaxChannels = 16;

// DRR credit is clamped at this many unserved rounds so an idle mount
// cannot bank an unbounded burst.
constexpr int64_t kDeficitClampRounds = 4;

}  // namespace

FuseServerPool::FuseServerPool(FuseServerPoolOptions opts)
    : opts_(opts),
      registry_(opts.metrics != nullptr ? opts.metrics : &obs::MetricsRegistry::Global()) {
  opts_.min_threads = std::max(1, opts_.min_threads);
  opts_.max_threads = std::max(opts_.min_threads, opts_.max_threads);
  if (opts_.drr_quantum == 0) {
    opts_.drr_quantum = 1;
  }
  label_ = "p" + std::to_string(registry_->AllocScope("pool"));
  const obs::Labels labels{{"pool", label_}};
  auto counter = [&](const char* name) { return registry_->GetCounter(name, labels); };
  auto gauge = [&](const char* name) { return registry_->GetGauge(name, labels); };
  threads_gauge_ = gauge("cntr_pool_threads");
  mounts_gauge_ = gauge("cntr_pool_mounts");
  queued_gauge_ = gauge("cntr_pool_queued_depth");
  quarantined_gauge_ = gauge("cntr_pool_quarantined");
  dispatches_ = counter("cntr_pool_dispatches_total");
  quarantines_ = counter("cntr_pool_quarantines_total");
  reconnects_ = counter("cntr_pool_reconnects_total");
  reconnect_failures_ = counter("cntr_pool_reconnect_failures_total");
  terminal_ = counter("cntr_pool_terminal_total");
  soft_sheds_ = counter("cntr_pool_soft_sheds_total");
  hard_sheds_ = counter("cntr_pool_hard_sheds_total");
  reshapes_ = counter("cntr_pool_channel_reshapes_total");
  thread_growths_ = counter("cntr_pool_thread_growths_total");

  GrowThreadsTo(opts_.min_threads);
  if (opts_.controller_interval_ms > 0) {
    controller_ = std::thread([this] { ControllerLoop(); });
  }
}

FuseServerPool::~FuseServerPool() { Stop(); }

void FuseServerPool::NotifyPoolWork() {
  work_seq_.fetch_add(1, std::memory_order_seq_cst);
  if (idle_workers_.load(std::memory_order_seq_cst) == 0) {
    return;  // every worker is scanning; the seq bump keeps them scanning
  }
  { std::lock_guard<analysis::CheckedMutex> lock(pool_mu_); }
  pool_cv_.notify_all();
}

void FuseServerPool::WireConn(Mount& m, FuseConn& conn) {
  conn.SetAdmissionBudget(m.admission_budget);
  conn.SetServerParallelism(
      static_cast<uint32_t>(target_threads_.load(std::memory_order_acquire)));
  conn.SetWorkObserver([this] { NotifyPoolWork(); });
}

void FuseServerPool::SetMountState(Mount& m, MountState s) {
  m.state.store(static_cast<uint32_t>(s), std::memory_order_release);
  PublishMountState(m, s);
}

void FuseServerPool::PublishMountState(Mount& m, MountState s) {
  if (m.state_gauge != nullptr) {
    m.state_gauge->Set(static_cast<int64_t>(s));
  }
}

uint64_t FuseServerPool::AddMount(std::shared_ptr<FuseConn> conn, FuseHandler* handler,
                                  uint32_t weight, uint32_t admission_budget) {
  auto m = std::make_shared<Mount>();
  m->id = next_mount_id_.fetch_add(1);
  m->weight = std::max<uint32_t>(1, weight);
  m->admission_budget = admission_budget;
  m->handler = handler;
  m->state_gauge = registry_->GetGauge(
      "cntr_pool_mount_state",
      {{"pool", label_}, {"mount", "pm" + std::to_string(m->id)}});
  WireConn(*m, *conn);
  {
    std::lock_guard<analysis::CheckedMutex> lock(m->conn_mu);
    m->conn = std::move(conn);
  }
  SetMountState(*m, MountState::kActive);
  {
    std::lock_guard<analysis::CheckedMutex> lock(mounts_mu_);
    mounts_.push_back(m);
    mounts_gauge_->Set(static_cast<int64_t>(mounts_.size()));
  }
  NotifyPoolWork();
  return m->id;
}

void FuseServerPool::SetReconnectHook(uint64_t id, ReconnectHook hook) {
  auto m = FindMount(id);
  if (m == nullptr) {
    return;
  }
  std::lock_guard<analysis::CheckedMutex> lock(m->conn_mu);
  m->reconnect_hook = std::move(hook);
}

Status FuseServerPool::AdoptConn(uint64_t id, std::shared_ptr<FuseConn> conn) {
  auto m = FindMount(id);
  if (m == nullptr) {
    return Status::Error(ENOENT, "no such pooled mount");
  }
  WireConn(*m, *conn);
  std::shared_ptr<FuseConn> old;
  {
    std::lock_guard<analysis::CheckedMutex> lock(m->conn_mu);
    old = std::move(m->conn);
    m->conn = std::move(conn);
  }
  if (old != nullptr) {
    old->SetWorkObserver(nullptr);
  }
  NotifyPoolWork();
  return Status::Ok();
}

void FuseServerPool::RemoveMount(uint64_t id, bool notify_destroy) {
  std::shared_ptr<Mount> m;
  {
    std::lock_guard<analysis::CheckedMutex> lock(mounts_mu_);
    auto it = std::find_if(mounts_.begin(), mounts_.end(),
                           [&](const auto& e) { return e->id == id; });
    if (it == mounts_.end()) {
      return;
    }
    m = *it;
    mounts_.erase(it);
    mounts_gauge_->Set(static_cast<int64_t>(mounts_.size()));
  }
  // kDetached goes in with an RMW so it totally orders against the
  // controller's quarantined->reconnecting CAS in TryReconnect: either that
  // CAS observes kDetached and the reconnect hook never runs, or our
  // exchange reads the kReconnecting it wrote — which makes the hook_active
  // flag published before that CAS visible to the wait loop below.
  m->state.exchange(static_cast<uint32_t>(MountState::kDetached),
                    std::memory_order_acq_rel);
  PublishMountState(*m, MountState::kDetached);
  std::shared_ptr<FuseConn> conn;
  {
    std::lock_guard<analysis::CheckedMutex> lock(m->conn_mu);
    conn = m->conn;
  }
  if (conn != nullptr) {
    conn->SetWorkObserver(nullptr);
    conn->Abort();
  }
  // Wait out workers mid-dispatch and a controller mid-hook: OnDestroy must
  // be the last thing that touches the handler through this pool.
  while (m->active_dispatch.load(std::memory_order_acquire) != 0 ||
         m->hook_active.load(std::memory_order_acquire)) {
    std::this_thread::yield();
  }
  if (notify_destroy && m->handler != nullptr) {
    m->handler->OnDestroy();
  }
}

void FuseServerPool::Stop() {
  bool expected = false;
  if (!stop_.compare_exchange_strong(expected, true)) {
    return;
  }
  for (const auto& m : SnapshotMounts()) {
    std::shared_ptr<FuseConn> conn;
    {
      std::lock_guard<analysis::CheckedMutex> lock(m->conn_mu);
      conn = m->conn;
    }
    if (conn != nullptr) {
      conn->SetWorkObserver(nullptr);
      conn->Abort();
    }
  }
  {
    std::lock_guard<analysis::CheckedMutex> lock(pool_mu_);
  }
  pool_cv_.notify_all();
  controller_cv_.notify_all();
  {
    std::lock_guard<analysis::CheckedMutex> lock(threads_mu_);
    for (auto& t : workers_) {
      if (t.joinable()) {
        t.join();
      }
    }
    workers_.clear();
  }
  if (controller_.joinable()) {
    controller_.join();
  }
}

std::vector<std::shared_ptr<FuseServerPool::Mount>> FuseServerPool::SnapshotMounts()
    const {
  std::lock_guard<analysis::CheckedMutex> lock(mounts_mu_);
  return mounts_;
}

std::shared_ptr<FuseServerPool::Mount> FuseServerPool::FindMount(uint64_t id) const {
  std::lock_guard<analysis::CheckedMutex> lock(mounts_mu_);
  for (const auto& m : mounts_) {
    if (m->id == id) {
      return m;
    }
  }
  return nullptr;
}

MountState FuseServerPool::mount_state(uint64_t id) const {
  auto m = FindMount(id);
  return m == nullptr ? MountState::kDetached
                      : static_cast<MountState>(m->state.load(std::memory_order_acquire));
}

uint32_t FuseServerPool::mount_faults(uint64_t id) const {
  auto m = FindMount(id);
  return m == nullptr ? 0 : m->faults.load(std::memory_order_acquire);
}

uint32_t FuseServerPool::mount_reconnect_attempts(uint64_t id) const {
  auto m = FindMount(id);
  return m == nullptr ? 0 : m->reconnect_attempts.load(std::memory_order_acquire);
}

size_t FuseServerPool::num_mounts() const {
  std::lock_guard<analysis::CheckedMutex> lock(mounts_mu_);
  return mounts_.size();
}

uint64_t FuseServerPool::queued_depth() const {
  uint64_t total = 0;
  for (const auto& m : SnapshotMounts()) {
    auto s = static_cast<MountState>(m->state.load(std::memory_order_acquire));
    if (s != MountState::kActive && s != MountState::kDeprioritized &&
        s != MountState::kReconnecting) {
      continue;
    }
    std::shared_ptr<FuseConn> conn;
    {
      std::lock_guard<analysis::CheckedMutex> lock(m->conn_mu);
      conn = m->conn;
    }
    if (conn != nullptr && !conn->aborted()) {
      total += conn->queued_depth();
    }
  }
  return total;
}

FuseServerPool::PoolStats FuseServerPool::stats() const {
  PoolStats s;
  s.dispatches = dispatches_->Value();
  s.quarantines = quarantines_->Value();
  s.reconnects = reconnects_->Value();
  s.reconnect_failures = reconnect_failures_->Value();
  s.terminal = terminal_->Value();
  s.soft_sheds = soft_sheds_->Value();
  s.hard_sheds = hard_sheds_->Value();
  s.channel_reshapes = reshapes_->Value();
  s.thread_growths = thread_growths_->Value();
  return s;
}

void FuseServerPool::GrowThreadsTo(int target) {
  target = std::clamp(target, opts_.min_threads, opts_.max_threads);
  std::lock_guard<analysis::CheckedMutex> lock(threads_mu_);
  int cur = target_threads_.load(std::memory_order_acquire);
  if (target <= cur || stop_.load(std::memory_order_acquire)) {
    return;
  }
  target_threads_.store(target, std::memory_order_release);
  threads_gauge_->Set(target);
  for (int i = cur; i < target; ++i) {
    if (i >= opts_.min_threads) {
      thread_growths_->Add();
    }
    workers_.emplace_back([this, i] { WorkerLoop(static_cast<size_t>(i)); });
  }
  // Every serveable connection's spin-budget backoff keys off the pool's
  // parallelism; refresh the declaration.
  for (const auto& m : SnapshotMounts()) {
    std::shared_ptr<FuseConn> conn;
    {
      std::lock_guard<analysis::CheckedMutex> lock2(m->conn_mu);
      conn = m->conn;
    }
    if (conn != nullptr) {
      conn->SetServerParallelism(static_cast<uint32_t>(target));
    }
  }
}

// --- serving ----------------------------------------------------------------

void FuseServerPool::WorkerLoop(size_t worker_idx) {
  while (!stop_.load(std::memory_order_acquire)) {
    const uint64_t seq = work_seq_.load(std::memory_order_seq_cst);
    auto mounts = SnapshotMounts();
    size_t served = 0;
    // Pass 0: active (and reconnecting — the INIT replay needs service);
    // pass 1: deprioritized tenants get whatever is left.
    for (int pass = 0; pass < 2; ++pass) {
      // Stagger start positions by worker so two workers entering together
      // do not convoy on the same mount's channels.
      const size_t n = mounts.size();
      for (size_t i = 0; i < n; ++i) {
        Mount& m = *mounts[(i + worker_idx) % n];
        auto s = static_cast<MountState>(m.state.load(std::memory_order_acquire));
        const bool depr = s == MountState::kDeprioritized;
        const bool serveable =
            s == MountState::kActive || s == MountState::kReconnecting || depr;
        if (!serveable || depr != (pass == 1)) {
          continue;
        }
        served += ServeMount(m, worker_idx);
        if (stop_.load(std::memory_order_acquire)) {
          return;
        }
      }
    }
    if (served != 0) {
      continue;
    }
    // Dry scan: park until new work (or a tick — wakes are best-effort).
    std::unique_lock<analysis::CheckedMutex> lock(pool_mu_);
    idle_workers_.fetch_add(1, std::memory_order_seq_cst);
    if (work_seq_.load(std::memory_order_seq_cst) == seq &&
        !stop_.load(std::memory_order_acquire)) {
      pool_cv_.wait_for(lock, std::chrono::milliseconds(1));
    }
    idle_workers_.fetch_sub(1, std::memory_order_seq_cst);
  }
}

size_t FuseServerPool::ServeMount(Mount& m, size_t worker_idx) {
  std::shared_ptr<FuseConn> conn;
  {
    std::lock_guard<analysis::CheckedMutex> lock(m.conn_mu);
    conn = m.conn;
  }
  if (conn == nullptr || conn->aborted()) {
    return 0;  // the controller's health pass quarantines it
  }
  // Deficit round-robin: top up this mount's credit, serve at most that
  // many requests this visit. An empty queue resets the credit — DRR's
  // rule that only backlogged flows bank deficit.
  const int64_t quantum =
      static_cast<int64_t>(opts_.drr_quantum) * static_cast<int64_t>(m.weight);
  int64_t credit = m.deficit.fetch_add(quantum, std::memory_order_acq_rel) + quantum;
  const int64_t clamp = kDeficitClampRounds * quantum;
  if (credit > clamp) {
    m.deficit.store(clamp, std::memory_order_release);
    credit = clamp;
  } else if (credit <= 0) {
    // Concurrent visits from other workers can consume credit this visit's
    // top-up was counted against, driving the observed balance negative.
    // Casting that to size_t would wrap to a huge `want` and hand an
    // over-budget mount a full batch; a non-positive balance means the
    // mount already received its service this round.
    return 0;
  }
  const size_t want =
      std::min<size_t>(static_cast<size_t>(credit), kRingReapBatch);
  m.active_dispatch.fetch_add(1, std::memory_order_acq_rel);
  std::vector<FuseRequest> batch = conn->TryReadRequestBatch(worker_idx, want);
  if (batch.empty()) {
    m.deficit.store(0, std::memory_order_release);
    m.active_dispatch.fetch_sub(1, std::memory_order_release);
    return 0;
  }
  m.deficit.fetch_sub(static_cast<int64_t>(batch.size()), std::memory_order_acq_rel);
  DispatchBatch(m, *conn, batch);
  m.active_dispatch.fetch_sub(1, std::memory_order_release);
  return batch.size();
}

void FuseServerPool::DispatchBatch(Mount& m, FuseConn& conn,
                                   std::vector<FuseRequest>& batch) {
  fault::FaultRegistry* faults = conn.faults();
  for (FuseRequest& request : batch) {
    if (request.opcode == FuseOpcode::kDestroy) {
      if (m.handler != nullptr) {
        m.handler->OnDestroy();
      }
      continue;
    }
    // Handle on the caller's virtual timeline, exactly like
    // FuseServer::WorkerLoop: server-side costs belong to the request that
    // incurred them.
    SimClock::LaneScope lane(request.lane);
    if (request.span != nullptr) {
      request.span->dispatch_ns.store(conn.clock()->NowNs(),
                                      std::memory_order_relaxed);
    }
    fault::FaultHit hit;
    if (faults != nullptr) {
      hit = faults->Check(kFaultPoolDispatch);
      if (hit && hit.latency_ns != 0) {
        conn.clock()->Advance(hit.latency_ns);
      }
    }
    if (hit && hit.action == fault::FaultAction::kKill) {
      // The mount's filesystem crashed under this request. The kill is
      // charged to the mount — its connection aborts (resolving this
      // waiter and the rest of the batch with ENOTCONN) and the health
      // pass quarantines it — while this worker thread lives on to serve
      // every other tenant.
      m.faults.fetch_add(1, std::memory_order_acq_rel);
      conn.Abort();
      return;
    }
    FuseReply reply = m.handler != nullptr ? m.handler->Handle(request)
                                           : FuseReply::Error(EIO);
    dispatches_->Add();
    if (hit && hit.action == fault::FaultAction::kDrop) {
      m.faults.fetch_add(1, std::memory_order_acq_rel);
      continue;  // reply lost: the waiter's deadline/abort resolves it
    }
    if (hit && hit.action == fault::FaultAction::kFail) {
      m.faults.fetch_add(1, std::memory_order_acq_rel);
      reply = FuseReply::Error(hit.error);
    }
    if (request.unique != 0) {
      if (request.span != nullptr) {
        request.span->reply_ns.store(conn.clock()->NowNs(),
                                     std::memory_order_relaxed);
      }
      conn.WriteReply(request.unique, std::move(reply));
    }
  }
}

// --- controller -------------------------------------------------------------

void FuseServerPool::ControllerLoop() {
  std::unique_lock<analysis::CheckedMutex> lock(pool_mu_);
  while (!stop_.load(std::memory_order_acquire)) {
    controller_cv_.wait_for(
        lock, std::chrono::milliseconds(std::max<uint64_t>(1, opts_.controller_interval_ms)));
    if (stop_.load(std::memory_order_acquire)) {
      return;
    }
    lock.unlock();
    RunControllerPass();
    lock.lock();
  }
}

void FuseServerPool::RunControllerPass() {
  // Quarantined connections are aborted only after controller_pass_mu_ is
  // released below: Abort() notifies every channel's fuse.ring.cq.cv, and waking
  // waiters while holding the pass lock — which this pass also holds while
  // blocking on conn->queued_depth()'s reshape_mu_ — closes the
  // reshape_mu_ ~> cq.cv ~> controller_pass cycle lockdep reports.
  std::vector<std::shared_ptr<FuseConn>> deferred_aborts;
  {
    // Serialize with the background cadence: Mount's controller-side fields
    // (next_reconnect, last_requests_seen, idle_scans) are plain, and two
    // overlapping passes would double-fire TryReconnect bookkeeping.
    std::lock_guard<analysis::CheckedMutex> pass_lock(controller_pass_mu_);
    auto mounts = SnapshotMounts();
  uint64_t total_depth = 0;
  int64_t quarantined = 0;
  Mount* noisiest = nullptr;
  uint64_t noisiest_depth = 0;

  for (const auto& mp : mounts) {
    Mount& m = *mp;
    auto s = static_cast<MountState>(m.state.load(std::memory_order_acquire));
    std::shared_ptr<FuseConn> conn;
    {
      std::lock_guard<analysis::CheckedMutex> lock(m.conn_mu);
      conn = m.conn;
    }
    if (s == MountState::kQuarantined) {
      ++quarantined;
      TryReconnect(m);
      continue;
    }
    if (s != MountState::kActive && s != MountState::kDeprioritized) {
      continue;
    }
    // Health: an aborted connection or enough dispatch faults sends the
    // mount to quarantine (drained, descheduled, reconnect pending).
    if (conn == nullptr || conn->aborted() ||
        m.faults.load(std::memory_order_acquire) >= opts_.quarantine_after_faults) {
      Quarantine(m, &deferred_aborts);
      ++quarantined;
      continue;
    }
    const uint64_t depth = conn->queued_depth();
    total_depth += depth;
    if (depth > noisiest_depth) {
      noisiest_depth = depth;
      noisiest = &m;
    }
    if (opts_.autoscale_channels) {
      AutoscaleChannels(m, *conn);
    }
  }
  queued_gauge_->Set(static_cast<int64_t>(total_depth));
  quarantined_gauge_->Set(quarantined);

  // Overload watermarks with hysteresis: punish only the noisiest tenant
  // (soft → deprioritize, hard → shed its new requests with ETIMEDOUT);
  // everything clears once depth falls below half the soft watermark.
  if (total_depth >= opts_.hard_watermark && noisiest != nullptr) {
    std::shared_ptr<FuseConn> conn;
    {
      std::lock_guard<analysis::CheckedMutex> lock(noisiest->conn_mu);
      conn = noisiest->conn;
    }
    if (conn != nullptr && !noisiest->shedding.load(std::memory_order_acquire)) {
      conn->SetShedNewRequests(true);
      noisiest->shedding.store(true, std::memory_order_release);
      hard_sheds_->Add();
    }
    uint32_t active = static_cast<uint32_t>(MountState::kActive);
    if (noisiest->state.compare_exchange_strong(
            active, static_cast<uint32_t>(MountState::kDeprioritized),
            std::memory_order_acq_rel)) {
      SetMountState(*noisiest, MountState::kDeprioritized);
      soft_sheds_->Add();
    }
  } else if (total_depth >= opts_.soft_watermark && noisiest != nullptr) {
    uint32_t active = static_cast<uint32_t>(MountState::kActive);
    if (noisiest->state.compare_exchange_strong(
            active, static_cast<uint32_t>(MountState::kDeprioritized),
            std::memory_order_acq_rel)) {
      SetMountState(*noisiest, MountState::kDeprioritized);
      soft_sheds_->Add();
    }
  } else if (total_depth <= opts_.soft_watermark / 2) {
    for (const auto& mp : mounts) {
      Mount& m = *mp;
      if (m.shedding.load(std::memory_order_acquire)) {
        std::shared_ptr<FuseConn> conn;
        {
          std::lock_guard<analysis::CheckedMutex> lock(m.conn_mu);
          conn = m.conn;
        }
        if (conn != nullptr) {
          conn->SetShedNewRequests(false);
        }
        m.shedding.store(false, std::memory_order_release);
      }
      uint32_t depr = static_cast<uint32_t>(MountState::kDeprioritized);
      if (m.state.compare_exchange_strong(depr,
                                          static_cast<uint32_t>(MountState::kActive),
                                          std::memory_order_acq_rel)) {
        SetMountState(m, MountState::kActive);
      }
    }
  }

  // Elastic workers: grow while the backlog outruns what the current
  // thread count can drain in roughly one DRR round per mount.
  const int cur = target_threads_.load(std::memory_order_acquire);
  if (cur < opts_.max_threads &&
      total_depth > static_cast<uint64_t>(cur) * opts_.drr_quantum * 2) {
    GrowThreadsTo(cur + 1);
    NotifyPoolWork();
  }
  }  // pass_lock released
  for (const auto& conn : deferred_aborts) {
    conn->Abort();
  }
}

void FuseServerPool::Quarantine(Mount& m,
                                std::vector<std::shared_ptr<FuseConn>>* deferred_aborts) {
  for (;;) {
    uint32_t s = m.state.load(std::memory_order_acquire);
    auto cur = static_cast<MountState>(s);
    if (cur != MountState::kActive && cur != MountState::kDeprioritized) {
      return;  // already quarantined/terminal/detached
    }
    if (m.state.compare_exchange_weak(s,
                                      static_cast<uint32_t>(MountState::kQuarantined),
                                      std::memory_order_acq_rel)) {
      break;
    }
  }
  PublishMountState(m, MountState::kQuarantined);
  quarantines_->Add();
  std::shared_ptr<FuseConn> conn;
  {
    std::lock_guard<analysis::CheckedMutex> lock(m.conn_mu);
    conn = m.conn;
  }
  if (conn != nullptr) {
    // Drain: every queued request and parked waiter resolves with ENOTCONN
    // instead of waiting on a mount that is no longer scheduled. When the
    // caller holds controller_pass_mu_ it hands us a deferral list instead
    // of eating the Abort-under-pass-lock wait cycle (see RunControllerPass).
    if (deferred_aborts != nullptr) {
      deferred_aborts->push_back(std::move(conn));
    } else {
      conn->Abort();
    }
  }
  m.shedding.store(false, std::memory_order_release);
  const uint64_t backoff =
      opts_.reconnect_backoff_ms
      << std::min<uint32_t>(m.reconnect_attempts.load(std::memory_order_acquire), 16);
  m.next_reconnect =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(backoff);
}

void FuseServerPool::TryReconnect(Mount& m) {
  if (std::chrono::steady_clock::now() < m.next_reconnect) {
    return;  // still backing off
  }
  ReconnectHook hook;
  std::shared_ptr<FuseConn> conn;
  {
    std::lock_guard<analysis::CheckedMutex> lock(m.conn_mu);
    hook = m.reconnect_hook;
    conn = m.conn;
  }
  // hook_active is published BEFORE the state transition: RemoveMount
  // detaches with an RMW on the same word, so either our CAS observes
  // kDetached and the hook never runs, or RemoveMount's exchange reads the
  // kReconnecting we wrote — making this store visible to its wait loop,
  // which then waits the hook out before destroying the session the hook
  // captures.
  m.hook_active.store(true, std::memory_order_release);
  uint32_t quarantined = static_cast<uint32_t>(MountState::kQuarantined);
  if (!m.state.compare_exchange_strong(quarantined,
                                       static_cast<uint32_t>(MountState::kReconnecting),
                                       std::memory_order_acq_rel)) {
    m.hook_active.store(false, std::memory_order_release);
    return;  // detached (or otherwise moved on) under us
  }
  PublishMountState(m, MountState::kReconnecting);
  Status status = Status::Ok();
  if (!hook) {
    status = Status::Error(ENOTCONN, "no reconnect hook registered");
  } else {
    // Injected quarantine fault: the attempt itself fails (kKill exhausts
    // the retries immediately — the revival path is what crashed).
    fault::FaultHit hit;
    if (conn != nullptr && conn->faults() != nullptr) {
      hit = conn->faults()->Check(kFaultPoolQuarantine);
    }
    if (hit && hit.action == fault::FaultAction::kKill) {
      m.reconnect_attempts.store(opts_.max_reconnect_attempts,
                                 std::memory_order_release);
      status = Status::Error(hit.error != 0 ? hit.error : ENOTCONN,
                             "injected quarantine kill");
    } else if (hit) {
      status = Status::Error(hit.error != 0 ? hit.error : EIO,
                             "injected reconnect fault");
    } else {
      status = hook();
    }
  }
  m.hook_active.store(false, std::memory_order_release);
  // Every post-hook transition CASes from kReconnecting: if RemoveMount
  // detached the mount while the hook ran, the CAS fails and teardown stays
  // with RemoveMount — this thread must never rewrite a state word it no
  // longer owns (a blind store would resurrect kDetached into a scheduled
  // state and re-arm the hook against a destroyed session).
  auto transition = [this, &m](MountState to) {
    uint32_t reconnecting = static_cast<uint32_t>(MountState::kReconnecting);
    if (!m.state.compare_exchange_strong(reconnecting, static_cast<uint32_t>(to),
                                         std::memory_order_acq_rel)) {
      return false;  // RemoveMount raced the hook; it owns the teardown
    }
    PublishMountState(m, to);
    return true;
  };
  if (status.ok()) {
    if (!transition(MountState::kActive)) {
      return;
    }
    reconnects_->Add();
    m.faults.store(0, std::memory_order_release);
    m.reconnect_attempts.store(0, std::memory_order_release);
    m.idle_scans = 0;
    NotifyPoolWork();
    return;
  }
  reconnect_failures_->Add();
  const uint32_t attempts =
      m.reconnect_attempts.fetch_add(1, std::memory_order_acq_rel) + 1;
  if (attempts >= opts_.max_reconnect_attempts) {
    // Terminal: retries exhausted. The mount stays registered (state is
    // surfaced through obs) but is never scheduled again.
    if (transition(MountState::kTerminal)) {
      terminal_->Add();
    }
    return;
  }
  if (!transition(MountState::kQuarantined)) {
    return;
  }
  const uint64_t backoff = opts_.reconnect_backoff_ms
                           << std::min<uint32_t>(attempts, 16);
  m.next_reconnect =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(backoff);
}

void FuseServerPool::AutoscaleChannels(Mount& m, FuseConn& conn) {
  const size_t n = conn.num_channels();
  uint64_t deepest = 0;
  uint64_t requests = 0;
  for (size_t i = 0; i < n; ++i) {
    deepest = std::max(deepest, conn.channel_max_queue_depth(i));
    requests += conn.channel_requests(i);
  }
  if (requests == m.last_requests_seen) {
    ++m.idle_scans;
  } else {
    m.idle_scans = 0;
    m.last_requests_seen = requests;
  }
  size_t desired = n;
  if (deepest >= kGrowDepthPerChannel * n && n < kAutoscaleMaxChannels) {
    // Sustained depth: more clones spread the premium. Clamp the doubling
    // so a non-power-of-two starting count never overshoots the ceiling.
    desired = std::min<size_t>(n * 2, kAutoscaleMaxChannels);
  } else if (m.idle_scans >= kShrinkIdleScans && n > 1) {
    desired = n / 2;  // long quiet: give the clones back
    m.idle_scans = 0;
  }
  if (desired == n) {
    return;
  }
  // Non-blocking: only fires on a provably quiet connection; a busy one
  // just stays at its current count until a later pass.
  if (conn.TryReshapeChannels(desired) != n) {
    reshapes_->Add();
  }
}

}  // namespace cntr::fuse
