// The /dev/fuse connection: the request/response channel between the
// kernel-side FUSE filesystem and the userspace server.
//
// Architecture note — one transport, two cost profiles.
//
// Every request rides one transport: each channel carries a submission ring
// (SQ) the server reaps and a set of completion slots the waiters poll (see
// fuse_ring.h). What differs between paper-era and modern mounts is only
// what that transport charges in virtual time — its cost profile:
//
//   * Wakeup profile (every connection starts here). The paper's CNTRFS
//     (§3.3) has every server thread read one shared /dev/fuse queue, and
//     Figure 4 measures the price: a reply-carrying request pays one full
//     round trip (fuse_round_trip_ns) plus a contention premium
//     (fuse_thread_contention_ns) for each extra server thread homed on its
//     channel, so throughput *declines* as threads are added. A FORGET or a
//     notification pays half a round trip. Doorbell and completion entries
//     cost nothing extra, and a blocking server read hands over one request
//     at a time.
//   * Ring profile (FUSE-over-io_uring lineage). Negotiated at INIT via
//     kFuseRingSubmission: a submission costs one SQE fill, a reply-carrying
//     one also rings the doorbell, a completion costs one CQE, there is no
//     contention premium, and a server read drains a burst of up to
//     kRingReapBatch entries.
//
// Channels reproduce Linux's cloned device queues (FUSE_DEV_IOC_CLONE):
//
//   * Routing: the kernel side picks a channel by hashing the calling
//     process (sticky — one process's requests, including its FORGETs,
//     stay FIFO on one channel, so a FORGET is never *dequeued* ahead of
//     the LOOKUP traffic it balances; with multiple workers the handlers
//     may still overlap, which is safe because a FORGET carries the full
//     nlookup balance and the node table clamps at zero).
//   * Contention: the wakeup profile's premium is charged per channel — it
//     scales with the readers of *that* channel, not the whole server. One
//     channel with N workers reproduces the paper's numbers exactly; N
//     channels with one worker each make the premium vanish.
//   * Occupancy: each channel is a serial resource in virtual time. When
//     callers run on parallel SimClock lanes (bench_multithreading's
//     independent client processes), a request arriving at a busy channel
//     first waits out the channel's backlog on the caller's lane — which is
//     what makes the single-queue configuration plateau and the multi-queue
//     configuration scale near-linearly.
//   * Work conservation: an idle server worker steals from non-empty
//     sibling channels (FuseServer), so a single hot process still gets the
//     whole thread pool.
//
// The default is one channel — the paper's configuration.
#ifndef CNTR_SRC_FUSE_FUSE_CONN_H_
#define CNTR_SRC_FUSE_FUSE_CONN_H_

#include <algorithm>
#include <array>
#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <thread>
#include <vector>

#include "src/fault/fault.h"
#include "src/fuse/fuse_proto.h"
#include "src/fuse/fuse_ring.h"
#include "src/kernel/file.h"
#include "src/kernel/pipe.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/util/sim_clock.h"
#include "src/util/status.h"
#include "src/analysis/lockdep.h"

namespace cntr::fuse {

// Starting capacity of a channel's splice lanes (32 pages = 128 KiB, the
// legacy window size). This is only the construction-time default: the
// mount resizes the lanes to cover whatever payload window FUSE_MAX_PAGES
// negotiation settles on (up to 256 pages = 1 MiB), and with lane
// autosizing enabled the lanes keep growing at runtime when
// splice_fallbacks shows payloads bouncing to the copy path.
inline constexpr size_t kDefaultLanePages = 32;

// Lanes per channel and direction — the libfuse pipe-pool analogue: the
// real server keeps a pipe pair per worker thread, so spliced payloads of
// concurrent requests never contend on one ring. Matches the default
// worker count; a payload only falls back to the copy path when every lane
// of its direction is occupied.
inline constexpr size_t kLanePoolSize = 8;

// One cloned /dev/fuse queue: its submission ring and completion slots,
// its occupancy in virtual time, and its splice lanes. Padded so
// neighbouring channels do not false-share.
//
// Each channel also owns a pool of pipe pairs — its zero-copy data lanes
// (kLanePoolSize per direction, the libfuse pipe-pool analogue). Spliced
// WRITE payloads ride a `lane_in` ring (kernel -> server) and spliced READ
// / READDIRPLUS payloads ride a `lane_out` ring (server -> kernel): page
// references transit the ring, occupying lane capacity from submission
// until the receiving side consumes the message — which lane a message
// took travels with it (`lane_idx`) — while page identity travels with the
// typed request/reply (the analogue of /dev/fuse consuming header +
// spliced payload in one read). A payload that fits no lane falls back to
// the copy path whole.
struct alignas(64) FuseChannel {
  explicit FuseChannel(size_t ring_depth) : ring(ring_depth) {
    for (size_t i = 0; i < kLanePoolSize; ++i) {
      lane_in[i] = std::make_shared<kernel::PipeBuffer>(
          /*hub=*/nullptr, kDefaultLanePages * kernel::kPageSize);
      lane_out[i] = std::make_shared<kernel::PipeBuffer>(
          /*hub=*/nullptr, kDefaultLanePages * kernel::kPageSize);
      // The connection's two sides hold the lanes for the channel's
      // lifetime.
      for (auto* lane : {lane_in[i].get(), lane_out[i].get()}) {
        lane->AddReader();
        lane->AddWriter();
      }
    }
  }

  // Carries over what a ring rebuild must not reset (ConfigureRing swaps in
  // fresh channels of the negotiated depth): the readers homed here, the
  // routing and depth counters, the occupancy, the splice opt-out and the
  // lane size. `old` must be quiet.
  void InheritFrom(const FuseChannel& old) {
    busy_until_ns.store(old.busy_until_ns.load());
    readers.store(old.readers.load());
    enqueued.store(old.enqueued.load());
    max_depth.store(old.max_depth.load());
    fallback_pressure.store(old.fallback_pressure.load());
    splice_enabled.store(old.splice_enabled.load());
    const size_t cap = old.lane_out[0]->capacity();
    for (size_t i = 0; i < kLanePoolSize; ++i) {
      (void)lane_in[i]->SetCapacity(cap);
      (void)lane_out[i]->SetCapacity(cap);
    }
  }

  // The submission ring and completion slots every request of this channel
  // rides.
  RingState ring;
  // Virtual-time occupancy: the instant this channel finishes its current
  // backlog. Only observable across parallel SimClock lanes. Monotonic
  // fetch-max (BumpBusyUntil).
  std::atomic<uint64_t> busy_until_ns{0};
  // Server threads whose home queue this is (the wakeup profile's Figure 4
  // premium scales with the readers of this channel only).
  std::atomic<int> readers{0};
  // Requests ever enqueued here (routing visibility for tests/stats).
  std::atomic<uint64_t> enqueued{0};
  // Deepest the queue has ever been (observability groundwork for
  // channel-count autotuning: a persistently deep channel wants a clone).
  std::atomic<uint64_t> max_depth{0};
  // Copy-path fallbacks since the lanes last grew (autosizing pressure).
  std::atomic<uint32_t> fallback_pressure{0};

  // Zero-copy data lanes (see above) and the per-channel splice opt-out: a
  // channel with splice disabled strips splice_ok / flattens payloads, so
  // one misbehaving client process can be pinned to the copy path without
  // renegotiating the whole connection.
  std::array<std::shared_ptr<kernel::PipeBuffer>, kLanePoolSize> lane_in;
  std::array<std::shared_ptr<kernel::PipeBuffer>, kLanePoolSize> lane_out;
  std::atomic<bool> splice_enabled{true};
};

// What the connection's transport charges in virtual time (see the
// architecture note at the top of this file).
enum class TransportProfile : uint8_t {
  kWakeup,  // paper-era handshake: round trip + contention, one per read
  kRing,    // negotiated rings: SQE + doorbell + CQE, bursts per read
};

class FuseConn {
 public:
  // Up to kMaxChannels cloned queues; channel indices ride in the low bits
  // of the request unique so replies find their channel without a global
  // table.
  static constexpr size_t kChannelBits = 6;
  static constexpr size_t kMaxChannels = size_t{1} << kChannelBits;

  // `metrics` is the registry the connection's instruments live in (the
  // owning kernel's registry for mounted connections); null falls back to
  // the process-wide MetricsRegistry::Global(). Every connection gets a
  // fresh mount label ("m0", "m1", ...) from the registry's scope
  // allocator, so per-mount series stay distinct in the fleet rollup.
  FuseConn(SimClock* clock, const CostModel* costs, size_t num_channels = 1,
           fault::FaultRegistry* faults = nullptr,
           obs::MetricsRegistry* metrics = nullptr);
  ~FuseConn();

  // Reshapes the channel set (FUSE_DEV_IOC_CLONE analogue). Only honoured
  // before traffic: no readers registered, nothing queued, not aborted.
  // Returns the resulting channel count.
  size_t ConfigureChannels(size_t requested);
  // Live reshape for pool-served connections (channel-count autoscaling).
  // Unlike ConfigureChannels it tolerates past traffic, but only fires on a
  // *quiet* instant: nothing queued, nothing in flight, no submitter inside
  // its routing window (the submit paths hold reshape_mu_ shared across
  // route+enqueue, so a successful exclusive acquisition here proves no
  // sender can be holding a stale channel pointer). Non-blocking: returns
  // the current count unchanged when the connection is busy. Not meant for
  // FuseServer-driven connections — worker home-channel indices would go
  // stale (pool workers scan every channel each visit, so they do not care).
  size_t TryReshapeChannels(size_t requested);
  size_t num_channels() const { return num_channels_.load(std::memory_order_acquire); }

  // Switches the connection from the wakeup profile to the ring profile
  // (negotiated at INIT via kFuseRingSubmission) and sets the ring depth.
  // Only honoured on a quiet connection — nothing queued, nothing in
  // flight, no submitter in its send window, not aborted; readers may
  // already be parked. A depth other than the current one installs fresh
  // channels of that depth (carrying each channel's state over); parked
  // readers pick them up on their next scan. `depth` is rounded up to a
  // power of two in [kMinRingDepth, kMaxRingDepth]; `spin_budget` is the
  // iterations a waiter spin-polls before parking. One-shot: once on the
  // ring profile, the established depth sticks. Returns the effective
  // depth, or 0 when the switch was refused.
  size_t ConfigureRing(size_t depth, uint32_t spin_budget = kDefaultRingSpinBudget);
  TransportProfile profile() const { return profile_.load(std::memory_order_acquire); }
  size_t ring_depth() const { return ring_depth_.load(std::memory_order_acquire); }

  // Sticky routing: which channel requests from `pid` land on.
  size_t RouteChannel(kernel::Pid pid) const;

  // --- kernel side ---
  // Blocks until the server replies (or the connection aborts: ENOTCONN).
  // Charges the profile's submission cost on the virtual clock (wakeup: one
  // round trip plus the per-channel contention premium; ring: SQE +
  // doorbell, then the CQE on reply) and — across parallel lanes — the
  // channel's backlog.
  StatusOr<FuseReply> SendAndWait(FuseRequest request);

  // Fire-and-forget (FORGET/BATCH_FORGET have no reply). Charges one-way
  // (wakeup: half a round trip; ring: one SQE). Routed by pid like
  // SendAndWait, so forgets stay ordered behind the caller's lookups on the
  // same channel.
  void SendNoReply(FuseRequest request);

  // --- server side ---
  // Blocks for the next request, preferring the worker's home channel and
  // stealing from non-empty siblings when it is dry; returns nullopt when
  // the connection aborts and all queues are drained (server threads exit).
  std::optional<FuseRequest> ReadRequest(size_t home_channel = 0);
  // Blocks like ReadRequest but, on the ring profile, drains a burst of up
  // to `max_batch` requests from one channel in a single pass, so one
  // wakeup amortizes over every SQ entry that accumulated while the worker
  // was busy. The wakeup profile hands over one request per read, as one
  // read(2) of the shared /dev/fuse queue does. Returns an empty batch when
  // the connection aborts and the rings are drained.
  // Before it parks, the first empty reap of a read (for a server worker:
  // right after it handled its previous batch) polls the queue for the
  // connection's adaptive SqPollWindow, so a closed-loop caller's next
  // request needs no futex wakeup; at most one worker per connection polls.
  std::vector<FuseRequest> ReadRequestBatch(size_t home_channel = 0,
                                            size_t max_batch = kRingReapBatch);
  // Non-blocking variant for shared-pool workers: drains up to `max_batch`
  // requests scanning every channel once (start-channel first, then ring
  // order), never parks. An empty batch means "nothing queued right now" —
  // the pool's own scheduler decides whether to revisit or move on, so the
  // per-connection idle handshake (idle_workers_/work_cv_) is not touched.
  std::vector<FuseRequest> TryReadRequestBatch(size_t start_channel = 0,
                                               size_t max_batch = kRingReapBatch);
  void WriteReply(uint64_t unique, FuseReply reply);

  // Tear down: wakes waiters with ENOTCONN and unblocks server readers.
  void Abort();
  bool aborted() const { return aborted_.load(std::memory_order_acquire); }

  // True while a server worker polls the submission queue.
  bool sq_polling() const { return sq_poll_.load(std::memory_order_acquire) != kSqPollIdle; }

  // --- request lifecycle hardening ---

  // Arms per-request deadlines. `virtual_ns` bounds the request in virtual
  // time: a reply delivered past it is dropped as late and the waiter gets
  // ETIMEDOUT. `real_grace_ms` (> 0) additionally starts a real-time
  // sweeper for wedged servers that never reply at all — a pending request
  // older than the grace in wall time is expired the same way (the waiter
  // then charges `virtual_ns` to its own timeline, modeling the wait).
  // virtual_ns == 0 disarms both.
  void SetRequestDeadline(uint64_t virtual_ns, uint64_t real_grace_ms = 50);
  uint64_t request_deadline_ns() const {
    return deadline_ns_.load(std::memory_order_acquire);
  }

  // After `n` consecutive deadline misses the connection auto-aborts (the
  // stalled-server degradation policy). 0 = never.
  void SetAbortOnConsecutiveTimeouts(uint32_t n) {
    abort_after_timeouts_.store(n, std::memory_order_release);
  }

  // Admission gate (max_background analogue): with a cap set, SendAndWait
  // blocks while `cap` requests are already in flight, so a stalled server
  // backpressures callers instead of growing queues unboundedly. 0 = off.
  // Changing the cap wakes every parked waiter to re-evaluate — widening
  // (or disarming) the gate must release them, and a waiter that wakes on a
  // dead connection resolves with ENOTCONN instead of re-parking.
  void SetMaxBackground(uint32_t cap);
  // Per-tenant admission budget, layered *under* max_background by a shared
  // server pool: the effective cap is the tighter of the two non-zero
  // values, so a fleet controller can squeeze one noisy mount without
  // touching the mount-negotiated gate. 0 = no budget.
  void SetAdmissionBudget(uint32_t budget);
  uint32_t admission_budget() const {
    return admission_budget_.load(std::memory_order_acquire);
  }
  uint32_t in_flight() const { return in_flight_.load(std::memory_order_acquire); }

  // Overload shedding (pool hard watermark): while set, every new
  // SendAndWait is rejected immediately with ETIMEDOUT — the graceful
  // alternative to letting one tenant's backlog collapse the fleet's p99.
  // In-flight requests and fire-and-forget FORGETs are not touched.
  void SetShedNewRequests(bool shed) {
    shed_new_requests_.store(shed, std::memory_order_release);
  }
  bool shedding_new_requests() const {
    return shed_new_requests_.load(std::memory_order_acquire);
  }

  // Requests currently queued across every channel (SQ occupancy in ring
  // mode) — the pool's overload-watermark signal.
  uint64_t queued_depth() const { return queued_total_.load(std::memory_order_relaxed); }

  // --- shared-pool integration ---
  // Observer invoked after every enqueue (and on Abort): a shared server
  // pool registers one per attached connection so any mount's submission
  // wakes the pool's scheduler. Install while quiet (attach/adoption time);
  // passing nullptr disarms. The callback runs on submitter threads and
  // must not block.
  void SetWorkObserver(std::function<void()> observer);
  // Declares how many server threads actually serve this connection (a
  // FuseServer's worker count, or a pool's fair share). When the declared
  // parallelism is below the live channel count the ring spin budget backs
  // off proportionally: an oversubscribed pool cannot be polling every
  // channel at once, so waiters spinning the full budget before parking
  // would burn cycles the server can never answer within. 0 = unknown (no
  // backoff).
  void SetServerParallelism(uint32_t threads);
  // The spin budget RingSendAndWait actually uses after the backoff.
  uint32_t effective_ring_spin_budget() const {
    return effective_spin_budget_.load(std::memory_order_acquire);
  }

  // FUSE_INTERRUPT analogue. Unblocks the waiter of `unique` with EINTR: a
  // still-queued request is removed before the server ever sees it; an
  // in-flight one gets a kInterrupt notification enqueued (unique 0) so the
  // server can observe the cancellation. Returns true if a waiter was found.
  bool Interrupt(uint64_t unique);
  // Interrupts every in-flight request submitted by `pid` (the killed-client
  // path, driven from the kernel's exit hook). Returns how many.
  uint32_t InterruptPid(kernel::Pid pid);

  // Bytes currently parked on any channel's splice lanes (in-flight spliced
  // payloads). Zero on a quiet or aborted connection — the lane-leak assert
  // for abort-reconciliation tests.
  size_t lane_bytes_in_flight() const;

  fault::FaultRegistry* faults() const { return faults_; }
  SimClock* clock() const { return clock_; }

  // --- observability ---
  // The registry this connection's instruments live in and the mount label
  // its series carry (the per-mount rollup key).
  obs::MetricsRegistry* metrics_registry() const { return registry_; }
  const std::string& mount_label() const { return mount_label_; }
  // The per-mount request instrument bundle: opcode-keyed latency
  // histograms, outcome counters, slow-request log.
  obs::RequestMetrics& request_metrics() { return *req_metrics_; }
  // Slow-request log threshold in virtual ns (0 disables); applied by the
  // mount from FuseMountOptions::slow_request_ns.
  void SetSlowRequestNs(uint64_t ns) { req_metrics_->SetSlowThresholdNs(ns); }

  // Number of server threads homed on `channel`; used to model per-channel
  // queue contention (Figure 4).
  void AddReader(size_t channel = 0);
  void RemoveReader(size_t channel = 0);
  int reader_threads() const { return reader_threads_.load(); }

  // --- splice lanes ---
  // Resizes every channel's lanes (the fcntl(F_SETPIPE_SZ) analogue). The
  // mount applies it with the capacity the negotiated payload window needs
  // (pipe_pages is only the floor). Returns the resulting per-lane capacity
  // in bytes. Reshape-safe on quiet lanes; a lane holding in-flight payload
  // larger than the target reports EBUSY.
  StatusOr<size_t> SetLaneCapacity(size_t bytes);
  // Lane autosizing: when on, a payload that bounces to the copy path grows
  // the affected channel's lanes — immediately to fit a payload larger than
  // the lane, and by doubling under repeated lane-full pressure — up to the
  // 1MiB pipe ceiling. Growth is per channel, so one congested channel does
  // not resize its siblings.
  void SetLaneAutosize(bool enabled) {
    lane_autosize_.store(enabled, std::memory_order_release);
  }
  bool lane_autosize() const { return lane_autosize_.load(std::memory_order_acquire); }
  // Current capacity of channel `i`'s lanes in bytes (every lane of the
  // pool, both directions, is kept at the same size).
  size_t lane_capacity(size_t i) const { return Channel(i).lane_out[0]->capacity(); }
  // Per-channel splice opt-out: a disabled channel carries every payload on
  // the copy path (splice_ok stripped, spliced writes flattened).
  void SetChannelSplice(size_t i, bool enabled) {
    Channel(i).splice_enabled.store(enabled, std::memory_order_release);
  }
  bool channel_splice(size_t i) const {
    return Channel(i).splice_enabled.load(std::memory_order_acquire);
  }

  // Requests ever routed to channel `i`.
  uint64_t channel_requests(size_t i) const {
    return Channel(i).enqueued.load(std::memory_order_relaxed);
  }
  // Current depth of channel `i`'s queue: its SQ occupancy, including
  // interrupted entries that wait to be dropped at reap time.
  size_t channel_queue_depth(size_t i) const { return Channel(i).ring.sq.SizeApprox(); }
  // Deepest channel `i`'s queue has ever been.
  uint64_t channel_max_queue_depth(size_t i) const {
    return Channel(i).max_depth.load(std::memory_order_relaxed);
  }

  // Per-channel batch-efficiency counters of the transport.
  struct RingChannelStats {
    uint64_t doorbells = 0;     // submission doorbells rung (burst heads:
                                // SQEs that found the ring empty)
    uint64_t reaps = 0;             // reap passes that returned work
    uint64_t reaped_requests = 0;   // requests delivered across those passes
    uint64_t max_reqs_per_reap = 0; // largest single burst
    uint64_t sq_overflows = 0;      // submissions that hit a full ring
    uint64_t spin_parks = 0;        // spin budgets exhausted into a park
  };
  RingChannelStats channel_ring_stats(size_t i) const {
    const RingState& ring = Channel(i).ring;
    RingChannelStats s;
    s.doorbells = ring.doorbells.load(std::memory_order_relaxed);
    s.reaps = ring.reaps.load(std::memory_order_relaxed);
    s.reaped_requests = ring.reaped_requests.load(std::memory_order_relaxed);
    s.max_reqs_per_reap = ring.max_reqs_per_reap.load(std::memory_order_relaxed);
    s.sq_overflows = ring.sq_overflows.load(std::memory_order_relaxed);
    s.spin_parks = ring.spin_parks.load(std::memory_order_relaxed);
    return s;
  }

  // The legacy stats surface, kept as a thin view over the registry-backed
  // instruments (obs::Counter sums sharded relaxed-atomic cells) so
  // existing callers and tests keep working unchanged. The same values are
  // exported through the registry as cntr_fuse_conn_* series keyed by the
  // mount label.
  struct Stats {
    uint64_t requests = 0;
    uint64_t replies = 0;  // delivered to a live waiter only
    uint64_t forgets = 0;
    // Data-lane accounting: payload bytes that rode a pipe lane as page
    // references vs. bytes that fell back to the copy path (lane full,
    // channel opted out, or splice not negotiated).
    uint64_t spliced_bytes = 0;
    uint64_t copied_bytes = 0;
    uint64_t splice_fallbacks = 0;  // payloads that wanted the lane but copied
    uint64_t lane_growths = 0;      // autosizing grow operations that succeeded
    // Queue-depth observability (channel-count autotuning groundwork):
    // deepest any channel's queue has ever been.
    uint64_t max_queue_depth = 0;
    // Failure-plane accounting.
    uint64_t timeouts = 0;         // requests expired by a deadline
    uint64_t late_replies = 0;     // server replies with no live waiter
    uint64_t interrupts = 0;       // requests unblocked via INTERRUPT
    uint64_t admission_waits = 0;  // SendAndWait calls gated on max_background
    uint64_t shed_rejects = 0;     // new requests bounced while shedding
    // Transport batch efficiency, rolled up across every channel of
    // the mount (see RingChannelStats for the per-counter meaning).
    uint64_t doorbells = 0;
    uint64_t reaps = 0;
    uint64_t reaped_requests = 0;
    uint64_t max_reqs_per_reap = 0;
    uint64_t sq_overflows = 0;
    uint64_t spin_parks = 0;
  };
  // Safe to call while workers run: every source is an explicit atomic
  // load taken exactly once into the snapshot (no plain reads of fields a
  // worker may be writing), and the channel count is pinned up front so
  // the per-channel walk cannot race a reshape into mixing old and new
  // channel sets. The snapshot is internally consistent per counter;
  // cross-counter skew (a request counted whose reply lands mid-walk) is
  // inherent to lock-free aggregation and bounded by one in-flight window.
  Stats stats() const {
    Stats s;
    s.requests = requests_->Value();
    s.replies = replies_->Value();
    s.forgets = forgets_->Value();
    s.spliced_bytes = spliced_bytes_->Value();
    s.copied_bytes = copied_bytes_->Value();
    s.splice_fallbacks = splice_fallbacks_->Value();
    s.lane_growths = lane_growths_->Value();
    s.timeouts = timeouts_->Value();
    s.late_replies = late_replies_->Value();
    s.interrupts = interrupts_->Value();
    s.admission_waits = admission_waits_->Value();
    s.shed_rejects = sheds_->Value();
    const size_t n = num_channels();
    for (size_t i = 0; i < n; ++i) {
      s.max_queue_depth = std::max(s.max_queue_depth, channel_max_queue_depth(i));
      RingChannelStats r = channel_ring_stats(i);
      s.doorbells += r.doorbells;
      s.reaps += r.reaps;
      s.reaped_requests += r.reaped_requests;
      s.max_reqs_per_reap = std::max(s.max_reqs_per_reap, r.max_reqs_per_reap);
      s.sq_overflows += r.sq_overflows;
      s.spin_parks += r.spin_parks;
    }
    return s;
  }

 private:
  FuseChannel& Channel(size_t i) const {
    return *channel_table_[i % num_channels()].load(std::memory_order_acquire);
  }
  FuseChannel& ChannelOfUnique(uint64_t unique) const {
    return Channel(unique & (kMaxChannels - 1));
  }
  // Uniques carry the channel and the completion-slot index, so a reply (or
  // an interrupt) finds its slot without any lookup table:
  // (seq << 16) | (slot << 6) | channel.
  uint64_t MakeUnique(size_t channel, size_t slot) {
    return (next_unique_.fetch_add(1) << (kChannelBits + kRingSlotBits)) |
           (static_cast<uint64_t>(slot) << kChannelBits) | channel;
  }
  static size_t SlotOfUnique(uint64_t unique) {
    return (unique >> kChannelBits) & (kMaxRingDepth - 1);
  }
  // Monotonic occupancy update (lock-free fetch-max).
  static void BumpBusyUntil(FuseChannel& ch, uint64_t now_ns) {
    uint64_t cur = ch.busy_until_ns.load(std::memory_order_relaxed);
    while (cur < now_ns && !ch.busy_until_ns.compare_exchange_weak(
                               cur, now_ns, std::memory_order_relaxed)) {
    }
  }
  // Request-direction gate: lets a spliced WRITE payload onto lane_in, or
  // flattens it to the copy path (lane full / channel opted out).
  void GateRequestPayload(FuseChannel& ch, FuseRequest& request);
  // Reply-direction gate: lets a spliced payload onto lane_out, or flattens
  // reply.pages into reply.data (charging the copy).
  void GateReplyPayload(FuseChannel& ch, FuseReply& reply);
  // Autosizing on fallback pressure: grows `ch`'s lanes (a payload of
  // `wanted_bytes` just bounced to the copy path). Returns true if the
  // lanes grew, meaning a retry of the push may now succeed.
  bool MaybeGrowLanes(FuseChannel& ch, uint64_t wanted_bytes);
  // Post-enqueue wakeup handshake with idle workers.
  void NotifyWork();
  // The submission-queue poll ReadRequestBatch runs before it parks (see
  // sq_poll_). Returns true when a submission arrived, so the caller
  // rescans instead of parking.
  bool PollSubmissions();
  // Appends `n` fresh channels of the current ring depth to owned_channels_
  // and publishes them through the table (config_mu_ held). With `inherit`,
  // channel i first takes over the state of the channel it replaces.
  void InstallChannels(size_t n, bool inherit = false);
  // Virtual cost of submitting one reply-carrying request on `ch` under the
  // current profile.
  uint64_t SubmitCostNs(const FuseChannel& ch) const;
  // Real-time deadline sweeper body (one background thread while armed).
  void SweeperLoop();
  void StopSweeper();
  // One request left flight (reply, timeout, interrupt, or abort): releases
  // its admission slot.
  void FinishInFlight();
  // The tighter of max_background_ and admission_budget_ (0 = ungated).
  uint32_t EffectiveAdmissionCap() const;
  // Re-derives effective_spin_budget_ from the configured budget, the
  // declared server parallelism, and the live channel count.
  void RecomputeSpinBudget();
  // Fires the registered pool work observer, if armed (one relaxed load
  // when not).
  void NotifyWorkObserver();
  // Enqueues the kInterrupt notification for an in-flight `unique`.
  void EnqueueInterruptNotify(FuseChannel& ch, uint64_t unique);
  // Resolves a Pending slot held in kSlotSweeping as interrupted: wakes its
  // waiter and, when the server already reaped the request, notifies it.
  void InterruptClaimedSlot(FuseChannel& ch, RingSlot& slot, uint64_t ctrl);

  // --- ring internals (see docs/transport.md "Submission rings") ---
  // Actions RingSendAndWait defers to its caller: both wake parked peers
  // (or sweep every channel, for Abort), and neither may run while the
  // caller still holds reshape_mu_ shared — submitters park on those very
  // condvars holding reshape_mu_ shared, so notifying under it closes a
  // wait cycle (flagged by lockdep).
  struct RingPostActions {
    bool wake_submitters = false;
    bool abort_conn = false;
  };
  StatusOr<FuseReply> RingSendAndWait(FuseChannel& ch, size_t ch_idx, FuseRequest request,
                                      RingPostActions* post);
  // Claims a free completion slot (kSlotFree -> kSlotInit); -1 when none.
  int RingAllocSlot(RingState& ring);
  // Pushes one SQE, parking on a full ring (bounded waits; aborts bail out).
  // Returns false when the connection aborted before the push landed.
  bool RingPushSqe(FuseChannel& ch, FuseRequest request);
  // Drains up to `max_batch` SQ entries of `ch` into `out`. Returns how many
  // were delivered (resolved-before-claim entries are dropped in place).
  size_t RingReap(FuseChannel& ch, std::vector<FuseRequest>& out, size_t max_batch);
  // Marks a reaped SQE's slot as server-claimed; false when its waiter was
  // already resolved (interrupt/timeout/abort) and the entry must be dropped.
  bool RingClaimSqe(RingState& ring, const FuseRequest& req);
  // Wakes parked completion waiters (no virtual cost: control plane only).
  void RingWakeWaiters(RingState& ring);
  // Wakes submitters parked on a full ring after capacity was released.
  void RingWakeSubmitters(RingState& ring);

  SimClock* clock_;
  const CostModel* costs_;
  fault::FaultRegistry* faults_;
  std::atomic<uint64_t> next_unique_{2};
  std::atomic<int> reader_threads_{0};
  std::atomic<bool> aborted_{false};

  // Channel publication: readers (routing, enqueue, dequeue, reply) index
  // the fixed-size atomic pointer table lock-free; ConfigureChannels,
  // TryReshapeChannels and ConfigureRing install new pointers and only then
  // publish the count. Every channel
  // ever created stays in owned_channels_ until the connection dies, so a
  // sender racing a (guarded, protocol-violating) reshape reads a stale but
  // valid channel — never freed memory; at worst its request sits unserved
  // until Abort sweeps every owned channel.
  std::array<std::atomic<FuseChannel*>, kMaxChannels> channel_table_{};
  std::atomic<size_t> num_channels_{1};
  mutable analysis::CheckedMutex config_mu_{"fuse.conn.config"};  // serializes reshape and Abort's owned sweep
  std::vector<std::unique_ptr<FuseChannel>> owned_channels_;
  // Submitters hold this shared across their whole route+enqueue+wait
  // window; TryReshapeChannels and ConfigureRing try-lock it exclusive, so a
  // live reshape can only fire when no sender holds a channel it would
  // replace. Abort never touches it (parked submitters still holding shared
  // must stay wakeable).
  mutable analysis::CheckedSharedMutex reshape_mu_{"fuse.conn.reshape"};

  // Idle workers park here; any enqueue (to any channel) wakes one. The
  // rings stay out of this handshake, so enqueue/dequeue on different
  // channels never touch the same contended line for long.
  analysis::CheckedMutex idle_mu_{"fuse.conn.idle"};
  analysis::CheckedCondVar work_cv_{"fuse.conn.idle.work_cv"};
  std::atomic<int> idle_workers_{0};
  std::atomic<uint64_t> queued_total_{0};
  // The submission-queue poller: idle, polling, or polling with a
  // submission that skipped its wakeup because the poller will see it
  // (NotifyWork claims it; one claim per poll, later submitters wake a
  // parked worker as usual). Its window is only touched by the worker that
  // moved sq_poll_ off idle.
  enum : uint8_t { kSqPollIdle, kSqPolling, kSqPollClaimed };
  std::atomic<uint8_t> sq_poll_{kSqPollIdle};
  SqPollWindow sq_poll_window_;

  // --- transport profile and ring geometry ---
  std::atomic<TransportProfile> profile_{TransportProfile::kWakeup};
  std::atomic<uint64_t> ring_depth_{kDefaultRingDepth};
  std::atomic<uint32_t> ring_spin_budget_{kDefaultRingSpinBudget};
  // Spin budget after oversubscription backoff (satellite: pool threads <
  // active channels must not burn the full configured spin before parking).
  std::atomic<uint32_t> declared_parallelism_{0};
  std::atomic<uint32_t> effective_spin_budget_{kDefaultRingSpinBudget};

  // Pool work observer (SetWorkObserver): swapped through a shared_ptr so a
  // disarm cannot free the callback out from under a concurrent invocation.
  analysis::CheckedMutex observer_mu_{"fuse.conn.observer"};
  std::shared_ptr<const std::function<void()>> work_observer_;
  std::atomic<bool> observer_armed_{false};

  // --- observability (see src/obs/) ---
  // All lifecycle counters are registry-backed instruments; pointers are
  // resolved once at construction and stay valid for the registry's life.
  obs::MetricsRegistry* registry_;
  std::string mount_label_;
  std::unique_ptr<obs::RequestMetrics> req_metrics_;
  // One request left flight: outcome counter, latency histograms (with a
  // span), and the slow-request log. Wake stamp is taken here.
  void RecordOutcome(FuseOpcode op, const obs::SpanPtr& span, obs::Outcome outcome,
                     bool spliced);

  obs::Counter* requests_;
  obs::Counter* replies_;
  obs::Counter* forgets_;
  obs::Counter* spliced_bytes_;
  obs::Counter* copied_bytes_;
  obs::Counter* splice_fallbacks_;
  obs::Counter* lane_growths_;
  obs::Counter* sq_poll_hits_;    // polls that caught a submission
  obs::Counter* sq_poll_misses_;  // polls whose window ran out empty
  std::atomic<bool> lane_autosize_{false};

  // --- failure plane ---
  std::atomic<uint64_t> deadline_ns_{0};
  std::atomic<uint64_t> deadline_grace_ms_{50};
  std::atomic<uint32_t> abort_after_timeouts_{0};
  std::atomic<uint32_t> consecutive_timeouts_{0};
  std::atomic<uint32_t> max_background_{0};
  std::atomic<uint32_t> admission_budget_{0};
  std::atomic<uint32_t> in_flight_{0};
  std::atomic<bool> shed_new_requests_{false};
  obs::Counter* timeouts_;
  obs::Counter* late_replies_;
  obs::Counter* interrupts_;
  obs::Counter* admission_waits_;
  obs::Counter* sheds_;

  // Admission-gate parking lot (waiters blocked on max_background).
  analysis::CheckedMutex admission_mu_{"fuse.conn.admission"};
  analysis::CheckedCondVar admission_cv_{"fuse.conn.admission.cv"};

  // Deadline sweeper thread: started by the first SetRequestDeadline with a
  // real grace, stopped by disarming, Abort, or destruction.
  analysis::CheckedMutex sweeper_mu_{"fuse.conn.sweeper"};
  analysis::CheckedCondVar sweeper_cv_{"fuse.conn.sweeper.cv"};
  bool sweeper_stop_ = false;
  std::thread sweeper_;
};

// The open /dev/fuse descriptor, as held by the CNTR process. The fd itself
// only carries the connection object — mounting consumes it, the server
// loop reads from it.
class FuseDevFile : public kernel::FileDescription {
 public:
  FuseDevFile(std::shared_ptr<FuseConn> conn, int flags)
      : kernel::FileDescription(nullptr, flags), conn_(std::move(conn)) {}
  ~FuseDevFile() override { conn_->Abort(); }

  const std::shared_ptr<FuseConn>& conn() const { return conn_; }

 private:
  std::shared_ptr<FuseConn> conn_;
};

}  // namespace cntr::fuse

#endif  // CNTR_SRC_FUSE_FUSE_CONN_H_
