// Submission-ring transport structures for /dev/fuse (io_uring lineage).
//
// Every FuseChannel carries one RingState; it is the connection's only
// request path (fuse_conn.h explains the two cost profiles it runs under):
//
//   * Submission queue (SQ): a bounded lock-free MPMC ring of FuseRequest.
//     The kernel facade fills entries, the server reaps whole bursts in one
//     pass (multi-request reap per wakeup).
//   * Completion slots (CQ): a fixed array of `depth` slots. Each waiting
//     request owns one slot for its lifetime; the server completes slots in
//     whatever order its workers finish (out-of-order completion), and the
//     waiter spin-polls its own slot — no shared reply map, no shared lock.
//
// Slot lifecycle is carried in a single control word per slot packing a
// generation counter with a state: (gen << 4) | state. Every transition is
// a CAS on the full word, and the generation increments when the slot is
// freed, so a late reply or a stale SQ entry addressing a reused slot can
// never be confused for the current occupant (ABA). The plain fields of a
// slot are written by the submitter while it holds kSlotInit and are stable
// from the kSlotPending publish until the slot is freed; transient owners
// (kSlotSweeping, kSlotCompleting) may read them, and only the single
// completer writes `reply`.
#ifndef CNTR_SRC_FUSE_FUSE_RING_H_
#define CNTR_SRC_FUSE_FUSE_RING_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <vector>

#include "src/fuse/fuse_proto.h"
#include "src/kernel/cred.h"
#include "src/analysis/lockdep.h"

namespace cntr::fuse {

// Ring depth bounds. The slot index rides in the request unique between the
// channel bits and the sequence bits, so the ceiling is fixed by the field
// width (kRingSlotBits), not by memory.
inline constexpr size_t kRingSlotBits = 10;
inline constexpr size_t kMinRingDepth = 8;
inline constexpr size_t kMaxRingDepth = size_t{1} << kRingSlotBits;  // 1024
// Depth a connection's rings start with, before the mount negotiates its own.
inline constexpr size_t kDefaultRingDepth = 64;
// Iterations a waiter (or an idle worker) spin-polls before parking.
inline constexpr uint32_t kDefaultRingSpinBudget = 2000;
// Most SQ entries a single reap pass hands to one worker.
inline constexpr size_t kRingReapBatch = 32;

// How long a server worker that just handled a batch keeps polling the
// submission queue before it parks (the SQPOLL half of the io_uring
// design), adapted per connection: a hit restores the full window, a miss
// halves it down to zero, and at zero only every kProbeEvery-th post-reply
// idle probes, with the full window, so a connection whose callers go
// closed-loop again recovers. Not synchronized: FuseConn touches it only
// while it holds its poller flag.
class SqPollWindow {
 public:
  // Full window in wall-clock ns, about the cost of the wakeup a hit saves.
  // On a quiet 4-vCPU VM a condvar notify reached a thread parked 200 us
  // earlier in 15 us at the median and 55-60 us at p99, and in perfbench's
  // tool_start a close() took 19.7 us of wall time around a 2.0 us RELEASE
  // handler while the worker parked between requests.
  static constexpr uint64_t kFullNs = 50'000;
  static constexpr uint32_t kProbeEvery = 8;

  // The window to poll for at this post-reply idle; 0 = park at once.
  uint64_t Next() {
    if (window_ns_ != 0) {
      return window_ns_;
    }
    return ++idles_at_zero_ % kProbeEvery == 0 ? kFullNs : 0;
  }
  // Feeds back whether the poll of Next()'s window caught a submission.
  void Record(bool hit) {
    if (hit) {
      window_ns_ = kFullNs;
      idles_at_zero_ = 0;
    } else {
      window_ns_ /= 2;
    }
  }
  uint64_t window_ns() const { return window_ns_; }

 private:
  uint64_t window_ns_ = kFullNs;
  uint32_t idles_at_zero_ = 0;
};

// Bounded MPMC queue (Vyukov): each cell carries a sequence number that
// encodes both occupancy and the lap it belongs to, so producers and
// consumers coordinate through one CAS on their own index plus per-cell
// acquire/release — no shared lock, no per-operation allocation.
template <typename T>
class MpmcRing {
 public:
  explicit MpmcRing(size_t capacity_pow2)
      : mask_(capacity_pow2 - 1), cells_(capacity_pow2) {
    for (size_t i = 0; i < capacity_pow2; ++i) {
      cells_[i].seq.store(i, std::memory_order_relaxed);
    }
  }

  MpmcRing(const MpmcRing&) = delete;
  MpmcRing& operator=(const MpmcRing&) = delete;

  bool TryPush(T&& v) {
    Cell* cell;
    uint64_t pos = tail_.load(std::memory_order_relaxed);
    for (;;) {
      cell = &cells_[pos & mask_];
      uint64_t seq = cell->seq.load(std::memory_order_acquire);
      intptr_t dif = static_cast<intptr_t>(seq) - static_cast<intptr_t>(pos);
      if (dif == 0) {
        if (tail_.compare_exchange_weak(pos, pos + 1, std::memory_order_relaxed)) {
          break;
        }
      } else if (dif < 0) {
        return false;  // full
      } else {
        pos = tail_.load(std::memory_order_relaxed);
      }
    }
    cell->value = std::move(v);
    cell->seq.store(pos + 1, std::memory_order_release);
    return true;
  }

  bool TryPop(T& out) {
    Cell* cell;
    uint64_t pos = head_.load(std::memory_order_relaxed);
    for (;;) {
      cell = &cells_[pos & mask_];
      uint64_t seq = cell->seq.load(std::memory_order_acquire);
      intptr_t dif =
          static_cast<intptr_t>(seq) - static_cast<intptr_t>(pos + 1);
      if (dif == 0) {
        if (head_.compare_exchange_weak(pos, pos + 1, std::memory_order_relaxed)) {
          break;
        }
      } else if (dif < 0) {
        return false;  // empty
      } else {
        pos = head_.load(std::memory_order_relaxed);
      }
    }
    out = std::move(cell->value);
    // Release held resources (page refs, lane pointers) now instead of one
    // full lap later.
    cell->value = T{};
    cell->seq.store(pos + mask_ + 1, std::memory_order_release);
    return true;
  }

  // Racy but monotonic-enough size estimate (doorbell and stats only).
  size_t SizeApprox() const {
    uint64_t tail = tail_.load(std::memory_order_relaxed);
    uint64_t head = head_.load(std::memory_order_relaxed);
    return tail > head ? static_cast<size_t>(tail - head) : 0;
  }

  size_t capacity() const { return mask_ + 1; }

 private:
  struct Cell {
    std::atomic<uint64_t> seq{0};
    T value{};
  };

  const uint64_t mask_;
  std::vector<Cell> cells_;
  alignas(64) std::atomic<uint64_t> head_{0};
  alignas(64) std::atomic<uint64_t> tail_{0};
};

// Completion-slot states (low 4 bits of the control word).
inline constexpr uint64_t kSlotFree = 0;         // unowned
inline constexpr uint64_t kSlotInit = 1;         // submitter writing fields
inline constexpr uint64_t kSlotPending = 2;      // submitted, awaiting reply
inline constexpr uint64_t kSlotCompleting = 3;   // server writing the reply
inline constexpr uint64_t kSlotDone = 4;         // reply ready for the waiter
inline constexpr uint64_t kSlotTimedOut = 5;     // deadline expired
inline constexpr uint64_t kSlotInterrupted = 6;  // FUSE_INTERRUPT won
inline constexpr uint64_t kSlotSweeping = 7;     // sweeper/interrupt reading

inline constexpr uint64_t kSlotStateMask = 0xF;
inline constexpr uint64_t SlotCtrl(uint64_t gen, uint64_t state) {
  return (gen << 4) | state;
}
inline constexpr uint64_t SlotState(uint64_t ctrl) { return ctrl & kSlotStateMask; }
inline constexpr uint64_t SlotGen(uint64_t ctrl) { return ctrl >> 4; }

struct alignas(64) RingSlot {
  std::atomic<uint64_t> ctrl{SlotCtrl(0, kSlotFree)};
  // Plain fields: written under kSlotInit, stable from the kSlotPending
  // publish until the waiter frees the slot (see file comment).
  uint64_t unique = 0;
  kernel::Pid pid = 0;
  uint64_t deadline_ns = 0;  // virtual deadline; 0 = none armed
  std::chrono::steady_clock::time_point enqueued_real{};
  // Set by the reaping worker: the server has seen the request, so an
  // interrupt now needs a kInterrupt notification (an unclaimed SQ entry is
  // instead dropped at reap time).
  std::atomic<bool> claimed{false};
  // Written only by the completer while it holds kSlotCompleting.
  FuseReply reply;
};

struct RingState {
  explicit RingState(size_t depth) : depth(depth), sq(depth), slots(depth) {}

  const size_t depth;
  MpmcRing<FuseRequest> sq;
  std::vector<RingSlot> slots;
  // Rotating start for the completion-slot allocation scan.
  std::atomic<uint64_t> alloc_hint{0};
  // Submitters in the [aborted-check .. SQ push] window; Abort waits for
  // zero before draining the SQ so no entry is stranded behind it.
  std::atomic<uint32_t> submitting{0};

  // Completion-side parking: waiters spin on their slot's ctrl first, then
  // park here under a bounded wait (a lost doorbell self-heals).
  analysis::CheckedMutex cq_mu{"fuse.ring.cq"};
  analysis::CheckedCondVar cq_cv{"fuse.ring.cq.cv"};
  std::atomic<uint32_t> parked_waiters{0};
  // Submission-side backpressure parking (SQ or completion slots exhausted).
  analysis::CheckedMutex sq_mu{"fuse.ring.sq"};
  analysis::CheckedCondVar sq_cv{"fuse.ring.sq.cv"};
  std::atomic<uint32_t> sq_waiters{0};

  // Batch-efficiency stats (per channel; FuseConn::Stats rolls them up).
  std::atomic<uint64_t> doorbells{0};
  std::atomic<uint64_t> reaps{0};
  std::atomic<uint64_t> reaped_requests{0};
  std::atomic<uint64_t> max_reqs_per_reap{0};
  std::atomic<uint64_t> sq_overflows{0};
  std::atomic<uint64_t> spin_parks{0};
};

}  // namespace cntr::fuse

#endif  // CNTR_SRC_FUSE_FUSE_RING_H_
