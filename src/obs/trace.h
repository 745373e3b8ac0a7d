// Per-request trace spans for the FUSE request lifecycle.
//
// A span rides inside the FuseRequest (shared-owned, like the request's
// SimClock lane: the waiter keeps a reference, so a span outlives whichever
// side abandons the request first). Each hop stamps its virtual-time
// position:
//
//   enqueue  — waiter, just before the request enters the channel/SQ
//   reap     — server, the instant the request leaves the queue/ring
//   dispatch — server worker, just before the handler runs
//   reply    — server worker, just after the handler, before the reply
//              enters the transport
//   wake     — waiter, after its wait resolves (passed to RecordRequest,
//              not stored: the waiter is the last reader)
//
// which yields the three phases the paper's round-trip analysis needs:
//
//   queue   = reap - enqueue     (time spent waiting for a server thread)
//   service = reply - dispatch   (handler time)
//   transit = wake - reply       (completion delivery + waiter wakeup)
//
// Stamps are relaxed atomics, ordered by the completion slot's
// release/acquire publication — except under timeout/interrupt/abort, where
// the waiter can resolve while the server is still stamping; relaxed
// atomics keep that benign (phases needing an unwritten stamp collapse to
// zero).
//
// Spans never advance the clock. All stamps are NowNs() reads on the
// request's own lane, so compiling tracing in leaves virtual time — and
// therefore every benchmark number — bit-identical.
#ifndef CNTR_SRC_OBS_TRACE_H_
#define CNTR_SRC_OBS_TRACE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/obs/metrics.h"
#include "src/util/logging.h"
#include "src/analysis/lockdep.h"

namespace cntr::obs {

// Process-wide tracing gate (default on). Turning it off skips span
// allocation and histogram recording but never the plain counters, so the
// legacy Stats accessors keep working either way. The bench suite uses the
// off state as the overhead-guard baseline.
bool TracingEnabled();
void SetTracingEnabled(bool enabled);

// How a request left flight, as tagged on the outcome counter.
enum class Outcome : uint8_t {
  kOk = 0,
  kError,      // server replied with an errno
  kFault,      // an armed fault-injection point failed the request
  kTimeout,    // expired by the per-request deadline
  kInterrupt,  // unblocked via FUSE_INTERRUPT
  kAbort,      // connection died under the request
};
inline constexpr size_t kNumOutcomes = 6;
const char* OutcomeName(Outcome o);

struct TraceSpan {
  uint64_t enqueue_ns = 0;  // written by the waiter before publication
  std::atomic<uint64_t> reap_ns{0};
  std::atomic<uint64_t> dispatch_ns{0};
  std::atomic<uint64_t> reply_ns{0};
};
using SpanPtr = std::shared_ptr<TraceSpan>;

// Null when tracing is off — callers thread the span through unconditionally
// and every consumer tolerates its absence.
SpanPtr MakeSpan(uint64_t enqueue_ns);

// Phase durations of a finished span, clamped to zero when a stamp is
// missing (a raw-transport user that never stamped a hop, or a request
// resolved out from under the server).
struct SpanBreakdown {
  uint64_t total_ns = 0;
  uint64_t queue_ns = 0;
  uint64_t service_ns = 0;
  uint64_t transit_ns = 0;
};
SpanBreakdown Breakdown(const TraceSpan& span, uint64_t wake_ns);

// The per-mount instrument bundle: opcode-keyed latency histograms (total +
// per-phase), outcome counters, spliced-vs-copied path counters, and the
// slow-request log. One per FuseConn, labeled mount="m<id>" for the fleet
// rollup. Per-opcode instruments are built lazily on first use so a mount
// only pays for the opcodes it actually sees.
class RequestMetrics {
 public:
  // Maps an opcode to its label value ("GETATTR"); injected so obs stays
  // below the fuse layer in the dependency order.
  using OpNameFn = const char* (*)(uint32_t);

  RequestMetrics(MetricsRegistry* registry, std::string mount, OpNameFn op_name);

  RequestMetrics(const RequestMetrics&) = delete;
  RequestMetrics& operator=(const RequestMetrics&) = delete;

  // One request left flight. `span` may be null (tracing off, or a
  // no-reply submission): the outcome counter always bumps, histograms
  // and the slow log only record with a span present.
  void RecordRequest(uint32_t opcode, const TraceSpan* span, uint64_t wake_ns,
                     Outcome outcome, bool spliced);

  // Slow-request log: a completed request whose total exceeds the
  // threshold logs one rate-limited warning (virtual ns; 0 disables).
  // The construction-time default comes from CNTR_SLOW_REQUEST_NS.
  void SetSlowThresholdNs(uint64_t ns) {
    slow_ns_.store(ns, std::memory_order_relaxed);
  }
  uint64_t slow_threshold_ns() const {
    return slow_ns_.load(std::memory_order_relaxed);
  }

  const std::string& mount() const { return mount_; }

 private:
  static constexpr size_t kMaxOps = 64;  // FUSE opcodes are dense and < 64

  struct OpInstruments {
    Histogram* total;
    Histogram* queue;
    Histogram* service;
    Histogram* transit;
    std::array<Counter*, kNumOutcomes> outcomes;
    std::array<Counter*, 2> paths;  // [0]=copied, [1]=spliced
  };
  OpInstruments* Ops(uint32_t opcode);

  MetricsRegistry* registry_;
  std::string mount_;
  OpNameFn op_name_;
  std::atomic<uint64_t> slow_ns_;
  LogRateLimiter slow_limiter_;

  analysis::CheckedMutex build_mu_{"obs.trace.build"};  // serializes lazy per-opcode construction
  std::array<std::atomic<OpInstruments*>, kMaxOps> ops_{};
  std::vector<std::unique_ptr<OpInstruments>> owned_;
};

}  // namespace cntr::obs

#endif  // CNTR_SRC_OBS_TRACE_H_
