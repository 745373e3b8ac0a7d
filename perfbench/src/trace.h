// The benchmark's tracing: spans around client syscalls and around each
// CNTRFS request, recorded from the benchmark's own code.
//
// Client spans wrap one Kernel:: call. Handler spans come from
// TimingHandler, a FuseHandler decorator registered around CntrFsServer;
// it links each request to the client syscall that caused it through the
// caller pid the request carries (FuseRequest::pid), and tags it with the
// request's unique id. Spans stay in memory and are written out at exit.
// Nothing here advances virtual time: stamps are SimClock::NowNs() reads.
#ifndef PERFBENCH_SRC_TRACE_H_
#define PERFBENCH_SRC_TRACE_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/fuse/fuse_server.h"
#include "src/kernel/types.h"
#include "src/util/sim_clock.h"

namespace perfbench {

struct Span {
  const char* name = "";
  uint64_t id = 0;
  uint64_t parent = 0;   // 0 = root
  uint64_t request = 0;  // FUSE unique for handler spans, 0 for client spans
  uint64_t virt_start = 0;
  uint64_t virt_end = 0;
  int64_t wall_start = 0;  // ns since the tracer was created
  int64_t wall_end = 0;
};

class Tracer {
 public:
  // Spans past this many are counted in dropped(), not kept (64 B each).
  static constexpr size_t kMaxSpans = 1'000'000;

  Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool on() const { return on_.load(std::memory_order_relaxed); }
  void SetOn(bool on) { on_.store(on, std::memory_order_relaxed); }

  uint64_t NextId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }
  int64_t Since(std::chrono::steady_clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_).count();
  }
  int64_t WallNs() const { return Since(std::chrono::steady_clock::now()); }
  void Record(const Span& span);

  // Client pids are registered before any client runs; the map is
  // read-only afterwards, so lookups need no lock.
  void RegisterPid(cntr::kernel::Pid pid);
  void SetCurrent(cntr::kernel::Pid pid, uint64_t span_id);
  uint64_t Current(cntr::kernel::Pid pid) const;

  size_t span_count() const;
  uint64_t dropped() const { return dropped_.load(std::memory_order_relaxed); }
  // CSV: name,id,parent,request,virt_start,virt_end,wall_start,wall_end.
  bool WriteCsv(const std::string& path) const;

 private:
  std::atomic<bool> on_{false};
  std::atomic<uint64_t> next_id_{1};
  std::atomic<uint64_t> dropped_{0};
  const std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
  std::unordered_map<cntr::kernel::Pid, std::unique_ptr<std::atomic<uint64_t>>> current_;
};

// Per-opcode timing of the wrapped handler. Virtual time is read on the
// lane the serving worker adopted (the requesting client's), wall time
// from steady_clock, CPU from CLOCK_THREAD_CPUTIME_ID.
class TimingHandler : public cntr::fuse::FuseHandler {
 public:
  static constexpr size_t kMaxOps = 64;
  struct OpTotals {
    uint64_t count = 0;
    uint64_t virt_ns = 0;
    uint64_t wall_ns = 0;
    uint64_t cpu_ns = 0;
  };

  TimingHandler(cntr::fuse::FuseHandler* inner, const cntr::SimClock* clock, Tracer* tracer)
      : inner_(inner), clock_(clock), tracer_(tracer) {}

  cntr::fuse::FuseReply Handle(const cntr::fuse::FuseRequest& request) override;
  void OnDestroy() override { inner_->OnDestroy(); }

  OpTotals totals(size_t opcode) const;

 private:
  struct Cell {
    std::atomic<uint64_t> count{0};
    std::atomic<uint64_t> virt_ns{0};
    std::atomic<uint64_t> wall_ns{0};
    std::atomic<uint64_t> cpu_ns{0};
  };

  cntr::fuse::FuseHandler* inner_;
  const cntr::SimClock* clock_;
  Tracer* tracer_;
  std::array<Cell, kMaxOps> cells_{};
};

// CPU time of the calling thread, in ns.
uint64_t ThreadCpuNs();

}  // namespace perfbench

#endif  // PERFBENCH_SRC_TRACE_H_
