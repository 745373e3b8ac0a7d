// A benchmark client: one simulated process issuing timed syscalls in a
// closed loop, on its own SimClock lane.
#ifndef PERFBENCH_SRC_CLIENT_H_
#define PERFBENCH_SRC_CLIENT_H_

#include <chrono>
#include <string>
#include <vector>

#include "perfbench/src/stats.h"
#include "perfbench/src/trace.h"
#include "src/kernel/kernel.h"

namespace perfbench {

class Client {
 public:
  // Mode 0 holds untraced slices, mode 1 traced ones.
  static constexpr size_t kUntraced = 0;
  static constexpr size_t kTraced = 1;

  Client(cntr::kernel::Kernel* kernel, cntr::kernel::ProcessPtr proc, Tracer* tracer);
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  // --- timed syscalls (each is one op) ---
  cntr::StatusOr<cntr::kernel::Fd> Open(const std::string& path, int flags,
                                        cntr::kernel::Mode mode = 0644);
  cntr::Status Close(cntr::kernel::Fd fd);
  cntr::StatusOr<std::vector<cntr::kernel::DirEntry>> Getdents(cntr::kernel::Fd fd);
  cntr::StatusOr<cntr::kernel::InodeAttr> Stat(const std::string& path);
  cntr::StatusOr<size_t> Read(cntr::kernel::Fd fd, void* buf, size_t count);
  cntr::StatusOr<size_t> Pread(cntr::kernel::Fd fd, void* buf, size_t count, uint64_t offset);
  cntr::StatusOr<size_t> Pwrite(cntr::kernel::Fd fd, const void* buf, size_t count,
                                uint64_t offset);
  cntr::Status Unlink(const std::string& path);

  // Forgets every op and slice so far (used after warm-up).
  void ResetLogs();

  // The last op succeeded but its output did not match the inputs.
  void Mismatch();

  // Runs `body` on the calling thread with this client's lane attached, as
  // one slice of the given mode, and accounts its virtual, wall and thread
  // CPU time.
  template <typename Body>
  void RunSlice(size_t mode, Body&& body) {
    cntr::SimClock::LaneScope scope(lane_);
    mode_ = mode;
    const uint64_t cpu0 = ThreadCpuNs();
    const uint64_t v0 = kernel_->clock().NowNs();
    body();
    slice_virt_ns_[mode] += kernel_->clock().NowNs() - v0;
    slice_cpu_ns_[mode] += ThreadCpuNs() - cpu0;
  }

  cntr::kernel::Process& proc() { return *proc_; }
  cntr::kernel::Pid pid() const { return proc_->global_pid(); }
  const OpLog& log(size_t mode) const { return logs_[mode]; }
  uint64_t virt_ns(size_t mode) const { return slice_virt_ns_[mode]; }
  uint64_t cpu_ns(size_t mode) const { return slice_cpu_ns_[mode]; }

 private:
  static constexpr size_t kReservedSamples = 1 << 22;

  template <typename R, typename F>
  R Timed(Sys sys, uint64_t read_bytes, uint64_t write_bytes, F&& call);

  cntr::kernel::Kernel* kernel_;
  cntr::kernel::ProcessPtr proc_;
  Tracer* tracer_;
  cntr::SimClock::LanePtr lane_;
  size_t mode_ = kUntraced;
  OpLog logs_[2];
  uint64_t slice_virt_ns_[2] = {0, 0};
  uint64_t slice_cpu_ns_[2] = {0, 0};
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_CLIENT_H_
