#include "perfbench/src/client.h"

#include <algorithm>

namespace perfbench {

namespace ck = cntr::kernel;

namespace {

cntr::Status StatusOf(const cntr::Status& s) { return s; }
template <typename T>
cntr::Status StatusOf(const cntr::StatusOr<T>& s) {
  return s.ok() ? cntr::Status() : s.status();
}

}  // namespace

Client::Client(ck::Kernel* kernel, ck::ProcessPtr proc, Tracer* tracer)
    : kernel_(kernel), proc_(std::move(proc)), tracer_(tracer),
      lane_(std::make_shared<cntr::SimClock::Lane>()) {
  // Untouched reserved pages are not resident: the sample buffers add to
  // the peak RSS in proportion to the samples taken, without doubling steps.
  for (OpLog& log : logs_) {
    log.virt_ns.reserve(kReservedSamples);
    log.wall_ns.reserve(kReservedSamples);
  }
  if (tracer_ != nullptr) {
    tracer_->RegisterPid(pid());
  }
}

template <typename R, typename F>
R Client::Timed(Sys sys, uint64_t read_bytes, uint64_t write_bytes, F&& call) {
  const bool traced = tracer_ != nullptr && tracer_->on();
  uint64_t span_id = 0;
  if (traced) {
    span_id = tracer_->NextId();
    tracer_->SetCurrent(pid(), span_id);
  }
  const auto w0 = std::chrono::steady_clock::now();
  const uint64_t v0 = kernel_->clock().NowNs();
  R result = call();
  const uint64_t v1 = kernel_->clock().NowNs();
  const auto w1 = std::chrono::steady_clock::now();

  OpLog& log = logs_[mode_];
  const uint64_t virt = v1 - v0;
  const uint64_t wall =
      static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(w1 - w0).count());
  SysTotals& totals = log.sys[static_cast<size_t>(sys)];
  ++totals.calls;
  totals.virt_ns += virt;
  totals.wall_ns += wall;
  ++log.attempted;
  const cntr::Status status = StatusOf(result);
  if (status.ok()) {
    log.virt_ns.push_back(virt);
    log.wall_ns.push_back(wall);
    log.read_bytes += read_bytes;
    log.write_bytes += write_bytes;
    if (sys == Sys::kPwrite) {
      log.max_write_virt_ns = std::max(log.max_write_virt_ns, virt);
    }
  } else {
    ++log.failed;
    ++log.errors[std::string(SysName(sys)) + ": " + status.ToString()];
  }
  if (traced) {
    tracer_->SetCurrent(pid(), 0);
    Span span;
    span.name = SysName(sys);
    span.id = span_id;
    span.virt_start = v0;
    span.virt_end = v1;
    span.wall_start = tracer_->Since(w0);
    span.wall_end = tracer_->Since(w1);
    tracer_->Record(span);
  }
  return result;
}

void Client::ResetLogs() {
  for (size_t mode : {kUntraced, kTraced}) {
    logs_[mode] = OpLog{};
    slice_virt_ns_[mode] = 0;
    slice_cpu_ns_[mode] = 0;
  }
}

void Client::Mismatch() {
  OpLog& log = logs_[mode_];
  ++log.failed;
  ++log.mismatches;
}

cntr::StatusOr<ck::Fd> Client::Open(const std::string& path, int flags, ck::Mode mode) {
  return Timed<cntr::StatusOr<ck::Fd>>(
      Sys::kOpen, 0, 0, [&] { return kernel_->Open(*proc_, path, flags, mode); });
}

cntr::Status Client::Close(ck::Fd fd) {
  return Timed<cntr::Status>(Sys::kClose, 0, 0, [&] { return kernel_->Close(*proc_, fd); });
}

cntr::StatusOr<std::vector<ck::DirEntry>> Client::Getdents(ck::Fd fd) {
  return Timed<cntr::StatusOr<std::vector<ck::DirEntry>>>(
      Sys::kGetdents, 0, 0, [&] { return kernel_->Getdents(*proc_, fd); });
}

cntr::StatusOr<ck::InodeAttr> Client::Stat(const std::string& path) {
  return Timed<cntr::StatusOr<ck::InodeAttr>>(Sys::kStat, 0, 0,
                                              [&] { return kernel_->Stat(*proc_, path); });
}

cntr::StatusOr<size_t> Client::Read(ck::Fd fd, void* buf, size_t count) {
  return Timed<cntr::StatusOr<size_t>>(Sys::kRead, count, 0,
                                       [&] { return kernel_->Read(*proc_, fd, buf, count); });
}

cntr::StatusOr<size_t> Client::Pread(ck::Fd fd, void* buf, size_t count, uint64_t offset) {
  return Timed<cntr::StatusOr<size_t>>(
      Sys::kPread, count, 0, [&] { return kernel_->Pread(*proc_, fd, buf, count, offset); });
}

cntr::StatusOr<size_t> Client::Pwrite(ck::Fd fd, const void* buf, size_t count, uint64_t offset) {
  return Timed<cntr::StatusOr<size_t>>(
      Sys::kPwrite, 0, count, [&] { return kernel_->Pwrite(*proc_, fd, buf, count, offset); });
}

cntr::Status Client::Unlink(const std::string& path) {
  return Timed<cntr::Status>(Sys::kUnlink, 0, 0, [&] { return kernel_->Unlink(*proc_, path); });
}

}  // namespace perfbench
