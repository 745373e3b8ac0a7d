#include "perfbench/src/trace.h"

#include <time.h>

#include <cstdio>

#include "src/fuse/fuse_proto.h"

namespace perfbench {

uint64_t ThreadCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1'000'000'000ULL + static_cast<uint64_t>(ts.tv_nsec);
}

Tracer::Tracer() : epoch_(std::chrono::steady_clock::now()) {}

void Tracer::Record(const Span& span) {
  std::lock_guard<std::mutex> lock(mu_);
  if (spans_.size() >= kMaxSpans) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  spans_.push_back(span);
}

void Tracer::RegisterPid(cntr::kernel::Pid pid) {
  current_.emplace(pid, std::make_unique<std::atomic<uint64_t>>(0));
}

void Tracer::SetCurrent(cntr::kernel::Pid pid, uint64_t span_id) {
  auto it = current_.find(pid);
  if (it != current_.end()) {
    it->second->store(span_id, std::memory_order_release);
  }
}

uint64_t Tracer::Current(cntr::kernel::Pid pid) const {
  auto it = current_.find(pid);
  return it == current_.end() ? 0 : it->second->load(std::memory_order_acquire);
}

size_t Tracer::span_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

bool Tracer::WriteCsv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::fputs("name,id,parent,request,virt_start,virt_end,wall_start,wall_end\n", f);
  std::lock_guard<std::mutex> lock(mu_);
  for (const Span& s : spans_) {
    std::fprintf(f, "%s,%llu,%llu,%llu,%llu,%llu,%lld,%lld\n", s.name,
                 static_cast<unsigned long long>(s.id), static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request),
                 static_cast<unsigned long long>(s.virt_start),
                 static_cast<unsigned long long>(s.virt_end), static_cast<long long>(s.wall_start),
                 static_cast<long long>(s.wall_end));
  }
  return std::fclose(f) == 0;
}

cntr::fuse::FuseReply TimingHandler::Handle(const cntr::fuse::FuseRequest& request) {
  if (!tracer_->on()) {
    return inner_->Handle(request);
  }
  const uint64_t v0 = clock_->NowNs();
  const int64_t w0 = tracer_->WallNs();
  const uint64_t c0 = ThreadCpuNs();
  cntr::fuse::FuseReply reply = inner_->Handle(request);
  const uint64_t c1 = ThreadCpuNs();
  const int64_t w1 = tracer_->WallNs();
  const uint64_t v1 = clock_->NowNs();

  const size_t op = static_cast<size_t>(request.opcode);
  if (op < kMaxOps) {
    Cell& cell = cells_[op];
    cell.count.fetch_add(1, std::memory_order_relaxed);
    cell.virt_ns.fetch_add(v1 - v0, std::memory_order_relaxed);
    cell.wall_ns.fetch_add(static_cast<uint64_t>(w1 - w0), std::memory_order_relaxed);
    cell.cpu_ns.fetch_add(c1 - c0, std::memory_order_relaxed);
  }
  Span span;
  span.name = cntr::fuse::FuseOpcodeName(request.opcode);
  span.id = tracer_->NextId();
  span.parent = tracer_->Current(request.pid);
  span.request = request.unique;
  span.virt_start = v0;
  span.virt_end = v1;
  span.wall_start = w0;
  span.wall_end = w1;
  tracer_->Record(span);
  return reply;
}

TimingHandler::OpTotals TimingHandler::totals(size_t opcode) const {
  OpTotals t;
  if (opcode < kMaxOps) {
    const Cell& cell = cells_[opcode];
    t.count = cell.count.load(std::memory_order_relaxed);
    t.virt_ns = cell.virt_ns.load(std::memory_order_relaxed);
    t.wall_ns = cell.wall_ns.load(std::memory_order_relaxed);
    t.cpu_ns = cell.cpu_ns.load(std::memory_order_relaxed);
  }
  return t;
}

}  // namespace perfbench
