// The benchmark workloads. Each is a closed loop: a client issues its next
// syscall only when the previous one returned, as a debugging tool does.
//
//   tool_start   one client, dedicated FuseServer; each round drops the
//                dentry cache (a fresh attach) and walks a seeded tools
//                tree: readdir, stat, open, read the first 4-64 KiB, close.
//   data_stream  one client, dedicated FuseServer; 1 MiB sequential
//                preads beside 1 MiB sequential pwrites over a file set
//                twice the page-cache capacity.
//   fleet_mixed  min(nproc, 4) mounts on one FuseServerPool, one client per
//                mount: stat, 4 KiB pread/pwrite, create+close+unlink on a
//                per-mount working set that fits in cache.
//
// Every read is checked against the seeded content, every listing against
// the seeded names and every stat against the seeded size.
#ifndef PERFBENCH_SRC_WORKLOADS_H_
#define PERFBENCH_SRC_WORKLOADS_H_

#include <memory>
#include <string>
#include <vector>

#include "perfbench/src/client.h"
#include "perfbench/src/stack.h"

namespace perfbench {

class Workload {
 public:
  Workload() = default;
  // Exits the client processes (closing their fds) before the stack goes.
  virtual ~Workload();
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  // Builds the stack, seeds the inputs and fills the caches. `tracer` is
  // null for an untraced run.
  virtual cntr::Status Setup(Tracer* tracer) = 0;
  // One slice of measured work on every client, in the given mode; returns
  // when all clients are done. Tracing state must not change during it.
  virtual void RunSlice(size_t mode) = 0;
  // One line describing the generated inputs.
  virtual std::string Describe() const = 0;

  Stack& stack() { return *stack_; }
  const std::vector<std::unique_ptr<Client>>& clients() const { return clients_; }

 protected:
  std::unique_ptr<Stack> stack_;
  std::vector<std::unique_ptr<Client>> clients_;
};

// Known names: tool_start, data_stream, fleet_mixed. Null for others.
std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed);
const std::vector<std::string>& WorkloadNames();

}  // namespace perfbench

#endif  // PERFBENCH_SRC_WORKLOADS_H_
