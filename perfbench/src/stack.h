// The system under test, assembled from public constructors as
// src/workloads/harness.cc does: a pinned-testbed kernel, CNTRFS servers
// serving the host view from their own mount namespace, and FUSE mounts
// with the shipping FuseMountOptions::Optimized() -- served either by one
// dedicated FuseServer per mount or by one shared FuseServerPool.
#ifndef PERFBENCH_SRC_STACK_H_
#define PERFBENCH_SRC_STACK_H_

#include <memory>
#include <string>
#include <vector>

#include "perfbench/src/trace.h"
#include "src/core/cntrfs.h"
#include "src/fuse/fuse_fs.h"
#include "src/fuse/fuse_server.h"
#include "src/fuse/fuse_server_pool.h"
#include "src/kernel/kernel.h"

namespace perfbench {

struct StackOptions {
  size_t mounts = 1;
  bool pooled = false;          // one FuseServerPool instead of a FuseServer per mount
  Tracer* tracer = nullptr;     // non-null: wrap each CNTRFS server in a TimingHandler
};

class Stack {
 public:
  static cntr::StatusOr<std::unique_ptr<Stack>> Create(const StackOptions& opts);
  ~Stack();
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  cntr::kernel::Kernel& kernel() { return *kernel_; }
  size_t mounts() const { return mounts_.size(); }
  // Where mount `i` shows the host root, e.g. "/cntrmnt0".
  const std::string& mount_path(size_t i) const { return mounts_[i].path; }
  cntr::fuse::FuseFs& fs(size_t i) { return *mounts_[i].fs; }
  // Null unless the stack was built with a tracer.
  const TimingHandler* timing(size_t i) const { return mounts_[i].timing.get(); }
  cntr::fuse::FuseServerPool* pool() { return pool_.get(); }

 private:
  struct Mount {
    std::string path;
    std::unique_ptr<cntr::core::CntrFsServer> cntrfs;
    std::unique_ptr<TimingHandler> timing;
    std::unique_ptr<cntr::fuse::FuseServer> server;  // dedicated mode
    uint64_t pool_id = 0;                            // pooled mode
    std::shared_ptr<cntr::fuse::FuseFs> fs;
  };

  Stack() = default;

  std::unique_ptr<cntr::kernel::Kernel> kernel_;
  cntr::kernel::ProcessPtr server_proc_;
  std::unique_ptr<cntr::fuse::FuseServerPool> pool_;
  std::vector<Mount> mounts_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_STACK_H_
