#include "perfbench/src/stack.h"

#include "perfbench/src/testbed.h"
#include "src/fuse/fuse_mount.h"

namespace perfbench {

namespace ck = cntr::kernel;
namespace cf = cntr::fuse;

// Worker threads of a dedicated FuseServer (HarnessOptions' default).
constexpr int kServerThreads = 4;

cntr::StatusOr<std::unique_ptr<Stack>> Stack::Create(const StackOptions& opts) {
  auto stack = std::unique_ptr<Stack>(new Stack());
  stack->kernel_ = ck::Kernel::Create(PinnedKernelConfig());
  ck::Kernel* kernel = stack->kernel_.get();
  cf::RegisterFuseDevice(kernel);

  // The server serves the plain host view from its own mount namespace, so
  // the FUSE mounts made below are invisible to it.
  stack->server_proc_ = kernel->Fork(*kernel->init(), "cntrfs");
  CNTR_RETURN_IF_ERROR(kernel->Unshare(*stack->server_proc_, ck::kCloneNewNs));
  const cf::FuseMountOptions fuse_opts = cf::FuseMountOptions::Optimized();
  if (opts.pooled) {
    cf::FuseServerPoolOptions pool_opts;
    pool_opts.metrics = &kernel->metrics();
    // The pool only grows, and under sustained load it grows to max_threads.
    // Start it there: growth would otherwise land at a random point of the
    // measured phase and move every wall-clock figure of the run.
    pool_opts.min_threads = pool_opts.max_threads;
    stack->pool_ = std::make_unique<cf::FuseServerPool>(pool_opts);
  }
  stack->mounts_.resize(opts.mounts);
  for (size_t i = 0; i < opts.mounts; ++i) {
    Mount& m = stack->mounts_[i];
    m.path = "/cntrmnt" + std::to_string(i);
    CNTR_ASSIGN_OR_RETURN(m.cntrfs, cntr::core::CntrFsServer::Create(kernel, stack->server_proc_, "/"));
    cf::FuseHandler* handler = m.cntrfs.get();
    if (opts.tracer != nullptr) {
      m.timing = std::make_unique<TimingHandler>(handler, &kernel->clock(), opts.tracer);
      handler = m.timing.get();
    }
    CNTR_ASSIGN_OR_RETURN(auto dev, cf::OpenFuseDevice(kernel, *kernel->init()));
    if (opts.pooled) {
      m.pool_id = stack->pool_->AddMount(dev.second, handler);
    } else {
      m.server = std::make_unique<cf::FuseServer>(dev.second, handler, kServerThreads,
                                                  fuse_opts.num_channels);
      m.server->Start();
    }
    CNTR_RETURN_IF_ERROR(kernel->Mkdir(*kernel->init(), m.path, 0755));
    CNTR_ASSIGN_OR_RETURN(m.fs, cf::MountFuse(kernel, *kernel->init(), m.path, dev.second, fuse_opts));
  }
  return stack;
}

Stack::~Stack() {
  for (Mount& m : mounts_) {
    if (m.fs != nullptr) {
      (void)m.fs->Shutdown();
    }
  }
  for (Mount& m : mounts_) {
    if (m.server != nullptr) {
      m.server->Stop();
    } else if (pool_ != nullptr && m.fs != nullptr) {
      pool_->RemoveMount(m.pool_id);
    }
  }
  if (pool_ != nullptr) {
    pool_->Stop();
  }
  mounts_.clear();
  pool_.reset();
  server_proc_.reset();
  kernel_.reset();
}

}  // namespace perfbench
