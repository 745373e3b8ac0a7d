#include "src/fuse/fuse_server.h"

#include "src/util/logging.h"

namespace cntr::fuse {

namespace {

// Worker-thread injection point: kKill models a server thread dying mid-loop
// (the whole daemon crash analogue — the connection aborts so waiters degrade
// to errors instead of hanging), kDrop swallows the reply of the request the
// worker just handled, kFail replaces it with an error reply.
CNTR_FAULT_POINT(kFaultServerWorker, "fuse.server.worker");

}  // namespace

void FuseServer::Start() {
  if (started_) {
    return;
  }
  started_ = true;
  size_t want = num_channels_ == 0 ? static_cast<size_t>(num_threads_) : num_channels_;
  size_t channels = conn_->ConfigureChannels(want);
  conn_->SetServerParallelism(static_cast<uint32_t>(num_threads_));
  threads_.reserve(num_threads_);
  for (int i = 0; i < num_threads_; ++i) {
    size_t home = static_cast<size_t>(i) % channels;
    conn_->AddReader(home);
    threads_.emplace_back([this, home] { WorkerLoop(home); });
  }
}

void FuseServer::Stop(bool notify_destroy) {
  if (!started_) {
    return;
  }
  conn_->Abort();
  for (auto& t : threads_) {
    if (t.joinable()) {
      t.join();
    }
  }
  threads_.clear();
  started_ = false;
  if (notify_destroy) {
    handler_->OnDestroy();
  }
}

void FuseServer::WorkerLoop(size_t home_channel) {
  fault::FaultRegistry* faults = conn_->faults();
  bool killed = false;
  while (!killed) {
    // One wakeup reaps what the connection's profile hands over — on the
    // ring profile the whole burst that accumulated while this worker was
    // busy (the multi-reap amortization), on the wakeup profile a single
    // request — and the batch is handled back to back.
    std::vector<FuseRequest> batch = conn_->ReadRequestBatch(home_channel);
    if (batch.empty()) {
      break;  // connection aborted and queues drained
    }
    for (FuseRequest& request : batch) {
      if (request.opcode == FuseOpcode::kDestroy) {
        handler_->OnDestroy();
        continue;
      }
      // Handle on the caller's virtual timeline: the server-side costs
      // belong to the request that incurred them, and channels stay
      // independent when callers run on parallel lanes.
      SimClock::LaneScope lane(request.lane);
      if (request.span != nullptr) {
        request.span->dispatch_ns.store(conn_->clock()->NowNs(),
                                        std::memory_order_relaxed);
      }
      fault::FaultHit hit;
      if (faults != nullptr) {
        hit = faults->Check(kFaultServerWorker);
        if (hit && hit.latency_ns != 0) {
          conn_->clock()->Advance(hit.latency_ns);
        }
      }
      if (hit && hit.action == fault::FaultAction::kKill) {
        // This worker dies holding the request: the daemon has crashed.
        // Abort the connection so every waiter (including this request's
        // and the rest of the batch's) resolves.
        conn_->Abort();
        killed = true;
        break;
      }
      FuseReply reply = handler_->Handle(request);
      if (hit && hit.action == fault::FaultAction::kDrop) {
        continue;  // reply lost: the waiter's deadline/abort must resolve it
      }
      if (hit && hit.action == fault::FaultAction::kFail) {
        reply = FuseReply::Error(hit.error);
      }
      if (request.unique != 0) {
        if (request.span != nullptr) {
          request.span->reply_ns.store(conn_->clock()->NowNs(),
                                       std::memory_order_relaxed);
        }
        conn_->WriteReply(request.unique, std::move(reply));
      }
    }
  }
  conn_->RemoveReader(home_channel);
}

}  // namespace cntr::fuse
