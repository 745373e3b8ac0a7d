#include "perfbench/src/workloads.h"

#include <algorithm>
#include <barrier>
#include <thread>

#include "perfbench/src/inputs.h"
#include "perfbench/src/testbed.h"

namespace perfbench {

namespace ck = cntr::kernel;
using cntr::Status;

namespace {

// Writes `len` bytes at `offset` of `path` as init, on the backing
// filesystem directly (seeding is input generation, not measured work).
Status WriteNative(ck::Kernel& k, const std::string& path, const char* data, size_t len,
                   uint64_t offset, bool create) {
  const int flags = ck::kOWrOnly | (create ? ck::kOCreat | ck::kOTrunc : 0);
  CNTR_ASSIGN_OR_RETURN(ck::Fd fd, k.Open(*k.init(), path, flags, 0644));
  auto written = k.Pwrite(*k.init(), fd, data, len, offset);
  CNTR_RETURN_IF_ERROR(k.Close(*k.init(), fd));
  if (!written.ok()) {
    return written.status();
  }
  return *written == len ? Status() : Status(EIO, "short seed write to " + path);
}

// Warm-up ops are not measured, but they are checked like measured ones.
Status EndWarmup(Client& c) {
  const OpLog& log = c.log(Client::kUntraced);
  if (log.failed != 0) {
    return Status(EIO, "warm-up: " + std::to_string(log.failed) + " of " +
                           std::to_string(log.attempted) + " ops failed");
  }
  c.ResetLogs();
  return Status();
}

// ---------------------------------------------------------------------------
// tool_start
// ---------------------------------------------------------------------------
class ToolStart : public Workload {
 public:
  explicit ToolStart(uint64_t seed) : seed_(seed), tree_(MakeToolTree(seed)) {}

  Status Setup(Tracer* tracer) override {
    StackOptions opts;
    opts.tracer = tracer;
    CNTR_ASSIGN_OR_RETURN(stack_, Stack::Create(opts));
    ck::Kernel& k = stack_->kernel();
    const std::string native = "/data/tools";
    CNTR_RETURN_IF_ERROR(k.Mkdir(*k.init(), native, 0755));
    for (size_t d = 1; d < tree_.dirs.size(); ++d) {
      CNTR_RETURN_IF_ERROR(k.Mkdir(*k.init(), native + "/" + tree_.dirs[d].path, 0755));
    }
    std::vector<char> content;
    for (ToolFile& file : tree_.files) {
      content.resize(file.size);
      FillBytes(file.key, content.data(), content.size());
      file.prefix_hash = HashBytes(content.data(), file.read_len);
      CNTR_RETURN_IF_ERROR(
          WriteNative(k, native + "/" + file.path, content.data(), content.size(), 0, true));
    }
    root_ = stack_->mount_path(0) + native;
    buf_.resize(65536);
    clients_.push_back(std::make_unique<Client>(&k, k.Fork(*k.init(), "tool"), tracer));
    RunSlice(Client::kUntraced);  // fills the page caches
    return EndWarmup(*clients_[0]);
  }

  void RunSlice(size_t mode) override {
    // A fresh attach starts with no dentries; the drop itself is not an op.
    stack_->kernel().dcache().Clear();
    Client& c = *clients_[0];
    c.RunSlice(mode, [&] { Round(c, MakeRoundPlan(tree_, seed_, round_++)); });
  }

  std::string Describe() const override {
    return "tools tree: " + std::to_string(tree_.dirs.size()) + " dirs, " +
           std::to_string(tree_.files.size()) + " files, " +
           std::to_string(tree_.total_bytes) + " bytes; one round walks all of it";
  }

 private:
  void Round(Client& c, const RoundPlan& plan) {
    for (size_t i = 0; i < plan.dirs.size(); ++i) {
      const ToolDir& dir = tree_.dirs[plan.dirs[i]];
      auto dfd = c.Open(dir.path.empty() ? root_ : root_ + "/" + dir.path,
                        ck::kORdOnly | ck::kODirectory);
      if (dfd.ok()) {
        auto entries = c.Getdents(*dfd);
        if (entries.ok()) {
          std::vector<std::string> names;
          for (const ck::DirEntry& e : *entries) {
            if (e.name != "." && e.name != "..") {
              names.push_back(e.name);
            }
          }
          std::sort(names.begin(), names.end());
          if (names != dir.names) {
            c.Mismatch();
          }
        }
        (void)c.Close(*dfd);
      }
      for (size_t f : plan.files[i]) {
        const ToolFile& file = tree_.files[f];
        const std::string path = root_ + "/" + file.path;
        auto attr = c.Stat(path);
        if (attr.ok() && attr->size != file.size) {
          c.Mismatch();
        }
        auto fd = c.Open(path, ck::kORdOnly);
        if (!fd.ok()) {
          continue;
        }
        auto n = c.Read(*fd, buf_.data(), file.read_len);
        if (n.ok() && (*n != file.read_len || HashBytes(buf_.data(), *n) != file.prefix_hash)) {
          c.Mismatch();
        }
        (void)c.Close(*fd);
      }
    }
  }

  const uint64_t seed_;
  ToolTree tree_;
  std::string root_;
  std::vector<char> buf_;
  uint64_t round_ = 0;
};

// ---------------------------------------------------------------------------
// data_stream
// ---------------------------------------------------------------------------
class DataStream : public Workload {
 public:
  static constexpr size_t kBlock = 1 << 20;
  static constexpr size_t kBodies = 4;

  explicit DataStream(uint64_t seed)
      : seed_(seed), set_(MakeStreamSet(seed, 2 * PinnedKernelConfig().page_cache_capacity)),
        blocks_(seed, kBlock, kBodies), rng_(MixKey(seed, 0x7005)) {}

  Status Setup(Tracer* tracer) override {
    CNTR_ASSIGN_OR_RETURN(stack_, Stack::Create(StackOptions{.tracer = tracer}));
    ck::Kernel& k = stack_->kernel();
    const std::string native = "/data/stream";
    CNTR_RETURN_IF_ERROR(k.Mkdir(*k.init(), native, 0755));
    state_.resize(set_.files.size());
    for (size_t f = 0; f < set_.files.size(); ++f) {
      const std::string path = native + "/" + set_.files[f].name;
      state_[f].resize(set_.files[f].blocks);
      for (uint64_t b = 0; b < set_.files[f].blocks; ++b) {
        const size_t body = MixKey(seed_, (f << 16) | b) % kBodies;
        state_[f][b] = BlockState{0, static_cast<uint8_t>(body)};
        CNTR_RETURN_IF_ERROR(WriteNative(k, path, blocks_.Prepare(body, f, b, 0), kBlock,
                                         b * kBlock, b == 0));
      }
    }
    clients_.push_back(std::make_unique<Client>(&k, k.Fork(*k.init(), "stream"), tracer));
    Client& c = *clients_[0];
    const std::string root = stack_->mount_path(0) + native;
    for (const StreamFile& file : set_.files) {
      CNTR_ASSIGN_OR_RETURN(ck::Fd fd, c.Open(root + "/" + file.name, ck::kORdWr));
      fds_.push_back(fd);
    }
    buf_.resize(kBlock);
    reader_ = Stream{0, 0, {}, 0};
    writer_ = Stream{set_.files.size() / 2, 0, {}, 0};
    // Fill the caches and reach writeback steady state.
    RunSlice(Client::kUntraced);
    return EndWarmup(c);
  }

  // One pass: each stream reads or writes as many blocks as the set holds.
  // Slices of whole passes hit the cache alike, so their rates are
  // comparable and a median over them is steady.
  void RunSlice(size_t mode) override {
    Client& c = *clients_[0];
    c.RunSlice(mode, [&] {
      for (uint64_t i = 0; i < set_.total_bytes / kBlock; ++i) {
        Pair(c);
      }
    });
  }

  std::string Describe() const override {
    return "stream set: " + std::to_string(set_.files.size()) + " files, " +
           std::to_string(set_.total_bytes >> 20) + " MiB; 1 MiB pread beside 1 MiB pwrite";
  }

 private:
  struct Stream {
    size_t file = 0;
    uint64_t block = 0;
    std::vector<size_t> order;  // visiting order of the current pass
    size_t pos = 0;
  };

  void Pair(Client& c) {
    {
      const BlockState& s = state_[reader_.file][reader_.block];
      auto n = c.Pread(fds_[reader_.file], buf_.data(), kBlock, reader_.block * kBlock);
      if (n.ok() &&
          !blocks_.Verify(buf_.data(), *n, s.body, reader_.file, reader_.block, s.version)) {
        c.Mismatch();
      }
      Advance(reader_, writer_.file);
    }
    {
      BlockState& s = state_[writer_.file][writer_.block];
      const BlockState next{s.version + 1, static_cast<uint8_t>(rng_.Below(kBodies))};
      const char* data = blocks_.Prepare(next.body, writer_.file, writer_.block, next.version);
      auto n = c.Pwrite(fds_[writer_.file], data, kBlock, writer_.block * kBlock);
      if (n.ok()) {
        if (*n == kBlock) {
          s = next;
        } else {
          c.Mismatch();
        }
      }
      Advance(writer_, reader_.file);
    }
  }

  // Moves to the next block. At the end of a file, moves to the next file
  // of the stream's seeded visiting order (a fresh permutation per pass),
  // skipping the file the other stream is on: every file is read and
  // written once per pass, so reuse distances stay even across seeds.
  void Advance(Stream& s, size_t other_file) {
    if (++s.block < set_.files[s.file].blocks) {
      return;
    }
    s.block = 0;
    do {
      if (s.pos == s.order.size()) {
        s.order = Permutation(set_.files.size(), rng_);
        s.pos = 0;
      }
      s.file = s.order[s.pos++];
    } while (s.file == other_file);
  }

  const uint64_t seed_;
  StreamSet set_;
  StampedBlocks blocks_;
  Rng rng_;
  std::vector<std::vector<BlockState>> state_;
  std::vector<ck::Fd> fds_;
  std::vector<char> buf_;
  Stream reader_;
  Stream writer_;
};

// ---------------------------------------------------------------------------
// fleet_mixed
// ---------------------------------------------------------------------------
class FleetMixed : public Workload {
 public:
  static constexpr size_t kBlock = 4096;
  static constexpr size_t kBodies = 8;
  static constexpr size_t kSliceOps = 1000;
  static constexpr uint64_t kScratchNames = 16;

  explicit FleetMixed(uint64_t seed) : seed_(seed) {
    const size_t n = std::clamp<size_t>(std::thread::hardware_concurrency(), 1, 4);
    for (size_t i = 0; i < n; ++i) {
      tenants_.push_back(std::make_unique<Tenant>(seed, i));
    }
  }

  Status Setup(Tracer* tracer) override {
    CNTR_ASSIGN_OR_RETURN(stack_, Stack::Create(StackOptions{
                                      .mounts = tenants_.size(), .pooled = true, .tracer = tracer}));
    ck::Kernel& k = stack_->kernel();
    for (size_t i = 0; i < tenants_.size(); ++i) {
      Tenant& t = *tenants_[i];
      const std::string native = "/data/fleet" + std::to_string(i);
      CNTR_RETURN_IF_ERROR(k.Mkdir(*k.init(), native, 0755));
      for (size_t f = 0; f < t.files.size(); ++f) {
        t.state[f].resize(t.files[f].blocks);
        for (uint64_t b = 0; b < t.files[f].blocks; ++b) {
          const size_t body = MixKey(MixKey(seed_, i), (f << 16) | b) % kBodies;
          t.state[f][b] = BlockState{0, static_cast<uint8_t>(body)};
          CNTR_RETURN_IF_ERROR(WriteNative(k, native + "/" + t.files[f].name,
                                           t.blocks.Prepare(body, f, b, 0), kBlock, b * kBlock,
                                           b == 0));
        }
      }
      clients_.push_back(std::make_unique<Client>(
          &k, k.Fork(*k.init(), "fleet" + std::to_string(i)), tracer));
      Client& c = *clients_.back();
      t.root = stack_->mount_path(i) + native;
      for (const FleetFile& file : t.files) {
        CNTR_ASSIGN_OR_RETURN(ck::Fd fd, c.Open(t.root + "/" + file.name, ck::kORdWr));
        t.fds.push_back(fd);
      }
      // Fill the caches: stat every file, read every block.
      c.RunSlice(Client::kUntraced, [&] {
        for (size_t f = 0; f < t.files.size(); ++f) {
          StatOne(c, t, f);
          for (uint64_t b = 0; b < t.files[f].blocks; ++b) {
            ReadOne(c, t, f, b);
          }
        }
      });
      CNTR_RETURN_IF_ERROR(EndWarmup(c));
    }
    const std::ptrdiff_t parties = static_cast<std::ptrdiff_t>(tenants_.size()) + 1;
    slice_start_ = std::make_unique<std::barrier<>>(parties);
    slice_end_ = std::make_unique<std::barrier<>>(parties);
    for (size_t i = 0; i < tenants_.size(); ++i) {
      threads_.emplace_back([this, i] { ClientLoop(i); });
    }
    return Status();
  }

  // Client threads live as long as the workload; a slice is one pass
  // between two barrier phases, so no thread is created while measuring.
  void RunSlice(size_t mode) override {
    slice_mode_ = mode;
    slice_start_->arrive_and_wait();
    slice_end_->arrive_and_wait();
  }

  ~FleetMixed() override {
    if (slice_start_ != nullptr) {
      stop_ = true;
      slice_start_->arrive_and_wait();
      for (std::thread& th : threads_) {
        th.join();
      }
    }
  }

  std::string Describe() const override {
    std::string out = std::to_string(tenants_.size()) + " mounts on one pool; files per mount:";
    for (const auto& t : tenants_) {
      out += " " + std::to_string(t->files.size());
    }
    return out + "; ops: 40% stat, 30% pread 4K, 27% pwrite 4K, 3% create+close+unlink";
  }

 private:
  struct Tenant {
    Tenant(uint64_t seed, size_t i)
        : files(MakeFleetSet(seed, i)), state(files.size()),
          blocks(MixKey(seed, 0x7100 + i), kBlock, kBodies), rng(MixKey(seed, 0x7200 + i)) {}
    std::vector<FleetFile> files;
    std::vector<std::vector<BlockState>> state;
    StampedBlocks blocks;
    Rng rng;
    std::string root;
    std::vector<ck::Fd> fds;
    char buf[kBlock];
    uint64_t creates = 0;
  };

  void ClientLoop(size_t i) {
    Client& c = *clients_[i];
    Tenant& t = *tenants_[i];
    for (;;) {
      slice_start_->arrive_and_wait();
      if (stop_) {
        return;
      }
      c.RunSlice(slice_mode_, [&] {
        for (size_t op = 0; op < kSliceOps; ++op) {
          OneOp(c, t, i);
        }
      });
      slice_end_->arrive_and_wait();
    }
  }

  static void StatOne(Client& c, Tenant& t, size_t f) {
    auto attr = c.Stat(t.root + "/" + t.files[f].name);
    if (attr.ok() && attr->size != t.files[f].blocks * kBlock) {
      c.Mismatch();
    }
  }

  static void ReadOne(Client& c, Tenant& t, size_t f, uint64_t b) {
    const BlockState& s = t.state[f][b];
    auto n = c.Pread(t.fds[f], t.buf, kBlock, b * kBlock);
    if (n.ok() && !t.blocks.Verify(t.buf, *n, s.body, f, b, s.version)) {
      c.Mismatch();
    }
  }

  // Creates are 3% of ops. Each unlinked file costs its mount a share of a
  // ~5 ms BATCH_FORGET on a pool worker. At 10% that path took most of the
  // wall time and its jitter swamped the per-request transport this
  // workload exists to measure; at 3% it is still about 40%.
  static void OneOp(Client& c, Tenant& t, size_t i) {
    const uint64_t pick = t.rng.Below(100);
    const size_t f = t.rng.Below(t.files.size());
    const uint64_t b = t.rng.Below(t.files[f].blocks);
    if (pick < 40) {
      StatOne(c, t, f);
    } else if (pick < 70) {
      ReadOne(c, t, f, b);
    } else if (pick < 97) {
      BlockState& s = t.state[f][b];
      const BlockState next{s.version + 1, static_cast<uint8_t>(t.rng.Below(kBodies))};
      auto n = c.Pwrite(t.fds[f], t.blocks.Prepare(next.body, f, b, next.version), kBlock,
                        b * kBlock);
      if (n.ok()) {
        if (*n == kBlock) {
          s = next;
        } else {
          c.Mismatch();
        }
      }
    } else {
      // A tool's scratch files: a small rotating set of names, so the run
      // reaches a steady state instead of filling caches with dead names.
      const std::string path = t.root + "/tmp-" + std::to_string(i) + "-" +
                               std::to_string(t.creates++ % kScratchNames);
      auto fd = c.Open(path, ck::kOWrOnly | ck::kOCreat, 0644);
      if (fd.ok()) {
        (void)c.Close(*fd);
        (void)c.Unlink(path);
      }
    }
  }

  const uint64_t seed_;
  std::vector<std::unique_ptr<Tenant>> tenants_;
  // Written by RunSlice/the destructor before the start barrier, read by
  // client threads after it (the barrier orders them).
  size_t slice_mode_ = Client::kUntraced;
  bool stop_ = false;
  std::unique_ptr<std::barrier<>> slice_start_;
  std::unique_ptr<std::barrier<>> slice_end_;
  std::vector<std::thread> threads_;  // last: joined before the rest goes
};

}  // namespace

Workload::~Workload() {
  if (stack_ != nullptr) {
    for (const auto& c : clients_) {
      stack_->kernel().Exit(c->proc());
    }
  }
  clients_.clear();
  stack_.reset();
}

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"tool_start", "data_stream", "fleet_mixed"};
  return names;
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed) {
  if (name == "tool_start") {
    return std::make_unique<ToolStart>(seed);
  }
  if (name == "data_stream") {
    return std::make_unique<DataStream>(seed);
  }
  if (name == "fleet_mixed") {
    return std::make_unique<FleetMixed>(seed);
  }
  return nullptr;
}

}  // namespace perfbench
