#include "src/kernel/procfs.h"

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstring>

#include "src/kernel/kernel.h"
#include "src/util/strings.h"

namespace cntr::kernel {

namespace {

class ProcFs;

// Read-only file over a generated string snapshot.
class StringFile : public FileDescription {
 public:
  StringFile(InodePtr inode, std::string content, int flags)
      : FileDescription(std::move(inode), flags), content_(std::move(content)) {}

  StatusOr<size_t> Read(void* buf, size_t count, uint64_t offset) override {
    if (offset >= content_.size()) {
      return size_t{0};
    }
    size_t n = std::min<uint64_t>(count, content_.size() - offset);
    std::memcpy(buf, content_.data() + offset, n);
    return n;
  }

 private:
  std::string content_;
};

// Generic open-file over any procfs inode; directories get Readdir.
class ProcDirFile : public FileDescription {
 public:
  ProcDirFile(InodePtr inode, int flags) : FileDescription(std::move(inode), flags) {}
  StatusOr<std::vector<DirEntry>> Readdir() override { return inode()->Readdir(); }
};

// Base for procfs inodes: default attrs, no mutation.
class ProcInode : public Inode {
 public:
  ProcInode(FileSystem* fs, Ino ino, Mode mode) : Inode(fs, ino), mode_(mode) {}

  StatusOr<InodeAttr> Getattr() override {
    InodeAttr attr;
    attr.ino = ino();
    attr.mode = mode_;
    attr.nlink = 1;
    attr.dev = fs()->dev_id();
    return attr;
  }

  StatusOr<FilePtr> Open(int flags, const Credentials& /*cred*/) override {
    if (WantsWrite(flags)) {
      return Status::Error(EACCES);
    }
    return FilePtr(std::make_shared<ProcDirFile>(shared_from_this(), flags));
  }

 protected:
  Mode mode_;
};

std::string CapHex(const CapSet& caps) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, caps.raw());
  return buf;
}

std::string RenderStatus(const Process& proc, Pid pid_in_ns) {
  std::string out;
  out += "Name:\t" + proc.comm() + "\n";
  out += "Pid:\t" + std::to_string(pid_in_ns) + "\n";
  out += "PPid:\t" + std::to_string(proc.parent_pid) + "\n";
  const Credentials& c = proc.creds;
  out += "Uid:\t" + std::to_string(c.uid) + "\t" + std::to_string(c.euid) + "\t" +
         std::to_string(c.euid) + "\t" + std::to_string(c.fsuid) + "\n";
  out += "Gid:\t" + std::to_string(c.gid) + "\t" + std::to_string(c.egid) + "\t" +
         std::to_string(c.egid) + "\t" + std::to_string(c.fsgid) + "\n";
  out += "Groups:\t";
  for (size_t i = 0; i < c.groups.size(); ++i) {
    out += (i > 0 ? " " : "") + std::to_string(c.groups[i]);
  }
  out += "\n";
  out += "CapInh:\t" + CapHex(c.inheritable) + "\n";
  out += "CapPrm:\t" + CapHex(c.permitted) + "\n";
  out += "CapEff:\t" + CapHex(c.effective) + "\n";
  out += "CapBnd:\t" + CapHex(c.bounding) + "\n";
  return out;
}

std::string RenderIdMap(const std::vector<IdMapRange>& map) {
  if (map.empty()) {
    return "         0          0 4294967295\n";  // identity map
  }
  std::string out;
  for (const auto& r : map) {
    out += std::to_string(r.inside) + " " + std::to_string(r.outside) + " " +
           std::to_string(r.count) + "\n";
  }
  return out;
}

std::string RenderEnviron(const Process& proc) {
  std::string out;
  for (const auto& [k, v] : proc.env) {
    out += k + "=" + v;
    out.push_back('\0');
  }
  return out;
}

std::string RenderMountinfo(const Process& proc) {
  std::string out;
  for (const auto& m : proc.mnt_ns->AllMounts()) {
    out += std::to_string(m->id()) + " " +
           std::to_string(m->parent() != nullptr ? m->parent()->id() : 0) + " 0:" +
           std::to_string(m->fs()->dev_id()) + " / ? " + (m->read_only() ? "ro" : "rw") +
           " - " + m->fs()->Type() + " none rw\n";
  }
  return out;
}

// --- the filesystem ---

class ProcFs : public FileSystem, public std::enable_shared_from_this<ProcFs> {
 public:
  ProcFs(Dev dev_id, Kernel* kernel, std::shared_ptr<PidNamespace> pid_ns)
      : FileSystem(dev_id), kernel_(kernel), pid_ns_(std::move(pid_ns)) {}

  void Init();  // creates the root inode (needs shared_from_this)

  InodePtr root() override { return root_; }
  std::string Type() const override { return "proc"; }
  StatusOr<StatFs> Statfs() override {
    StatFs s;
    s.fs_type = "proc";
    return s;
  }
  Status Rename(const InodePtr&, const std::string&, const InodePtr&, const std::string&,
                uint32_t) override {
    return Status::Error(EPERM);
  }
  // procfs entries are never dcache-cached: processes come and go.
  uint64_t DentryTtlNs() const override { return 0; }

  Kernel* kernel() const { return kernel_; }
  const std::shared_ptr<PidNamespace>& pid_ns() const { return pid_ns_; }
  Ino AllocIno() { return next_ino_.fetch_add(1); }

 private:
  Kernel* kernel_;
  std::shared_ptr<PidNamespace> pid_ns_;
  InodePtr root_;
  std::atomic<Ino> next_ino_{2};
};

// Leaf file rendering one document about one process.
class ProcTextInode : public ProcInode {
 public:
  using Renderer = std::function<std::string(const Process&, Pid)>;

  ProcTextInode(ProcFs* fs, std::weak_ptr<Process> proc, Pid pid_in_ns, Renderer renderer)
      : ProcInode(fs, fs->AllocIno(), kIfReg | 0444),
        proc_(std::move(proc)),
        pid_in_ns_(pid_in_ns),
        renderer_(std::move(renderer)) {}

  StatusOr<FilePtr> Open(int flags, const Credentials& /*cred*/) override {
    if (WantsWrite(flags)) {
      return Status::Error(EACCES);
    }
    ProcessPtr proc = proc_.lock();
    if (proc == nullptr) {
      return Status::Error(ESRCH);
    }
    return FilePtr(std::make_shared<StringFile>(shared_from_this(), renderer_(*proc, pid_in_ns_),
                                                flags));
  }

 private:
  // Weak, like every procfs reference to its process: an fd a process
  // keeps open on its own /proc entry must not keep that process alive.
  std::weak_ptr<Process> proc_;
  Pid pid_in_ns_;
  Renderer renderer_;
};

// /proc/<pid>/ns/<type>: readable as "mnt:[...]" and openable for setns().
class ProcNsInode : public ProcInode {
 public:
  ProcNsInode(ProcFs* fs, std::shared_ptr<NamespaceBase> ns)
      : ProcInode(fs, fs->AllocIno(), kIfReg | 0444), ns_(std::move(ns)) {}

  StatusOr<FilePtr> Open(int flags, const Credentials& /*cred*/) override {
    return FilePtr(std::make_shared<NsFile>(ns_, flags));
  }

  StatusOr<std::string> Readlink() override { return ns_->ProcLink(); }

 private:
  std::shared_ptr<NamespaceBase> ns_;
};

// /proc/<pid>/ns/
class ProcNsDirInode : public ProcInode {
 public:
  ProcNsDirInode(ProcFs* fs, std::weak_ptr<Process> proc, InodePtr parent)
      : ProcInode(fs, fs->AllocIno(), kIfDir | 0555), proc_(std::move(proc)),
        parent_(std::move(parent)) {}

  StatusOr<InodePtr> Lookup(const std::string& name) override {
    auto* pfs = static_cast<ProcFs*>(fs());
    ProcessPtr proc = proc_.lock();
    if (proc == nullptr) {
      return Status::Error(ESRCH);
    }
    std::shared_ptr<NamespaceBase> ns;
    if (name == "mnt") {
      ns = proc->mnt_ns;
    } else if (name == "pid") {
      ns = proc->pid_ns;
    } else if (name == "user") {
      ns = proc->user_ns;
    } else if (name == "uts") {
      ns = proc->uts_ns;
    } else if (name == "ipc") {
      ns = proc->ipc_ns;
    } else if (name == "net") {
      ns = proc->net_ns;
    } else if (name == "cgroup") {
      ns = proc->cgroup_ns;
    } else {
      return Status::Error(ENOENT);
    }
    if (ns == nullptr) {
      return Status::Error(ENOENT);
    }
    return InodePtr(std::make_shared<ProcNsInode>(pfs, std::move(ns)));
  }

  StatusOr<std::vector<DirEntry>> Readdir() override {
    std::vector<DirEntry> out;
    out.push_back({".", ino(), DType::kDir});
    out.push_back({"..", 0, DType::kDir});
    for (const char* n : {"cgroup", "ipc", "mnt", "net", "pid", "user", "uts"}) {
      out.push_back({n, 0, DType::kReg});
    }
    return out;
  }

  StatusOr<InodePtr> Parent() override { return parent_; }

 private:
  std::weak_ptr<Process> proc_;
  InodePtr parent_;
};

// /proc/<pid>/
class ProcPidDirInode : public ProcInode {
 public:
  ProcPidDirInode(ProcFs* fs, std::weak_ptr<Process> proc, Pid pid_in_ns, InodePtr parent)
      : ProcInode(fs, fs->AllocIno(), kIfDir | 0555), proc_(std::move(proc)),
        pid_in_ns_(pid_in_ns), parent_(std::move(parent)) {}

  StatusOr<InodePtr> Lookup(const std::string& name) override {
    auto* pfs = static_cast<ProcFs*>(fs());
    if (proc_.expired()) {
      return Status::Error(ESRCH);
    }
    if (name == "ns") {
      return InodePtr(std::make_shared<ProcNsDirInode>(pfs, proc_, shared_from_this()));
    }
    ProcTextInode::Renderer renderer;
    if (name == "status") {
      renderer = [](const Process& p, Pid pid) { return RenderStatus(p, pid); };
    } else if (name == "environ") {
      renderer = [](const Process& p, Pid) { return RenderEnviron(p); };
    } else if (name == "cmdline") {
      renderer = [](const Process& p, Pid) {
        std::string s = p.comm();
        s.push_back('\0');
        return s;
      };
    } else if (name == "comm") {
      renderer = [](const Process& p, Pid) { return p.comm() + "\n"; };
    } else if (name == "cgroup") {
      renderer = [](const Process& p, Pid) {
        return "0::" + (p.cgroup != nullptr ? p.cgroup->Path() : "/") + "\n";
      };
    } else if (name == "mountinfo") {
      renderer = [](const Process& p, Pid) { return RenderMountinfo(p); };
    } else if (name == "uid_map") {
      renderer = [](const Process& p, Pid) { return RenderIdMap(p.user_ns->uid_map()); };
    } else if (name == "gid_map") {
      renderer = [](const Process& p, Pid) { return RenderIdMap(p.user_ns->gid_map()); };
    } else if (name == "limits") {
      renderer = [](const Process& p, Pid) {
        std::string fsize = p.rlimits.fsize == UINT64_MAX ? "unlimited"
                                                          : std::to_string(p.rlimits.fsize);
        return "Limit                     Soft Limit\nMax file size             " + fsize +
               "\nMax open files            " + std::to_string(p.rlimits.nofile) + "\n";
      };
    } else if (name == "attr_current") {
      // Stand-in for /proc/<pid>/attr/current (LSM label).
      renderer = [](const Process& p, Pid) { return p.lsm.name + "\n"; };
    } else {
      return Status::Error(ENOENT);
    }
    return InodePtr(std::make_shared<ProcTextInode>(pfs, proc_, pid_in_ns_, std::move(renderer)));
  }

  StatusOr<std::vector<DirEntry>> Readdir() override {
    std::vector<DirEntry> out;
    out.push_back({".", ino(), DType::kDir});
    out.push_back({"..", 0, DType::kDir});
    for (const char* n : {"attr_current", "cgroup", "cmdline", "comm", "environ", "gid_map",
                          "limits", "mountinfo", "status", "uid_map"}) {
      out.push_back({n, 0, DType::kReg});
    }
    out.push_back({"ns", 0, DType::kDir});
    return out;
  }

  StatusOr<InodePtr> Parent() override { return parent_; }

 private:
  std::weak_ptr<Process> proc_;
  Pid pid_in_ns_;
  InodePtr parent_;
};

// Leaf file rendering one kernel-wide document (no process attached).
class ProcKernelTextInode : public ProcInode {
 public:
  using Renderer = std::function<std::string(Kernel*)>;

  ProcKernelTextInode(ProcFs* fs, Renderer renderer)
      : ProcInode(fs, fs->AllocIno(), kIfReg | 0444), renderer_(std::move(renderer)) {}

  StatusOr<FilePtr> Open(int flags, const Credentials& /*cred*/) override {
    if (WantsWrite(flags)) {
      return Status::Error(EACCES);
    }
    auto* pfs = static_cast<ProcFs*>(fs());
    return FilePtr(
        std::make_shared<StringFile>(shared_from_this(), renderer_(pfs->kernel()), flags));
  }

 private:
  Renderer renderer_;
};

// /proc/cntr/ — the simulated kernel's own observability surface.
class ProcCntrDirInode : public ProcInode {
 public:
  ProcCntrDirInode(ProcFs* fs, InodePtr parent)
      : ProcInode(fs, fs->AllocIno(), kIfDir | 0555), parent_(std::move(parent)) {}

  StatusOr<InodePtr> Lookup(const std::string& name) override {
    auto* pfs = static_cast<ProcFs*>(fs());
    if (name == "metrics") {
      // Prometheus text exposition of the kernel-wide registry: every
      // counter/gauge/histogram the subsystems registered, sampled at open.
      return InodePtr(std::make_shared<ProcKernelTextInode>(
          pfs, [](Kernel* k) { return k->metrics().RenderPrometheus(); }));
    }
    return Status::Error(ENOENT);
  }

  StatusOr<std::vector<DirEntry>> Readdir() override {
    std::vector<DirEntry> out;
    out.push_back({".", ino(), DType::kDir});
    out.push_back({"..", 0, DType::kDir});
    out.push_back({"metrics", 0, DType::kReg});
    return out;
  }

  StatusOr<InodePtr> Parent() override { return parent_; }

 private:
  InodePtr parent_;
};

// /proc/
class ProcRootInode : public ProcInode {
 public:
  explicit ProcRootInode(ProcFs* fs) : ProcInode(fs, 1, kIfDir | 0555) {}

  // The kernel-wide observability surface (/proc/cntr) belongs to the host
  // view only: a procfs bound to a container's pid namespace shows that
  // container its own process world, not host-global metrics.
  static bool HostView(ProcFs* pfs) {
    const ProcessPtr& init = pfs->kernel()->init();
    return init != nullptr && pfs->pid_ns() == init->pid_ns;
  }

  StatusOr<InodePtr> Lookup(const std::string& name) override {
    auto* pfs = static_cast<ProcFs*>(fs());
    if (name == "cntr" && HostView(pfs)) {
      return InodePtr(std::make_shared<ProcCntrDirInode>(pfs, shared_from_this()));
    }
    Pid pid = 0;
    for (char c : name) {
      if (c < '0' || c > '9') {
        return Status::Error(ENOENT);
      }
      pid = pid * 10 + (c - '0');
    }
    // Find the process with this pid in the procfs's pid namespace.
    for (const auto& proc : pfs->kernel()->procs().All()) {
      Pid in_ns = proc->PidInNs(*pfs->pid_ns());
      if (in_ns == pid && in_ns != 0) {
        return InodePtr(
            std::make_shared<ProcPidDirInode>(pfs, proc, in_ns, shared_from_this()));
      }
    }
    return Status::Error(ENOENT);
  }

  StatusOr<std::vector<DirEntry>> Readdir() override {
    auto* pfs = static_cast<ProcFs*>(fs());
    std::vector<DirEntry> out;
    out.push_back({".", ino(), DType::kDir});
    out.push_back({"..", 0, DType::kDir});
    if (HostView(pfs)) {
      out.push_back({"cntr", 0, DType::kDir});
    }
    std::vector<Pid> pids;
    for (const auto& proc : pfs->kernel()->procs().All()) {
      Pid in_ns = proc->PidInNs(*pfs->pid_ns());
      if (in_ns != 0) {
        pids.push_back(in_ns);
      }
    }
    std::sort(pids.begin(), pids.end());
    for (Pid pid : pids) {
      out.push_back({std::to_string(pid), 0, DType::kDir});
    }
    return out;
  }

  StatusOr<InodePtr> Parent() override { return shared_from_this(); }
};

void ProcFs::Init() { root_ = std::make_shared<ProcRootInode>(this); }

}  // namespace

StatusOr<size_t> NsFile::Read(void* buf, size_t count, uint64_t offset) {
  std::string link = ns_->ProcLink();
  if (offset >= link.size()) {
    return size_t{0};
  }
  size_t n = std::min<uint64_t>(count, link.size() - offset);
  std::memcpy(buf, link.data() + offset, n);
  return n;
}

std::shared_ptr<FileSystem> MakeProcFs(Dev dev_id, Kernel* kernel) {
  return MakeProcFsForNs(dev_id, kernel, nullptr);
}

std::shared_ptr<FileSystem> MakeProcFsForNs(Dev dev_id, Kernel* kernel,
                                            std::shared_ptr<PidNamespace> pid_ns) {
  if (pid_ns == nullptr && kernel->init() != nullptr) {
    pid_ns = kernel->init()->pid_ns;
  }
  auto fs = std::make_shared<ProcFs>(dev_id, kernel, std::move(pid_ns));
  fs->Init();
  return fs;
}

}  // namespace cntr::kernel
