// Namespace, mount-surgery, process and procfs tests — the kernel features
// CNTR's attach path depends on.
#include <gtest/gtest.h>

#include "src/kernel/kernel.h"
#include "src/kernel/procfs.h"

namespace cntr::kernel {
namespace {

class NamespaceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    kernel_ = Kernel::Create();
    init_ = kernel_->init();
  }

  void WriteFile(Process& proc, const std::string& path, const std::string& content) {
    auto fd = kernel_->Open(proc, path, kOWrOnly | kOCreat | kOTrunc, 0644);
    ASSERT_TRUE(fd.ok()) << path << ": " << fd.status().ToString();
    ASSERT_TRUE(kernel_->Write(proc, fd.value(), content.data(), content.size()).ok());
    ASSERT_TRUE(kernel_->Close(proc, fd.value()).ok());
  }

  std::string ReadAll(Process& proc, const std::string& path) {
    auto fd = kernel_->Open(proc, path, kORdOnly);
    EXPECT_TRUE(fd.ok()) << path << ": " << fd.status().ToString();
    if (!fd.ok()) {
      return "";
    }
    std::string out;
    char buf[4096];
    while (true) {
      auto n = kernel_->Read(proc, fd.value(), buf, sizeof(buf));
      EXPECT_TRUE(n.ok());
      if (!n.ok() || n.value() == 0) {
        break;
      }
      out.append(buf, n.value());
    }
    (void)kernel_->Close(proc, fd.value());
    return out;
  }

  std::unique_ptr<Kernel> kernel_;
  ProcessPtr init_;
};

TEST_F(NamespaceTest, ForkInheritsEverything) {
  auto child = kernel_->Fork(*init_, "child");
  EXPECT_EQ(child->mnt_ns, init_->mnt_ns);
  EXPECT_EQ(child->pid_ns, init_->pid_ns);
  EXPECT_EQ(child->uts_ns, init_->uts_ns);
  EXPECT_EQ(child->parent_pid, init_->global_pid());
  EXPECT_NE(child->global_pid(), init_->global_pid());
}

TEST_F(NamespaceTest, UnshareMountNsIsolatesMounts) {
  auto child = kernel_->Fork(*init_, "child");
  ASSERT_TRUE(kernel_->Unshare(*child, kCloneNewNs).ok());
  EXPECT_NE(child->mnt_ns, init_->mnt_ns);

  // A mount in the child namespace is invisible to init.
  auto scratch = MakeTmpFs(kernel_->AllocDevId(), &kernel_->clock(), &kernel_->costs());
  ASSERT_TRUE(kernel_->Mkdir(*child, "/tmp/m").ok());
  ASSERT_TRUE(kernel_->MountFs(*child, scratch, "/tmp/m").ok());
  WriteFile(*child, "/tmp/m/inside", "child data");
  EXPECT_EQ(ReadAll(*child, "/tmp/m/inside"), "child data");
  EXPECT_EQ(kernel_->Stat(*init_, "/tmp/m/inside").error(), ENOENT);
}

TEST_F(NamespaceTest, UnsharePidNsGivesFreshPidOne) {
  auto child = kernel_->Fork(*init_, "container-init");
  ASSERT_TRUE(kernel_->Unshare(*child, kCloneNewPid).ok());
  ASSERT_EQ(child->ns_pids.size(), 2u);
  EXPECT_EQ(child->ns_pids[1], 1);  // pid 1 in the new namespace
  auto grandchild = kernel_->Fork(*child, "worker");
  ASSERT_EQ(grandchild->ns_pids.size(), 2u);
  EXPECT_EQ(grandchild->ns_pids[1], 2);
}

TEST_F(NamespaceTest, SetNsJoinsExistingNamespace) {
  auto a = kernel_->Fork(*init_, "a");
  ASSERT_TRUE(kernel_->Unshare(*a, kCloneNewUts).ok());
  a->uts_ns->set_hostname("container-a");

  auto b = kernel_->Fork(*init_, "b");
  EXPECT_NE(b->uts_ns->hostname(), "container-a");
  ASSERT_TRUE(kernel_->SetNsDirect(*b, a->uts_ns).ok());
  EXPECT_EQ(b->uts_ns->hostname(), "container-a");
}

TEST_F(NamespaceTest, SetNsViaProcfsFd) {
  auto a = kernel_->Fork(*init_, "a");
  ASSERT_TRUE(kernel_->Unshare(*a, kCloneNewUts).ok());
  a->uts_ns->set_hostname("target");

  auto b = kernel_->Fork(*init_, "b");
  std::string ns_path = "/proc/" + std::to_string(a->global_pid()) + "/ns/uts";
  auto fd = kernel_->Open(*b, ns_path, kORdOnly);
  ASSERT_TRUE(fd.ok()) << fd.status().ToString();
  ASSERT_TRUE(kernel_->SetNs(*b, fd.value()).ok());
  EXPECT_EQ(b->uts_ns->hostname(), "target");
}

TEST_F(NamespaceTest, BindMountExposesSubtree) {
  ASSERT_TRUE(kernel_->Mkdir(*init_, "/tmp/src").ok());
  WriteFile(*init_, "/tmp/src/file", "bound");
  ASSERT_TRUE(kernel_->Mkdir(*init_, "/tmp/dst").ok());
  ASSERT_TRUE(kernel_->BindMount(*init_, "/tmp/src", "/tmp/dst").ok());
  EXPECT_EQ(ReadAll(*init_, "/tmp/dst/file"), "bound");
  // Writes through the bind hit the same inode.
  WriteFile(*init_, "/tmp/dst/new", "via bind");
  EXPECT_EQ(ReadAll(*init_, "/tmp/src/new"), "via bind");
}

TEST_F(NamespaceTest, FileBindMountOverlaysSingleFile) {
  WriteFile(*init_, "/tmp/real_passwd", "root:x:0:0");
  WriteFile(*init_, "/tmp/shadowed", "original");
  ASSERT_TRUE(kernel_->BindMount(*init_, "/tmp/real_passwd", "/tmp/shadowed").ok());
  EXPECT_EQ(ReadAll(*init_, "/tmp/shadowed"), "root:x:0:0");
  ASSERT_TRUE(kernel_->Umount(*init_, "/tmp/shadowed").ok());
  EXPECT_EQ(ReadAll(*init_, "/tmp/shadowed"), "original");
}

TEST_F(NamespaceTest, MoveMountRelocatesMount) {
  auto scratch = MakeTmpFs(kernel_->AllocDevId(), &kernel_->clock(), &kernel_->costs());
  ASSERT_TRUE(kernel_->Mkdir(*init_, "/tmp/old").ok());
  ASSERT_TRUE(kernel_->Mkdir(*init_, "/tmp/new").ok());
  ASSERT_TRUE(kernel_->MountFs(*init_, scratch, "/tmp/old").ok());
  WriteFile(*init_, "/tmp/old/marker", "moved");
  ASSERT_TRUE(kernel_->MoveMount(*init_, "/tmp/old", "/tmp/new").ok());
  EXPECT_EQ(ReadAll(*init_, "/tmp/new/marker"), "moved");
  EXPECT_EQ(kernel_->Stat(*init_, "/tmp/old/marker").error(), ENOENT);
}

TEST_F(NamespaceTest, ChrootConfinesPathResolution) {
  ASSERT_TRUE(kernel_->Mkdir(*init_, "/tmp/jail").ok());
  ASSERT_TRUE(kernel_->Mkdir(*init_, "/tmp/jail/etc").ok());
  WriteFile(*init_, "/tmp/jail/etc/hostname", "jail");
  WriteFile(*init_, "/etc/hostname", "host");

  auto child = kernel_->Fork(*init_, "jailed");
  ASSERT_TRUE(kernel_->Chroot(*child, "/tmp/jail").ok());
  EXPECT_EQ(ReadAll(*child, "/etc/hostname"), "jail");
  // ".." cannot escape the chroot.
  EXPECT_EQ(ReadAll(*child, "/../../etc/hostname"), "jail");
}

TEST_F(NamespaceTest, ChrootRequiresCapability) {
  auto child = kernel_->Fork(*init_, "unpriv");
  child->creds = Credentials::User(1000, 1000);
  EXPECT_EQ(kernel_->Chroot(*child, "/tmp").error(), EPERM);
}

TEST_F(NamespaceTest, MountpointBusyOnRmdir) {
  auto scratch = MakeTmpFs(kernel_->AllocDevId(), &kernel_->clock(), &kernel_->costs());
  ASSERT_TRUE(kernel_->Mkdir(*init_, "/tmp/mp").ok());
  ASSERT_TRUE(kernel_->MountFs(*init_, scratch, "/tmp/mp").ok());
  EXPECT_EQ(kernel_->Rmdir(*init_, "/tmp/mp").error(), EBUSY);
}

TEST_F(NamespaceTest, DotDotCrossesMountBoundary) {
  auto scratch = MakeTmpFs(kernel_->AllocDevId(), &kernel_->clock(), &kernel_->costs());
  ASSERT_TRUE(kernel_->Mkdir(*init_, "/tmp/mnt").ok());
  ASSERT_TRUE(kernel_->MountFs(*init_, scratch, "/tmp/mnt").ok());
  WriteFile(*init_, "/tmp/sibling", "outside");
  EXPECT_EQ(ReadAll(*init_, "/tmp/mnt/../sibling"), "outside");
}

TEST_F(NamespaceTest, ProcfsShowsProcessStatus) {
  auto child = kernel_->Fork(*init_, "worker");
  child->creds = Credentials::User(1000, 1000);
  std::string status = ReadAll(*init_, "/proc/" + std::to_string(child->global_pid()) + "/status");
  EXPECT_NE(status.find("Name:\tworker"), std::string::npos);
  EXPECT_NE(status.find("Uid:\t1000"), std::string::npos);
  EXPECT_NE(status.find("CapEff:\t0000000000000000"), std::string::npos);
}

TEST_F(NamespaceTest, ProcfsEnvironUsesNulSeparators) {
  auto child = kernel_->Fork(*init_, "envy");
  child->env["PATH"] = "/usr/bin";
  child->env["HOME"] = "/root";
  std::string environ =
      ReadAll(*init_, "/proc/" + std::to_string(child->global_pid()) + "/environ");
  EXPECT_NE(environ.find(std::string("HOME=/root") + '\0'), std::string::npos);
  EXPECT_NE(environ.find(std::string("PATH=/usr/bin") + '\0'), std::string::npos);
}

TEST_F(NamespaceTest, ProcfsNsLinksExposeNamespaceIds) {
  std::string pid = std::to_string(init_->global_pid());
  auto link = kernel_->Readlink(*init_, "/proc/" + pid + "/ns/mnt");
  ASSERT_TRUE(link.ok());
  EXPECT_EQ(link.value(), init_->mnt_ns->ProcLink());
  EXPECT_EQ(link.value().rfind("mnt:[", 0), 0u);
}

TEST_F(NamespaceTest, ProcfsCgroupShowsPath) {
  auto child = kernel_->Fork(*init_, "grouped");
  auto cg = kernel_->cgroup_root()->FindOrCreateChild("docker")->FindOrCreateChild("abc123");
  ASSERT_TRUE(kernel_->JoinCgroup(*child, cg).ok());
  std::string cgroup = ReadAll(*init_, "/proc/" + std::to_string(child->global_pid()) + "/cgroup");
  EXPECT_EQ(cgroup, "0::/docker/abc123\n");
}

TEST_F(NamespaceTest, ProcfsHidesForeignPidNamespaces) {
  auto container = kernel_->Fork(*init_, "cinit");
  ASSERT_TRUE(kernel_->Unshare(*container, kCloneNewPid | kCloneNewNs).ok());

  // Mount a procfs bound to the container's pid namespace.
  auto proc_fs = MakeProcFsForNs(kernel_->AllocDevId(), kernel_.get(), container->pid_ns);
  ASSERT_TRUE(kernel_->Mkdir(*container, "/tmp/cproc").ok());
  ASSERT_TRUE(kernel_->MountFs(*container, proc_fs, "/tmp/cproc").ok());

  // Through the container procfs, init (pid 1 outside) is invisible, and the
  // container init appears as pid 1.
  auto fd = kernel_->Open(*container, "/tmp/cproc", kORdOnly | kODirectory);
  ASSERT_TRUE(fd.ok());
  auto entries = kernel_->Getdents(*container, fd.value());
  ASSERT_TRUE(entries.ok());
  std::vector<std::string> names;
  for (const auto& e : entries.value()) {
    if (e.name != "." && e.name != "..") {
      names.push_back(e.name);
    }
  }
  EXPECT_EQ(names, std::vector<std::string>{"1"});
  std::string status = ReadAll(*container, "/tmp/cproc/1/status");
  EXPECT_NE(status.find("Name:\tcinit"), std::string::npos);
}

TEST_F(NamespaceTest, UserNamespaceIdMapping) {
  auto child = kernel_->Fork(*init_, "mapped");
  ASSERT_TRUE(kernel_->Unshare(*child, kCloneNewUser).ok());
  child->user_ns->SetUidMap({{0, 100000, 65536}});
  child->user_ns->SetGidMap({{0, 100000, 65536}});
  EXPECT_EQ(child->user_ns->MapUidToHost(0), 100000u);
  EXPECT_EQ(child->user_ns->MapUidToHost(1000), 101000u);
  EXPECT_EQ(child->user_ns->MapUidFromHost(100500), 500u);
  EXPECT_EQ(child->user_ns->MapUidToHost(70000), kOverflowUid);

  std::string uid_map = ReadAll(*init_, "/proc/" + std::to_string(child->global_pid()) + "/uid_map");
  EXPECT_EQ(uid_map, "0 100000 65536\n");
}

TEST_F(NamespaceTest, LsmProfileDeniesSubtrees) {
  WriteFile(*init_, "/etc/secret", "x");
  auto child = kernel_->Fork(*init_, "confined");
  child->lsm.name = "docker-default";
  child->lsm.deny_all_prefixes = {"/etc"};
  EXPECT_EQ(kernel_->Open(*child, "/etc/secret", kORdOnly).error(), EACCES);
  EXPECT_TRUE(kernel_->Open(*child, "/tmp", kORdOnly | kODirectory).ok());
}

TEST_F(NamespaceTest, ExitRemovesFromProcessTable) {
  auto child = kernel_->Fork(*init_, "doomed");
  Pid pid = child->global_pid();
  ASSERT_NE(kernel_->procs().Get(pid), nullptr);
  kernel_->Exit(*child);
  EXPECT_EQ(kernel_->procs().Get(pid), nullptr);
}

// procfs holds its processes weakly: a /proc/<pid> directory that outlives
// its process (here as the cwd of another) answers ESRCH.
TEST_F(NamespaceTest, ProcfsEntryOfExitedProcessAnswersEsrch) {
  auto child = kernel_->Fork(*init_, "short-lived");
  std::weak_ptr<Process> weak = child;
  ASSERT_TRUE(kernel_->Chdir(*init_, "/proc/" + std::to_string(child->global_pid())).ok());
  EXPECT_EQ(ReadAll(*init_, "comm"), "short-lived\n");
  kernel_->Exit(*child);
  child.reset();
  ASSERT_TRUE(weak.expired()) << "the cwd's procfs inode must not pin the process";
  EXPECT_EQ(kernel_->Open(*init_, "status", kORdOnly).error(), ESRCH);
  EXPECT_EQ(kernel_->Open(*init_, "ns/mnt", kORdOnly).error(), ESRCH);
}

}  // namespace
}  // namespace cntr::kernel
