// Unit tests for the container substrate: images, the registry's layer
// dedup and bandwidth model, the runtime's isolation, and the four engine
// adapters' naming/resolution conventions.
#include <gtest/gtest.h>

#include "src/container/engine.h"
#include "src/util/strings.h"

namespace cntr::container {
namespace {

Image TestImage(const std::string& name) {
  Image image(name, "latest");
  Layer layer;
  layer.id = name + "-app";
  layer.files.push_back({"/usr/bin/app", 4 << 20, 0755, FileClass::kAppBinary, ""});
  layer.files.push_back({"/etc/app.conf", 0, 0644, FileClass::kConfig, "k=v\n"});
  image.AddLayer(std::move(layer));
  image.entrypoint() = "/usr/bin/app";
  return image;
}

TEST(ImageTest, FlattenShadowsLowerLayers) {
  Image image("test", "latest");
  Layer base;
  base.id = "base";
  base.files.push_back({"/etc/conf", 100, 0644, FileClass::kConfig, ""});
  base.files.push_back({"/bin/tool", 1000, 0755, FileClass::kCoreutils, ""});
  Layer upper;
  upper.id = "upper";
  upper.files.push_back({"/etc/conf", 200, 0644, FileClass::kConfig, ""});
  image.AddLayer(std::move(base));
  image.AddLayer(std::move(upper));
  auto files = image.Flatten();
  ASSERT_EQ(files.size(), 2u);
  for (const auto& f : files) {
    if (f.path == "/etc/conf") {
      EXPECT_EQ(f.size, 200u) << "upper layer must shadow";
    }
  }
  EXPECT_EQ(image.TotalBytes(), 1200u);
}

TEST(ImageTest, FatToolsImageShipsDebuggers) {
  Image fat = MakeFatToolsImage();
  EXPECT_GT(fat.BytesOfClass(FileClass::kDebugTool), 10u << 20);
  bool has_gdb = false;
  for (const auto& f : fat.Flatten()) {
    if (f.path == "/usr/bin/gdb") {
      has_gdb = true;
    }
  }
  EXPECT_TRUE(has_gdb);
}

TEST(RegistryTest, PullChargesTransferTime) {
  SimClock clock;
  Registry registry(&clock, /*bandwidth=*/100 << 20);
  registry.Push(TestImage("acme/app"));
  uint64_t before = clock.NowNs();
  auto image = registry.Pull("acme/app:latest", "node-1");
  ASSERT_TRUE(image.ok());
  uint64_t elapsed = clock.NowNs() - before;
  // 4MB at 100MB/s ≈ 40ms of virtual time.
  EXPECT_GT(elapsed, 30'000'000u);
  EXPECT_LT(elapsed, 60'000'000u);
}

TEST(RegistryTest, SharedLayersAreNotRetransferred) {
  SimClock clock;
  Registry registry(&clock);
  Image a("acme/a", "latest");
  Image b("acme/b", "latest");
  Layer shared_base = MakeBaseDistroLayer("debian");
  a.AddLayer(shared_base);
  b.AddLayer(shared_base);
  registry.Push(a);
  registry.Push(b);
  ASSERT_TRUE(registry.Pull("acme/a:latest", "node").ok());
  uint64_t after_first = registry.bytes_transferred();
  ASSERT_TRUE(registry.Pull("acme/b:latest", "node").ok());
  EXPECT_EQ(registry.bytes_transferred(), after_first)
      << "the shared base layer is already on the node";
}

TEST(RegistryTest, MissingImageFailsEnoent) {
  SimClock clock;
  Registry registry(&clock);
  EXPECT_EQ(registry.Pull("ghost:latest", "node").error(), ENOENT);
}

class EngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    kernel_ = kernel::Kernel::Create();
    runtime_ = std::make_unique<ContainerRuntime>(kernel_.get());
    registry_ = std::make_unique<Registry>(&kernel_->clock());
  }

  std::unique_ptr<kernel::Kernel> kernel_;
  std::unique_ptr<ContainerRuntime> runtime_;
  std::unique_ptr<Registry> registry_;
};

TEST_F(EngineTest, RuntimeIsolatesNamespacesAndAppliesSpec) {
  DockerEngine docker(runtime_.get(), registry_.get());
  auto c = docker.Run("svc", TestImage("acme/svc"));
  ASSERT_TRUE(c.ok()) << c.status().ToString();
  auto init = kernel_->init();
  auto proc = c.value()->init_proc();
  EXPECT_NE(proc->mnt_ns, init->mnt_ns);
  EXPECT_NE(proc->pid_ns, init->pid_ns);
  EXPECT_NE(proc->net_ns, init->net_ns);
  EXPECT_EQ(proc->ns_pids.back(), 1);  // pid 1 inside
  EXPECT_FALSE(proc->creds.HasCap(kernel::Capability::kSysAdmin));
  EXPECT_TRUE(proc->creds.HasCap(kernel::Capability::kChown));
  EXPECT_EQ(proc->lsm.name, "docker-default");
  // The container sees its own files at /, not the host's.
  auto attr = kernel_->Stat(*proc, "/usr/bin/app");
  ASSERT_TRUE(attr.ok());
  EXPECT_EQ(kernel_->Stat(*proc, "/containers").error(), ENOENT);
  // And its procfs shows only itself.
  auto status = kernel_->Open(*proc, "/proc/1/status", kernel::kORdOnly);
  EXPECT_TRUE(status.ok());
}

// An fd a container process keeps open on its own /proc entry must not keep
// the process alive: the open file holds its procfs inode, and that inode
// only refers to the process weakly, so tearing the kernel down frees it.
TEST_F(EngineTest, OpenProcFileDoesNotOutliveItsKernel) {
  std::weak_ptr<kernel::Process> weak;
  {
    DockerEngine docker(runtime_.get(), registry_.get());
    auto c = docker.Run("svc", TestImage("acme/svc"));
    ASSERT_TRUE(c.ok()) << c.status().ToString();
    auto proc = c.value()->init_proc();
    weak = proc;
    auto status = kernel_->Open(*proc, "/proc/1/status", kernel::kORdOnly);
    ASSERT_TRUE(status.ok());  // never closed
  }
  registry_.reset();
  runtime_.reset();
  kernel_.reset();
  EXPECT_TRUE(weak.expired());
}

TEST_F(EngineTest, DockerUses64HexIdsAndPrefixResolution) {
  DockerEngine docker(runtime_.get(), registry_.get());
  auto c = docker.Run("db", TestImage("acme/db"));
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(c.value()->id().size(), 64u);
  EXPECT_EQ(c.value()->id().find_first_not_of("0123456789abcdef"), std::string::npos);
  // Name, full id, and unambiguous prefix all resolve.
  EXPECT_TRUE(docker.ResolveNameToPid("db").ok());
  EXPECT_TRUE(docker.ResolveNameToPid(c.value()->id()).ok());
  EXPECT_TRUE(docker.ResolveNameToPid(c.value()->id().substr(0, 12)).ok());
  EXPECT_EQ(docker.ResolveNameToPid("nope").error(), ENOENT);
  EXPECT_EQ(c.value()->cgroup()->Path(), "/docker/" + c.value()->id());
}

TEST_F(EngineTest, LxcUsesPlainNamesOnly) {
  LxcEngine lxc(runtime_.get(), registry_.get());
  auto c = lxc.Run("web", TestImage("acme/web"));
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(c.value()->id(), "web");
  EXPECT_TRUE(lxc.ResolveNameToPid("web").ok());
  EXPECT_EQ(lxc.ResolveNameToPid("we").error(), ENOENT) << "lxc does not prefix-match";
  EXPECT_NE(c.value()->cgroup()->Path().find("lxc.payload.web"), std::string::npos);
}

TEST_F(EngineTest, RktUsesUuidsWithPrefixResolution) {
  RktEngine rkt(runtime_.get(), registry_.get());
  auto c = rkt.Run("pod", TestImage("acme/pod"));
  ASSERT_TRUE(c.ok());
  // 8-4-4-4-12 uuid shape.
  EXPECT_EQ(c.value()->id().size(), 36u);
  EXPECT_EQ(c.value()->id()[8], '-');
  EXPECT_EQ(c.value()->id()[13], '-');
  EXPECT_TRUE(rkt.ResolveNameToPid(c.value()->id().substr(0, 8)).ok());
  EXPECT_NE(c.value()->cgroup()->Path().find("machine.slice"), std::string::npos);
}

TEST_F(EngineTest, NspawnUsesMachineNames) {
  NspawnEngine nspawn(runtime_.get(), registry_.get());
  auto c = nspawn.Run("vm1", TestImage("acme/vm"));
  ASSERT_TRUE(c.ok());
  EXPECT_TRUE(nspawn.ResolveNameToPid("vm1").ok());
  EXPECT_NE(c.value()->cgroup()->Path().find("systemd-nspawn@vm1"), std::string::npos);
}

TEST_F(EngineTest, StoppedContainerNoLongerResolves) {
  DockerEngine docker(runtime_.get(), registry_.get());
  auto c = docker.Run("ephemeral", TestImage("acme/e"));
  ASSERT_TRUE(c.ok());
  ASSERT_TRUE(docker.Stop("ephemeral").ok());
  EXPECT_FALSE(docker.ResolveNameToPid("ephemeral").ok());
}

TEST_F(EngineTest, DuplicateNameRejected) {
  DockerEngine docker(runtime_.get(), registry_.get());
  ASSERT_TRUE(docker.Run("dup", TestImage("acme/a")).ok());
  EXPECT_EQ(docker.Run("dup", TestImage("acme/b")).error(), EEXIST);
}

TEST_F(EngineTest, RunFromRegistryPullsImage) {
  DockerEngine docker(runtime_.get(), registry_.get());
  registry_->Push(TestImage("acme/pulled"));
  auto c = docker.RunFromRegistry("svc", "acme/pulled:latest");
  ASSERT_TRUE(c.ok()) << c.status().ToString();
  EXPECT_GT(registry_->bytes_transferred(), 0u);
}

TEST_F(EngineTest, UserNamespaceMappingApplied) {
  DockerEngine docker(runtime_.get(), registry_.get());
  ContainerSpec spec;
  spec.uid_map = {{0, 100000, 65536}};
  auto c = docker.Run("mapped", TestImage("acme/m"), spec);
  ASSERT_TRUE(c.ok());
  EXPECT_FALSE(c.value()->init_proc()->user_ns->IsInitial());
  EXPECT_EQ(c.value()->init_proc()->user_ns->MapUidToHost(0), 100000u);
}

}  // namespace
}  // namespace cntr::container
