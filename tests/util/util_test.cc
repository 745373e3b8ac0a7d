// Unit tests for the util layer: Status/StatusOr, string/path helpers, RNG
// determinism, and the virtual clock.
#include <gtest/gtest.h>

#include <ostream>

#include "src/util/rng.h"
#include "src/util/sim_clock.h"
#include "src/util/status.h"
#include "src/util/strings.h"

namespace cntr {
namespace {

TEST(StatusTest, OkByDefault) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.error(), 0);
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(StatusTest, CarriesErrnoAndMessage) {
  Status st(ENOENT, "no such container");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.error(), ENOENT);
  EXPECT_NE(st.ToString().find("no such container"), std::string::npos);
}

TEST(StatusOrTest, ValueAccess) {
  StatusOr<int> ok(42);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), 42);
  StatusOr<int> err(Status::Error(EIO));
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.error(), EIO);
}

StatusOr<int> Doubled(StatusOr<int> in) {
  CNTR_ASSIGN_OR_RETURN(int v, std::move(in));
  return v * 2;
}

TEST(StatusOrTest, AssignOrReturnPropagates) {
  auto ok = Doubled(21);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), 42);
  auto err = Doubled(Status::Error(EACCES));
  EXPECT_EQ(err.error(), EACCES);
}

TEST(StringsTest, SplitPathDropsEmpties) {
  EXPECT_EQ(SplitPath("/a//b/c/"), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_TRUE(SplitPath("/").empty());
  EXPECT_TRUE(SplitPath("").empty());
}

TEST(StringsTest, BasenameDirname) {
  EXPECT_EQ(Basename("/usr/bin/gdb"), "gdb");
  EXPECT_EQ(Dirname("/usr/bin/gdb"), "/usr/bin");
  EXPECT_EQ(Dirname("/top"), "/");
  EXPECT_EQ(Dirname("plain"), ".");
}

TEST(StringsTest, PathHasPrefix) {
  EXPECT_TRUE(PathHasPrefix("/usr/bin", "/usr"));
  EXPECT_TRUE(PathHasPrefix("/usr", "/usr"));
  EXPECT_FALSE(PathHasPrefix("/usrlocal", "/usr"));
  EXPECT_TRUE(PathHasPrefix("/anything", "/"));
}

struct NormalizeCase {
  const char* input;
  const char* expected;
};

// Prints the case by value. Without this gtest prints the raw pointer bytes,
// which vary with the load address, so the test names ctest discovers would
// change from one build to the next.
void PrintTo(const NormalizeCase& c, std::ostream* os) {
  *os << '"' << c.input << "\" -> \"" << c.expected << '"';
}

class NormalizePathTest : public ::testing::TestWithParam<NormalizeCase> {};

TEST_P(NormalizePathTest, Normalizes) {
  EXPECT_EQ(NormalizePath(GetParam().input), GetParam().expected);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, NormalizePathTest,
    ::testing::Values(NormalizeCase{"/a/b/../c", "/a/c"}, NormalizeCase{"/a/./b", "/a/b"},
                      NormalizeCase{"/../a", "/a"}, NormalizeCase{"a/../../b", "../b"},
                      NormalizeCase{"/a/b/c/../../..", "/"}, NormalizeCase{"", "."},
                      NormalizeCase{"/", "/"}, NormalizeCase{"./a/", "a"},
                      NormalizeCase{"a//b///c", "a/b/c"}, NormalizeCase{"/a/b/./../c/.", "/a/c"}));

TEST(RngTest, DeterministicForSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, BelowStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.Below(17), 17u);
    uint64_t v = rng.Range(5, 9);
    EXPECT_GE(v, 5u);
    EXPECT_LE(v, 9u);
  }
}

TEST(SimClockTest, AdvanceAccumulates) {
  SimClock clock;
  EXPECT_EQ(clock.NowNs(), 0u);
  clock.Advance(1000);
  clock.Advance(500);
  EXPECT_EQ(clock.NowNs(), 1500u);
  SimTimer timer(clock);
  clock.Advance(250);
  EXPECT_EQ(timer.ElapsedNs(), 250u);
}

TEST(CostModelTest, DiskTransferCombinesOpAndBytes) {
  CostModel costs;
  uint64_t one_op = costs.DiskTransferNs(0);
  EXPECT_EQ(one_op, costs.disk_op_ns);
  EXPECT_GT(costs.DiskTransferNs(1 << 20), one_op);
}

TEST(StringsTest, HumanBytes) {
  EXPECT_EQ(HumanBytes(512), "512 B");
  EXPECT_EQ(HumanBytes(2048), "2.0 KB");
  EXPECT_EQ(HumanBytes(3 * 1024 * 1024), "3.0 MB");
}

}  // namespace
}  // namespace cntr
