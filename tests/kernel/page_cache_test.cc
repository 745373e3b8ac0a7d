// Unit tests for the shared page-cache pool: LRU eviction, dirty pinning,
// per-owner accounting and the per-owner page index, and extent coalescing
// — the machinery behind the paper's caching results.
#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <map>
#include <utility>
#include <vector>

#include "src/kernel/page_cache.h"
#include "src/splice/page_ref.h"
#include "src/util/rng.h"

namespace cntr::kernel {
namespace {

class PageCacheTest : public ::testing::Test {
 protected:
  SimClock clock_;
  CostModel costs_;
};

TEST_F(PageCacheTest, StoreAndReadBack) {
  PageCachePool pool(&clock_, &costs_, 1 << 20);
  char page[kPageSize];
  std::memset(page, 'x', sizeof(page));
  pool.StorePage(this, 0, page, false);
  char out[kPageSize] = {};
  ASSERT_TRUE(pool.ReadPage(this, 0, out));
  EXPECT_EQ(out[100], 'x');
  EXPECT_FALSE(pool.ReadPage(this, 1, out));
}

TEST_F(PageCacheTest, OwnersAreIsolated) {
  PageCachePool pool(&clock_, &costs_, 1 << 20);
  char page[kPageSize] = {};
  int owner_a = 0;
  int owner_b = 0;
  pool.StorePage(&owner_a, 0, page, false);
  char out[kPageSize];
  EXPECT_TRUE(pool.ReadPage(&owner_a, 0, out));
  EXPECT_FALSE(pool.ReadPage(&owner_b, 0, out));
}

TEST_F(PageCacheTest, CapacityEvictsCleanLru) {
  PageCachePool pool(&clock_, &costs_, 4 * kPageSize);
  char page[kPageSize] = {};
  for (uint64_t i = 0; i < 8; ++i) {
    pool.StorePage(this, i, page, false);
  }
  EXPECT_LE(pool.ResidentBytes(), 4 * kPageSize);
  char out[kPageSize];
  // The most recent pages survive; the oldest were evicted.
  EXPECT_TRUE(pool.ReadPage(this, 7, out));
  EXPECT_FALSE(pool.ReadPage(this, 0, out));
  EXPECT_GT(pool.stats().evictions, 0u);
}

TEST_F(PageCacheTest, DirtyPagesArePinned) {
  PageCachePool pool(&clock_, &costs_, 4 * kPageSize);
  char page[kPageSize] = {};
  for (uint64_t i = 0; i < 3; ++i) {
    pool.StorePage(this, i, page, /*dirty=*/true);
  }
  for (uint64_t i = 3; i < 10; ++i) {
    pool.StorePage(this, i, page, /*dirty=*/false);
  }
  char out[kPageSize];
  // All dirty pages must still be resident despite the capacity pressure.
  for (uint64_t i = 0; i < 3; ++i) {
    EXPECT_TRUE(pool.ReadPage(this, i, out)) << i;
  }
  EXPECT_EQ(pool.DirtyBytes(this), 3 * kPageSize);
}

TEST_F(PageCacheTest, MarkCleanAllowsEviction) {
  PageCachePool pool(&clock_, &costs_, 2 * kPageSize);
  char page[kPageSize] = {};
  pool.StorePage(this, 0, page, true);
  EXPECT_EQ(pool.TotalDirtyBytes(), kPageSize);
  pool.MarkClean(this, 0);
  EXPECT_EQ(pool.TotalDirtyBytes(), 0u);
  pool.StorePage(this, 1, page, false);
  pool.StorePage(this, 2, page, false);
  char out[kPageSize];
  EXPECT_FALSE(pool.ReadPage(this, 0, out));  // evicted after cleaning
}

TEST_F(PageCacheTest, UpdatePageReportsDirtyTransition) {
  PageCachePool pool(&clock_, &costs_, 1 << 20);
  char page[kPageSize] = {};
  EXPECT_EQ(pool.UpdatePage(this, 0, 0, 4, "abcd", true),
            PageCachePool::UpdateResult::kNotResident);
  pool.StorePage(this, 0, page, false);
  EXPECT_EQ(pool.UpdatePage(this, 0, 0, 4, "abcd", true),
            PageCachePool::UpdateResult::kNewlyDirty);
  EXPECT_EQ(pool.UpdatePage(this, 0, 4, 4, "efgh", true),
            PageCachePool::UpdateResult::kUpdated);
  char out[kPageSize];
  ASSERT_TRUE(pool.ReadPage(this, 0, out));
  EXPECT_EQ(std::string(out, 8), "abcdefgh");
}

TEST_F(PageCacheTest, TruncateDropsTailAndZeroesBoundary) {
  PageCachePool pool(&clock_, &costs_, 1 << 20);
  char page[kPageSize];
  std::memset(page, 'z', sizeof(page));
  pool.StorePage(this, 0, page, true);
  pool.StorePage(this, 1, page, true);
  pool.TruncatePages(this, kPageSize / 2);
  char out[kPageSize];
  EXPECT_FALSE(pool.PeekPage(this, 1, out));  // dropped
  ASSERT_TRUE(pool.PeekPage(this, 0, out));
  EXPECT_EQ(out[kPageSize / 2 - 1], 'z');
  EXPECT_EQ(out[kPageSize / 2], '\0');  // zeroed past the new size
}

TEST_F(PageCacheTest, DirtyPagesSortedForWriteback) {
  PageCachePool pool(&clock_, &costs_, 1 << 20);
  char page[kPageSize] = {};
  for (uint64_t idx : {7u, 2u, 9u, 3u}) {
    pool.StorePage(this, idx, page, true);
  }
  auto dirty = pool.DirtyPages(this);
  EXPECT_EQ(dirty, (std::vector<uint64_t>{2, 3, 7, 9}));
}

TEST_F(PageCacheTest, DropAllCleanKeepsDirty) {
  PageCachePool pool(&clock_, &costs_, 1 << 20);
  char page[kPageSize] = {};
  pool.StorePage(this, 0, page, true);
  pool.StorePage(this, 1, page, false);
  pool.DropAllClean();
  char out[kPageSize];
  EXPECT_TRUE(pool.PeekPage(this, 0, out));
  EXPECT_FALSE(pool.PeekPage(this, 1, out));
}

TEST(CountExtentsTest, CoalescesRuns) {
  EXPECT_EQ(CountExtents({}), 0u);
  EXPECT_EQ(CountExtents({5}), 1u);
  EXPECT_EQ(CountExtents({1, 2, 3}), 1u);
  EXPECT_EQ(CountExtents({1, 2, 4, 5, 9}), 3u);
}

// Property sweep: after any interleaving of stores and updates, a read
// always returns the most recent content.
class PageCachePropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PageCachePropertyTest, LastWriteWins) {
  SimClock clock;
  CostModel costs;
  PageCachePool pool(&clock, &costs, 1 << 22);
  Rng rng(GetParam());
  // Shadow model: expected content per page.
  std::map<uint64_t, std::array<char, kPageSize>> shadow;
  int owner = 0;
  for (int step = 0; step < 500; ++step) {
    uint64_t idx = rng.Below(16);
    char fill = static_cast<char>('a' + rng.Below(26));
    if (rng.Chance(1, 2) || shadow.count(idx) == 0) {
      std::array<char, kPageSize> page;
      page.fill(fill);
      pool.StorePage(&owner, idx, page.data(), rng.Chance(1, 3));
      shadow[idx] = page;
    } else {
      uint32_t off = static_cast<uint32_t>(rng.Below(kPageSize - 16));
      char patch[16];
      std::memset(patch, fill, sizeof(patch));
      if (pool.UpdatePage(&owner, idx, off, 16, patch, true) !=
          PageCachePool::UpdateResult::kNotResident) {
        std::memcpy(shadow[idx].data() + off, patch, 16);
      }
    }
  }
  for (const auto& [idx, expected] : shadow) {
    char out[kPageSize];
    if (pool.PeekPage(&owner, idx, out)) {
      EXPECT_EQ(std::memcmp(out, expected.data(), kPageSize), 0) << "page " << idx;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PageCachePropertyTest, ::testing::Values(1, 2, 3, 4, 5));

// Per-owner index sweep: many owners share a pool small enough to evict,
// under a random mix of every insert and removal path. Dirty pages are
// pinned, so the dirty model is exact; clean residency is read back with
// HasPage. Every DropAll must remove exactly its owner's pages and leave
// the pool's byte totals exact.
class PageCacheOwnerIndexTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PageCacheOwnerIndexTest, DropAllRemovesExactlyTheOwnersPages) {
  SimClock clock;
  CostModel costs;
  PageCachePool pool(&clock, &costs, 256 * kPageSize);
  ASSERT_GT(pool.num_shards(), 1u);
  Rng rng(GetParam());
  constexpr int kOwners = 16;
  constexpr uint64_t kIdx = 128;
  std::array<char, kOwners> owners{};
  using Key = std::pair<int, uint64_t>;
  std::map<Key, char> fill;   // content of every page that may be resident
  std::map<Key, bool> dirty;  // exact: dirty pages are never evicted

  auto dirty_bytes_of = [&](int o) {
    uint64_t n = 0;
    for (const auto& [key, d] : dirty) {
      n += (key.first == o && d) ? kPageSize : 0;
    }
    return n;
  };
  auto total_dirty = [&] {
    uint64_t n = 0;
    for (const auto& [key, d] : dirty) {
      n += d ? kPageSize : 0;
    }
    return n;
  };
  auto resident = [&](int o) {
    std::vector<uint64_t> out;
    for (const auto& [key, _] : fill) {
      if (key.first == o && pool.HasPage(&owners[o], key.second)) {
        out.push_back(key.second);
      }
    }
    return out;
  };
  auto check_totals = [&] {
    uint64_t pages = 0;
    for (int o = 0; o < kOwners; ++o) {
      pages += resident(o).size();
      std::vector<uint64_t> want;
      for (const auto& [key, d] : dirty) {
        if (key.first == o && d) {
          want.push_back(key.second);
        }
      }
      ASSERT_EQ(pool.DirtyPages(&owners[o]), want) << "owner " << o;
      ASSERT_EQ(pool.DirtyBytes(&owners[o]), want.size() * kPageSize) << "owner " << o;
    }
    // Every resident page belongs to a tracked key: no orphan survives.
    ASSERT_EQ(pool.ResidentBytes(), pages * kPageSize);
    ASSERT_EQ(pool.TotalDirtyBytes(), total_dirty());
  };
  auto erase_model = [&](int o, uint64_t first_idx) {
    for (uint64_t i = first_idx; i < kIdx; ++i) {
      fill.erase({o, i});
      dirty.erase({o, i});
    }
  };

  for (int step = 0; step < 4000; ++step) {
    int o = static_cast<int>(rng.Below(kOwners));
    uint64_t idx = rng.Below(kIdx);
    Key key{o, idx};
    char c = static_cast<char>('a' + rng.Below(26));
    bool want_dirty = rng.Chance(1, 3);
    // Weighted mix: stores dominate so the pool fills past capacity and
    // evicts.
    uint64_t op = rng.Below(40);
    if (op < 25) {
      std::array<char, kPageSize> page;
      page.fill(c);
      pool.StorePage(&owners[o], idx, page.data(), want_dirty);
      fill[key] = c;
      dirty[key] = dirty[key] || want_dirty;
    } else if (op < 32) {
      splice::PageRef ref = splice::PageRef::Alloc(kPageSize);
      std::memset(ref.mutable_data(), c, kPageSize);
      splice::PageRef holder;  // a second holder makes the ref shared
      if (rng.Chance(1, 2)) {
        holder = ref;
      }
      pool.StorePageRef(&owners[o], idx, ref, want_dirty, rng.Chance(1, 2));
      fill[key] = c;
      dirty[key] = dirty[key] || want_dirty;
    } else if (op == 32) {
      auto ref = pool.StealPage(&owners[o], idx);
      if (dirty[key]) {
        ASSERT_FALSE(ref.has_value()) << "dirty pages are pinned by writeback";
        ASSERT_TRUE(pool.HasPage(&owners[o], idx));
      } else {
        ASSERT_FALSE(pool.HasPage(&owners[o], idx));
        fill.erase(key);
      }
    } else if (op == 33) {
      pool.Drop(&owners[o], idx);
      fill.erase(key);
      dirty.erase(key);
    } else if (op == 34) {
      uint64_t new_size = rng.Below(kIdx) * kPageSize + (rng.Chance(1, 2) ? kPageSize / 2 : 0);
      uint64_t first_dropped = (new_size + kPageSize - 1) / kPageSize;
      uint64_t want = 0;
      for (uint64_t i = first_dropped; i < kIdx; ++i) {
        want += dirty[{o, i}] ? kPageSize : 0;
      }
      ASSERT_EQ(pool.TruncatePages(&owners[o], new_size), want);
      erase_model(o, first_dropped);
    } else if (op < 39) {
      ASSERT_EQ(pool.MarkClean(&owners[o], idx), dirty[key]);
      dirty[key] = false;
    } else if (rng.Chance(1, 10)) {
      pool.DropAllClean();
      for (auto it = fill.begin(); it != fill.end();) {
        it = dirty[it->first] ? std::next(it) : fill.erase(it);
      }
    } else {
      std::map<int, std::vector<uint64_t>> others;
      for (int other = 0; other < kOwners; ++other) {
        if (other != o) {
          others[other] = resident(other);
        }
      }
      ASSERT_EQ(pool.DropAll(&owners[o]), dirty_bytes_of(o));
      erase_model(o, 0);
      for (uint64_t i = 0; i < kIdx; ++i) {
        ASSERT_FALSE(pool.HasPage(&owners[o], i)) << "owner " << o << " page " << i;
      }
      for (const auto& [other, pages] : others) {
        ASSERT_EQ(resident(other), pages) << "DropAll touched owner " << other;
      }
    }
    ASSERT_EQ(pool.TotalDirtyBytes(), total_dirty()) << "step " << step;
    if (step % 50 == 0) {
      check_totals();
    }
  }
  check_totals();
  EXPECT_GT(pool.stats().evictions, 0u) << "the mix must exercise eviction";
  // Resident content is still the last write of its own owner.
  for (const auto& [key, c] : fill) {
    char out[kPageSize];
    if (pool.PeekPage(&owners[key.first], key.second, out)) {
      EXPECT_EQ(out[0], c) << "owner " << key.first << " page " << key.second;
    }
  }
  for (int o = 0; o < kOwners; ++o) {
    pool.DropAll(&owners[o]);
  }
  EXPECT_EQ(pool.ResidentBytes(), 0u);
  EXPECT_EQ(pool.TotalDirtyBytes(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PageCacheOwnerIndexTest, ::testing::Values(1, 2, 3, 4, 5));

TEST_F(PageCacheTest, ReusedOwnerAddressSeesNoStalePages) {
  PageCachePool pool(&clock_, &costs_, 1 << 20);
  char page[kPageSize];
  std::memset(page, 'o', sizeof(page));
  // One address serves two owners in turn, as an inode freed and a new one
  // allocated at the same address would: the pool only sees the pointer.
  int slot = 0;
  const void* addr = &slot;
  for (uint64_t idx = 0; idx < 64; ++idx) {
    pool.StorePage(addr, idx, page, /*dirty=*/idx % 3 == 0);
  }
  EXPECT_EQ(pool.DropAll(addr), 22 * kPageSize);

  char out[kPageSize];
  for (uint64_t idx = 0; idx < 64; ++idx) {
    EXPECT_FALSE(pool.HasPage(addr, idx)) << idx;
    EXPECT_FALSE(pool.ReadPage(addr, idx, out)) << idx;
  }
  EXPECT_TRUE(pool.DirtyPages(addr).empty());
  EXPECT_EQ(pool.DirtyBytes(addr), 0u);
  EXPECT_EQ(pool.TruncatePages(addr, 0), 0u);
  EXPECT_EQ(pool.ResidentBytes(), 0u);

  std::memset(page, 'n', sizeof(page));
  pool.StorePage(addr, 5, page, /*dirty=*/true);
  EXPECT_EQ(pool.DirtyPages(addr), (std::vector<uint64_t>{5}));
  EXPECT_EQ(pool.DropAll(addr), kPageSize);
  EXPECT_EQ(pool.ResidentBytes(), 0u);
  EXPECT_EQ(pool.TotalDirtyBytes(), 0u);
}

}  // namespace
}  // namespace cntr::kernel
