// Unit tests for the shared page-cache pool: LRU eviction, dirty pinning,
// per-owner accounting and the per-owner page index, the eviction rule
// against a reference model, and extent coalescing — the machinery behind
// the paper's caching results.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstring>
#include <list>
#include <map>
#include <ostream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/kernel/page_cache.h"
#include "src/splice/page_ref.h"
#include "src/util/hash.h"
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

// --- eviction rule: exactness against a reference model ---
//
// The pool's eviction is incremental (intrusive LRU, a cursor past the cold
// dirty run). The reference model states the rule the slow way: one LRU of
// keys per shard, and every eviction looks at up to kMaxPinnedRun + 1 of
// the coldest entries for a clean page, with a map lookup per entry.

// Fixed fake owner pointers: the pool only hashes them, and fixed values
// keep the sharding, and so every run, the same.
CacheOwner FakeOwner(int o) {
  return reinterpret_cast<CacheOwner>(uintptr_t{0x100000} + 0x40 * static_cast<uintptr_t>(o));
}

class ReferencePool {
 public:
  using Key = std::pair<int, uint64_t>;  // (owner number, page index)

  ReferencePool(uint64_t capacity_bytes, size_t num_shards)
      : shards_(num_shards),
        capacity_per_shard_(std::max<uint64_t>(kPageSize, capacity_bytes / num_shards)) {}

  bool Has(const Key& key) const { return ShardOf(key).pages.count(key) != 0; }
  bool IsDirty(const Key& key) const {
    const Shard& shard = ShardOf(key);
    auto it = shard.pages.find(key);
    return it != shard.pages.end() && it->second.dirty;
  }

  // StorePage / StorePageRef: returns whether the page became dirty.
  bool Store(const Key& key, bool dirty) {
    Shard& shard = ShardOf(key);
    bool newly_dirty = dirty;
    auto it = shard.pages.find(key);
    if (it == shard.pages.end()) {
      shard.lru.push_front(key);
      shard.pages[key] = Entry{dirty, dirty ? 1u : 0u, shard.lru.begin()};
    } else {
      newly_dirty = dirty && !it->second.dirty;
      if (dirty) {
        it->second.dirty = true;
        ++it->second.gen;
      }
      Touch(shard, it->second, key);
    }
    Evict(shard);
    return newly_dirty;
  }
  // ReadPage / GetPageRef: a hit touches the page.
  bool Read(const Key& key) {
    Shard& shard = ShardOf(key);
    auto it = shard.pages.find(key);
    if (it == shard.pages.end()) {
      return false;
    }
    Touch(shard, it->second, key);
    return true;
  }
  PageCachePool::UpdateResult Update(const Key& key, bool mark_dirty) {
    Shard& shard = ShardOf(key);
    auto it = shard.pages.find(key);
    if (it == shard.pages.end()) {
      return PageCachePool::UpdateResult::kNotResident;
    }
    Touch(shard, it->second, key);
    if (mark_dirty) {
      ++it->second.gen;
    }
    if (mark_dirty && !it->second.dirty) {
      it->second.dirty = true;
      return PageCachePool::UpdateResult::kNewlyDirty;
    }
    return PageCachePool::UpdateResult::kUpdated;
  }
  bool MarkCleanIfGen(const Key& key, uint64_t gen) {
    Shard& shard = ShardOf(key);
    auto it = shard.pages.find(key);
    if (it == shard.pages.end() || !it->second.dirty ||
        (gen != UINT64_MAX && it->second.gen != gen)) {
      return false;
    }
    it->second.dirty = false;
    return true;
  }
  bool Steal(const Key& key) {
    if (!Has(key) || IsDirty(key)) {
      return false;
    }
    Erase(key);
    return true;
  }
  // Drops the owner's pages with index >= first_idx; returns dirty bytes.
  uint64_t DropFrom(int owner, uint64_t first_idx) {
    uint64_t dirty_bytes = 0;
    for (const Key& key : Keys()) {
      if (key.first == owner && key.second >= first_idx) {
        dirty_bytes += IsDirty(key) ? kPageSize : 0;
        Erase(key);
      }
    }
    return dirty_bytes;
  }
  void DropAllClean() {
    for (const Key& key : Keys()) {
      if (!IsDirty(key)) {
        Erase(key);
      }
    }
  }
  void Erase(const Key& key) {
    Shard& shard = ShardOf(key);
    auto it = shard.pages.find(key);
    if (it != shard.pages.end()) {
      shard.lru.erase(it->second.lru);
      shard.pages.erase(it);
    }
  }

  std::vector<Key> Keys() const {
    std::vector<Key> out;
    for (const Shard& shard : shards_) {
      for (const auto& [key, _] : shard.pages) {
        out.push_back(key);
      }
    }
    return out;
  }
  uint64_t ResidentBytes() const { return Keys().size() * kPageSize; }
  uint64_t DirtyBytes() const {
    uint64_t n = 0;
    for (const Key& key : Keys()) {
      n += IsDirty(key) ? kPageSize : 0;
    }
    return n;
  }
  std::vector<uint64_t> DirtyPages(int owner) const {
    std::vector<uint64_t> out;
    for (const Key& key : Keys()) {
      if (key.first == owner && IsDirty(key)) {
        out.push_back(key.second);
      }
    }
    std::sort(out.begin(), out.end());
    return out;
  }

  // Pages evicted by the last Store, for the per-op check.
  const std::vector<Key>& last_victims() const { return victims_; }
  uint64_t evictions() const { return evictions_; }
  // Evictions that found kMaxPinnedRun + 1 dirty pages and gave up.
  uint64_t cap_hits() const { return cap_hits_; }
  // The longest dirty run an eviction passed over to reach its victim.
  size_t longest_skip() const { return longest_skip_; }

 private:
  struct Entry {
    bool dirty = false;
    uint64_t gen = 0;
    std::list<Key>::iterator lru;
  };
  struct Shard {
    std::list<Key> lru;  // front = most recent
    std::map<Key, Entry> pages;
  };

  // The pool's key hash, over the same fake owner pointers.
  size_t ShardIndex(const Key& key) const {
    size_t h = HashCombine(HashMix64(reinterpret_cast<uintptr_t>(FakeOwner(key.first))),
                           static_cast<size_t>(key.second));
    return h % shards_.size();
  }
  Shard& ShardOf(const Key& key) { return shards_[ShardIndex(key)]; }
  const Shard& ShardOf(const Key& key) const { return shards_[ShardIndex(key)]; }
  void Touch(Shard& shard, Entry& entry, const Key& key) {
    shard.lru.erase(entry.lru);
    shard.lru.push_front(key);
    entry.lru = shard.lru.begin();
  }
  void Evict(Shard& shard) {
    victims_.clear();
    while (shard.pages.size() * kPageSize > capacity_per_shard_) {
      std::vector<Key> cold(shard.lru.rbegin(), shard.lru.rend());
      cold.resize(std::min(cold.size(), PageCachePool::kMaxPinnedRun + 1));
      auto clean = std::find_if(cold.begin(), cold.end(),
                                [&](const Key& key) { return !shard.pages.at(key).dirty; });
      if (clean == cold.end()) {
        cap_hits_ += cold.size() == PageCachePool::kMaxPinnedRun + 1 ? 1 : 0;
        return;
      }
      longest_skip_ = std::max<size_t>(longest_skip_, clean - cold.begin());
      victims_.push_back(*clean);
      Erase(*clean);
      ++evictions_;
    }
  }

  std::vector<Shard> shards_;
  uint64_t capacity_per_shard_;
  std::vector<Key> victims_;
  uint64_t evictions_ = 0;
  uint64_t cap_hits_ = 0;
  size_t longest_skip_ = 0;
};

struct EvictionShape {
  const char* name;
  uint64_t capacity_pages;
  size_t shards;
  int owners;
  uint64_t idx_range;
  uint64_t dirty_percent;  // share of stores and updates that dirty a page
  uint64_t clean_weight;   // relative weight of MarkClean/MarkCleanIfGen
  bool reaches_cap;        // some eviction finds kMaxPinnedRun + 1 dirty pages
  uint64_t seed;
};

void PrintTo(const EvictionShape& shape, std::ostream* os) {
  *os << shape.name << "_seed" << shape.seed;
}

class PageCacheEvictionModelTest : public ::testing::TestWithParam<EvictionShape> {};

// Drives the pool and the model with one seeded op mix. After every op the
// eviction count, the dirty bytes and the resident bytes match, the op's
// own page is resident in both or neither, and the model's victims are gone
// from the pool. Equal counts plus the model's victims being absent pin the
// pool's victims to the model's, so the resident sets stay equal by
// induction; a full comparison every 256 ops checks that directly.
TEST_P(PageCacheEvictionModelTest, VictimsMatchTheReferenceRule) {
  const EvictionShape& shape = GetParam();
  SimClock clock;
  CostModel costs;
  PageCachePool pool(&clock, &costs, shape.capacity_pages * kPageSize, shape.shards);
  ASSERT_EQ(pool.num_shards(), shape.shards);
  ReferencePool model(pool.capacity_bytes(), pool.num_shards());
  Rng rng(shape.seed);
  std::map<ReferencePool::Key, uint64_t> seen_gen;  // possibly stale snapshots
  char page[kPageSize] = {};
  char out[kPageSize];

  auto check_all = [&] {
    for (const auto& key : model.Keys()) {
      ASSERT_TRUE(pool.HasPage(FakeOwner(key.first), key.second))
          << "owner " << key.first << " page " << key.second;
    }
    ASSERT_EQ(pool.ResidentBytes(), model.ResidentBytes());
    uint64_t dirty = 0;
    for (int o = 0; o < shape.owners; ++o) {
      ASSERT_EQ(pool.DirtyPages(FakeOwner(o)), model.DirtyPages(o)) << "owner " << o;
      dirty += pool.DirtyBytes(FakeOwner(o));
    }
    ASSERT_EQ(dirty, model.DirtyBytes());
  };

  constexpr int kSteps = 12000;
  for (int step = 0; step < kSteps; ++step) {
    int o = static_cast<int>(rng.Below(shape.owners));
    uint64_t idx = rng.Below(shape.idx_range);
    ReferencePool::Key key{o, idx};
    CacheOwner owner = FakeOwner(o);
    bool dirty = rng.Below(100) < shape.dirty_percent;
    uint64_t op = rng.Below(30 + shape.clean_weight);
    if (op < 12) {
      ASSERT_EQ(pool.StorePage(owner, idx, page, dirty), model.Store(key, dirty));
    } else if (op < 15) {
      ASSERT_EQ(pool.ReadPage(owner, idx, out), model.Read(key));
    } else if (op < 18) {
      ASSERT_EQ(pool.UpdatePage(owner, idx, 8, 8, page, dirty), model.Update(key, dirty));
    } else if (op < 21) {
      uint64_t gen = 0;
      auto ref = pool.GetPageRef(owner, idx, &gen);
      ASSERT_EQ(ref.has_value(), model.Read(key));
      if (ref.has_value()) {
        seen_gen[key] = gen;
      }
    } else if (op < 25) {
      // Steal one page and store the reference under another key, as a
      // splice from one file's cache into another's does.
      ReferencePool::Key to{static_cast<int>(rng.Below(shape.owners)),
                            rng.Below(shape.idx_range)};
      auto ref = pool.StealPage(owner, idx);
      ASSERT_EQ(ref.has_value(), model.Steal(key));
      if (!ref.has_value()) {
        ref = splice::PageRef::Alloc(kPageSize);
      }
      auto result = pool.StorePageRef(FakeOwner(to.first), to.second, *ref, dirty,
                                      rng.Chance(1, 2));
      ASSERT_EQ(result.newly_dirty, model.Store(to, dirty));
      key = to;
    } else if (op == 25) {
      pool.Drop(owner, idx);
      model.Erase(key);
    } else if (op == 26) {
      if (!rng.Chance(1, 8)) {
        continue;  // keep truncation rare enough for the pool to fill
      }
      uint64_t new_size = rng.Below(shape.idx_range) * kPageSize + rng.Below(kPageSize);
      ASSERT_EQ(pool.TruncatePages(owner, new_size),
                model.DropFrom(o, (new_size + kPageSize - 1) / kPageSize));
    } else if (op == 27) {
      if (rng.Chance(1, 4)) {
        ASSERT_EQ(pool.DropAll(owner), model.DropFrom(o, 0));
      }
    } else if (op == 28) {
      if (rng.Chance(1, 8)) {
        pool.DropAllClean();
        model.DropAllClean();
      }
    } else if (op == 29) {
      uint64_t gen = 0;
      if (pool.PeekPage(owner, idx, out, &gen)) {
        seen_gen[key] = gen;
      }
    } else if (rng.Chance(1, 2)) {
      ASSERT_EQ(pool.MarkClean(owner, idx), model.MarkCleanIfGen(key, UINT64_MAX));
    } else {
      auto it = seen_gen.find(key);
      uint64_t gen = it != seen_gen.end() ? it->second : 0;
      ASSERT_EQ(pool.MarkCleanIfGen(owner, idx, gen), model.MarkCleanIfGen(key, gen));
    }

    ASSERT_EQ(pool.stats().evictions, model.evictions()) << "step " << step;
    ASSERT_EQ(pool.TotalDirtyBytes(), model.DirtyBytes()) << "step " << step;
    ASSERT_EQ(pool.ResidentBytes(), model.ResidentBytes()) << "step " << step;
    ASSERT_EQ(pool.HasPage(FakeOwner(key.first), key.second), model.Has(key)) << "step " << step;
    if (op < 12 || (op >= 21 && op < 25)) {
      for (const auto& victim : model.last_victims()) {
        ASSERT_FALSE(pool.HasPage(FakeOwner(victim.first), victim.second))
            << "step " << step << ": the model evicted owner " << victim.first << " page "
            << victim.second << ", the pool kept it";
      }
    }
    if (step % 256 == 0) {
      check_all();
    }
  }
  check_all();
  EXPECT_GT(model.evictions(), 0u);
  EXPECT_GT(model.longest_skip(), 0u) << "no eviction had to pass a dirty page";
  // The shapes cover both sides of the cap, so the sweep cannot pass
  // without reaching it.
  EXPECT_EQ(model.cap_hits() > 0, shape.reaches_cap) << model.cap_hits() << " cap hits";
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, PageCacheEvictionModelTest,
    ::testing::Values(
        // Four 64-page shards, frequent cleaning: cold dirty runs stay short.
        EvictionShape{"under_cap", 256, 4, 8, 96, 30, 8, false, 1},
        EvictionShape{"under_cap", 256, 4, 8, 96, 30, 8, false, 2},
        // One 160-page shard, mostly dirty, rare cleaning: cold dirty runs
        // grow past kMaxPinnedRun and the pool overshoots.
        EvictionShape{"over_cap", 160, 1, 4, 128, 80, 2, true, 3},
        EvictionShape{"over_cap", 160, 1, 4, 128, 80, 2, true, 4}),
    [](const ::testing::TestParamInfo<EvictionShape>& info) {
      return std::string(info.param.name) + "_seed" + std::to_string(info.param.seed);
    });

// A single 256-page shard whose cold end holds `dirty_run` dirty pages, then
// one clean page, then clean pages up to capacity. Returns the pool after
// one more clean store.
class PageCacheRunBoundaryTest : public PageCacheTest {
 protected:
  static constexpr uint64_t kPages = 256;

  void Fill(PageCachePool& pool, uint64_t dirty_run) {
    ASSERT_EQ(pool.num_shards(), 1u);
    char page[kPageSize] = {};
    for (uint64_t i = 0; i < kPages; ++i) {
      pool.StorePage(this, i, page, /*dirty=*/i < dirty_run);
    }
    ASSERT_EQ(pool.stats().evictions, 0u);
    pool.StorePage(this, kPages, page, /*dirty=*/false);
  }
};

TEST_F(PageCacheRunBoundaryTest, CleanPageBehindMaxPinnedRunIsEvicted) {
  PageCachePool pool(&clock_, &costs_, kPages * kPageSize, 1);
  Fill(pool, PageCachePool::kMaxPinnedRun);
  EXPECT_EQ(pool.stats().evictions, 1u);
  EXPECT_FALSE(pool.HasPage(this, PageCachePool::kMaxPinnedRun));
  EXPECT_EQ(pool.ResidentBytes(), kPages * kPageSize);
  for (uint64_t i = 0; i < PageCachePool::kMaxPinnedRun; ++i) {
    EXPECT_TRUE(pool.HasPage(this, i)) << i;
  }
}

TEST_F(PageCacheRunBoundaryTest, CleanPageBehindLongerRunIsNotReached) {
  PageCachePool pool(&clock_, &costs_, kPages * kPageSize, 1);
  const uint64_t run = PageCachePool::kMaxPinnedRun + 1;
  Fill(pool, run);
  EXPECT_EQ(pool.stats().evictions, 0u);
  EXPECT_TRUE(pool.HasPage(this, run));
  EXPECT_EQ(pool.ResidentBytes(), (kPages + 1) * kPageSize);  // overshoot

  // Overwriting a resident page re-runs eviction and still finds nothing.
  char page[kPageSize] = {};
  pool.StorePage(this, kPages, page, /*dirty=*/false);
  EXPECT_EQ(pool.stats().evictions, 0u);

  // Cleaning a page inside the run makes it the victim: the scan restarts.
  pool.MarkClean(this, 64);
  pool.StorePage(this, kPages + 1, page, /*dirty=*/false);
  EXPECT_EQ(pool.stats().evictions, 2u);  // back under capacity
  EXPECT_FALSE(pool.HasPage(this, 64));
  EXPECT_FALSE(pool.HasPage(this, run));  // now behind a run of 128
  EXPECT_EQ(pool.ResidentBytes(), kPages * kPageSize);
}

TEST_F(PageCacheRunBoundaryTest, TouchingARunPageShortensTheRun) {
  PageCachePool pool(&clock_, &costs_, kPages * kPageSize, 1);
  const uint64_t run = PageCachePool::kMaxPinnedRun + 1;
  Fill(pool, run);
  ASSERT_EQ(pool.stats().evictions, 0u);
  // Reading the coldest dirty page moves it to the LRU head; the run in
  // front of the clean page drops to kMaxPinnedRun, so it is reachable.
  char out[kPageSize];
  ASSERT_TRUE(pool.ReadPage(this, 0, out));
  char page[kPageSize] = {};
  pool.StorePage(this, kPages + 1, page, /*dirty=*/false);
  EXPECT_EQ(pool.stats().evictions, 2u);
  EXPECT_FALSE(pool.HasPage(this, run));
  EXPECT_TRUE(pool.HasPage(this, 0));
}

TEST_F(PageCacheRunBoundaryTest, ErasingARunPageShortensTheRun) {
  PageCachePool pool(&clock_, &costs_, kPages * kPageSize, 1);
  const uint64_t run = PageCachePool::kMaxPinnedRun + 1;
  Fill(pool, run);
  ASSERT_EQ(pool.stats().evictions, 0u);
  pool.Drop(this, 10);  // back to capacity, the run is now kMaxPinnedRun
  char page[kPageSize] = {};
  pool.StorePage(this, kPages + 1, page, /*dirty=*/false);
  EXPECT_EQ(pool.stats().evictions, 1u);
  EXPECT_FALSE(pool.HasPage(this, run));
}

// --- concurrency: writers, readers and a flusher on one small pool ---
//
// Writers store dirty and clean pages, readers hit them, and a flusher does
// what writeback does (PeekPage, then MarkCleanIfGen) while eviction runs
// under the same shard locks. The flusher stops before the writers' last
// pass, so every shard's final state was left by an eviction. No shard can
// hold kMaxPinnedRun + 1 keys, so a shard still over capacity after an
// eviction is all dirty: resident bytes exceed capacity only by dirty ones.
TEST(PageCacheConcurrencyTest, WritersReadersAndFlusherKeepTheBooks) {
  SimClock clock;
  CostModel costs;
  constexpr uint64_t kCapacityPages = 128;
  PageCachePool pool(&clock, &costs, kCapacityPages * kPageSize);
  ASSERT_EQ(pool.num_shards(), 2u);
  constexpr int kWriters = 4;
  constexpr int kReaders = 2;
  constexpr uint64_t kIdx = 48;  // 1.5x capacity in all, ~96 keys a shard
  constexpr int kOps = 20000;

  std::atomic<bool> flushing{true};
  std::atomic<int> writers_done{0};
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      Rng rng(100 + w);
      char page[kPageSize];
      std::memset(page, 'a' + w, sizeof(page));
      for (int i = 0; i < kOps; ++i) {
        uint64_t idx = rng.Below(kIdx);
        if (rng.Chance(1, 4)) {
          pool.UpdatePage(FakeOwner(w), idx, 0, 16, page, /*mark_dirty=*/true);
        } else {
          pool.StorePage(FakeOwner(w), idx, page, /*dirty=*/rng.Chance(3, 4));
        }
      }
      writers_done.fetch_add(1);
      while (flushing.load()) {
        std::this_thread::yield();
      }
      for (uint64_t idx = 0; idx < kIdx; ++idx) {
        pool.StorePage(FakeOwner(w), idx, page, /*dirty=*/idx % 4 == 0);
      }
    });
  }
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r] {
      Rng rng(200 + r);
      char out[kPageSize];
      for (int i = 0; i < kOps; ++i) {
        int w = static_cast<int>(rng.Below(kWriters));
        if (rng.Chance(1, 2)) {
          pool.ReadPage(FakeOwner(w), rng.Below(kIdx), out);
        } else {
          pool.GetPageRef(FakeOwner(w), rng.Below(kIdx));
        }
      }
    });
  }
  threads.emplace_back([&] {
    char buf[kPageSize];
    uint64_t passes = 0;
    while (writers_done.load() < kWriters || passes < 4) {
      for (int w = 0; w < kWriters; ++w) {
        for (uint64_t idx : pool.DirtyPages(FakeOwner(w))) {
          uint64_t gen = 0;
          if (pool.PeekPage(FakeOwner(w), idx, buf, &gen)) {
            pool.MarkCleanIfGen(FakeOwner(w), idx, gen);
          }
        }
      }
      ++passes;
    }
    flushing.store(false);
  });
  for (auto& t : threads) {
    t.join();
  }

  uint64_t dirty = 0;
  for (int w = 0; w < kWriters; ++w) {
    dirty += pool.DirtyBytes(FakeOwner(w));
    for (uint64_t idx : pool.DirtyPages(FakeOwner(w))) {
      EXPECT_TRUE(pool.HasPage(FakeOwner(w), idx)) << "dirty page evicted: " << w << "/" << idx;
    }
  }
  EXPECT_EQ(pool.TotalDirtyBytes(), dirty);
  EXPECT_GE(dirty, kWriters * (kIdx / 4) * kPageSize);  // the last pass's dirty pages
  EXPECT_LE(pool.ResidentBytes(), pool.capacity_bytes() + dirty);
  EXPECT_GT(pool.stats().evictions, 0u);
}
}  // namespace
}  // namespace cntr::kernel
