#include "src/kernel/page_cache.h"

#include <algorithm>
#include <cstring>
#include "src/analysis/lockdep.h"

namespace cntr::kernel {

PageCachePool::PageCachePool(SimClock* clock, const CostModel* costs, uint64_t capacity_bytes,
                             size_t num_shards)
    : clock_(clock),
      costs_(costs),
      capacity_bytes_(capacity_bytes),
      shards_(ClampShardCount(num_shards, capacity_bytes / kPageSize)) {
  capacity_per_shard_ = std::max<uint64_t>(kPageSize, capacity_bytes_ / shards_.size());
  // Per-stripe lockdep subclass: index-ordered same-class nesting (e.g. a
  // full-pool sweep) stays legal while out-of-order pairs still report.
  for (size_t i = 0; i < shards_.size(); ++i) {
    shards_[i].mu.set_subclass(static_cast<uint32_t>(i + 1));
  }
}

bool PageCachePool::ReadPage(CacheOwner owner, uint64_t idx, char* out) {
  Key key{owner, idx};
  Shard& shard = ShardFor(key);
  std::lock_guard<analysis::CheckedMutex> lock(shard.mu);
  auto it = shard.pages.find(key);
  if (it == shard.pages.end()) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  hits_.fetch_add(1, std::memory_order_relaxed);
  clock_->Advance(costs_->page_cache_hit_ns);
  std::memcpy(out, it->second.data.get(), kPageSize);
  TouchLocked(shard, it->second);
  return true;
}

bool PageCachePool::HasPage(CacheOwner owner, uint64_t idx) const {
  Key key{owner, idx};
  Shard& shard = ShardFor(key);
  std::lock_guard<analysis::CheckedMutex> lock(shard.mu);
  return shard.pages.count(key) != 0;
}

bool PageCachePool::StorePage(CacheOwner owner, uint64_t idx, const char* data, bool dirty) {
  Key key{owner, idx};
  Shard& shard = ShardFor(key);
  std::lock_guard<analysis::CheckedMutex> lock(shard.mu);
  auto it = shard.pages.find(key);
  if (it == shard.pages.end()) {
    auto copy = std::make_shared_for_overwrite<char[]>(kPageSize);
    std::memcpy(copy.get(), data, kPageSize);
    InsertPageLocked(shard, key, std::move(copy), dirty);
  } else {
    EnsureExclusiveLocked(it->second, /*preserve_content=*/false);
    std::memcpy(it->second.data.get(), data, kPageSize);
    bool was_dirty = it->second.dirty;
    it->second.dirty = it->second.dirty || dirty;
    if (dirty) {
      ++it->second.gen;
    }
    TouchLocked(shard, it->second);
    if (was_dirty) {
      dirty = false;  // already accounted
    }
  }
  if (dirty) {
    shard.dirty[owner][idx] = true;
    dirty_bytes_total_.fetch_add(kPageSize, std::memory_order_relaxed);
  }
  EvictIfNeededLocked(shard);
  return dirty;
}

PageCachePool::UpdateResult PageCachePool::UpdatePage(CacheOwner owner, uint64_t idx,
                                                      uint32_t off, uint32_t len,
                                                      const char* src, bool mark_dirty) {
  Key key{owner, idx};
  Shard& shard = ShardFor(key);
  std::lock_guard<analysis::CheckedMutex> lock(shard.mu);
  auto it = shard.pages.find(key);
  if (it == shard.pages.end()) {
    return UpdateResult::kNotResident;
  }
  EnsureExclusiveLocked(it->second, /*preserve_content=*/true);
  std::memcpy(it->second.data.get() + off, src, len);
  TouchLocked(shard, it->second);
  if (mark_dirty) {
    ++it->second.gen;
  }
  if (mark_dirty && !it->second.dirty) {
    it->second.dirty = true;
    shard.dirty[owner][idx] = true;
    dirty_bytes_total_.fetch_add(kPageSize, std::memory_order_relaxed);
    return UpdateResult::kNewlyDirty;
  }
  return UpdateResult::kUpdated;
}

uint64_t PageCachePool::TruncatePages(CacheOwner owner, uint64_t new_size) {
  uint64_t first_dropped = (new_size + kPageSize - 1) / kPageSize;
  // Zero the partial tail of the boundary page.
  if (new_size % kPageSize != 0) {
    Key key{owner, new_size / kPageSize};
    Shard& shard = ShardFor(key);
    std::lock_guard<analysis::CheckedMutex> lock(shard.mu);
    auto it = shard.pages.find(key);
    if (it != shard.pages.end()) {
      uint32_t keep = static_cast<uint32_t>(new_size % kPageSize);
      EnsureExclusiveLocked(it->second, /*preserve_content=*/true);
      std::memset(it->second.data.get() + keep, 0, kPageSize - keep);
    }
  }
  // Drop whole pages past the new end (the owner's pages are spread over
  // every shard, so all stripes are visited — each along its owner chain).
  uint64_t dropped_dirty = 0;
  for (Shard& shard : shards_) {
    std::lock_guard<analysis::CheckedMutex> lock(shard.mu);
    dropped_dirty += DropOwnerPagesLocked(shard, owner, first_dropped);
  }
  return dropped_dirty;
}

bool PageCachePool::MarkClean(CacheOwner owner, uint64_t idx) {
  return MarkCleanIfGen(owner, idx, UINT64_MAX);
}

bool PageCachePool::MarkCleanIfGen(CacheOwner owner, uint64_t idx, uint64_t gen) {
  Key key{owner, idx};
  Shard& shard = ShardFor(key);
  std::lock_guard<analysis::CheckedMutex> lock(shard.mu);
  auto it = shard.pages.find(key);
  if (it == shard.pages.end() || !it->second.dirty) {
    return false;
  }
  if (gen != UINT64_MAX && it->second.gen != gen) {
    return false;  // re-dirtied since the flusher's snapshot: stays dirty
  }
  it->second.dirty = false;
  LeaveRunLocked(shard, it->second);
  dirty_bytes_total_.fetch_sub(kPageSize, std::memory_order_relaxed);
  auto dit = shard.dirty.find(owner);
  if (dit != shard.dirty.end()) {
    dit->second.erase(idx);
  }
  return true;
}

void PageCachePool::Drop(CacheOwner owner, uint64_t idx) {
  Key key{owner, idx};
  Shard& shard = ShardFor(key);
  std::lock_guard<analysis::CheckedMutex> lock(shard.mu);
  auto it = shard.pages.find(key);
  if (it != shard.pages.end()) {
    ErasePageLocked(shard, it);
  }
}

uint64_t PageCachePool::DropAll(CacheOwner owner) {
  uint64_t dropped_dirty = 0;
  for (Shard& shard : shards_) {
    std::lock_guard<analysis::CheckedMutex> lock(shard.mu);
    dropped_dirty += DropOwnerPagesLocked(shard, owner, 0);
    shard.dirty.erase(owner);
  }
  return dropped_dirty;
}

void PageCachePool::DropAllClean() {
  for (Shard& shard : shards_) {
    std::lock_guard<analysis::CheckedMutex> lock(shard.mu);
    for (auto it = shard.pages.begin(); it != shard.pages.end();) {
      it = it->second.dirty ? std::next(it) : ErasePageLocked(shard, it);
    }
  }
}

std::vector<uint64_t> PageCachePool::DirtyPages(CacheOwner owner) const {
  std::vector<uint64_t> out;
  for (Shard& shard : shards_) {
    std::lock_guard<analysis::CheckedMutex> lock(shard.mu);
    auto dit = shard.dirty.find(owner);
    if (dit == shard.dirty.end()) {
      continue;
    }
    out.reserve(out.size() + dit->second.size());
    for (const auto& [idx, _] : dit->second) {
      out.push_back(idx);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

bool PageCachePool::PeekPage(CacheOwner owner, uint64_t idx, char* out,
                             uint64_t* gen_out) const {
  Key key{owner, idx};
  Shard& shard = ShardFor(key);
  std::lock_guard<analysis::CheckedMutex> lock(shard.mu);
  auto it = shard.pages.find(key);
  if (it == shard.pages.end()) {
    return false;
  }
  std::memcpy(out, it->second.data.get(), kPageSize);
  if (gen_out != nullptr) {
    *gen_out = it->second.gen;
  }
  return true;
}

uint64_t PageCachePool::DirtyBytes(CacheOwner owner) const {
  uint64_t total = 0;
  for (Shard& shard : shards_) {
    std::lock_guard<analysis::CheckedMutex> lock(shard.mu);
    auto dit = shard.dirty.find(owner);
    if (dit != shard.dirty.end()) {
      total += dit->second.size() * kPageSize;
    }
  }
  return total;
}

uint64_t PageCachePool::TotalDirtyBytes() const {
  return dirty_bytes_total_.load(std::memory_order_relaxed);
}

uint64_t PageCachePool::ResidentBytes() const {
  uint64_t total = 0;
  for (Shard& shard : shards_) {
    std::lock_guard<analysis::CheckedMutex> lock(shard.mu);
    total += shard.pages.size() * kPageSize;
  }
  return total;
}

std::optional<splice::PageRef> PageCachePool::GetPageRef(CacheOwner owner, uint64_t idx,
                                                         uint64_t* gen_out) {
  Key key{owner, idx};
  Shard& shard = ShardFor(key);
  std::lock_guard<analysis::CheckedMutex> lock(shard.mu);
  auto it = shard.pages.find(key);
  if (it == shard.pages.end()) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  }
  hits_.fetch_add(1, std::memory_order_relaxed);
  // The remap out of the cache, not a copy: splice rate, not hit+copy.
  clock_->Advance(costs_->splice_page_ns);
  TouchLocked(shard, it->second);
  splice::PageRef ref;
  ref.page = it->second.data;
  ref.len = kPageSize;
  if (gen_out != nullptr) {
    *gen_out = it->second.gen;
  }
  return ref;
}

PageCachePool::StoreRefResult PageCachePool::StorePageRef(CacheOwner owner, uint64_t idx,
                                                          const splice::PageRef& ref, bool dirty,
                                                          bool allow_alias) {
  StoreRefResult result;
  std::shared_ptr<char[]> install;
  if (ref.valid() && ref.len == kPageSize && ref.unique()) {
    install = ref.page;
    result.mode = StoreRefMode::kStolen;
    ref_steals_.fetch_add(1, std::memory_order_relaxed);
  } else if (ref.valid() && ref.len == kPageSize && allow_alias) {
    install = ref.page;
    result.mode = StoreRefMode::kAliased;
    ref_aliases_.fetch_add(1, std::memory_order_relaxed);
  } else {
    // Copy fallback: short page, or shared without alias permission. The
    // tail past a short ref reads as zeros.
    install = ref.valid() ? splice::PageRef::Copy(ref.data(), ref.len).page
                          : std::make_shared<char[]>(kPageSize);
    result.mode = StoreRefMode::kCopied;
    ref_copies_.fetch_add(1, std::memory_order_relaxed);
  }

  Key key{owner, idx};
  Shard& shard = ShardFor(key);
  std::lock_guard<analysis::CheckedMutex> lock(shard.mu);
  auto it = shard.pages.find(key);
  bool count_dirty = dirty;
  if (it == shard.pages.end()) {
    InsertPageLocked(shard, key, std::move(install), dirty);
  } else {
    it->second.data = std::move(install);
    bool was_dirty = it->second.dirty;
    it->second.dirty = it->second.dirty || dirty;
    if (dirty) {
      ++it->second.gen;
    }
    TouchLocked(shard, it->second);
    if (was_dirty) {
      count_dirty = false;  // already accounted
    }
  }
  if (count_dirty) {
    shard.dirty[owner][idx] = true;
    dirty_bytes_total_.fetch_add(kPageSize, std::memory_order_relaxed);
  }
  EvictIfNeededLocked(shard);
  result.newly_dirty = count_dirty;
  return result;
}

std::optional<splice::PageRef> PageCachePool::StealPage(CacheOwner owner, uint64_t idx) {
  Key key{owner, idx};
  Shard& shard = ShardFor(key);
  std::lock_guard<analysis::CheckedMutex> lock(shard.mu);
  auto it = shard.pages.find(key);
  if (it == shard.pages.end() || it->second.dirty) {
    return std::nullopt;  // absent, or pinned by writeback
  }
  splice::PageRef ref;
  ref.page = std::move(it->second.data);
  ref.len = kPageSize;
  ErasePageLocked(shard, it);
  ref_steals_.fetch_add(1, std::memory_order_relaxed);
  clock_->Advance(costs_->splice_page_ns);
  return ref;
}

void PageCachePool::EnsureExclusiveLocked(Page& page, bool preserve_content) {
  if (page.data.use_count() <= 1) {
    return;
  }
  // An outside splice reference holds this buffer: writing in place would
  // mutate payload already handed out. Break the sharing with a private
  // copy — the real cost of a failed page reuse.
  // Uninitialized: the content is either copied here or, without
  // preserve_content, overwritten in full by the caller.
  auto fresh = std::make_shared_for_overwrite<char[]>(kPageSize);
  if (preserve_content) {
    std::memcpy(fresh.get(), page.data.get(), kPageSize);
  }
  page.data = std::move(fresh);
  cow_breaks_.fetch_add(1, std::memory_order_relaxed);
  clock_->Advance(costs_->copy_page_ns);
}

void PageCachePool::InsertPageLocked(Shard& shard, const Key& key,
                                     std::shared_ptr<char[]> data, bool dirty) {
  Page& page = shard.pages.try_emplace(key).first->second;
  page.data = std::move(data);
  page.dirty = dirty;
  page.gen = dirty ? 1 : 0;
  page.owner = key.owner;
  page.idx = key.idx;
  PushLruLocked(shard, page);
  Page*& head = shard.owner_pages[key.owner];
  page.owner_next = head;
  if (head != nullptr) {
    head->owner_prev = &page;
  }
  head = &page;
}

PageCachePool::PageMap::iterator PageCachePool::ErasePageLocked(Shard& shard,
                                                                PageMap::iterator it) {
  const Key& key = it->first;
  Page& page = it->second;
  if (page.owner_next != nullptr) {
    page.owner_next->owner_prev = page.owner_prev;
  }
  if (page.owner_prev != nullptr) {
    page.owner_prev->owner_next = page.owner_next;
  } else if (page.owner_next != nullptr) {
    shard.owner_pages[key.owner] = page.owner_next;
  } else {
    shard.owner_pages.erase(key.owner);
  }
  if (page.dirty) {
    dirty_bytes_total_.fetch_sub(kPageSize, std::memory_order_relaxed);
    auto dit = shard.dirty.find(key.owner);
    if (dit != shard.dirty.end()) {
      dit->second.erase(key.idx);
    }
  }
  LeaveRunLocked(shard, page);
  UnlinkLruLocked(shard, page);
  return shard.pages.erase(it);
}

uint64_t PageCachePool::DropOwnerPagesLocked(Shard& shard, CacheOwner owner,
                                             uint64_t first_idx) {
  auto head = shard.owner_pages.find(owner);
  if (head == shard.owner_pages.end()) {
    return 0;
  }
  uint64_t dropped_dirty = 0;
  for (Page* page = head->second; page != nullptr;) {
    Page* next = page->owner_next;  // read before the erase frees `page`
    if (page->idx >= first_idx) {
      if (page->dirty) {
        dropped_dirty += kPageSize;
      }
      ErasePageLocked(shard, shard.pages.find(Key{owner, page->idx}));
    }
    page = next;
  }
  return dropped_dirty;
}

void PageCachePool::TouchLocked(Shard& shard, Page& page) {
  LeaveRunLocked(shard, page);
  if (shard.lru_head == &page) {
    return;
  }
  UnlinkLruLocked(shard, page);
  PushLruLocked(shard, page);
}

void PageCachePool::PushLruLocked(Shard& shard, Page& page) {
  page.lru_prev = nullptr;
  page.lru_next = shard.lru_head;
  if (shard.lru_head != nullptr) {
    shard.lru_head->lru_prev = &page;
  } else {
    shard.lru_tail = &page;
  }
  shard.lru_head = &page;
}

void PageCachePool::UnlinkLruLocked(Shard& shard, Page& page) {
  if (page.lru_prev != nullptr) {
    page.lru_prev->lru_next = page.lru_next;
  } else {
    shard.lru_head = page.lru_next;
  }
  if (page.lru_next != nullptr) {
    page.lru_next->lru_prev = page.lru_prev;
  } else {
    shard.lru_tail = page.lru_prev;
  }
}

void PageCachePool::LeaveRunLocked(Shard& shard, const Page& page) {
  if (page.run_epoch == shard.run_epoch) {
    ++shard.run_epoch;
    shard.run_end = nullptr;
    shard.run_len = 0;
  }
}

void PageCachePool::EvictIfNeededLocked(Shard& shard) {
  while (shard.pages.size() * kPageSize > capacity_per_shard_) {
    // Scan from the cold end for a clean victim; dirty pages are pinned.
    // The scan resumes past the dirty run an earlier call walked, which
    // stays valid until one of its pages is touched, cleaned or erased.
    Page* victim = nullptr;
    while (shard.run_len <= kMaxPinnedRun) {
      Page* page = shard.run_end != nullptr ? shard.run_end->lru_prev : shard.lru_tail;
      if (page == nullptr || !page->dirty) {
        victim = page;
        break;
      }
      page->run_epoch = shard.run_epoch;
      shard.run_end = page;
      ++shard.run_len;
    }
    if (victim == nullptr) {
      return;  // all cold pages dirty: allow transient overshoot
    }
    ErasePageLocked(shard, shard.pages.find(Key{victim->owner, victim->idx}));
    evictions_.fetch_add(1, std::memory_order_relaxed);
  }
}

uint32_t CountExtents(const std::vector<uint64_t>& sorted_pages) {
  if (sorted_pages.empty()) {
    return 0;
  }
  uint32_t extents = 1;
  for (size_t i = 1; i < sorted_pages.size(); ++i) {
    if (sorted_pages[i] != sorted_pages[i - 1] + 1) {
      ++extents;
    }
  }
  return extents;
}

}  // namespace cntr::kernel
