#include "src/kernel/dcache.h"

#include <algorithm>
#include <utility>
#include "src/analysis/lockdep.h"

namespace cntr::kernel {

DentryCache::DentryCache(SimClock* clock, const CostModel* costs, size_t max_entries,
                         size_t num_shards)
    : clock_(clock),
      costs_(costs),
      shards_(ClampShardCount(num_shards, max_entries)) {
  max_per_shard_ = std::max<size_t>(1, max_entries / shards_.size());
  // Per-stripe lockdep subclass (see PageCachePool): shard index i gets
  // subclass i+1 so stripe 0 is distinct from the class's base node.
  for (size_t i = 0; i < shards_.size(); ++i) {
    shards_[i].mu.set_subclass(static_cast<uint32_t>(i + 1));
  }
}

std::optional<InodePtr> DentryCache::LookupEntry(const Inode* dir, const std::string& name) {
  Key key{dir, name};
  Shard& shard = ShardFor(key);
  InodePtr dropped;  // declared before the lock: released after unlocking
  std::lock_guard<analysis::CheckedMutex> lock(shard.mu);
  auto it = shard.entries.find(key);
  if (it == shard.entries.end()) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  }
  if (it->second.expiry_ns != UINT64_MAX && clock_->NowNs() >= it->second.expiry_ns) {
    dropped = std::move(it->second.child);
    shard.lru.erase(it->second.lru_it);
    shard.entries.erase(it);
    expiries_.fetch_add(1, std::memory_order_relaxed);
    misses_.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  }
  if (it->second.child == nullptr) {
    negative_hits_.fetch_add(1, std::memory_order_relaxed);
  } else {
    hits_.fetch_add(1, std::memory_order_relaxed);
  }
  clock_->Advance(costs_->dcache_hit_ns);
  // LRU touch.
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second.lru_it);
  return it->second.child;
}

void DentryCache::Insert(const Inode* dir, const std::string& name, InodePtr child,
                         uint64_t ttl_ns) {
  Key key{dir, name};
  Shard& shard = ShardFor(key);
  uint64_t expiry = ttl_ns == UINT64_MAX ? UINT64_MAX : clock_->NowNs() + ttl_ns;
  InodePtr dropped;  // declared before the lock: released after unlocking
  std::lock_guard<analysis::CheckedMutex> lock(shard.mu);
  auto it = shard.entries.find(key);
  if (it != shard.entries.end()) {
    dropped = std::exchange(it->second.child, std::move(child));
    it->second.expiry_ns = expiry;
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second.lru_it);
    return;
  }
  if (shard.entries.size() >= max_per_shard_ && !shard.lru.empty()) {
    // Evict the shard's least-recently-used entry, like Linux's LRU dentry
    // shrinker (scoped to the stripe, so eviction never takes other locks).
    auto victim = shard.entries.find(shard.lru.back());
    dropped = std::move(victim->second.child);
    shard.entries.erase(victim);
    shard.lru.pop_back();
    evictions_.fetch_add(1, std::memory_order_relaxed);
  }
  shard.lru.push_front(key);
  shard.entries.emplace(std::move(key), Entry{std::move(child), expiry, shard.lru.begin()});
}

void DentryCache::Invalidate(const Inode* dir, const std::string& name) {
  Key key{dir, name};
  Shard& shard = ShardFor(key);
  InodePtr dropped;  // declared before the lock: released after unlocking
  std::lock_guard<analysis::CheckedMutex> lock(shard.mu);
  auto it = shard.entries.find(key);
  if (it != shard.entries.end()) {
    dropped = std::move(it->second.child);
    shard.lru.erase(it->second.lru_it);
    shard.entries.erase(it);
  }
}

void DentryCache::InvalidateDir(const Inode* dir) {
  std::vector<InodePtr> dropped;
  for (Shard& shard : shards_) {
    {
      std::lock_guard<analysis::CheckedMutex> lock(shard.mu);
      for (auto it = shard.entries.begin(); it != shard.entries.end();) {
        if (it->first.dir == dir) {
          dropped.push_back(std::move(it->second.child));
          shard.lru.erase(it->second.lru_it);
          it = shard.entries.erase(it);
        } else {
          ++it;
        }
      }
    }
    dropped.clear();  // inode eviction runs outside the stripe lock
  }
}

void DentryCache::Clear() {
  std::vector<InodePtr> dropped;
  for (Shard& shard : shards_) {
    {
      std::lock_guard<analysis::CheckedMutex> lock(shard.mu);
      dropped.reserve(shard.entries.size());
      for (auto& [key, entry] : shard.entries) {
        dropped.push_back(std::move(entry.child));
      }
      shard.entries.clear();
      shard.lru.clear();
    }
    dropped.clear();  // inode eviction runs outside the stripe lock
  }
}

size_t DentryCache::size() const {
  size_t total = 0;
  for (Shard& shard : shards_) {
    std::lock_guard<analysis::CheckedMutex> lock(shard.mu);
    total += shard.entries.size();
  }
  return total;
}

}  // namespace cntr::kernel
