// Kernel-wide dentry cache.
//
// Why it matters for the paper: native filesystems insert entries with
// infinite validity (invalidated on mutation), while FUSE mounts return a
// finite TTL. CntrFS lookups therefore go to the userspace server again and
// again on cold trees — one open() + one stat() on the server side per
// lookup — which is exactly the bottleneck the paper measures in
// compilebench-read (13.3x) and postmark (7.1x). READDIRPLUS (fuse_fs.h)
// attacks the round trips; this cache is also lock-striped into shards with
// per-shard LRU so concurrent lookups from many server/client threads do
// not serialize on one mutex (the Figure 4 scaling path).
#ifndef CNTR_SRC_KERNEL_DCACHE_H_
#define CNTR_SRC_KERNEL_DCACHE_H_

#include <atomic>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/kernel/inode.h"
#include "src/util/hash.h"
#include "src/util/sim_clock.h"
#include "src/analysis/lockdep.h"

namespace cntr::kernel {

class DentryCache {
 public:
  DentryCache(SimClock* clock, const CostModel* costs, size_t max_entries = 1 << 16,
              size_t num_shards = 16);

  // Returns the cached child and charges the dcache-hit cost; null on miss,
  // expiry, or a cached-negative entry (use LookupEntry to tell the last
  // two apart).
  InodePtr Lookup(const Inode* dir, const std::string& name) {
    return LookupEntry(dir, name).value_or(nullptr);
  }

  // Tri-state lookup: nullopt = nothing cached (go ask the filesystem);
  // a null InodePtr = cached negative (the name is known absent — answer
  // ENOENT without a round trip); non-null = positive hit. Hits of either
  // polarity charge the dcache-hit cost and touch the LRU.
  std::optional<InodePtr> LookupEntry(const Inode* dir, const std::string& name);

  // `ttl_ns` == UINT64_MAX means valid until invalidated. At capacity the
  // shard evicts its least-recently-used entry.
  void Insert(const Inode* dir, const std::string& name, InodePtr child, uint64_t ttl_ns);

  // Caches "this name does not exist" (a FUSE negative dentry: the paper's
  // rust-fuse server cannot grant these, so CntrFS re-round-tripped every
  // repeated miss). Overwritten by any positive Insert and removed by
  // Invalidate, so local create/rename/unlink restore coherence.
  void InsertNegative(const Inode* dir, const std::string& name, uint64_t ttl_ns) {
    Insert(dir, name, nullptr, ttl_ns);
  }

  // Every path that drops an entry (these three, expiry, overwrite and LRU
  // eviction) releases its inode only after the stripe lock is released,
  // as Linux's shrink_dentry_list does: inode eviction — page drop, FORGET
  // queueing — never nests under kernel.dcache.shard.
  void Invalidate(const Inode* dir, const std::string& name);
  void InvalidateDir(const Inode* dir);
  void Clear();

  size_t size() const;
  size_t num_shards() const { return shards_.size(); }

  // Counters are atomics so reading statistics never contends with lookups.
  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t expiries = 0;
    uint64_t evictions = 0;
    uint64_t negative_hits = 0;  // ENOENT answered from the cache
  };
  Stats stats() const {
    Stats s;
    s.hits = hits_.load(std::memory_order_relaxed);
    s.misses = misses_.load(std::memory_order_relaxed);
    s.expiries = expiries_.load(std::memory_order_relaxed);
    s.evictions = evictions_.load(std::memory_order_relaxed);
    s.negative_hits = negative_hits_.load(std::memory_order_relaxed);
    return s;
  }

 private:
  struct Key {
    const Inode* dir;
    std::string name;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    size_t operator()(const Key& k) const {
      return HashCombine(HashMix64(reinterpret_cast<uintptr_t>(k.dir)),
                         std::hash<std::string>()(k.name));
    }
  };
  struct Entry {
    InodePtr child;
    uint64_t expiry_ns;  // UINT64_MAX = no expiry
    std::list<Key>::iterator lru_it;
  };

  // One lock stripe: its own map and LRU list, padded to a cache line so
  // neighbouring shard locks do not false-share.
  struct alignas(64) Shard {
    mutable analysis::CheckedMutex mu{"kernel.dcache.shard"};
    std::unordered_map<Key, Entry, KeyHash> entries;
    std::list<Key> lru;  // front = most recent
  };

  Shard& ShardFor(const Key& key) const {
    return shards_[KeyHash()(key) % shards_.size()];
  }

  SimClock* clock_;
  const CostModel* costs_;
  size_t max_per_shard_;
  mutable std::vector<Shard> shards_;

  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> expiries_{0};
  std::atomic<uint64_t> evictions_{0};
  std::atomic<uint64_t> negative_hits_{0};
};

}  // namespace cntr::kernel

#endif  // CNTR_SRC_KERNEL_DCACHE_H_
