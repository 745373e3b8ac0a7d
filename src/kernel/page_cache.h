// A capacity-limited, LRU page cache shared by every filesystem in one
// simulated kernel.
//
// Both the native path (ExtFs over the disk model) and the FUSE path cache
// pages here, so the paper's double-buffering effect — CntrFS keeps one copy
// in the FUSE mount's cache and a second in the server's filesystem cache,
// halving effective cache capacity (§5.2.2, IOzone) — emerges naturally from
// the shared capacity.
//
// Concurrency: the pool is lock-striped into shards keyed by (owner, page
// index) hash, each with its own mutex, page map and LRU list, so parallel
// readers/writers (the Figure 4 multithreading path) do not serialize on a
// single pool mutex. Capacity and eviction are likewise per shard.
//
// Per-owner index: inside each shard every page is also threaded onto its
// owner's chain (Linux's per-inode address_space), so DropAll and
// TruncatePages visit only that owner's pages. Dropping an inode costs
// O(its pages + shards), not O(pool) — inode eviction after a dentry drop
// would otherwise scan the whole cache once per evicted inode.
//
// Eviction policy: clean pages are evicted LRU; dirty pages are pinned until
// their owner flushes them (owners flush on fsync, on dirty thresholds, and
// on release), at which point they become clean and evictable. The pool may
// transiently exceed capacity if everything is dirty, exactly like a kernel
// under writeback pressure.
#ifndef CNTR_SRC_KERNEL_PAGE_CACHE_H_
#define CNTR_SRC_KERNEL_PAGE_CACHE_H_

#include <atomic>
#include <cstdint>
#include <cstring>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "src/kernel/types.h"
#include "src/splice/page_ref.h"
#include "src/util/hash.h"
#include "src/util/sim_clock.h"
#include "src/analysis/lockdep.h"

namespace cntr::kernel {

// Identifies the cache space of one file: owners are file objects (MemFs
// inodes, FUSE inodes); any stable pointer works.
using CacheOwner = const void*;

class PageCachePool {
 public:
  PageCachePool(SimClock* clock, const CostModel* costs, uint64_t capacity_bytes,
                size_t num_shards = 16);

  // Copies a cached page into `out` (kPageSize bytes). Returns false on miss.
  // Charges the page-cache-hit cost on hit.
  bool ReadPage(CacheOwner owner, uint64_t idx, char* out);

  // True if the page is resident (no cost charged, no LRU touch).
  bool HasPage(CacheOwner owner, uint64_t idx) const;

  // Inserts or overwrites a whole page. May evict clean LRU pages.
  // Returns true if the page transitioned clean->dirty (or was inserted
  // dirty), so owners can keep exact dirty-byte accounting.
  bool StorePage(CacheOwner owner, uint64_t idx, const char* data, bool dirty);

  enum class UpdateResult { kNotResident, kUpdated, kNewlyDirty };
  // Updates [off, off+len) of a page if resident; marks dirty when asked.
  UpdateResult UpdatePage(CacheOwner owner, uint64_t idx, uint32_t off, uint32_t len,
                          const char* src, bool mark_dirty);

  // Zeroes the tail of the file's last page beyond `size` and drops whole
  // pages past it (truncate support). Returns the dirty bytes dropped, so
  // owners can keep exact dirty-byte accounting.
  uint64_t TruncatePages(CacheOwner owner, uint64_t new_size);

  // Clears the dirty bit; returns true if the page was dirty (so owners can
  // keep exact dirty-byte accounting even when two flushers race).
  bool MarkClean(CacheOwner owner, uint64_t idx);
  // Generation-checked variant for concurrent writeback: clears the dirty
  // bit only if the page has not been re-dirtied since the snapshot whose
  // generation the flusher carries — a write that lands between PeekPage and
  // MarkClean keeps the page dirty instead of being silently lost.
  bool MarkCleanIfGen(CacheOwner owner, uint64_t idx, uint64_t gen);
  void Drop(CacheOwner owner, uint64_t idx);
  // Drops every page of one owner, dirty ones included; returns the dirty
  // bytes dropped (as TruncatePages).
  uint64_t DropAll(CacheOwner owner);
  // Drops every clean page of every owner (echo 3 > drop_caches); dirty
  // pages stay pinned.
  void DropAllClean();

  // Dirty page indexes of one owner, sorted ascending (for extent-coalesced
  // writeback).
  std::vector<uint64_t> DirtyPages(CacheOwner owner) const;

  // Copies page content (must be resident) without LRU/cost effects; used by
  // writeback to read dirty data. `gen_out`, when non-null, receives the
  // page's dirty generation for a later MarkCleanIfGen.
  bool PeekPage(CacheOwner owner, uint64_t idx, char* out, uint64_t* gen_out = nullptr) const;

  // --- splice surface: zero-copy page references ---
  //
  // Cached pages are shared-owned, so a resident page can leave the cache as
  // a reference (splice file->pipe) and a pipe page can enter it as one
  // (splice pipe->cache). Any holder outside the cache makes the page
  // read-only for the cache too: the mutating paths (StorePage, UpdatePage,
  // TruncatePages) break the sharing with a copy first (COW), so a spliced
  // reference never observes later writes.

  // Returns a shared reference to a resident page (LRU touch, hit/miss
  // accounting, splice cost — the remap is what a splice() out of the cache
  // pays instead of page_cache_hit + copy). nullopt on miss.
  // `gen_out` as in PeekPage (for generation-checked writeback).
  std::optional<splice::PageRef> GetPageRef(CacheOwner owner, uint64_t idx,
                                            uint64_t* gen_out = nullptr);

  // Installs a full-page reference. No cost is charged here — the caller
  // charges per the returned mode (steal/alias at splice rate, copy
  // fallback at copy rate).
  //  * kStolen:  the reference was the sole owner — the page is adopted
  //              outright (the page-steal move of SPLICE_F_MOVE).
  //  * kAliased: the reference is shared and `allow_alias` was set — the
  //              cache installs the shared page read-only; a later write
  //              through either owner copies first (COW).
  //  * kCopied:  shared without `allow_alias`, or a short page: fallback to
  //              a private copy.
  enum class StoreRefMode { kStolen, kAliased, kCopied };
  struct StoreRefResult {
    StoreRefMode mode = StoreRefMode::kCopied;
    bool newly_dirty = false;  // same meaning as StorePage's return
  };
  StoreRefResult StorePageRef(CacheOwner owner, uint64_t idx, const splice::PageRef& ref,
                              bool dirty, bool allow_alias);

  // Removes a resident page from the cache and hands it out as a reference
  // (the donor half of a page-steal: the source cache entry is gone, like
  // page_cache_pipe_buf_try_steal). Dirty pages refuse (writeback owns
  // them). nullopt on miss or dirty.
  std::optional<splice::PageRef> StealPage(CacheOwner owner, uint64_t idx);

  uint64_t DirtyBytes(CacheOwner owner) const;
  uint64_t TotalDirtyBytes() const;
  uint64_t ResidentBytes() const;
  uint64_t capacity_bytes() const { return capacity_bytes_; }
  size_t num_shards() const { return shards_.size(); }

  // Counters are atomics so reading statistics never contends with the I/O
  // hot path.
  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    // Splice-surface traffic: how pages moved across the cache boundary.
    uint64_t ref_steals = 0;    // unique refs adopted without copy
    uint64_t ref_aliases = 0;   // shared refs installed read-only
    uint64_t ref_copies = 0;    // copy fallbacks (shared or short page)
    uint64_t cow_breaks = 0;    // writes that had to un-share a page first
  };
  Stats stats() const {
    Stats s;
    s.hits = hits_.load(std::memory_order_relaxed);
    s.misses = misses_.load(std::memory_order_relaxed);
    s.evictions = evictions_.load(std::memory_order_relaxed);
    s.ref_steals = ref_steals_.load(std::memory_order_relaxed);
    s.ref_aliases = ref_aliases_.load(std::memory_order_relaxed);
    s.ref_copies = ref_copies_.load(std::memory_order_relaxed);
    s.cow_breaks = cow_breaks_.load(std::memory_order_relaxed);
    return s;
  }

 private:
  struct Key {
    CacheOwner owner;
    uint64_t idx;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    size_t operator()(const Key& k) const {
      return HashCombine(HashMix64(reinterpret_cast<uintptr_t>(k.owner)),
                         static_cast<size_t>(k.idx));
    }
  };
  struct Page {
    // Shared so splice references can alias the cached buffer; mutators
    // must go through EnsureExclusiveLocked (COW) first.
    std::shared_ptr<char[]> data;
    bool dirty = false;
    // Bumped every time dirty content lands on the page; lets concurrent
    // writeback detect re-dirtying between snapshot and MarkCleanIfGen.
    uint64_t gen = 0;
    std::list<Key>::iterator lru_it;
    // The owner's chain through this shard (see "Per-owner index" above).
    // Map nodes never move, so the links stay valid until the page is
    // erased. `idx` repeats the key's page index so a chain walk can find
    // the map node.
    uint64_t idx = 0;
    Page* owner_prev = nullptr;
    Page* owner_next = nullptr;
  };
  using PageMap = std::unordered_map<Key, Page, KeyHash>;

  // One lock stripe with its own map, LRU list, capacity slice and dirty
  // bookkeeping; padded so neighbouring shard locks do not false-share.
  struct alignas(64) Shard {
    mutable analysis::CheckedMutex mu{"kernel.pagecache.shard"};
    PageMap pages;
    std::list<Key> lru;  // front = most recent
    // Head of each owner's page chain; an owner with no page here has no
    // entry.
    std::unordered_map<CacheOwner, Page*> owner_pages;
    // Per-owner dirty page sets, kept sorted for extent coalescing.
    std::unordered_map<CacheOwner, std::map<uint64_t, bool>> dirty;
  };

  Shard& ShardFor(const Key& key) const {
    return shards_[KeyHash()(key) % shards_.size()];
  }

  // Inserts a page absent from the shard at the LRU head and on its
  // owner's chain.
  void InsertPageLocked(Shard& shard, const Key& key, std::shared_ptr<char[]> data, bool dirty);
  // Unlinks a page from the LRU, its owner's chain and the dirty
  // bookkeeping, then frees it. Returns the iterator past it.
  PageMap::iterator ErasePageLocked(Shard& shard, PageMap::iterator it);
  // Erases the owner's pages in this shard with index >= first_idx, walking
  // only the owner's chain. Returns the dirty bytes erased.
  uint64_t DropOwnerPagesLocked(Shard& shard, CacheOwner owner, uint64_t first_idx);
  void TouchLocked(Shard& shard, Page& page, const Key& key);
  void EvictIfNeededLocked(Shard& shard);
  // Un-shares a page before mutation (COW break); charges a page copy when
  // outside references exist. `preserve_content` copies the old bytes into
  // the fresh page (partial updates need them; full overwrites do not).
  void EnsureExclusiveLocked(Page& page, bool preserve_content);

  SimClock* clock_;
  const CostModel* costs_;
  uint64_t capacity_bytes_;
  uint64_t capacity_per_shard_;
  mutable std::vector<Shard> shards_;

  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> evictions_{0};
  std::atomic<uint64_t> ref_steals_{0};
  std::atomic<uint64_t> ref_aliases_{0};
  std::atomic<uint64_t> ref_copies_{0};
  std::atomic<uint64_t> cow_breaks_{0};
  // Pool-wide dirty total kept as one atomic so TotalDirtyBytes() — polled
  // on the write hot path by writeback-threshold checks — is a single load
  // instead of a sweep over every shard lock.
  std::atomic<uint64_t> dirty_bytes_total_{0};
};

// Coalesces a sorted list of page indexes into contiguous extents; returns
// the number of extents. Disk and FUSE writeback cost one operation per
// extent, which is what makes batched writeback cheaper than scattered
// synchronous writes.
uint32_t CountExtents(const std::vector<uint64_t>& sorted_pages);

}  // namespace cntr::kernel

#endif  // CNTR_SRC_KERNEL_PAGE_CACHE_H_
