#include "src/analysis/lockdep.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#if defined(__has_include)
#if __has_include(<execinfo.h>)
#include <execinfo.h>
#define CNTR_LOCKDEP_HAVE_BACKTRACE 1
#endif
#endif

namespace cntr::analysis {

namespace lockdep_internal {
std::atomic<int> g_enabled{0};
}  // namespace lockdep_internal

namespace {

using lockdep_internal::Mode;

constexpr int kMaxFrames = 24;
constexpr uint64_t kChainSeed = 0x436e74724c6bULL;  // "CntrLk"

// ---------------------------------------------------------------------------
// Per-thread state
// ---------------------------------------------------------------------------

struct Held {
  uint32_t node = 0;
  Mode mode = Mode::kExclusive;
  const char* name = nullptr;
  uint64_t chain_prev = 0;  // chain key before this entry was pushed
};

struct ThreadState {
  std::vector<Held> held;
  uint64_t chain_key = kChainSeed;
  bool in_hook = false;
};

// Per-thread state, freed when its thread exits. Hooks can still run after
// that, from thread_local or static destructors that run later on the same
// thread: they find no state and skip validation, so the validator never
// touches freed memory whatever the teardown order. The two trivially
// destructible thread_locals below stay usable for the whole thread exit.
thread_local ThreadState* tls_state = nullptr;
thread_local bool tls_state_freed = false;

struct ThreadStateReaper {
  ~ThreadStateReaper() {
    delete tls_state;
    tls_state = nullptr;
    tls_state_freed = true;
  }
};

// Null once the calling thread's exit has freed its state.
ThreadState* TS() {
  if (tls_state == nullptr && !tls_state_freed) {
    thread_local ThreadStateReaper reaper;  // frees the state at thread exit
    (void)reaper;
    tls_state = new ThreadState();
  }
  return tls_state;
}

struct HookScope {
  explicit HookScope(ThreadState& ts) : ts(ts) { ts.in_hook = true; }
  ~HookScope() { ts.in_hook = false; }
  ThreadState& ts;
};

inline uint64_t MixChain(uint64_t key, uint64_t v) {
  key ^= (v + 0x9e3779b97f4a7c15ULL + (key << 6) + (key >> 2));
  key *= 0xbf58476d1ce4e5b9ULL;
  return key ^ (key >> 31);
}

void RecomputeChain(ThreadState& ts) {
  uint64_t key = kChainSeed;
  for (Held& h : ts.held) {
    h.chain_prev = key;
    key = MixChain(key, h.node);
  }
  ts.chain_key = key;
}

// ---------------------------------------------------------------------------
// Validated-chain cache (the lockdep chain-hash analogue)
// ---------------------------------------------------------------------------
//
// A (held-chain, next-node, hook-kind) triple that validated clean once is
// remembered in a fixed lock-free table, so steady-state acquisition
// patterns never touch the graph mutex again. Collision-evicted entries
// only cost a re-validation.

constexpr size_t kChainCacheSize = 1 << 16;
constexpr uint64_t kAcquireSalt = 0x11;
constexpr uint64_t kWaitSalt = 0x22;
constexpr uint64_t kNotifySalt = 0x33;

std::atomic<uint64_t>* ChainCache() {
  static std::atomic<uint64_t>* cache = new std::atomic<uint64_t>[kChainCacheSize]();
  return cache;
}

uint64_t ChainKeyFor(uint64_t chain, uint32_t node, uint64_t salt) {
  uint64_t key = MixChain(MixChain(chain, salt), node);
  return key == 0 ? 1 : key;
}

bool ChainCacheHas(uint64_t key) {
  std::atomic<uint64_t>* cache = ChainCache();
  const size_t base = static_cast<size_t>(key >> 1) & (kChainCacheSize - 1);
  for (size_t i = 0; i < 4; ++i) {
    uint64_t v = cache[(base + i) & (kChainCacheSize - 1)].load(std::memory_order_relaxed);
    if (v == key) return true;
    if (v == 0) return false;
  }
  return false;
}

void ChainCacheInsert(uint64_t key) {
  std::atomic<uint64_t>* cache = ChainCache();
  const size_t base = static_cast<size_t>(key >> 1) & (kChainCacheSize - 1);
  for (size_t i = 0; i < 4; ++i) {
    std::atomic<uint64_t>& slot = cache[(base + i) & (kChainCacheSize - 1)];
    uint64_t expected = 0;
    if (slot.compare_exchange_strong(expected, key, std::memory_order_relaxed)) return;
    if (expected == key) return;
  }
  // All probe slots taken: evict the first (revalidation is correct, just
  // slower).
  cache[base].store(key, std::memory_order_relaxed);
}

void ChainCacheClear() {
  std::atomic<uint64_t>* cache = ChainCache();
  for (size_t i = 0; i < kChainCacheSize; ++i) cache[i].store(0, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Class registry + dependency graph
// ---------------------------------------------------------------------------

struct Backtrace {
  int depth = 0;
  void* frames[kMaxFrames];

  void Capture() {
#ifdef CNTR_LOCKDEP_HAVE_BACKTRACE
    depth = backtrace(frames, kMaxFrames);
#else
    depth = 0;
#endif
  }
};

std::string SymbolizeIndented(const Backtrace& bt, const char* indent) {
  std::ostringstream os;
#ifdef CNTR_LOCKDEP_HAVE_BACKTRACE
  if (bt.depth > 0) {
    char** syms = backtrace_symbols(const_cast<void**>(bt.frames), bt.depth);
    for (int i = 0; i < bt.depth; ++i) {
      os << indent << (syms != nullptr ? syms[i] : "?") << "\n";
    }
    free(syms);
    return os.str();
  }
#endif
  os << indent << "(backtrace unavailable)\n";
  return os.str();
}

// One recorded dependency edge, with the context of its first sighting.
struct Edge {
  Backtrace stack;           // where the edge was first recorded
  std::string held_context;  // the recording thread's held-lock names
};

struct Graph {
  std::mutex mu;

  // Class registry: name -> id; node = (id << 8) | subclass.
  std::unordered_map<std::string, uint32_t> class_ids;
  std::vector<const char*> class_names;  // index: id - 1

  // Adjacency: from-node -> (to-node -> edge).
  std::unordered_map<uint32_t, std::map<uint32_t, Edge>> edges;

  // One-shot reporting: (from, to) pairs (recursion uses (n, n)).
  std::set<std::pair<uint32_t, uint32_t>> reported;

  std::function<void(const LockdepReport&)> handler;
};

Graph& G() {
  static Graph* g = new Graph();
  return *g;
}

std::atomic<uint64_t> g_report_count{0};

std::string NodeName(Graph& g, uint32_t node) {
  const uint32_t cls = node >> 8;
  const uint32_t sub = node & 0xff;
  std::string name = (cls >= 1 && cls <= g.class_names.size())
                         ? g.class_names[cls - 1]
                         : "<unknown>";
  if (sub != 0) {
    name += "[s";
    name += std::to_string(sub);
    name += "]";
  }
  return name;
}

std::string HeldContext(Graph& g, const ThreadState& ts) {
  std::ostringstream os;
  for (size_t i = 0; i < ts.held.size(); ++i) {
    os << "  #" << i << " " << NodeName(g, ts.held[i].node)
       << (ts.held[i].mode == Mode::kShared ? " (shared)" : " (exclusive)") << "\n";
  }
  if (ts.held.empty()) os << "  (nothing)\n";
  return os.str();
}

// DFS over g.edges from `start`, looking for any node in `targets`.
// Returns the path start -> ... -> hit (inclusive), or empty.
std::vector<uint32_t> FindPathLocked(Graph& g, uint32_t start,
                                     const std::unordered_set<uint32_t>& targets) {
  std::unordered_map<uint32_t, uint32_t> parent;  // node -> predecessor
  std::deque<uint32_t> stack{start};
  parent[start] = start;
  while (!stack.empty()) {
    uint32_t n = stack.back();
    stack.pop_back();
    if (targets.count(n) != 0 && n != start) {
      std::vector<uint32_t> path;
      for (uint32_t cur = n;; cur = parent[cur]) {
        path.push_back(cur);
        if (cur == start) break;
      }
      std::reverse(path.begin(), path.end());
      return path;
    }
    auto it = g.edges.find(n);
    if (it == g.edges.end()) continue;
    for (const auto& [to, edge] : it->second) {
      if (parent.emplace(to, n).second) stack.push_back(to);
    }
  }
  return {};
}

void InvokeHandler(LockdepReport report) {
  g_report_count.fetch_add(1, std::memory_order_relaxed);
  std::function<void(const LockdepReport&)> handler;
  {
    std::lock_guard<std::mutex> lock(G().mu);
    handler = G().handler;
  }
  if (handler) {
    handler(report);
    return;
  }
  fprintf(stderr, "%s", report.details.c_str());
  fflush(stderr);
  abort();
}

// Builds the two-stack cycle report. `path` runs new-node -> ... -> held
// node; the closing edge held -> ... -> new is the acquisition being
// attempted right now. Caller holds g.mu; the handler runs after release.
LockdepReport BuildCycleReportLocked(Graph& g, const ThreadState& ts,
                                     const std::vector<uint32_t>& path,
                                     const std::string& head, const Backtrace& here) {
  LockdepReport report;
  report.kind = LockdepReport::Kind::kCycle;
  std::ostringstream os;
  os << "\n====== CNTR LOCKDEP: possible circular locking dependency ======\n";
  os << head << " while holding:\n" << HeldContext(g, ts);
  os << "\nexisting dependency chain (" << NodeName(g, path.front()) << " ~> "
     << NodeName(g, path.back()) << "):\n";
  for (size_t i = 0; i + 1 < path.size(); ++i) {
    report.cycle_nodes.push_back(NodeName(g, path[i]));
    auto from = g.edges.find(path[i]);
    os << "\n  " << NodeName(g, path[i]) << " -> " << NodeName(g, path[i + 1])
       << ", first recorded";
    if (from != g.edges.end()) {
      auto to = from->second.find(path[i + 1]);
      if (to != from->second.end()) {
        os << " while holding:\n" << to->second.held_context << "    at:\n"
           << SymbolizeIndented(to->second.stack, "      ");
        continue;
      }
    }
    os << " (stack not recorded)\n";
  }
  report.cycle_nodes.push_back(NodeName(g, path.back()));
  os << "\nclosing edge " << NodeName(g, path.back()) << " -> "
     << NodeName(g, path.front()) << ": the operation reported here, at:\n"
     << SymbolizeIndented(here, "      ");
  os << "================================================================\n";
  report.summary = "possible circular locking dependency: " +
                   NodeName(g, path.back()) + " -> " + NodeName(g, path.front()) +
                   " -> ... -> " + NodeName(g, path.back());
  report.details = os.str();
  return report;
}

void AddEdgeLocked(Graph& g, const ThreadState& ts, uint32_t from, uint32_t to) {
  if (from == to) return;
  auto [it, inserted] = g.edges[from].try_emplace(to);
  if (inserted) {
    it->second.stack.Capture();
    it->second.held_context = HeldContext(g, ts);
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Public controls
// ---------------------------------------------------------------------------

void SetLockdepEnabled(bool enabled) {
  lockdep_internal::g_enabled.store(enabled ? 1 : 0, std::memory_order_relaxed);
}

void SetLockdepReportHandler(std::function<void(const LockdepReport&)> handler) {
  std::lock_guard<std::mutex> lock(G().mu);
  G().handler = std::move(handler);
}

uint64_t LockdepReportCount() {
  return g_report_count.load(std::memory_order_relaxed);
}

void LockdepResetForTest() {
  {
    std::lock_guard<std::mutex> lock(G().mu);
    G().edges.clear();
    G().reported.clear();
  }
  ChainCacheClear();
  g_report_count.store(0, std::memory_order_relaxed);
  if (ThreadState* ts = TS()) {
    ts->held.clear();
    ts->chain_key = kChainSeed;
  }
}

size_t LockdepEdgeCount() {
  std::lock_guard<std::mutex> lock(G().mu);
  size_t n = 0;
  for (const auto& [from, tos] : G().edges) n += tos.size();
  return n;
}

namespace lockdep_internal {

uint32_t ResolveNode(const char* lock_class, uint32_t subclass) {
  Graph& g = G();
  std::lock_guard<std::mutex> lock(g.mu);
  auto [it, inserted] = g.class_ids.try_emplace(lock_class, 0);
  if (inserted) {
    g.class_names.push_back(lock_class);
    it->second = static_cast<uint32_t>(g.class_names.size());
  }
  return (it->second << 8) | (subclass & 0xff);
}

void OnAcquire(uint32_t node, const char* name, Mode mode, bool trylock) {
  ThreadState* state = TS();
  if (state == nullptr || state->in_hook) return;
  ThreadState& ts = *state;
  HookScope scope(ts);

  if (!trylock) {
    // Same-(class, subclass) recursion: deadlock unless both sides are
    // shared-mode reads (readers do not exclude readers). A try_lock that
    // fails instead of blocking is exempt by construction (handled by the
    // caller never reaching here on failure, and trylock skips the check —
    // that is the std::scoped_lock avoidance dance).
    for (const Held& h : ts.held) {
      if (h.node != node) continue;
      if (mode == Mode::kShared && h.mode == Mode::kShared) continue;
      Graph& g = G();
      std::optional<LockdepReport> report;
      {
        std::lock_guard<std::mutex> lock(g.mu);
        if (g.reported.emplace(node, node).second) {
          Backtrace here;
          here.Capture();
          LockdepReport r;
          r.kind = LockdepReport::Kind::kRecursion;
          r.summary = "possible recursive locking of " + NodeName(g, node);
          r.cycle_nodes = {NodeName(g, node), NodeName(g, node)};
          std::ostringstream os;
          os << "\n====== CNTR LOCKDEP: possible recursive locking ======\n"
             << "acquiring " << NodeName(g, node)
             << (mode == Mode::kShared ? " (shared)" : " (exclusive)")
             << " while already holding it:\n"
             << HeldContext(g, ts) << "at:\n" << SymbolizeIndented(here, "      ")
             << "======================================================\n";
          r.details = os.str();
          report = std::move(r);
        }
      }
      if (report) InvokeHandler(std::move(*report));
      break;
    }

    if (!ts.held.empty()) {
      const uint64_t key = ChainKeyFor(ts.chain_key, node, kAcquireSalt);
      if (!ChainCacheHas(key)) {
        Graph& g = G();
        std::optional<LockdepReport> report;
        bool clean = false;
        {
          std::lock_guard<std::mutex> lock(g.mu);
          std::unordered_set<uint32_t> targets;
          for (const Held& h : ts.held) targets.insert(h.node);
          std::vector<uint32_t> path = FindPathLocked(g, node, targets);
          if (!path.empty()) {
            if (g.reported.emplace(path.back(), node).second) {
              Backtrace here;
              here.Capture();
              report = BuildCycleReportLocked(
                  g, ts, path, "acquiring " + NodeName(g, node), here);
            }
          } else {
            AddEdgeLocked(g, ts, ts.held.back().node, node);
            clean = true;
          }
        }
        if (report) InvokeHandler(std::move(*report));
        if (clean) ChainCacheInsert(key);
      }
    }
  }

  Held h;
  h.node = node;
  h.mode = mode;
  h.name = name;
  h.chain_prev = ts.chain_key;
  ts.held.push_back(h);
  ts.chain_key = MixChain(ts.chain_key, node);
}

void OnRelease(uint32_t node) {
  ThreadState* state = TS();
  if (state == nullptr || state->in_hook) return;
  ThreadState& ts = *state;
  HookScope scope(ts);
  for (size_t i = ts.held.size(); i-- > 0;) {
    if (ts.held[i].node != node) continue;
    if (i + 1 == ts.held.size()) {
      ts.chain_key = ts.held[i].chain_prev;
      ts.held.pop_back();
    } else {
      ts.held.erase(ts.held.begin() + static_cast<ptrdiff_t>(i));
      RecomputeChain(ts);
    }
    return;
  }
  // No exact node: a lock_nested() acquisition pushed a per-site subclass
  // node but is released through the instance's base node. Pop the most
  // recent entry of the same class instead.
  const uint32_t cls = node >> 8;
  for (size_t i = ts.held.size(); i-- > 0;) {
    if ((ts.held[i].node >> 8) != cls) continue;
    if (i + 1 == ts.held.size()) {
      ts.chain_key = ts.held[i].chain_prev;
      ts.held.pop_back();
    } else {
      ts.held.erase(ts.held.begin() + static_cast<ptrdiff_t>(i));
      RecomputeChain(ts);
    }
    return;
  }
  // Unknown release: the lock was taken while the validator was disarmed
  // (or state was reset mid-flight). Ignore.
}

void OnCondWait(uint32_t cv_node, const char* name) {
  (void)name;
  ThreadState* state = TS();
  if (state == nullptr || state->in_hook) return;
  ThreadState& ts = *state;
  HookScope scope(ts);
  if (ts.held.empty()) return;

  const uint64_t key = ChainKeyFor(ts.chain_key, cv_node, kWaitSalt);
  if (ChainCacheHas(key)) return;

  Graph& g = G();
  std::optional<LockdepReport> report;
  bool clean = false;
  {
    std::lock_guard<std::mutex> lock(g.mu);
    std::unordered_set<uint32_t> targets;
    for (const Held& h : ts.held) targets.insert(h.node);
    std::vector<uint32_t> path = FindPathLocked(g, cv_node, targets);
    if (!path.empty()) {
      if (g.reported.emplace(path.back(), cv_node).second) {
        Backtrace here;
        here.Capture();
        report = BuildCycleReportLocked(
            g, ts, path, "waiting on " + NodeName(g, cv_node), here);
      }
    } else {
      for (const Held& h : ts.held) AddEdgeLocked(g, ts, h.node, cv_node);
      clean = true;
    }
  }
  if (report) InvokeHandler(std::move(*report));
  if (clean) ChainCacheInsert(key);
}

void OnCondNotify(uint32_t cv_node, const char* name) {
  (void)name;
  ThreadState* state = TS();
  if (state == nullptr || state->in_hook) return;
  ThreadState& ts = *state;
  HookScope scope(ts);
  if (ts.held.empty()) return;

  const uint64_t key = ChainKeyFor(ts.chain_key, cv_node, kNotifySalt);
  if (ChainCacheHas(key)) return;

  Graph& g = G();
  std::optional<LockdepReport> report;
  bool clean = true;
  {
    std::lock_guard<std::mutex> lock(g.mu);
    // The edges to add are cv -> held (delivering this condvar's wakeup
    // can require each lock the notifier is holding). Adding cv -> H
    // closes a cycle iff H already reaches cv — e.g. a waiter recorded
    // H -> cv because it parks while holding H.
    for (const Held& h : ts.held) {
      std::vector<uint32_t> path = FindPathLocked(g, h.node, {cv_node});
      if (!path.empty()) {
        clean = false;
        if (g.reported.emplace(h.node, cv_node).second) {
          Backtrace here;
          here.Capture();
          // The existing chain runs h ~> cv; the closing hop is the notify
          // edge cv -> h this call would record.
          report = BuildCycleReportLocked(
              g, ts, path,
              "notifying " + NodeName(g, cv_node) + " (needs held lock " +
                  NodeName(g, h.node) + ")",
              here);
        }
        break;
      }
      AddEdgeLocked(g, ts, cv_node, h.node);
    }
  }
  if (report) InvokeHandler(std::move(*report));
  if (clean) ChainCacheInsert(key);
}

}  // namespace lockdep_internal

// Arms the gate from the environment before main() — matching the
// CNTR_FAULT_POINT convention of env-switched, always-compiled-in tooling.
namespace {
struct LockdepEnvInit {
  LockdepEnvInit() {
    const char* env = getenv("CNTR_LOCKDEP");
    if (env != nullptr && env[0] != '\0' && strcmp(env, "0") != 0) {
      lockdep_internal::g_enabled.store(1, std::memory_order_relaxed);
    }
  }
} lockdep_env_init;
}  // namespace

}  // namespace cntr::analysis
