#include "perfbench/src/inputs.h"

#include <algorithm>
#include <cmath>
#include <cstring>

namespace perfbench {

namespace {

constexpr uint64_t kStampMagic = 0x63'6e'74'72'62'65'6e'63ULL;  // "cntrbenc"

std::string RandomName(Rng& rng, size_t index, const char* suffix) {
  static constexpr char kLetters[] = "abcdefghijklmnopqrstuvwxyz";
  std::string name;
  const uint64_t len = rng.Range(2, 9);
  for (uint64_t i = 0; i < len; ++i) {
    name += kLetters[rng.Below(26)];
  }
  // The index keeps names unique within the tree.
  name += "-" + std::to_string(index) + suffix;
  return name;
}

template <typename T>
void Shuffle(std::vector<T>& v, Rng& rng) {
  for (size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[rng.Below(i)]);
  }
}

}  // namespace

std::vector<size_t> Permutation(size_t n, Rng& rng) {
  std::vector<size_t> v(n);
  for (size_t i = 0; i < n; ++i) {
    v[i] = i;
  }
  Shuffle(v, rng);
  return v;
}

uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

void FillBytes(uint64_t key, char* out, size_t len) {
  size_t i = 0;
  for (uint64_t word = 0; i + 8 <= len; i += 8, ++word) {
    const uint64_t v = Mix64(key + word);
    std::memcpy(out + i, &v, 8);
  }
  if (i < len) {
    const uint64_t v = Mix64(key + len / 8);
    std::memcpy(out + i, &v, len - i);
  }
}

uint64_t HashBytes(const char* data, size_t len) {
  constexpr uint64_t kMul = 0x9e3779b97f4a7c15ULL;
  uint64_t h[4] = {len, 1, 2, 3};
  size_t i = 0;
  for (; i + 32 <= len; i += 32) {
    for (int lane = 0; lane < 4; ++lane) {
      uint64_t w = 0;
      std::memcpy(&w, data + i + 8 * lane, 8);
      h[lane] = (h[lane] ^ w) * kMul;
      h[lane] ^= h[lane] >> 29;
    }
  }
  uint64_t tail = 0;
  for (size_t shift = 0; i < len; ++i, shift = (shift + 8) % 64) {
    tail ^= static_cast<uint64_t>(static_cast<unsigned char>(data[i])) << shift;
  }
  return Mix64(h[0] ^ Mix64(h[1] ^ Mix64(h[2] ^ Mix64(h[3] ^ Mix64(tail)))));
}

ToolTree MakeToolTree(uint64_t seed) {
  constexpr size_t kDirs = 56;
  constexpr size_t kFiles = 640;
  constexpr size_t kMaxDepth = 4;
  static constexpr const char* kExts[] = {"", ".so", ".py", ".conf", ".txt", ".sh"};
  Rng rng(MixKey(seed, 0x7001));
  ToolTree tree;
  std::vector<size_t> depth;
  tree.dirs.push_back(ToolDir{});
  depth.push_back(0);
  for (size_t d = 1; d < kDirs; ++d) {
    size_t parent = rng.Below(tree.dirs.size());
    while (depth[parent] >= kMaxDepth) {
      parent = rng.Below(tree.dirs.size());
    }
    std::string name = RandomName(rng, d, ".d");
    tree.dirs[parent].names.push_back(name);
    const std::string& ppath = tree.dirs[parent].path;
    tree.dirs.push_back(ToolDir{ppath.empty() ? name : ppath + "/" + name, {}, {}});
    depth.push_back(depth[parent] + 1);
  }
  // Sizes and read lengths are stratified: each file draws from its own
  // stratum, so the totals a round moves barely depend on the seed.
  const std::vector<size_t> size_strata = Permutation(kFiles, rng);
  const std::vector<size_t> read_strata = Permutation(kFiles, rng);
  for (size_t f = 0; f < kFiles; ++f) {
    ToolDir& dir = tree.dirs[rng.Below(tree.dirs.size())];
    std::string name = RandomName(rng, f, kExts[rng.Below(6)]);
    ToolFile file;
    file.path = dir.path.empty() ? name : dir.path + "/" + name;
    // Log-uniform 512 B .. 256 KiB; the tool reads the first 4-64 KiB.
    const double size_q = (static_cast<double>(size_strata[f]) + rng.Uniform()) / kFiles;
    const double read_q = (static_cast<double>(read_strata[f]) + rng.Uniform()) / kFiles;
    file.size = static_cast<uint64_t>(512.0 * std::pow(512.0, size_q));
    file.read_len = static_cast<uint32_t>(
        std::min<uint64_t>(file.size, 4096 + static_cast<uint64_t>(read_q * 61440.0)));
    file.key = MixKey(seed, 0x100000 + f);
    dir.names.push_back(std::move(name));
    dir.files.push_back(tree.files.size());
    tree.total_bytes += file.size;
    tree.files.push_back(std::move(file));
  }
  for (ToolDir& dir : tree.dirs) {
    std::sort(dir.names.begin(), dir.names.end());
  }
  return tree;
}

RoundPlan MakeRoundPlan(const ToolTree& tree, uint64_t seed, uint64_t round) {
  Rng rng(MixKey(MixKey(seed, 0x7002), round));
  RoundPlan plan;
  for (size_t d = 0; d < tree.dirs.size(); ++d) {
    plan.dirs.push_back(d);
  }
  Shuffle(plan.dirs, rng);
  for (size_t d : plan.dirs) {
    std::vector<size_t> files = tree.dirs[d].files;
    Shuffle(files, rng);
    plan.files.push_back(std::move(files));
  }
  return plan;
}

StampedBlocks::StampedBlocks(uint64_t seed, size_t block_size, size_t bodies)
    : block_size_(block_size) {
  for (size_t b = 0; b < bodies; ++b) {
    std::vector<char> buf(block_size);
    FillBytes(MixKey(seed, 0x5000 + b), buf.data(), buf.size());
    body_hashes_.push_back(HashBytes(buf.data() + kStampBytes, block_size - kStampBytes));
    buffers_.push_back(std::move(buf));
  }
}

const char* StampedBlocks::Prepare(size_t body, uint64_t file, uint64_t block, uint32_t version) {
  char* buf = buffers_[body].data();
  const uint64_t stamp[4] = {kStampMagic, file, block, version};
  std::memcpy(buf, stamp, kStampBytes);
  return buf;
}

bool StampedBlocks::Verify(const char* data, size_t len, size_t body, uint64_t file,
                           uint64_t block, uint32_t version) const {
  if (len != block_size_) {
    return false;
  }
  const uint64_t stamp[4] = {kStampMagic, file, block, version};
  return std::memcmp(data, stamp, kStampBytes) == 0 &&
         HashBytes(data + kStampBytes, len - kStampBytes) == body_hashes_[body];
}

StreamSet MakeStreamSet(uint64_t seed, uint64_t target_bytes) {
  Rng rng(MixKey(seed, 0x7003));
  // Whole groups of {4, 6, 8, 10, 12} MiB files in seeded order, so every
  // seed streams the same total over the same mix of file lengths.
  std::vector<uint64_t> sizes;
  uint64_t total = 0;
  while (total < target_bytes) {
    for (uint64_t mib = 4; mib <= 12; mib += 2) {
      sizes.push_back(mib);
      total += mib << 20;
    }
  }
  Shuffle(sizes, rng);
  StreamSet set;
  for (uint64_t mib : sizes) {
    set.files.push_back(StreamFile{RandomName(rng, set.files.size(), ".img"), mib});
  }
  set.total_bytes = total;
  return set;
}

std::vector<FleetFile> MakeFleetSet(uint64_t seed, size_t mount) {
  constexpr size_t kFiles = 32;
  Rng rng(MixKey(MixKey(seed, 0x7004), mount));
  const std::vector<size_t> strata = Permutation(kFiles, rng);
  std::vector<FleetFile> files(kFiles);
  for (size_t i = 0; i < kFiles; ++i) {
    files[i].name = RandomName(rng, i, ".db");
    files[i].blocks = 4 + strata[i] * 29 / kFiles;  // 4 .. 32 blocks of 4 KiB
  }
  return files;
}

}  // namespace perfbench
