// Seeded input generation for the benchmark workloads.
//
// Every input the program sees -- tree shape, names, file sizes, file
// contents and the order of operations -- derives from the --seed argument
// through the generator below, so one seed always replays the same run.
// The generator is the benchmark's own (not src/util/rng.h), so a change to
// the program's PRNG cannot move the inputs.
#ifndef PERFBENCH_SRC_INPUTS_H_
#define PERFBENCH_SRC_INPUTS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

// SplitMix64 finalizer: a bijective 64-bit mix.
uint64_t Mix64(uint64_t x);
inline uint64_t MixKey(uint64_t a, uint64_t b) { return Mix64(a ^ Mix64(b + 0x632be59bd9b4e019ULL)); }

class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() { return Mix64(state_ += 0x9e3779b97f4a7c15ULL); }
  uint64_t Below(uint64_t bound) { return Next() % bound; }
  uint64_t Range(uint64_t lo, uint64_t hi) { return lo + Below(hi - lo + 1); }
  double Uniform() { return static_cast<double>(Next() >> 11) * (1.0 / (1ULL << 53)); }

 private:
  uint64_t state_;
};

// 0..n-1 in a seeded order.
std::vector<size_t> Permutation(size_t n, Rng& rng);

// Fills `out` with the deterministic byte stream named by `key`.
void FillBytes(uint64_t key, char* out, size_t len);
// 64-bit content checksum (word-wise, four independent lanes).
uint64_t HashBytes(const char* data, size_t len);

// --- tool_start: a read-only tools tree, walked by a fresh attach ---
struct ToolFile {
  std::string path;        // relative to the tree root
  uint64_t size = 0;
  uint32_t read_len = 0;   // bytes the tool reads from offset 0 (<= size)
  uint64_t key = 0;        // content key for FillBytes
  uint64_t prefix_hash = 0;  // HashBytes of the first read_len bytes
};
struct ToolDir {
  std::string path;                // relative to the tree root; "" = root
  std::vector<std::string> names;  // expected listing (dirs + files), sorted
  std::vector<size_t> files;       // indices into ToolTree::files
};
struct ToolTree {
  std::vector<ToolDir> dirs;  // parents precede children
  std::vector<ToolFile> files;
  uint64_t total_bytes = 0;
};
ToolTree MakeToolTree(uint64_t seed);
// Visiting order of round `round`: directories, and files within each one.
struct RoundPlan {
  std::vector<size_t> dirs;
  std::vector<std::vector<size_t>> files;  // per entry of `dirs`
};
RoundPlan MakeRoundPlan(const ToolTree& tree, uint64_t seed, uint64_t round);

// --- data_stream and fleet_mixed: files of stamped blocks ---
//
// Each block starts with a 32-byte stamp (magic, file, block, version)
// followed by the body of one of a few pre-generated buffers. A reader
// checks the stamp and the body checksum, so a block served from the
// wrong file, offset or generation is caught without regenerating it.
class StampedBlocks {
 public:
  static constexpr size_t kStampBytes = 32;

  StampedBlocks(uint64_t seed, size_t block_size, size_t bodies);
  // Stamps body buffer `body` for (file, block, version) and returns it.
  // The buffer stays valid until the next Prepare of the same body.
  const char* Prepare(size_t body, uint64_t file, uint64_t block, uint32_t version);
  bool Verify(const char* data, size_t len, size_t body, uint64_t file, uint64_t block,
              uint32_t version) const;

 private:
  size_t block_size_;
  std::vector<std::vector<char>> buffers_;
  std::vector<uint64_t> body_hashes_;
};

// Expected state of one stamped block.
struct BlockState {
  uint32_t version = 0;
  uint8_t body = 0;
};

struct StreamFile {
  std::string name;
  uint64_t blocks = 0;  // size in 1 MiB blocks
};
struct StreamSet {
  std::vector<StreamFile> files;
  uint64_t total_bytes = 0;
};
// Groups of 4, 6, 8, 10 and 12 MiB files until the set reaches
// `target_bytes`, in seeded order.
StreamSet MakeStreamSet(uint64_t seed, uint64_t target_bytes);

struct FleetFile {
  std::string name;
  uint64_t blocks = 0;  // size in 4 KiB blocks
};
// One mount's working set: 32 files of 16-128 KiB (stratified sizes).
std::vector<FleetFile> MakeFleetSet(uint64_t seed, size_t mount);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_INPUTS_H_
