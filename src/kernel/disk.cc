#include "src/kernel/disk.h"

#include <algorithm>
#include <cstring>
#include "src/analysis/lockdep.h"

namespace cntr::kernel {

void DiskModel::ChargeRead(uint64_t bytes, uint32_t ops) {
  {
    std::lock_guard<analysis::CheckedMutex> lock(mu_);
    stats_.read_ops += ops;
    stats_.bytes_read += bytes;
  }
  clock_->Advance(static_cast<uint64_t>(ops) * costs_->disk_op_ns +
                  bytes * costs_->disk_byte_ns_num / costs_->disk_byte_ns_den);
}

void DiskModel::ChargeWrite(uint64_t bytes, uint32_t ops) {
  {
    std::lock_guard<analysis::CheckedMutex> lock(mu_);
    stats_.write_ops += ops;
    stats_.bytes_written += bytes;
  }
  clock_->Advance(static_cast<uint64_t>(ops) * costs_->disk_op_ns +
                  bytes * costs_->disk_byte_ns_num / costs_->disk_byte_ns_den);
}

void DiskModel::ChargeFlush() {
  {
    std::lock_guard<analysis::CheckedMutex> lock(mu_);
    ++stats_.flushes;
  }
  clock_->Advance(costs_->disk_flush_ns);
}

void DiskModel::ChargeDirectWrite(uint64_t bytes, uint32_t ops) {
  {
    std::lock_guard<analysis::CheckedMutex> lock(mu_);
    stats_.write_ops += ops;
    stats_.bytes_written += bytes;
  }
  clock_->Advance((static_cast<uint64_t>(ops) * costs_->disk_op_ns +
                   bytes * costs_->disk_byte_ns_num / costs_->disk_byte_ns_den) /
                  direct_parallelism_);
}

void DiskModel::ChargeParallelWrite(uint64_t bytes, uint32_t ops, uint32_t queue_depth) {
  if (queue_depth == 0) {
    queue_depth = 1;
  }
  {
    std::lock_guard<analysis::CheckedMutex> lock(mu_);
    stats_.write_ops += ops;
    stats_.bytes_written += bytes;
  }
  clock_->Advance(static_cast<uint64_t>(ops) * costs_->disk_op_ns / queue_depth +
                  bytes * costs_->disk_byte_ns_num / costs_->disk_byte_ns_den);
}

void DiskModel::ReadData(Ino ino, uint64_t off, uint64_t len, char* out) const {
  std::lock_guard<analysis::CheckedMutex> lock(mu_);
  uint64_t n = 0;
  auto it = data_.find(ino);
  if (it != data_.end() && off < it->second.size()) {
    n = std::min<uint64_t>(len, it->second.size() - off);
    std::memcpy(out, it->second.data() + off, n);
  }
  // Past the stored bytes the disk reads zeros.
  std::memset(out + n, 0, len - n);
}

void DiskModel::WriteData(Ino ino, uint64_t off, uint64_t len, const char* src) {
  std::lock_guard<analysis::CheckedMutex> lock(mu_);
  auto& vec = data_[ino];
  if (vec.size() < off + len) {
    vec.resize(off + len, 0);
  }
  std::memcpy(vec.data() + off, src, len);
}

void DiskModel::TruncateData(Ino ino, uint64_t new_size) {
  std::lock_guard<analysis::CheckedMutex> lock(mu_);
  auto it = data_.find(ino);
  if (it == data_.end()) {
    return;
  }
  it->second.resize(new_size, 0);
}

void DiskModel::FreeData(Ino ino) {
  std::lock_guard<analysis::CheckedMutex> lock(mu_);
  data_.erase(ino);
}

uint64_t DiskModel::StoredBytes(Ino ino) const {
  std::lock_guard<analysis::CheckedMutex> lock(mu_);
  auto it = data_.find(ino);
  return it == data_.end() ? 0 : it->second.size();
}

uint64_t DiskModel::TotalStoredBytes() const {
  std::lock_guard<analysis::CheckedMutex> lock(mu_);
  uint64_t total = 0;
  for (const auto& [ino, vec] : data_) {
    total += vec.size();
  }
  return total;
}

}  // namespace cntr::kernel
