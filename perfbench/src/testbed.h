// The pinned testbed: every CostModel value and Kernel::Config capacity the
// benchmark runs with, spelled out here instead of inherited from the
// defaults in src/util/sim_clock.h and src/kernel/kernel.h.
//
// A recalibration of those defaults therefore cannot move a virtual-time
// metric; only a change of mechanism can. The values are the defaults as
// of the benchmark's definition, with the scaled bench machine of
// HarnessOptions::BenchKernelConfig (96 MiB page cache, 8 MiB ext dirty
// threshold, 150 us disk barrier).
#ifndef PERFBENCH_SRC_TESTBED_H_
#define PERFBENCH_SRC_TESTBED_H_

#include <cstdio>
#include <string>

#include "src/kernel/kernel.h"

namespace perfbench {

inline cntr::kernel::Kernel::Config PinnedKernelConfig() {
  cntr::kernel::Kernel::Config config;
  cntr::CostModel& c = config.costs;
  c.syscall_entry_ns = 300;
  c.dcache_hit_ns = 150;
  c.fuse_round_trip_ns = 6000;
  c.fuse_thread_contention_ns = 350;
  c.fuse_ring_sqe_ns = 350;
  c.fuse_ring_cqe_ns = 300;
  c.fuse_ring_doorbell_ns = 2600;
  c.copy_page_ns = 400;
  c.splice_page_ns = 90;
  c.page_cache_hit_ns = 250;
  c.fs_lookup_ns = 1200;
  c.fs_inode_update_ns = 1500;
  c.fs_xattr_lookup_ns = 800;
  c.cntrfs_lookup_ns = 18'000;
  c.disk_op_ns = 90'000;
  c.disk_byte_ns_num = 6;
  c.disk_byte_ns_den = 1;
  c.disk_flush_ns = 150'000;
  config.page_cache_capacity = 96ull << 20;
  config.disk_capacity = 100ull << 30;
  config.ext_dirty_threshold = 8ull << 20;
  config.hostname = "bench";
  return config;
}

inline std::string DescribeTestbed(const cntr::kernel::Kernel::Config& config) {
  const cntr::CostModel& c = config.costs;
  char buf[1024];
  std::snprintf(
      buf, sizeof(buf),
      "# testbed costs_ns: syscall_entry=%llu dcache_hit=%llu fuse_round_trip=%llu "
      "fuse_thread_contention=%llu fuse_ring_sqe=%llu fuse_ring_cqe=%llu "
      "fuse_ring_doorbell=%llu copy_page=%llu splice_page=%llu page_cache_hit=%llu "
      "fs_lookup=%llu fs_inode_update=%llu fs_xattr_lookup=%llu cntrfs_lookup=%llu "
      "disk_op=%llu disk_byte=%llu/%llu disk_flush=%llu\n"
      "# testbed capacities: page_cache=%llu MiB disk=%llu GiB ext_dirty_threshold=%llu MiB\n",
      static_cast<unsigned long long>(c.syscall_entry_ns),
      static_cast<unsigned long long>(c.dcache_hit_ns),
      static_cast<unsigned long long>(c.fuse_round_trip_ns),
      static_cast<unsigned long long>(c.fuse_thread_contention_ns),
      static_cast<unsigned long long>(c.fuse_ring_sqe_ns),
      static_cast<unsigned long long>(c.fuse_ring_cqe_ns),
      static_cast<unsigned long long>(c.fuse_ring_doorbell_ns),
      static_cast<unsigned long long>(c.copy_page_ns),
      static_cast<unsigned long long>(c.splice_page_ns),
      static_cast<unsigned long long>(c.page_cache_hit_ns),
      static_cast<unsigned long long>(c.fs_lookup_ns),
      static_cast<unsigned long long>(c.fs_inode_update_ns),
      static_cast<unsigned long long>(c.fs_xattr_lookup_ns),
      static_cast<unsigned long long>(c.cntrfs_lookup_ns),
      static_cast<unsigned long long>(c.disk_op_ns),
      static_cast<unsigned long long>(c.disk_byte_ns_num),
      static_cast<unsigned long long>(c.disk_byte_ns_den),
      static_cast<unsigned long long>(c.disk_flush_ns),
      static_cast<unsigned long long>(config.page_cache_capacity >> 20),
      static_cast<unsigned long long>(config.disk_capacity >> 30),
      static_cast<unsigned long long>(config.ext_dirty_threshold >> 20));
  return buf;
}

}  // namespace perfbench

#endif  // PERFBENCH_SRC_TESTBED_H_
