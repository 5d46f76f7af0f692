// Set-associative L2 cache model (tags only; data lives in the backing
// store).
//
// The L2 is the GPU's coherence point for PCIe traffic, which is the
// micro-architectural fact the paper's central optimization rests on:
// polling on a device-memory location can HIT in L2 (cheap), and an
// incoming NIC write invalidates the line so the next poll misses once
// and observes the new value. Polling on system memory can never use the
// L2 at all.
//
// We model tags + LRU only; data always comes from the backing store at
// access time, so coherence is trivially correct and the cache purely
// shapes latency and hit/miss counters.
#pragma once

#include <cstdint>
#include <vector>

#include "mem/address_map.h"

namespace pg::gpu {

struct L2Config {
  std::uint32_t line_size = 128;
  std::uint32_t num_sets = 128;
  std::uint32_t ways = 16;  // 128 * 16 * 128B = 256 KiB (Kepler-class slice)
};

class L2Cache {
 public:
  explicit L2Cache(L2Config cfg);

  /// Looks up the line containing `addr`; allocates on miss.
  /// Returns true on hit.
  bool access(mem::Addr addr, bool is_write);

  /// True when the line containing `addr` is cached. A pure query: no
  /// LRU update, no counters.
  bool holds(mem::Addr addr) const;

  /// Accounts `n` read hits whose lines are re-stamped by a later
  /// access(): advances the LRU clock and the hit count. A parked spin
  /// loop's skipped probes are credited this way (gpu/device.h).
  void credit_hits(std::uint64_t n) {
    clock_ += n;
    hits_ += n;
  }

  /// Invalidates every line overlapping [addr, addr+len) — the DMA-write
  /// coherence action.
  void invalidate_range(mem::Addr addr, std::uint64_t len);

  void invalidate_all();

  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }
  std::uint64_t invalidations() const { return invalidations_; }
  const L2Config& config() const { return cfg_; }

 private:
  struct Line {
    std::uint64_t tag = 0;
    bool valid = false;
    std::uint64_t lru_stamp = 0;
  };

  std::uint64_t line_addr(mem::Addr addr) const { return addr / cfg_.line_size; }
  std::uint32_t set_of(std::uint64_t line) const {
    return static_cast<std::uint32_t>(line % cfg_.num_sets);
  }

  L2Config cfg_;
  std::vector<Line> lines_;  // num_sets * ways, set-major
  std::uint64_t clock_ = 0;  // LRU stamp source
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t invalidations_ = 0;
};

}  // namespace pg::gpu
