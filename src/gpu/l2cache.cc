#include "gpu/l2cache.h"

#include <cassert>

#include "common/bitops.h"

namespace pg::gpu {

L2Cache::L2Cache(L2Config cfg) : cfg_(cfg) {
  assert(is_power_of_two(cfg_.line_size));
  lines_.resize(static_cast<std::size_t>(cfg_.num_sets) * cfg_.ways);
}

bool L2Cache::access(mem::Addr addr, bool is_write) {
  const std::uint64_t line = line_addr(addr);
  const std::uint32_t set = set_of(line);
  Line* slot = &lines_[static_cast<std::size_t>(set) * cfg_.ways];
  Line* victim = slot;
  ++clock_;
  for (std::uint32_t w = 0; w < cfg_.ways; ++w) {
    Line& candidate = slot[w];
    if (candidate.valid && candidate.tag == line) {
      candidate.lru_stamp = clock_;
      ++hits_;
      return true;
    }
    if (!candidate.valid) {
      victim = &candidate;
    } else if (victim->valid && candidate.lru_stamp < victim->lru_stamp) {
      victim = &candidate;
    }
  }
  ++misses_;
  // Allocate on both read and write misses (write-allocate keeps
  // poll-after-own-store hitting).
  (void)is_write;
  victim->valid = true;
  victim->tag = line;
  victim->lru_stamp = clock_;
  return false;
}

bool L2Cache::holds(mem::Addr addr) const {
  const std::uint64_t line = line_addr(addr);
  const Line* slot =
      &lines_[static_cast<std::size_t>(set_of(line)) * cfg_.ways];
  for (std::uint32_t w = 0; w < cfg_.ways; ++w) {
    if (slot[w].valid && slot[w].tag == line) return true;
  }
  return false;
}

void L2Cache::invalidate_range(mem::Addr addr, std::uint64_t len) {
  if (len == 0) return;
  const std::uint64_t first = line_addr(addr);
  const std::uint64_t last = line_addr(addr + len - 1);
  for (std::uint64_t line = first; line <= last; ++line) {
    const std::uint32_t set = set_of(line);
    Line* slot = &lines_[static_cast<std::size_t>(set) * cfg_.ways];
    for (std::uint32_t w = 0; w < cfg_.ways; ++w) {
      if (slot[w].valid && slot[w].tag == line) {
        slot[w].valid = false;
        ++invalidations_;
      }
    }
  }
}

void L2Cache::invalidate_all() {
  for (Line& line : lines_) {
    if (line.valid) {
      line.valid = false;
      ++invalidations_;
    }
  }
}

}  // namespace pg::gpu
