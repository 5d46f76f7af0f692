#include "gpu/l2cache.h"

#include <algorithm>
#include <cassert>

#include "common/bitops.h"

namespace pg::gpu {

L2Cache::L2Cache(L2Config cfg) : cfg_(cfg) {
  assert(is_power_of_two(cfg_.line_size) && cfg_.line_size > 1);
  const std::size_t n = static_cast<std::size_t>(cfg_.num_sets) * cfg_.ways;
  tags_.assign(n, kInvalid);
  stamps_.assign(n, 0);
  valid_.assign(cfg_.num_sets, 0);
}

bool L2Cache::access(mem::Addr addr, bool is_write) {
  const std::uint64_t line = line_addr(addr);
  const std::uint32_t set = set_of(line);
  const std::size_t base = static_cast<std::size_t>(set) * cfg_.ways;
  const std::uint64_t* tags = &tags_[base];
  std::uint64_t* stamps = &stamps_[base];
  ++clock_;
  for (std::uint32_t w = 0; w < cfg_.ways; ++w) {
    if (tags[w] == line) {
      stamps[w] = clock_;
      ++hits_;
      return true;
    }
  }
  ++misses_;
  // Victim: the last empty way, else the least recently used (the first
  // of equal stamps).
  std::uint32_t victim = 0;
  bool empty = false;
  for (std::uint32_t w = 0; w < cfg_.ways; ++w) {
    if (tags[w] == kInvalid) {
      victim = w;
      empty = true;
    } else if (!empty && stamps[w] < stamps[victim]) {
      victim = w;
    }
  }
  // Allocate on both read and write misses (write-allocate keeps
  // poll-after-own-store hitting).
  (void)is_write;
  if (empty) ++valid_[set];
  tags_[base + victim] = line;
  stamps[victim] = clock_;
  return false;
}

bool L2Cache::holds(mem::Addr addr) const {
  const std::uint64_t line = line_addr(addr);
  const std::uint64_t* tags =
      &tags_[static_cast<std::size_t>(set_of(line)) * cfg_.ways];
  for (std::uint32_t w = 0; w < cfg_.ways; ++w) {
    if (tags[w] == line) return true;
  }
  return false;
}

void L2Cache::invalidate_range(mem::Addr addr, std::uint64_t len) {
  if (len == 0) return;
  const std::uint64_t first = line_addr(addr);
  const std::uint64_t last = line_addr(addr + len - 1);
  for (std::uint64_t line = first; line <= last; ++line) {
    const std::uint32_t set = set_of(line);
    if (valid_[set] == 0) continue;
    std::uint64_t* tags = &tags_[static_cast<std::size_t>(set) * cfg_.ways];
    for (std::uint32_t w = 0; w < cfg_.ways; ++w) {
      if (tags[w] == line) {
        tags[w] = kInvalid;
        --valid_[set];
        ++invalidations_;
        break;  // a line occupies at most one way
      }
    }
  }
}

void L2Cache::invalidate_all() {
  for (std::uint64_t& tag : tags_) {
    if (tag != kInvalid) {
      tag = kInvalid;
      ++invalidations_;
    }
  }
  std::fill(valid_.begin(), valid_.end(), 0);
}

}  // namespace pg::gpu
