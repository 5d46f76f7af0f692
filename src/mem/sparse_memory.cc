#include "mem/sparse_memory.h"

#include <algorithm>
#include <cassert>

namespace pg::mem {

void SparseMemory::read(std::uint64_t offset,
                        std::span<std::uint8_t> out) const {
  assert(in_bounds(offset, out.size()) && "SparseMemory read out of bounds");
  std::uint64_t pos = offset;
  std::size_t produced = 0;
  while (produced < out.size()) {
    const std::uint64_t page_index = pos / kPageSize;
    const std::uint64_t page_offset = pos % kPageSize;
    const std::size_t chunk = static_cast<std::size_t>(
        std::min<std::uint64_t>(kPageSize - page_offset,
                                out.size() - produced));
    if (const Page* page = lookup_page(page_index)) {
      std::memcpy(out.data() + produced, page->data() + page_offset, chunk);
    } else {
      std::memset(out.data() + produced, 0, chunk);
    }
    produced += chunk;
    pos += chunk;
  }
}

void SparseMemory::write(std::uint64_t offset,
                         std::span<const std::uint8_t> in) {
  const std::uint8_t* src = in.data();
  fill_in_place(offset, in.size(), [&src](std::span<std::uint8_t> piece) {
    std::memcpy(piece.data(), src, piece.size());
    src += piece.size();
  });
}

bool SparseMemory::same_bytes(std::uint64_t offset, const SparseMemory& other,
                              std::uint64_t other_offset,
                              std::uint64_t len) const {
  assert(in_bounds(offset, len) && other.in_bounds(other_offset, len));
  while (len > 0) {
    const std::uint64_t chunk =
        std::min({len, kPageSize - offset % kPageSize,
                  kPageSize - other_offset % kPageSize});
    const Page* a = lookup_page(offset / kPageSize);
    const Page* b = other.lookup_page(other_offset / kPageSize);
    const std::uint8_t* pa = a ? a->data() + offset % kPageSize : nullptr;
    const std::uint8_t* pb = b ? b->data() + other_offset % kPageSize : nullptr;
    if (pa != nullptr && pb != nullptr) {
      if (std::memcmp(pa, pb, chunk) != 0) return false;
    } else if (pa != nullptr || pb != nullptr) {
      // One side is an absent (all-zero) page.
      const std::uint8_t* p = pa != nullptr ? pa : pb;
      if (p[0] != 0 || std::memcmp(p, p + 1, chunk - 1) != 0) return false;
    }
    offset += chunk;
    other_offset += chunk;
    len -= chunk;
  }
  return true;
}

const SparseMemory::Page* SparseMemory::lookup_page_slow(
    std::uint64_t index) const {
  auto it = pages_.find(index);
  Page* page = it == pages_.end() ? nullptr : it->second.get();
  // Caches "absent" too; get_or_create_page refreshes the slot on write.
  cache_[index % kCacheSlots] = CacheEntry{index, page};
  return page;
}

SparseMemory::Page& SparseMemory::get_or_create_page(std::uint64_t index) {
  CacheEntry& e = cache_[index % kCacheSlots];
  if (e.index == index && e.page != nullptr) return *e.page;
  auto it = pages_.find(index);
  if (it == pages_.end()) {
    // make_unique value-initializes: the new page reads as zero.
    it = pages_.emplace(index, std::make_unique<Page>()).first;
  }
  e = CacheEntry{index, it->second.get()};
  return *it->second;
}

}  // namespace pg::mem
