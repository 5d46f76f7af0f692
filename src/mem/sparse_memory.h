// Sparse, page-granular byte store backing a memory region.
//
// Registered buffers in the experiments reach tens of megabytes while most
// of the 4 GiB regions stay untouched, so backing store is allocated
// lazily in 4 KiB pages. Unwritten bytes read as zero, matching
// zero-initialized DRAM in the model.
//
// Fast paths (this is the simulator's hottest data plane):
//   - a one-entry last-page cache short-circuits the hash lookup that
//     dominates repeated accesses to the same page (polling loops, DMA
//     chunk streams, warp-coalesced loads);
//   - typed u8/u16/u32/u64 accessors copy directly between the page and
//     the value when the access stays inside one page, instead of going
//     read-into-buffer-then-memcpy through the span path;
//   - span_in_page/span_in_page_mut expose the backing bytes of a
//     page-contiguous range directly, so bulk movers (pcie/dma.cc, the
//     NIC payload engines via MemoryDomain, the GPU's coalesced warp
//     accesses) can copy once with no intermediate staging.
// Page pointers are stable (node-based map, pages are only dropped by
// clear()), which is what makes caching and span hand-out safe.
#pragma once

#include <algorithm>
#include <array>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <unordered_map>

#include "common/status.h"

namespace pg::mem {

class SparseMemory {
 public:
  static constexpr std::uint64_t kPageSize = 4096;

  explicit SparseMemory(std::uint64_t size_bytes) : size_(size_bytes) {}

  std::uint64_t size() const { return size_; }

  /// True when [offset, offset+len) is inside the region.
  bool in_bounds(std::uint64_t offset, std::uint64_t len) const {
    return offset <= size_ && len <= size_ - offset;
  }

  /// Copies bytes out of the region. Out-of-bounds is a programming error
  /// (callers validate via in_bounds / registration checks first).
  void read(std::uint64_t offset, std::span<std::uint8_t> out) const;

  /// Copies bytes into the region, allocating pages as needed.
  void write(std::uint64_t offset, std::span<const std::uint8_t> in);

  std::uint64_t read_u64(std::uint64_t offset) const {
    return read_typed<std::uint64_t>(offset);
  }
  std::uint32_t read_u32(std::uint64_t offset) const {
    return read_typed<std::uint32_t>(offset);
  }
  std::uint16_t read_u16(std::uint64_t offset) const {
    return read_typed<std::uint16_t>(offset);
  }
  std::uint8_t read_u8(std::uint64_t offset) const {
    return read_typed<std::uint8_t>(offset);
  }

  void write_u64(std::uint64_t offset, std::uint64_t v) {
    write_typed(offset, v);
  }
  void write_u32(std::uint64_t offset, std::uint32_t v) {
    write_typed(offset, v);
  }
  void write_u16(std::uint64_t offset, std::uint16_t v) {
    write_typed(offset, v);
  }
  void write_u8(std::uint64_t offset, std::uint8_t v) { write_typed(offset, v); }

  /// Direct pointer to the backing bytes of [offset, offset+len) when the
  /// range lies inside one *resident* page; nullptr when the page is
  /// absent (bytes read as zero) or the range straddles a page boundary.
  const std::uint8_t* span_in_page(std::uint64_t offset,
                                   std::uint64_t len) const {
    if (offset % kPageSize + len > kPageSize) return nullptr;
    const Page* p = lookup_page(offset / kPageSize);
    return p ? p->data() + offset % kPageSize : nullptr;
  }

  /// Writable variant: allocates the page. nullptr only on a straddle.
  std::uint8_t* span_in_page_mut(std::uint64_t offset, std::uint64_t len) {
    if (offset % kPageSize + len > kPageSize) return nullptr;
    return get_or_create_page(offset / kPageSize).data() + offset % kPageSize;
  }

  /// Hands the backing bytes of [offset, offset+len) to `fn` as
  /// page-contiguous std::span<std::uint8_t> pieces in address order,
  /// allocating pages as needed, so a generator writes memory in place.
  template <typename Fn>
  void fill_in_place(std::uint64_t offset, std::uint64_t len, Fn&& fn) {
    assert(in_bounds(offset, len) && "SparseMemory fill out of bounds");
    while (len > 0) {
      const std::uint64_t chunk =
          std::min(len, kPageSize - offset % kPageSize);
      fn(std::span<std::uint8_t>(
          get_or_create_page(offset / kPageSize).data() + offset % kPageSize,
          chunk));
      offset += chunk;
      len -= chunk;
    }
  }

  /// True when [offset, offset+len) holds the same bytes as
  /// [other_offset, other_offset+len) of `other`. Compares page by page
  /// (an absent page reads as zero) without copying either range.
  bool same_bytes(std::uint64_t offset, const SparseMemory& other,
                  std::uint64_t other_offset, std::uint64_t len) const;

  /// Releases all pages (contents revert to zero).
  void clear() {
    pages_.clear();
    cache_.fill(CacheEntry{});
  }

  std::size_t resident_pages() const { return pages_.size(); }

 private:
  using Page = std::array<std::uint8_t, kPageSize>;
  static constexpr std::uint64_t kNoPage = ~std::uint64_t{0};
  // Direct-mapped translation cache. Sized for the working sets that
  // defeat a small one — a kernel streaming a multi-page field buffer
  // while the NIC walks its descriptor and notification pages — at a
  // cost (1 KiB per region) still far below one backing page.
  static constexpr std::size_t kCacheSlots = 64;

  struct CacheEntry {
    std::uint64_t index = kNoPage;
    Page* page = nullptr;  // nullptr caches "page absent"
  };

  const Page* lookup_page(std::uint64_t index) const {
    const CacheEntry& e = cache_[index % kCacheSlots];
    if (e.index == index) return e.page;
    return lookup_page_slow(index);
  }
  const Page* lookup_page_slow(std::uint64_t index) const;
  Page& get_or_create_page(std::uint64_t index);

  template <typename T>
  T read_typed(std::uint64_t offset) const {
    assert(in_bounds(offset, sizeof(T)) && "SparseMemory read out of bounds");
    if (offset % kPageSize + sizeof(T) <= kPageSize) [[likely]] {
      const Page* p = lookup_page(offset / kPageSize);
      if (p == nullptr) return T{0};
      T v;
      std::memcpy(&v, p->data() + offset % kPageSize, sizeof(T));
      return v;
    }
    T v{0};
    read(offset, {reinterpret_cast<std::uint8_t*>(&v), sizeof(T)});
    return v;
  }

  template <typename T>
  void write_typed(std::uint64_t offset, T v) {
    assert(in_bounds(offset, sizeof(T)) && "SparseMemory write out of bounds");
    if (offset % kPageSize + sizeof(T) <= kPageSize) [[likely]] {
      Page& p = get_or_create_page(offset / kPageSize);
      std::memcpy(p.data() + offset % kPageSize, &v, sizeof(T));
      return;
    }
    write(offset, {reinterpret_cast<const std::uint8_t*>(&v), sizeof(T)});
  }

  std::uint64_t size_;
  std::unordered_map<std::uint64_t, std::unique_ptr<Page>> pages_;
  // Recently touched pages (read or write). Mutable: a const read warms
  // its slot.
  mutable std::array<CacheEntry, kCacheSlots> cache_{};
};

}  // namespace pg::mem
