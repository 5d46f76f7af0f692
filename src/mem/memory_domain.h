// MemoryDomain: the backing stores of one node, addressed by the node's
// flat system address map.
//
// DRAM contents are held here; all *timing* for reaching them lives in the
// PCIe fabric and the GPU memory hierarchy. Splitting state from timing
// keeps data movement testable in isolation.
#pragma once

#include <cassert>
#include <span>
#include <type_traits>
#include <utility>

#include "common/status.h"
#include "mem/address_map.h"
#include "mem/sparse_memory.h"

namespace pg::mem {

class MemoryDomain {
 public:
  MemoryDomain()
      : host_dram_(AddressMap::kHostDramSize),
        gpu_dram_(AddressMap::kGpuDramSize) {}

  SparseMemory& host_dram() { return host_dram_; }
  SparseMemory& gpu_dram() { return gpu_dram_; }
  const SparseMemory& host_dram() const { return host_dram_; }
  const SparseMemory& gpu_dram() const { return gpu_dram_; }

  /// True when [addr, addr+len) is fully inside a DRAM-backed space.
  bool backed(Addr addr, std::uint64_t len) const {
    if (!AddressMap::contained(addr, len)) return false;
    const Space s = AddressMap::classify(addr);
    return s == Space::kHostDram || s == Space::kGpuDram;
  }

  /// Reads bytes from a DRAM-backed address. MMIO addresses are routed by
  /// the PCIe fabric, never through here.
  void read(Addr addr, std::span<std::uint8_t> out) const {
    std::uint64_t off = 0;
    store(*this, addr, off).read(off, out);
  }

  void write(Addr addr, std::span<const std::uint8_t> in) {
    std::uint64_t off = 0;
    store(*this, addr, off).write(off, in);
  }

  /// SparseMemory::fill_in_place on the DRAM store behind `addr`.
  template <typename Fn>
  void fill_in_place(Addr addr, std::uint64_t len, Fn&& fn) {
    std::uint64_t off = 0;
    store(*this, addr, off).fill_in_place(off, len, std::forward<Fn>(fn));
  }

  /// True when [addr, addr+len) here and [other_addr, other_addr+len) in
  /// `other` hold the same bytes (SparseMemory::same_bytes).
  bool same_bytes(Addr addr, const MemoryDomain& other, Addr other_addr,
                  std::uint64_t len) const {
    std::uint64_t off = 0, other_off = 0;
    const SparseMemory& m = store(*this, addr, off);
    const SparseMemory& o = store(other, other_addr, other_off);
    return m.same_bytes(off, o, other_off, len);
  }

  std::uint64_t read_u64(Addr addr) const {
    std::uint64_t off = 0;
    return store(*this, addr, off).read_u64(off);
  }
  std::uint32_t read_u32(Addr addr) const {
    std::uint64_t off = 0;
    return store(*this, addr, off).read_u32(off);
  }
  void write_u64(Addr addr, std::uint64_t v) {
    std::uint64_t off = 0;
    store(*this, addr, off).write_u64(off, v);
  }
  void write_u32(Addr addr, std::uint32_t v) {
    std::uint64_t off = 0;
    store(*this, addr, off).write_u32(off, v);
  }

  /// Width-dispatched scalar load (zero-extended) / store for the GPU
  /// interpreter: one space classification, then the in-page typed fast
  /// path of the backing SparseMemory. Width must be 1, 2, 4 or 8.
  std::uint64_t load_scalar(Addr addr, unsigned width) const {
    std::uint64_t off = 0;
    const SparseMemory& m = store(*this, addr, off);
    switch (width) {
      case 1: return m.read_u8(off);
      case 2: return m.read_u16(off);
      case 4: return m.read_u32(off);
      default: return m.read_u64(off);
    }
  }
  void store_scalar(Addr addr, unsigned width, std::uint64_t v) {
    std::uint64_t off = 0;
    SparseMemory& m = store(*this, addr, off);
    switch (width) {
      case 1: m.write_u8(off, static_cast<std::uint8_t>(v)); break;
      case 2: m.write_u16(off, static_cast<std::uint16_t>(v)); break;
      case 4: m.write_u32(off, static_cast<std::uint32_t>(v)); break;
      default: m.write_u64(off, v); break;
    }
  }

 private:
  /// The DRAM store of `self` (const or not) backing `addr`, the one place
  /// an address is classified; sets `offset` to addr's place in it.
  template <typename Self>
  static auto store(Self& self, Addr addr, std::uint64_t& offset)
      -> std::conditional_t<std::is_const_v<Self>, const SparseMemory&,
                            SparseMemory&> {
    const Space s = AddressMap::classify(addr);
    assert((s == Space::kHostDram || s == Space::kGpuDram) &&
           "MemoryDomain access to a non-DRAM address");
    if (s == Space::kHostDram) {
      offset = addr - AddressMap::kHostDramBase;
      return self.host_dram_;
    }
    offset = addr - AddressMap::kGpuDramBase;
    return self.gpu_dram_;
  }

  SparseMemory host_dram_;
  SparseMemory gpu_dram_;
};

}  // namespace pg::mem
