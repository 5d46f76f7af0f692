// Tests for the memory substrate: address map, sparse store, domain,
// and registration (the NICs' protection model).
#include <gtest/gtest.h>

#include <cstring>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "mem/address_map.h"
#include "mem/memory_domain.h"
#include "mem/payload.h"
#include "mem/registration.h"
#include "mem/sparse_memory.h"

namespace pg::mem {
namespace {

TEST(AddressMap, ClassifiesEverySpace) {
  EXPECT_EQ(AddressMap::classify(AddressMap::kHostDramBase), Space::kHostDram);
  EXPECT_EQ(AddressMap::classify(AddressMap::kGpuDramBase + 100),
            Space::kGpuDram);
  EXPECT_EQ(AddressMap::classify(AddressMap::kExtollBarBase),
            Space::kExtollBar);
  EXPECT_EQ(AddressMap::classify(AddressMap::kIbUarBase), Space::kIbUar);
  EXPECT_EQ(AddressMap::classify(AddressMap::kGpuSharedBase),
            Space::kGpuShared);
  EXPECT_EQ(AddressMap::classify(0), Space::kInvalid);
  EXPECT_EQ(AddressMap::classify(AddressMap::kHostDramBase - 1),
            Space::kInvalid);
}

TEST(AddressMap, ContainedRejectsStraddles) {
  EXPECT_TRUE(AddressMap::contained(AddressMap::kHostDramBase, 4096));
  EXPECT_FALSE(AddressMap::contained(
      AddressMap::kHostDramBase + AddressMap::kHostDramSize - 8, 16));
  EXPECT_TRUE(AddressMap::contained(AddressMap::kGpuDramBase, 0));
}

TEST(SparseMemory, UnwrittenReadsZero) {
  SparseMemory m(1 << 20);
  std::vector<std::uint8_t> buf(64, 0xFF);
  m.read(5000, buf);
  for (auto b : buf) EXPECT_EQ(b, 0);
  EXPECT_EQ(m.resident_pages(), 0u);
}

TEST(SparseMemory, ReadAfterWriteRoundTrip) {
  SparseMemory m(1 << 20);
  std::vector<std::uint8_t> in = {1, 2, 3, 4, 5, 6, 7, 8, 9};
  m.write(100, in);
  std::vector<std::uint8_t> out(in.size());
  m.read(100, out);
  EXPECT_EQ(in, out);
}

TEST(SparseMemory, CrossesPageBoundaries) {
  SparseMemory m(1 << 20);
  std::vector<std::uint8_t> in(10000);
  Rng rng(5);
  for (auto& b : in) b = rng.next_byte();
  const std::uint64_t offset = SparseMemory::kPageSize - 37;
  m.write(offset, in);
  std::vector<std::uint8_t> out(in.size());
  m.read(offset, out);
  EXPECT_EQ(in, out);
  EXPECT_EQ(m.resident_pages(), 4u);  // pages 0..3 touched
}

TEST(SparseMemory, ScalarHelpers) {
  SparseMemory m(1 << 16);
  m.write_u64(8, 0x1122334455667788ull);
  EXPECT_EQ(m.read_u64(8), 0x1122334455667788ull);
  m.write_u32(100, 0xCAFEBABEu);
  EXPECT_EQ(m.read_u32(100), 0xCAFEBABEu);
  m.write_u8(3, 0x5A);
  EXPECT_EQ(m.read_u8(3), 0x5A);
}

TEST(SparseMemory, PropertyRandomReadWriteFidelity) {
  SparseMemory m(1 << 22);
  // Mirror model: compare against a flat vector.
  std::vector<std::uint8_t> mirror(1 << 22, 0);
  Rng rng(42);
  for (int i = 0; i < 500; ++i) {
    const std::uint64_t len = 1 + rng.next_below(3000);
    const std::uint64_t off = rng.next_below(mirror.size() - len);
    std::vector<std::uint8_t> data(len);
    for (auto& b : data) b = rng.next_byte();
    m.write(off, data);
    std::copy(data.begin(), data.end(), mirror.begin() + off);

    const std::uint64_t rlen = 1 + rng.next_below(3000);
    const std::uint64_t roff = rng.next_below(mirror.size() - rlen);
    std::vector<std::uint8_t> got(rlen);
    m.read(roff, got);
    ASSERT_TRUE(std::equal(got.begin(), got.end(), mirror.begin() + roff))
        << "mismatch at iteration " << i;
  }
}

TEST(SparseMemory, ClearReleasesPages) {
  SparseMemory m(1 << 20);
  m.write_u64(0, 1);
  m.write_u64(8192, 2);
  EXPECT_EQ(m.resident_pages(), 2u);
  m.clear();
  EXPECT_EQ(m.resident_pages(), 0u);
  EXPECT_EQ(m.read_u64(0), 0u);
}

// The typed accessors take an in-page fast path; the span read/write is
// the reference implementation. Randomized equivalence over aligned,
// unaligned, and page-straddling offsets keeps the two in lockstep.
TEST(SparseMemory, PropertyTypedMatchesSpanPath) {
  constexpr std::uint64_t kSize = 1 << 20;
  SparseMemory typed(kSize);
  SparseMemory spans(kSize);
  Rng rng(777);
  auto random_offset = [&](std::uint64_t width) -> std::uint64_t {
    switch (rng.next_below(3)) {
      case 0:  // aligned
        return (rng.next_below(kSize / 8 - 1)) * 8;
      case 1:  // unaligned, anywhere
        return rng.next_below(kSize - width);
      default: {  // hugging (and often straddling) a page boundary
        const std::uint64_t page = 1 + rng.next_below(kSize / 4096 - 2);
        const std::uint64_t jitter = rng.next_below(2 * width + 1);
        return page * 4096 - width + jitter;
      }
    }
  };
  for (int i = 0; i < 4000; ++i) {
    const unsigned width = 1u << rng.next_below(4);  // 1, 2, 4, 8
    const std::uint64_t off = random_offset(width);
    std::uint64_t value = 0;
    for (unsigned b = 0; b < width; ++b) {
      value |= static_cast<std::uint64_t>(rng.next_byte()) << (8 * b);
    }
    // Write through the typed path on one store, through the span path
    // on the other.
    std::uint8_t raw[8];
    std::memcpy(raw, &value, 8);
    spans.write(off, {raw, width});
    switch (width) {
      case 1: typed.write_u8(off, static_cast<std::uint8_t>(value)); break;
      case 2: typed.write_u16(off, static_cast<std::uint16_t>(value)); break;
      case 4: typed.write_u32(off, static_cast<std::uint32_t>(value)); break;
      default: typed.write_u64(off, value); break;
    }
    // Read back through the opposite path on each store; all four
    // combinations must agree.
    const std::uint64_t roff = random_offset(8);
    std::uint64_t via_typed_t = typed.read_u64(roff);
    std::uint64_t via_typed_s = spans.read_u64(roff);
    std::uint64_t via_span_t = 0, via_span_s = 0;
    std::uint8_t buf[8];
    typed.read(roff, buf);
    std::memcpy(&via_span_t, buf, 8);
    spans.read(roff, buf);
    std::memcpy(&via_span_s, buf, 8);
    ASSERT_EQ(via_typed_t, via_span_t) << "iteration " << i;
    ASSERT_EQ(via_typed_s, via_span_s) << "iteration " << i;
    ASSERT_EQ(via_typed_t, via_typed_s) << "iteration " << i;
  }
}

TEST(SparseMemory, SpanInPageSemantics) {
  SparseMemory m(1 << 20);
  // Absent page: read span is null (bytes are conceptually zero).
  EXPECT_EQ(m.span_in_page(0, 64), nullptr);
  // Straddle: always null, even after both pages exist.
  m.write_u64(4096 - 8, 1);
  m.write_u64(4096, 2);
  EXPECT_EQ(m.span_in_page(4090, 16), nullptr);
  EXPECT_EQ(m.span_in_page_mut(4090, 16), nullptr);
  // Resident page: direct bytes, consistent with the typed readers.
  const std::uint8_t* p = m.span_in_page(4096, 8);
  ASSERT_NE(p, nullptr);
  std::uint64_t v = 0;
  std::memcpy(&v, p, 8);
  EXPECT_EQ(v, 2u);
  // Mutable span allocates and writes land for ordinary readers.
  std::uint8_t* w = m.span_in_page_mut(8192 + 16, 4);
  ASSERT_NE(w, nullptr);
  const std::uint32_t stamp = 0xA5A5F00Du;
  std::memcpy(w, &stamp, 4);
  EXPECT_EQ(m.read_u32(8192 + 16), stamp);
  // A full page span touches exactly the page, not beyond.
  EXPECT_NE(m.span_in_page(8192, 4096), nullptr);
  EXPECT_EQ(m.span_in_page(8192, 4097), nullptr);
}

TEST(MemoryDomain, RoutesHostAndGpuDram) {
  MemoryDomain dom;
  dom.write_u64(AddressMap::kHostDramBase + 64, 0xAAAA);
  dom.write_u64(AddressMap::kGpuDramBase + 64, 0xBBBB);
  EXPECT_EQ(dom.read_u64(AddressMap::kHostDramBase + 64), 0xAAAAu);
  EXPECT_EQ(dom.read_u64(AddressMap::kGpuDramBase + 64), 0xBBBBu);
  // The same offset in different spaces is distinct storage.
  EXPECT_EQ(dom.host_dram().read_u64(64), 0xAAAAu);
  EXPECT_EQ(dom.gpu_dram().read_u64(64), 0xBBBBu);
}

TEST(MemoryDomain, BackedChecks) {
  MemoryDomain dom;
  EXPECT_TRUE(dom.backed(AddressMap::kHostDramBase, 4096));
  EXPECT_TRUE(dom.backed(AddressMap::kGpuDramBase + 1024, 8));
  EXPECT_FALSE(dom.backed(AddressMap::kExtollBarBase, 8));
  EXPECT_FALSE(dom.backed(0x1234, 8));
}

// --- Registration ----------------------------------------------------------

TEST(Registration, RegisterAndTranslate) {
  RegistrationTable table;
  auto reg = table.register_region(AddressMap::kGpuDramBase + 4096, 1 << 20,
                                   Access::kReadWrite);
  ASSERT_TRUE(reg.is_ok());
  auto addr = table.translate(reg->key, 100, 8, Access::kRead);
  ASSERT_TRUE(addr.is_ok());
  EXPECT_EQ(*addr, AddressMap::kGpuDramBase + 4096 + 100);
}

TEST(Registration, RejectsBadRegions) {
  RegistrationTable table;
  EXPECT_FALSE(
      table.register_region(AddressMap::kHostDramBase, 0, Access::kRead)
          .is_ok());
  EXPECT_FALSE(
      table.register_region(AddressMap::kExtollBarBase, 64, Access::kRead)
          .is_ok());
  EXPECT_FALSE(table
                   .register_region(AddressMap::kHostDramBase, 64,
                                    Access::kNone)
                   .is_ok());
  // Straddling the end of a space.
  EXPECT_FALSE(table
                   .register_region(AddressMap::kHostDramBase +
                                        AddressMap::kHostDramSize - 8,
                                    64, Access::kRead)
                   .is_ok());
}

TEST(Registration, EnforcesBounds) {
  RegistrationTable table;
  auto reg = table.register_region(AddressMap::kHostDramBase, 4096,
                                   Access::kReadWrite);
  ASSERT_TRUE(reg.is_ok());
  EXPECT_TRUE(table.translate(reg->key, 4088, 8, Access::kRead).is_ok());
  EXPECT_FALSE(table.translate(reg->key, 4089, 8, Access::kRead).is_ok());
  EXPECT_FALSE(table.translate(reg->key, 0, 5000, Access::kRead).is_ok());
  auto st = table.check(reg->key, AddressMap::kHostDramBase + 5000, 8,
                        Access::kRead);
  EXPECT_FALSE(st.is_ok());
  EXPECT_EQ(st.status().code(), StatusCode::kOutOfRange);
}

TEST(Registration, EnforcesPermissions) {
  RegistrationTable table;
  auto ro = table.register_region(AddressMap::kHostDramBase, 4096,
                                  Access::kRead);
  ASSERT_TRUE(ro.is_ok());
  EXPECT_TRUE(table.translate(ro->key, 0, 8, Access::kRead).is_ok());
  auto denied = table.translate(ro->key, 0, 8, Access::kWrite);
  EXPECT_FALSE(denied.is_ok());
  EXPECT_EQ(denied.status().code(), StatusCode::kFailedPrecondition);
}

TEST(Registration, DeregisterInvalidatesKey) {
  RegistrationTable table;
  auto reg = table.register_region(AddressMap::kHostDramBase, 4096,
                                   Access::kReadWrite);
  ASSERT_TRUE(reg.is_ok());
  EXPECT_TRUE(table.deregister(reg->key).is_ok());
  EXPECT_FALSE(table.translate(reg->key, 0, 8, Access::kRead).is_ok());
  EXPECT_FALSE(table.deregister(reg->key).is_ok());
}

TEST(Registration, UnknownKeyIsNotFound) {
  RegistrationTable table;
  auto r = table.check(777, AddressMap::kHostDramBase, 8, Access::kRead);
  EXPECT_FALSE(r.is_ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

// --- Payload -----------------------------------------------------------------

TEST(Payload, SlicesAliasTheirParentAndOutliveIt) {
  PayloadPool pool;
  Payload slice;
  {
    Payload parent = pool.acquire(256);
    for (std::size_t i = 0; i < 256; ++i) {
      parent.writable()[i] = static_cast<std::uint8_t>(i);
    }
    slice = parent.slice(100, 50);
    EXPECT_EQ(slice.data(), parent.data() + 100);
    // A write through the parent shows through the slice.
    parent.writable()[120] = 0xEE;
    EXPECT_EQ(slice.bytes()[20], 0xEE);
    const Payload nested = slice.slice(10, 5);
    EXPECT_EQ(nested.size(), 5u);
    EXPECT_EQ(nested.bytes()[0], 110);
  }
  // The parent is gone; the slice still holds the block.
  ASSERT_EQ(slice.size(), 50u);
  EXPECT_EQ(slice.bytes()[0], 100);
  EXPECT_EQ(slice.bytes()[49], 149);
  EXPECT_EQ(slice.bytes()[20], 0xEE);
  EXPECT_EQ(pool.blocks_allocated(), 1u);
}

TEST(Payload, EmptyPayloadTakesNoStorage) {
  PayloadPool pool;
  const Payload none = pool.acquire(0);
  EXPECT_TRUE(none.empty());
  EXPECT_EQ(none.data(), nullptr);
  EXPECT_TRUE(pool.copy({}).empty());
  EXPECT_EQ(pool.blocks_allocated(), 0u);
}

TEST(Payload, ReleasedBlocksAreRecycledPerSizeClass) {
  PayloadPool pool;
  const std::uint8_t* first = nullptr;
  {
    const Payload p = pool.copy(std::vector<std::uint8_t>(64 * 1024, 7));
    first = p.data();
    EXPECT_EQ(p.bytes()[65535], 7);
  }
  // Same class (64 KiB): the block comes back, no new allocation.
  const Payload again = pool.acquire(40 * 1024);
  EXPECT_EQ(again.data(), first);
  EXPECT_EQ(pool.blocks_allocated(), 1u);
  // Another class while that block is out: one more block.
  const Payload small = pool.acquire(8);
  EXPECT_EQ(pool.blocks_allocated(), 2u);
}

TEST(Payload, BlocksReleasedOnAnotherThreadComeHome) {
  PayloadPool pool;
  Payload p = pool.acquire(4096);
  const std::uint8_t* block = p.data();
  std::thread remote([moved = std::move(p)]() mutable { moved = Payload{}; });
  remote.join();
  EXPECT_EQ(pool.acquire(4096).data(), block);
  EXPECT_EQ(pool.blocks_allocated(), 1u);
}

// Two threads drop views while the owner keeps acquiring: the hand-over
// the sharded engine relies on (the thread-sanitizer build checks it).
TEST(Payload, ConcurrentReleasesWhileTheOwnerAcquires) {
  PayloadPool pool;
  constexpr int kPerThread = 2000;
  std::vector<Payload> batches[2];
  for (auto& batch : batches) {
    for (int i = 0; i < kPerThread; ++i) batch.push_back(pool.acquire(256));
  }
  std::thread releasers[2];
  for (int t = 0; t < 2; ++t) {
    releasers[t] = std::thread([&batch = batches[t]] {
      for (Payload& p : batch) p = Payload{};
    });
  }
  for (int i = 0; i < 2 * kPerThread; ++i) {
    Payload p = pool.acquire(200);
    p.writable()[0] = static_cast<std::uint8_t>(i);
  }
  for (std::thread& t : releasers) t.join();
  // Every block came back: a full batch again needs none beyond those.
  const std::uint64_t before = pool.blocks_allocated();
  std::vector<Payload> again;
  for (int i = 0; i < 2 * kPerThread; ++i) again.push_back(pool.acquire(256));
  EXPECT_EQ(pool.blocks_allocated(), before);
}

TEST(Payload, PayloadsMayOutliveTheirPool) {
  Payload survivor;
  {
    PayloadPool pool;
    survivor = pool.copy(std::vector<std::uint8_t>{1, 2, 3});
    const Payload idle = pool.acquire(100);  // back in the pool at scope end
  }
  // The pool is gone; its bookkeeping lives until this last block drops
  // (the sanitizer build checks that both are freed).
  ASSERT_EQ(survivor.size(), 3u);
  EXPECT_EQ(survivor.bytes()[2], 3);
}

// --- In-place fill and page-wise comparison ----------------------------------

TEST(SparseMemory, FillInPlaceVisitsPagesInOrder) {
  SparseMemory mem(1 << 20);
  std::uint8_t next = 0;
  std::vector<std::size_t> pieces;
  mem.fill_in_place(4000, 9000, [&](std::span<std::uint8_t> page) {
    pieces.push_back(page.size());
    for (auto& b : page) b = next++;
  });
  EXPECT_EQ(pieces, (std::vector<std::size_t>{96, 4096, 4096, 712}));
  std::vector<std::uint8_t> got(9000);
  mem.read(4000, got);
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i], static_cast<std::uint8_t>(i));
  }
}

TEST(SparseMemory, SameBytesTreatsAbsentPagesAsZero) {
  SparseMemory a(1 << 20), b(1 << 20);
  EXPECT_TRUE(a.same_bytes(0, b, 4096, 3 * 4096));
  b.write_u8(8192, 0);  // resident but zero
  EXPECT_TRUE(a.same_bytes(0, b, 4096, 3 * 4096));
  b.write_u8(8193, 1);
  EXPECT_FALSE(a.same_bytes(0, b, 4096, 3 * 4096));
  EXPECT_FALSE(b.same_bytes(4096, a, 0, 3 * 4096));
}

}  // namespace
}  // namespace pg::mem
