// Payload: a ref-counted, sliceable view of pooled byte storage.
//
// Bulk data crosses every layer of the model - PCIe read completions, the
// NICs' DMA segments, link frames, the landing posted writes - as one
// Payload: a window [offset, offset + size) into a pooled block. Copying it
// aliases the block (one reference more), slice() narrows the window, and
// the block goes back to its pool when the last view drops. So a streamed
// segment is copied exactly twice: memory -> payload where a PCIe read is
// served, and payload -> memory where the posted write lands.
//
// Storage comes from a PayloadPool (one per node, owned by its PCIe
// fabric). Blocks come in power-of-two size classes and are never handed
// back to the allocator while the pool lives: a released block is pushed
// onto its home pool's return stack, from whichever shard thread dropped
// the last view (a remote node's landing write releases a frame's payload
// there), and the pool's next acquire of that class takes it back. The
// pool's bookkeeping (its home) lives until both the pool and every block
// out of it are gone, so payloads still captured in abandoned events free
// cleanly whatever order a cluster is torn down in.
#pragma once

#include <atomic>
#include <cassert>
#include <cstdint>
#include <span>
#include <utility>

namespace pg::mem {

class PayloadPool;

namespace detail {

struct PayloadHome;

/// Header of one pooled block; its bytes follow it in the same allocation.
struct PayloadBlock {
  std::atomic<std::uint32_t> refs{0};
  std::uint8_t size_class = 0;
  PayloadHome* home = nullptr;
  PayloadBlock* next = nullptr;  // free-list / return-stack link

  std::uint8_t* bytes() { return reinterpret_cast<std::uint8_t*>(this + 1); }
};

/// Returns a block whose last view dropped to its home pool.
void recycle(PayloadBlock* block);

}  // namespace detail

class Payload {
 public:
  Payload() = default;
  Payload(const Payload& o) noexcept
      : block_(o.block_), offset_(o.offset_), size_(o.size_) {
    if (block_ != nullptr) block_->refs.fetch_add(1, std::memory_order_relaxed);
  }
  Payload(Payload&& o) noexcept
      : block_(std::exchange(o.block_, nullptr)),
        offset_(std::exchange(o.offset_, 0)),
        size_(std::exchange(o.size_, 0)) {}
  Payload& operator=(Payload o) noexcept {
    std::swap(block_, o.block_);
    std::swap(offset_, o.offset_);
    std::swap(size_, o.size_);
    return *this;
  }
  ~Payload() {
    if (block_ != nullptr &&
        block_->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      detail::recycle(block_);
    }
  }

  std::uint64_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const std::uint8_t* data() const {
    return block_ != nullptr ? block_->bytes() + offset_ : nullptr;
  }
  std::span<const std::uint8_t> bytes() const { return {data(), size_}; }

  /// The window's bytes for whoever fills them: the PCIe read that serves
  /// into a DMA job's payload, or the creator of a small posted write.
  /// Every view of the block sees the writes.
  std::span<std::uint8_t> writable() const {
    return {block_ != nullptr ? block_->bytes() + offset_ : nullptr, size_};
  }

  /// [offset, offset + len) of this view, sharing its storage.
  Payload slice(std::uint64_t offset, std::uint64_t len) const {
    assert(offset <= size_ && len <= size_ - offset);
    Payload s(*this);
    s.offset_ += static_cast<std::uint32_t>(offset);
    s.size_ = static_cast<std::uint32_t>(len);
    return s;
  }

 private:
  friend class PayloadPool;
  Payload(detail::PayloadBlock* block, std::uint32_t size)
      : block_(block), size_(size) {}

  detail::PayloadBlock* block_ = nullptr;
  std::uint32_t offset_ = 0;
  std::uint32_t size_ = 0;
};

class PayloadPool {
 public:
  PayloadPool();
  ~PayloadPool();
  PayloadPool(const PayloadPool&) = delete;
  PayloadPool& operator=(const PayloadPool&) = delete;

  /// A payload of `len` uninitialized bytes (empty, and no storage, when
  /// len is 0). Only the owning node's thread acquires.
  Payload acquire(std::uint64_t len);

  /// A payload holding a copy of `bytes` (small posted writes: MMIO
  /// stores, notifications, CQEs).
  Payload copy(std::span<const std::uint8_t> bytes);

  /// Blocks this pool has had to allocate; recycled blocks do not count.
  std::uint64_t blocks_allocated() const;

 private:
  detail::PayloadHome* home_;
};

}  // namespace pg::mem
