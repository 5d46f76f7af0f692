#include "mem/payload.h"

#include <array>
#include <bit>
#include <cstring>
#include <new>

namespace pg::mem {
namespace detail {
namespace {

constexpr std::uint64_t kMinBlockBytes = 64;
// Classes 64 B .. 2 GiB: a Payload's window is 32-bit.
constexpr unsigned kSizeClasses = 26;

unsigned size_class(std::uint64_t len) {
  return len <= kMinBlockBytes
             ? 0
             : static_cast<unsigned>(std::bit_width((len - 1) / kMinBlockBytes));
}

std::uint64_t class_bytes(unsigned size_class) {
  return kMinBlockBytes << size_class;
}

void destroy(PayloadBlock* b) {
  b->~PayloadBlock();
  ::operator delete(b);
}

void destroy_chain(PayloadBlock* b) {
  while (b != nullptr) {
    PayloadBlock* next = b->next;
    destroy(b);
    b = next;
  }
}

}  // namespace

/// A pool's bookkeeping. Referenced by the pool and by every block out of
/// it; whoever drops the last reference frees it with its idle blocks.
struct PayloadHome {
  std::atomic<std::uint64_t> refs{1};
  /// Blocks released by any thread, waiting for the owner to take them
  /// back (a lock-free stack: many pushers, one taker that takes all).
  std::atomic<PayloadBlock*> returned{nullptr};
  /// Idle blocks per size class; touched by the owning thread only.
  std::array<PayloadBlock*, kSizeClasses> idle{};
  std::uint64_t blocks_allocated = 0;

  ~PayloadHome() {
    for (PayloadBlock* b : idle) destroy_chain(b);
    destroy_chain(returned.load(std::memory_order_acquire));
  }

  void unref() {
    if (refs.fetch_sub(1, std::memory_order_acq_rel) == 1) delete this;
  }
};

void recycle(PayloadBlock* block) {
  PayloadHome* home = block->home;
  PayloadBlock* head = home->returned.load(std::memory_order_relaxed);
  do {
    block->next = head;
  } while (!home->returned.compare_exchange_weak(
      head, block, std::memory_order_release, std::memory_order_relaxed));
  home->unref();
}

}  // namespace detail

PayloadPool::PayloadPool() : home_(new detail::PayloadHome) {}

PayloadPool::~PayloadPool() { home_->unref(); }

Payload PayloadPool::acquire(std::uint64_t len) {
  if (len == 0) return {};
  assert(len <= detail::class_bytes(detail::kSizeClasses - 1));
  const unsigned k = detail::size_class(len);
  detail::PayloadBlock*& idle = home_->idle[k];
  if (idle == nullptr) {
    // Take back everything released since the last refill.
    detail::PayloadBlock* b =
        home_->returned.exchange(nullptr, std::memory_order_acquire);
    while (b != nullptr) {
      detail::PayloadBlock* next = b->next;
      b->next = home_->idle[b->size_class];
      home_->idle[b->size_class] = b;
      b = next;
    }
  }
  detail::PayloadBlock* block = idle;
  if (block != nullptr) {
    idle = block->next;
  } else {
    block = ::new (::operator new(sizeof(detail::PayloadBlock) +
                                  detail::class_bytes(k)))
        detail::PayloadBlock;
    block->size_class = static_cast<std::uint8_t>(k);
    block->home = home_;
    ++home_->blocks_allocated;
  }
  block->next = nullptr;
  block->refs.store(1, std::memory_order_relaxed);
  home_->refs.fetch_add(1, std::memory_order_relaxed);
  return Payload(block, static_cast<std::uint32_t>(len));
}

Payload PayloadPool::copy(std::span<const std::uint8_t> bytes) {
  Payload p = acquire(bytes.size());
  if (!bytes.empty()) std::memcpy(p.writable().data(), bytes.data(), bytes.size());
  return p;
}

std::uint64_t PayloadPool::blocks_allocated() const {
  return home_->blocks_allocated;
}

}  // namespace pg::mem
