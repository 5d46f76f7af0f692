// Deferred recording for the shard-aware observability sinks
// (obs/shard_sink.h).
//
// During a parallel round (sim/parallel.h) every worker thread carries
// a thread-local pointer to its shard's append-only op buffer. The
// inline instrumentation helpers in trace.h / metrics.h / flow.h state
// their sink call once, as a closure, and hand it to apply_or_defer()
// right after the usual sink-attached branch: with no buffer bound the
// closure runs at once; with one bound it is appended, stamped with the
// executing event's birth key, instead of touching the (single-threaded)
// global sinks. The coordinator runs all buffered closures in global
// event order at the next synchronization fence, producing
// byte-identical sink state to the sequential engine.
//
// A closure outlives its call site, so it copies every name that is not
// a string literal (tracks, metric and stage names); only trace
// categories are literal-only.
#pragma once

#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/event_queue.h"
#include "sim/inline_fn.h"

namespace pg::sim {
class Simulation;
}

namespace pg::obs {

/// One shard's append-only op log. Written by exactly one thread per
/// round (whoever claimed the shard's window); read and cleared by the
/// coordinator at fences. The round barrier provides the ordering.
class ShardOpBuffer {
 public:
  ShardOpBuffer(int shard, std::uint64_t hub_nonce)
      : shard_(shard), hub_nonce_(hub_nonce) {}

  /// Appends `op` under the executing event's key.
  void append(sim::InlineFn op);

  /// Mints a provisional FlowId: bit 63 | hub nonce | shard | counter.
  /// Never collides with canonical FlowTable ids (sequential from 1) or
  /// with provisional ids of other shards / other hubs in the process.
  std::uint64_t mint_provisional() {
    return (1ull << 63) | (hub_nonce_ << 44) | (static_cast<std::uint64_t>(shard_) << 36) | ++minted_;
  }

  void set_sim(const sim::Simulation* sim) { sim_ = sim; }

 private:
  friend class ShardSinkHub;

  struct Op {
    // The executing event's full birth key. Globally unique per event,
    // so a stable sort keeps same-event ops in program order.
    sim::EventQueue::Key key;
    sim::InlineFn fn;
  };

  std::vector<Op> ops_;
  const sim::Simulation* sim_ = nullptr;
  int shard_ = 0;
  std::uint64_t hub_nonce_ = 0;
  std::uint64_t minted_ = 0;
};

/// The buffer bound to this thread for the current shard window, or
/// nullptr when observability applies directly (the common case).
/// constinit: no dynamic initializer, so reads bypass the TLS wrapper.
extern thread_local constinit ShardOpBuffer* t_shard_ops;
inline ShardOpBuffer* shard_ops() { return t_shard_ops; }

/// Runs `op(*sink)` now or, inside a shard window, appends it to the
/// window's buffer. The fence merge then runs it against the sink
/// attached at that point, `*Attached()`, and drops it if none is.
/// An `op` that also takes a bool is told whether it is that replay.
template <auto Attached, typename Sink, typename Op>
inline void apply_or_defer(Sink* sink, Op&& op) {
  if (ShardOpBuffer* b = shard_ops()) {
    b->append([op = std::forward<Op>(op)]() mutable {
      Sink* s = Attached();
      if (s == nullptr) return;
      if constexpr (std::is_invocable_v<Op&, Sink&, bool>) {
        op(*s, true);
      } else {
        op(*s);
      }
    });
    return;
  }
  if constexpr (std::is_invocable_v<Op&, Sink&, bool>) {
    op(*sink, false);
  } else {
    op(*sink);
  }
}

}  // namespace pg::obs
