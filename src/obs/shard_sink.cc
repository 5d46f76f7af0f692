#include "obs/shard_sink.h"

#include <algorithm>
#include <atomic>
#include <cassert>

#include "obs/flow.h"
#include "obs/trace.h"
#include "sim/simulation.h"

namespace pg::obs {

constinit thread_local ShardOpBuffer* t_shard_ops = nullptr;

namespace {

/// Process-wide hub nonce: keeps provisional flow ids from two clusters
/// alive in the same unit (e.g. back-to-back benches) from colliding in
/// the FlowTable alias map. Construction order is deterministic, so the
/// ids themselves are too; any provisional id that leaks into a
/// pre-rendered trace argument is rewritten to its canonical value at
/// merge time (resolve_flow_args below), so serialized output only ever
/// carries canonical ids.
std::atomic<std::uint64_t> g_hub_nonce{0};

}  // namespace

// Rendered span/instant args are built while the op's event executes,
// so a "flow" argument minted inside the same round still holds its
// provisional id (bit 63 set). The merge replays the flow ops that
// establish the provisional->canonical aliases before the trace ops
// that reference them (program order within the event, key order
// across events), so the replayed trace op is the one place the id can
// be rewritten before it reaches the recorder. Only the well-known
// "flow" key is treated as a flow id — the same convention flow.cc uses
// to correlate trace spans with flows.
void resolve_flow_args(std::string* args) {
  FlowTable* f = flows();
  if (f == nullptr) return;
  static constexpr char kKey[] = "\"flow\":";
  std::size_t pos = 0;
  while ((pos = args->find(kKey, pos)) != std::string::npos) {
    const std::size_t val = pos + sizeof(kKey) - 1;
    std::uint64_t id = 0;
    std::size_t end = val;
    while (end < args->size() && (*args)[end] >= '0' && (*args)[end] <= '9') {
      id = id * 10 + static_cast<std::uint64_t>((*args)[end] - '0');
      ++end;
    }
    if (end > val && (id & kProvisionalFlowBit) != 0) {
      args->replace(val, end - val, std::to_string(f->resolve(id)));
    }
    pos = val;
  }
}

void ShardOpBuffer::append(sim::InlineFn op) {
  assert(sim_ != nullptr && "buffer bound without a stamping simulation");
  ops_.push_back(Op{sim_->current_key(), std::move(op)});
}

ShardSinkHub::ShardSinkHub(int num_shards) {
  const std::uint64_t nonce =
      g_hub_nonce.fetch_add(1, std::memory_order_relaxed) & ((1ull << 19) - 1);
  buffers_.reserve(static_cast<std::size_t>(num_shards));
  for (int i = 0; i < num_shards; ++i) {
    buffers_.push_back(std::make_unique<ShardOpBuffer>(i, nonce));
  }
}

void ShardSinkHub::bind(int shard, const sim::Simulation* sim) {
  ShardOpBuffer* b = buffers_[static_cast<std::size_t>(shard)].get();
  b->set_sim(sim);
  t_shard_ops = b;
}

void ShardSinkHub::unbind() { t_shard_ops = nullptr; }

void ShardSinkHub::merge() {
  std::size_t total = 0;
  for (const auto& b : buffers_) total += b->ops_.size();
  if (total == 0) return;
  order_.clear();
  order_.reserve(total);
  for (const auto& b : buffers_) {
    for (ShardOpBuffer::Op& op : b->ops_) order_.push_back(&op);
  }
  // Event keys are globally unique, so ops of distinct events order
  // totally; ops of the same event share a key, come from one buffer,
  // and the stable sort keeps their program order. The result is the
  // exact sequence of sink mutations the sequential engine performs.
  // Each shard appends in execution order (nondecreasing key), so the
  // input is K concatenated sorted runs and the merge sort underneath
  // stable_sort runs near its linear best case.
  std::stable_sort(
      order_.begin(), order_.end(),
      [](const ShardOpBuffer::Op* a, const ShardOpBuffer::Op* b) {
        return a->key < b->key;
      });
  for (ShardOpBuffer::Op* op : order_) op->fn();
  order_.clear();
  for (const auto& b : buffers_) b->ops_.clear();
}

}  // namespace pg::obs
