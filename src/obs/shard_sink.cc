#include "obs/shard_sink.h"

#include <algorithm>
#include <atomic>
#include <cassert>

#include "obs/flow.h"
#include "obs/metrics.h"
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

/// Rendered span/instant args are built while the op's event executes,
/// so a "flow" argument minted inside the same round still holds its
/// provisional id (bit 63 set). The merge replays the flow ops that
/// establish the provisional->canonical aliases before the trace ops
/// that reference them (program order within the event, key order
/// across events), so this is the one place the id can be rewritten
/// before it reaches the recorder. Only the well-known "flow" key is
/// treated as a flow id — the same convention flow.cc uses to
/// correlate trace spans with flows.
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

}  // namespace

void ShardOpBuffer::append(DeferredOp op) {
  assert(sim_ != nullptr && "buffer bound without a stamping simulation");
  const sim::EventQueue::Key& k = sim_->current_key();
  op.ev_time = k.time;
  op.ev_birth = k.birth_time;
  op.ev_tag = k.birth_tag;
  ops_.push_back(std::move(op));
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

std::size_t ShardSinkHub::pending() const {
  std::size_t n = 0;
  for (const auto& b : buffers_) n += b->ops_.size();
  return n;
}

void ShardSinkHub::merge() {
  std::size_t total = 0;
  for (const auto& b : buffers_) total += b->ops_.size();
  if (total == 0) return;
  order_.clear();
  order_.reserve(total);
  for (const auto& b : buffers_) {
    for (DeferredOp& op : b->ops_) order_.push_back(&op);
  }
  // Event keys are globally unique, so ops of distinct events order
  // totally; ops of the same event share a key, come from one buffer,
  // and the stable sort keeps their program order. The result is the
  // exact sequence of sink mutations the sequential engine performs.
  // Each shard appends in execution order (nondecreasing key), so the
  // input is K concatenated sorted runs and the merge sort underneath
  // stable_sort runs near its linear best case.
  std::stable_sort(order_.begin(), order_.end(),
                   [](const DeferredOp* a, const DeferredOp* b) {
                     if (a->ev_time != b->ev_time) return a->ev_time < b->ev_time;
                     if (a->ev_birth != b->ev_birth)
                       return a->ev_birth < b->ev_birth;
                     return a->ev_tag < b->ev_tag;
                   });
  for (DeferredOp* op : order_) apply_deferred_op(*op);
  order_.clear();
  for (const auto& b : buffers_) b->ops_.clear();
}

void apply_deferred_op(DeferredOp& op) {
  using Kind = DeferredOp::Kind;
  switch (op.kind) {
    case Kind::kSpan:
    case Kind::kInstant: {
      TraceRecorder* r = recorder();
      if (r == nullptr) return;
      if (!op.args.empty()) resolve_flow_args(&op.args);
      const TraceRecorder::TrackId t = r->track(op.track);
      if (op.kind == Kind::kSpan) {
        r->span_rendered(t, op.category, std::move(op.name), op.t0, op.t1,
                         std::move(op.args));
      } else {
        r->instant_rendered(t, op.category, std::move(op.name), op.t0,
                            std::move(op.args));
      }
      return;
    }
    case Kind::kCount:
    case Kind::kObserve:
    case Kind::kGauge: {
      MetricsRegistry* m = metrics();
      if (m == nullptr) return;
      if (op.kind == Kind::kCount) {
        m->counter(op.track).add(op.u64);
      } else if (op.kind == Kind::kObserve) {
        m->histogram(op.track).record(op.u64);
      } else {
        m->gauge(op.track).set(op.f64);
      }
      return;
    }
    default:
      break;
  }
  FlowTable* f = flows();
  if (f == nullptr) return;
  switch (op.kind) {
    case Kind::kFlowBegin:
      f->alias(op.id, f->begin(op.t0));
      break;
    case Kind::kFlowStage:
      f->stage(op.id, op.track.c_str(), op.name.c_str(), op.t0);
      break;
    case Kind::kFlowEnd:
      f->end(op.id, op.track.c_str(), op.t0);
      break;
    case Kind::kFlowStep:
      f->step(op.id, op.track.c_str(), op.t0);
      break;
    case Kind::kFlowPush:
      f->push(op.key, op.id);
      break;
    case Kind::kFlowPop:
      f->alias(op.id, f->pop(op.key));
      break;
    case Kind::kFlowPopOrBegin: {
      FlowId canon = f->pop(op.key);
      if (canon == 0) canon = f->begin(op.t0);
      f->alias(op.id, canon);
      break;
    }
    case Kind::kFlowEnsureParked:
      if (f->channel_depth(op.key) == 0) f->push(op.key, f->begin(op.t0));
      break;
    case Kind::kFlowPollScan:
      f->poll_scan(op.track.c_str(), op.t0, op.keys.data(), op.keys.size());
      break;
    default:
      break;
  }
}

// ---------------------------------------------------------------------------
// Deferred recorders (obs/defer.h).

void defer_span(ShardOpBuffer* b, const char* track, const char* category,
                std::string name, SimTime begin, SimTime end,
                std::string rendered_args) {
  DeferredOp op;
  op.kind = DeferredOp::Kind::kSpan;
  op.category = category;
  op.track = track;
  op.name = std::move(name);
  op.args = std::move(rendered_args);
  op.t0 = begin;
  op.t1 = end;
  b->append(std::move(op));
}

void defer_instant(ShardOpBuffer* b, const char* track, const char* category,
                   std::string name, SimTime at, std::string rendered_args) {
  DeferredOp op;
  op.kind = DeferredOp::Kind::kInstant;
  op.category = category;
  op.track = track;
  op.name = std::move(name);
  op.args = std::move(rendered_args);
  op.t0 = at;
  b->append(std::move(op));
}

void defer_count(ShardOpBuffer* b, const char* name, std::uint64_t delta) {
  DeferredOp op;
  op.kind = DeferredOp::Kind::kCount;
  op.track = name;
  op.u64 = delta;
  b->append(std::move(op));
}

void defer_observe(ShardOpBuffer* b, const char* name, std::uint64_t value) {
  DeferredOp op;
  op.kind = DeferredOp::Kind::kObserve;
  op.track = name;
  op.u64 = value;
  b->append(std::move(op));
}

void defer_gauge(ShardOpBuffer* b, const char* name, double value) {
  DeferredOp op;
  op.kind = DeferredOp::Kind::kGauge;
  op.track = name;
  op.f64 = value;
  b->append(std::move(op));
}

std::uint64_t defer_flow_begin(ShardOpBuffer* b, SimTime at) {
  DeferredOp op;
  op.kind = DeferredOp::Kind::kFlowBegin;
  op.id = b->mint_provisional();
  op.t0 = at;
  const std::uint64_t id = op.id;
  b->append(std::move(op));
  return id;
}

void defer_flow_stage(ShardOpBuffer* b, std::uint64_t id, const char* track,
                      const char* name, SimTime end) {
  DeferredOp op;
  op.kind = DeferredOp::Kind::kFlowStage;
  op.id = id;
  op.track = track;
  op.name = name;
  op.t0 = end;
  b->append(std::move(op));
}

void defer_flow_end(ShardOpBuffer* b, std::uint64_t id, const char* track,
                    SimTime at) {
  DeferredOp op;
  op.kind = DeferredOp::Kind::kFlowEnd;
  op.id = id;
  op.track = track;
  op.t0 = at;
  b->append(std::move(op));
}

void defer_flow_step(ShardOpBuffer* b, std::uint64_t id, const char* track,
                     SimTime at) {
  DeferredOp op;
  op.kind = DeferredOp::Kind::kFlowStep;
  op.id = id;
  op.track = track;
  op.t0 = at;
  b->append(std::move(op));
}

void defer_flow_push(ShardOpBuffer* b, std::uint64_t key, std::uint64_t id) {
  DeferredOp op;
  op.kind = DeferredOp::Kind::kFlowPush;
  op.key = key;
  op.id = id;
  b->append(std::move(op));
}

std::uint64_t defer_flow_pop(ShardOpBuffer* b, std::uint64_t key) {
  DeferredOp op;
  op.kind = DeferredOp::Kind::kFlowPop;
  op.key = key;
  op.id = b->mint_provisional();
  const std::uint64_t id = op.id;
  b->append(std::move(op));
  return id;
}

std::uint64_t defer_flow_pop_or_begin(ShardOpBuffer* b, std::uint64_t key,
                                      SimTime at) {
  DeferredOp op;
  op.kind = DeferredOp::Kind::kFlowPopOrBegin;
  op.key = key;
  op.id = b->mint_provisional();
  op.t0 = at;
  const std::uint64_t id = op.id;
  b->append(std::move(op));
  return id;
}

void defer_flow_ensure_parked(ShardOpBuffer* b, std::uint64_t key,
                              SimTime at) {
  DeferredOp op;
  op.kind = DeferredOp::Kind::kFlowEnsureParked;
  op.key = key;
  op.t0 = at;
  b->append(std::move(op));
}

void defer_flow_poll_scan(ShardOpBuffer* b, const char* track, SimTime at,
                          const std::uint64_t* keys, std::size_t n) {
  DeferredOp op;
  op.kind = DeferredOp::Kind::kFlowPollScan;
  op.track = track;
  op.t0 = at;
  op.keys.assign(keys, keys + n);
  b->append(std::move(op));
}

}  // namespace pg::obs
