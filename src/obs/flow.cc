#include "obs/flow.h"

namespace pg::obs {

namespace {

FlowTable* g_flows = nullptr;

/// Histogram summary for the breakdown JSON: counts plus the quantiles
/// the waterfall report reads. Values are nanoseconds.
void append_hist(std::string& out, const Log2Histogram& h) {
  out += "{\"count\":";
  out += json_u64(h.count());
  out += ",\"sum\":";
  out += json_u64(h.sum());
  out += ",\"min\":";
  out += json_u64(h.min());
  out += ",\"max\":";
  out += json_u64(h.max());
  out += ",\"p50\":";
  out += json_u64(h.percentile(0.50));
  out += ",\"p95\":";
  out += json_u64(h.percentile(0.95));
  out += ",\"p99\":";
  out += json_u64(h.percentile(0.99));
  out += '}';
}

}  // namespace

FlowTable* flows() { return g_flows; }

void attach_flows(FlowTable* table) { g_flows = table; }

FlowTable::FlowTable() { groups_.push_back(Breakdown{.label = "sim"}); }

FlowId FlowTable::begin(SimTime at) {
  const FlowId id = next_id_++;
  open_.emplace(id, OpenFlow{.begin = at, .cursor = at});
  return id;
}

void FlowTable::stage(FlowId id, const char* track, const char* name,
                      SimTime end) {
  id = resolve(id);
  auto it = open_.find(id);
  if (it == open_.end()) return;
  OpenFlow& f = it->second;
  if (end < f.cursor) end = f.cursor;
  const SimTime b = f.cursor;
  f.cursor = end;

  Breakdown& g = groups_[cur_];
  StageStats* s = nullptr;
  for (StageStats& cand : g.stages) {
    if (cand.name == name) {
      s = &cand;
      break;
    }
  }
  if (s == nullptr) {
    g.stages.push_back(StageStats{.name = name});
    s = &g.stages.back();
  }
  s->ns.record(static_cast<std::uint64_t>(end - b) / kNanosecond);

  if (TraceRecorder* r = recorder()) {
    const TraceRecorder::TrackId t = r->track(track);
    r->span(t, "flow", name, b, end,
            TraceRecorder::render_args({{"flow", id}}));
    r->flow_event(t, f.announced ? 't' : 's', id, b);
    f.announced = true;
  }
}

void FlowTable::end(FlowId id, const char* track, SimTime at) {
  id = resolve(id);
  auto it = open_.find(id);
  if (it == open_.end()) return;
  const OpenFlow& f = it->second;
  if (at < f.cursor) at = f.cursor;
  Breakdown& g = groups_[cur_];
  g.e2e_ns.record(static_cast<std::uint64_t>(at - f.begin) / kNanosecond);
  ++g.completed;
  if (TraceRecorder* r = recorder()) {
    if (f.announced) r->flow_event(r->track(track), 'f', id, at);
  }
  open_.erase(it);
}

void FlowTable::step(FlowId id, const char* track, SimTime at) {
  id = resolve(id);
  auto it = open_.find(id);
  if (it == open_.end()) return;
  if (TraceRecorder* r = recorder()) {
    r->flow_event(r->track(track), it->second.announced ? 't' : 's', id, at);
    it->second.announced = true;
  }
}

void FlowTable::push(std::uint64_t key, FlowId id) {
  id = resolve(id);
  if (id == 0) return;  // dead provisional id: the deferred pop missed
  channels_[key].push_back(id);
}

FlowId FlowTable::pop(std::uint64_t key) {
  auto it = channels_.find(key);
  if (it == channels_.end() || it->second.empty()) return 0;
  const FlowId id = it->second.front();
  it->second.pop_front();
  if (it->second.empty()) channels_.erase(it);
  return id;
}

std::size_t FlowTable::channel_depth(std::uint64_t key) const {
  auto it = channels_.find(key);
  return it != channels_.end() ? it->second.size() : 0;
}

FlowId FlowTable::pop_or_begin(std::uint64_t key, SimTime at) {
  const FlowId id = pop(key);
  return id != 0 ? id : begin(at);
}

void FlowTable::ensure_parked(std::uint64_t key, SimTime at) {
  if (channel_depth(key) == 0) push(key, begin(at));
}

void FlowTable::poll_scan(const char* track, SimTime at,
                          const std::uint64_t* keys, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const FlowId id = pop(keys[i]);
    if (id == 0) continue;
    stage(id, track, "poll_detect", at);
    end(id, track, at);
    return;
  }
}

void FlowTable::begin_unit(std::string label) {
  groups_[cur_].abandoned += open_.size();
  open_.clear();
  aliases_.clear();
  channels_.clear();
  groups_.push_back(Breakdown{.label = std::move(label)});
  cur_ = groups_.size() - 1;
}

const FlowTable::Breakdown* FlowTable::find(std::string_view label) const {
  for (std::size_t i = groups_.size(); i-- > 0;) {
    if (groups_[i].label == label) return &groups_[i];
  }
  return nullptr;
}

std::string FlowTable::snapshot_json() const {
  std::string out = "{\"flows\":[";
  bool first_g = true;
  for (const Breakdown& g : groups_) {
    if (g.completed == 0 && g.abandoned == 0 && g.stages.empty()) continue;
    if (!first_g) out += ',';
    first_g = false;
    out += "\n{\"unit\":";
    out += json_string(g.label);
    out += ",\"completed\":";
    out += json_u64(g.completed);
    out += ",\"abandoned\":";
    out += json_u64(g.abandoned);
    out += ",\"e2e_ns\":";
    append_hist(out, g.e2e_ns);
    out += ",\"stages\":[";
    bool first_s = true;
    for (const StageStats& s : g.stages) {
      if (!first_s) out += ',';
      first_s = false;
      out += "{\"name\":";
      out += json_string(s.name);
      out += ",\"ns\":";
      append_hist(out, s.ns);
      out += '}';
    }
    out += "]}";
  }
  out += "\n]}\n";
  return out;
}

}  // namespace pg::obs
