#include "obs/trace.h"

namespace pg::obs {

namespace {

TraceRecorder* g_recorder = nullptr;

/// Chrome trace `ts`/`dur` are microseconds; picoseconds render exactly
/// with six fractional digits.
std::string render_us(SimTime ps) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%lld.%06lld",
                static_cast<long long>(ps / kMicrosecond),
                static_cast<long long>(ps % kMicrosecond));
  return buf;
}

}  // namespace

TraceRecorder* recorder() { return g_recorder; }

void attach_recorder(TraceRecorder* rec) { g_recorder = rec; }

TraceRecorder::TraceRecorder() { unit_names_.push_back("sim"); }

TraceRecorder::TrackId TraceRecorder::track(std::string_view name) {
  auto it = track_ids_.find(std::string(name));
  if (it != track_ids_.end()) return it->second;
  const TrackId id = static_cast<TrackId>(track_names_.size());
  track_names_.emplace_back(name);
  track_ids_.emplace(std::string(name), id);
  return id;
}

void TraceRecorder::begin_unit(std::string name) {
  unit_names_.push_back(std::move(name));
  current_unit_ = static_cast<std::uint32_t>(unit_names_.size() - 1);
}

std::string TraceRecorder::render_args(std::initializer_list<Arg> args) {
  std::string out;
  bool first = true;
  for (const Arg& a : args) {
    if (!first) out += ',';
    first = false;
    out += json_string(a.key);
    out += ':';
    out += a.value;
  }
  return out;
}

void TraceRecorder::record(Event e) {
  used_unit_tracks_.insert(
      (static_cast<std::uint64_t>(e.unit) << 32) | e.track);
  events_.push_back(std::move(e));
}

void TraceRecorder::span(TrackId track, const char* category,
                         std::string name, SimTime begin, SimTime end,
                         std::string args) {
  if (end < begin) end = begin;
  record(Event{current_unit_, track, 'X', category, std::move(name), begin,
               end - begin, std::move(args)});
}

void TraceRecorder::instant(TrackId track, const char* category,
                            std::string name, SimTime at, std::string args) {
  record(Event{current_unit_, track, 'i', category, std::move(name), at, 0,
               std::move(args)});
}

void TraceRecorder::flow_event(TrackId track, char phase, std::uint64_t id,
                               SimTime at) {
  record(Event{current_unit_, track, phase, "flow", "msg", at, 0, "", id});
}

std::string TraceRecorder::to_json() const {
  std::string out;
  out.reserve(events_.size() * 128 + 4096);
  out += "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  bool first = true;
  auto emit = [&out, &first](const std::string& event) {
    if (!first) out += ',';
    first = false;
    out += '\n';
    out += event;
  };
  // Metadata: name every unit (process) and every (unit, track) thread.
  for (std::uint32_t unit = 0; unit < unit_names_.size(); ++unit) {
    bool unit_used = false;
    for (TrackId t = 0; t < track_names_.size(); ++t) {
      if (used_unit_tracks_.count(
              (static_cast<std::uint64_t>(unit) << 32) | t) == 0) {
        continue;
      }
      unit_used = true;
      std::string m = "{\"ph\":\"M\",\"pid\":";
      m += json_u64(unit);
      m += ",\"tid\":";
      m += json_u64(t);
      m += ",\"name\":\"thread_name\",\"args\":{\"name\":";
      m += json_string(track_names_[t]);
      m += "}}";
      emit(m);
    }
    // Explicitly begun units keep their name even when they recorded no
    // events, so an empty unit still shows up (correctly named) in the
    // viewer instead of silently vanishing from the metadata.
    if (unit_used || unit > 0) {
      std::string m = "{\"ph\":\"M\",\"pid\":";
      m += json_u64(unit);
      m += ",\"name\":\"process_name\",\"args\":{\"name\":";
      m += json_string(unit_names_[unit]);
      m += "}}";
      emit(m);
    }
  }
  for (const Event& e : events_) {
    std::string ev = "{\"ph\":\"";
    ev += e.phase;
    ev += "\",\"pid\":";
    ev += json_u64(e.unit);
    ev += ",\"tid\":";
    ev += json_u64(e.track);
    ev += ",\"cat\":";
    ev += json_string(e.category);
    ev += ",\"name\":";
    ev += json_string(e.name);
    ev += ",\"ts\":";
    ev += render_us(e.ts);
    if (e.phase == 'X') {
      ev += ",\"dur\":";
      ev += render_us(e.dur);
    } else if (e.phase == 'i') {
      ev += ",\"s\":\"t\"";  // instant scope: thread
    } else {
      ev += ",\"id\":";
      ev += json_u64(e.flow_id);
      if (e.phase == 'f') ev += ",\"bp\":\"e\"";  // bind to enclosing slice
    }
    ev += ",\"args\":{";
    ev += e.args;
    ev += "}}";
    emit(ev);
  }
  out += "\n]}\n";
  return out;
}

void TraceRecorder::write_json(std::FILE* out) const {
  const std::string json = to_json();
  std::fwrite(json.data(), 1, json.size(), out);
}

}  // namespace pg::obs
