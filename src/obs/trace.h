// Simulation-clock tracing with Chrome trace-event JSON export.
//
// A TraceRecorder collects timestamped spans ("X" complete events) and
// instants ("i" events) against the simulated clock and writes the
// Chrome trace-event format, loadable in Perfetto (ui.perfetto.dev) or
// chrome://tracing. The mapping:
//
//   - one trace "process" (pid) per experiment unit - each bench run of
//     one (mode, size) configuration calls begin_unit(), so runs that
//     each start their own simulation at t=0 do not overlap;
//   - one "thread" (tid) per model component track: "node0.gpu",
//     "node0.extoll", "node1.hca", "pcie", "putget", ...;
//   - SimTime picoseconds become fractional-microsecond `ts`/`dur`
//     fields (the unit Chrome expects), exact to the picosecond.
//
// Recording is an explicit opt-in: model code tests obs::enabled() -
// one predictable branch on a global pointer - before building event
// arguments, so untraced runs execute the exact same simulation with no
// allocation and no timing difference. The trace recorder itself never
// schedules events or touches model state; attaching it cannot change
// simulated results (asserted by the obs regression tests).
#pragma once

#include <cstdint>
#include <cstdio>
#include <initializer_list>
#include <string>
#include <string_view>
#include <type_traits>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/units.h"
#include "obs/defer.h"
#include "obs/json.h"

namespace pg::obs {

/// One key/value event argument, pre-rendered to JSON.
struct Arg {
  template <typename T>
    requires(std::is_integral_v<T> && !std::is_same_v<T, bool>)
  Arg(const char* k, T v)
      : key(k),
        value(std::is_signed_v<T>
                  ? json_i64(static_cast<std::int64_t>(v))
                  : json_u64(static_cast<std::uint64_t>(v))) {}
  Arg(const char* k, bool v) : key(k), value(v ? "true" : "false") {}
  Arg(const char* k, double v) : key(k), value(json_double(v)) {}
  Arg(const char* k, const char* v) : key(k), value(json_string(v)) {}
  Arg(const char* k, const std::string& v) : key(k), value(json_string(v)) {}

  std::string key;
  std::string value;  // rendered JSON value
};

class TraceRecorder {
 public:
  using TrackId = std::uint32_t;

  TraceRecorder();

  /// Returns the id for the named component track, creating it on first
  /// use. Ids are stable for the recorder's lifetime.
  TrackId track(std::string_view name);

  /// Starts a new experiment unit (trace process). Subsequent events
  /// belong to it until the next call. Unit 0 exists implicitly.
  void begin_unit(std::string name);

  /// Records a completed span [begin, end] on `track`. `args` is a
  /// rendered argument body (render_args).
  void span(TrackId track, const char* category, std::string name,
            SimTime begin, SimTime end, std::string args = {});

  /// Records an instant event at `at` on `track`.
  void instant(TrackId track, const char* category, std::string name,
               SimTime at, std::string args = {});

  /// Records a Chrome flow event: `phase` is 's' (start), 't' (step) or
  /// 'f' (finish). Events sharing `id` are linked with arrows across
  /// tracks; each binds to the slice enclosing `at` on `track` ('f'
  /// uses the enclosing-slice binding point). Category is "flow".
  void flow_event(TrackId track, char phase, std::uint64_t id, SimTime at);

  /// Renders an argument list to the JSON object body span() and
  /// instant() store ("k":v,...; empty for no args).
  static std::string render_args(std::initializer_list<Arg> args);

  std::size_t event_count() const { return events_.size(); }

  /// Serializes the whole trace as Chrome trace-event JSON.
  std::string to_json() const;
  void write_json(std::FILE* out) const;

 private:
  struct Event {
    std::uint32_t unit;
    TrackId track;
    char phase;  // 'X', 'i', or flow 's'/'t'/'f'
    const char* category;
    std::string name;
    SimTime ts;        // picoseconds
    SimDuration dur;   // picoseconds, spans only
    std::string args;  // rendered JSON object body ("k":v,...), may be empty
    std::uint64_t flow_id = 0;  // flow events only
  };

  void record(Event e);

  std::vector<Event> events_;
  std::vector<std::string> track_names_;
  std::unordered_map<std::string, TrackId> track_ids_;
  std::vector<std::string> unit_names_;
  std::uint32_t current_unit_ = 0;
  // (unit, track) pairs that carry events, for thread_name metadata.
  std::unordered_set<std::uint64_t> used_unit_tracks_;
};

// ---------------------------------------------------------------------------
// Global sink plus one-line instrumentation helpers.

/// The attached recorder, or nullptr when tracing is off.
TraceRecorder* recorder();
/// Attaches `rec` (nullptr to detach). Not thread-safe by design.
void attach_recorder(TraceRecorder* rec);

/// The single branch instrumented code pays when tracing is off. Always
/// test this before building event names/args:
///   if (obs::enabled()) obs::span("pcie", "tlp", "write", t0, t1, ...);
inline bool enabled() { return recorder() != nullptr; }

/// Rewrites every provisional flow id in a rendered "flow" argument to
/// its canonical id (shard_sink.cc). Replay only: args are rendered at
/// the call site, before the merge has minted the canonical ids.
void resolve_flow_args(std::string* args);

inline void span(const char* track, const char* category, std::string name,
                 SimTime begin, SimTime end,
                 std::initializer_list<Arg> args = {}) {
  if (TraceRecorder* r = recorder()) {
    apply_or_defer<recorder>(
        r, [track = std::string(track), category, name = std::move(name),
            begin, end, args = TraceRecorder::render_args(args)](
               TraceRecorder& rec, bool replay) mutable {
          if (replay) resolve_flow_args(&args);
          rec.span(rec.track(track), category, std::move(name), begin, end,
                   std::move(args));
        });
  }
}

inline void instant(const char* track, const char* category, std::string name,
                    SimTime at, std::initializer_list<Arg> args = {}) {
  if (TraceRecorder* r = recorder()) {
    apply_or_defer<recorder>(
        r, [track = std::string(track), category, name = std::move(name), at,
            args = TraceRecorder::render_args(args)](TraceRecorder& rec,
                                                     bool replay) mutable {
          if (replay) resolve_flow_args(&args);
          rec.instant(rec.track(track), category, std::move(name), at,
                      std::move(args));
        });
  }
}

inline void begin_unit(std::string name) {
  if (TraceRecorder* r = recorder()) r->begin_unit(std::move(name));
}

}  // namespace pg::obs
