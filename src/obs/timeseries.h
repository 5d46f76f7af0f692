// Sim-time telemetry sampling: named values snapshotted at fixed
// simulated-time intervals into deterministic time-series JSON.
//
// Every other sink reports end-of-run totals; the TimeSeries gives the
// over-time view — utilization climbing as a fabric saturates, queue
// depths breathing with phase boundaries, message rate collapsing when
// a link contends. sys::Cluster drives it: when a sample interval is
// configured (ClusterConfig::sample_every / --metrics-every=), the
// execution facade segments its runs at exact sim-time boundaries
// (events never execute differently — see the ShardGroup *_before
// primitives in sim/parallel.h) and records one row per
// boundary with per-link utilization / queue depth, per-backend message
// rate, and flow-stage quantiles.
//
// Rows are keyed by simulated picoseconds and values are sorted by
// name, so two runs of the same experiment — at any worker-thread
// count — serialize byte-identically. Like every obs sink this is a
// passive, explicitly attached value object: it never schedules events
// and cannot perturb simulated results.
#pragma once

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "common/units.h"

namespace pg::obs {

class TimeSeries {
 public:
  TimeSeries();

  /// Starts a new experiment unit (parallel to TraceRecorder /
  /// FlowTable units). Unit 0 ("sim") exists implicitly.
  void begin_unit(std::string label);

  /// Appends one sample row at simulated time `t`. Values arrive in a
  /// name-ordered map, so the row serializes deterministically.
  void sample(SimTime t, const std::map<std::string, double>& values);

  /// Deterministic JSON: every non-empty unit with its rows in
  /// recording order, values name-sorted.
  std::string snapshot_json() const;
  void write_json(std::FILE* out) const;

 private:
  struct Row {
    SimTime t;
    std::vector<std::pair<std::string, double>> values{};
  };
  struct Unit {
    std::string label;
    std::vector<Row> rows{};
  };
  std::vector<Unit> units_;
};

// ---------------------------------------------------------------------------
// Global sink. Attach/detach is the caller's job (bench::Session,
// tests); sampling code only ever consults the pointer.

/// The attached time series, or nullptr when sampling is off.
TimeSeries* timeseries();
/// Attaches `ts` (nullptr to detach). Not thread-safe by design.
void attach_timeseries(TimeSeries* ts);

inline void timeseries_begin_unit(std::string label) {
  if (TimeSeries* ts = timeseries()) ts->begin_unit(std::move(label));
}

}  // namespace pg::obs
