// RAII guard around one experiment run for observability.
//
// On construction it opens a new trace unit (one Perfetto "process" per
// run - every run builds a fresh Simulation starting at t=0, so units
// keep their timelines from overlapping). On destruction it emits a
// "putget"-track span covering the whole run plus the putget.* metrics.
// All of it no-ops when no sink is attached.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>

#include "common/units.h"
#include "obs/flow.h"
#include "obs/metrics.h"
#include "obs/timeseries.h"
#include "obs/trace.h"

namespace pg::putget {

/// Opens a new unit on every attached sink: a fresh trace process, and —
/// because a new run means a fresh correlation namespace, latency
/// breakdown and sample timeline — a fresh flow-table and time-series
/// unit.
inline void begin_obs_unit(const std::string& label) {
  obs::begin_unit(label);
  if (obs::FlowTable* f = obs::flows()) f->begin_unit(label);
  obs::timeseries_begin_unit(label);
}

class OpSpan {
 public:
  /// `now` reads the run's clock when the span closes; for a cluster
  /// pass [&cluster] { return cluster.now(); } (the fence time when
  /// sharded — the destructor runs in host context, where the shards
  /// have quiesced).
  OpSpan(std::function<SimTime()> now, std::string label)
      : now_(std::move(now)), label_(std::move(label)) {
    begin_obs_unit(label_);
  }

  OpSpan(const OpSpan&) = delete;
  OpSpan& operator=(const OpSpan&) = delete;

  ~OpSpan() {
    const SimTime end = now_();
    if (obs::metrics()) {
      obs::count("putget.ops");
      obs::observe("putget.op_ns", static_cast<std::uint64_t>(to_ns(end)));
    }
    if (obs::enabled()) {
      obs::span("putget", "op", label_, 0, end, {});
    }
  }

 private:
  std::function<SimTime()> now_;
  std::string label_;
};

}  // namespace pg::putget
