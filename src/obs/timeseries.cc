#include "obs/timeseries.h"

#include "obs/json.h"

namespace pg::obs {

namespace {

TimeSeries* g_timeseries = nullptr;

}  // namespace

TimeSeries* timeseries() { return g_timeseries; }

void attach_timeseries(TimeSeries* ts) { g_timeseries = ts; }

TimeSeries::TimeSeries() { units_.push_back(Unit{.label = "sim"}); }

void TimeSeries::begin_unit(std::string label) {
  units_.push_back(Unit{.label = std::move(label)});
}

void TimeSeries::sample(SimTime t, const std::map<std::string, double>& values) {
  Row row{.t = t};
  row.values.reserve(values.size());
  for (const auto& [name, v] : values) row.values.emplace_back(name, v);
  units_.back().rows.push_back(std::move(row));
}

std::string TimeSeries::snapshot_json() const {
  std::string out = "{\"timeseries\":[";
  bool first_u = true;
  for (const Unit& u : units_) {
    if (u.rows.empty()) continue;
    if (!first_u) out += ',';
    first_u = false;
    out += "\n{\"unit\":";
    out += json_string(u.label);
    out += ",\"samples\":[";
    bool first_r = true;
    for (const Row& r : u.rows) {
      if (!first_r) out += ',';
      first_r = false;
      out += "\n{\"t_ps\":";
      out += json_i64(r.t);
      out += ",\"values\":{";
      bool first_v = true;
      for (const auto& [name, v] : r.values) {
        if (!first_v) out += ',';
        first_v = false;
        out += json_string(name);
        out += ':';
        out += json_double(v);
      }
      out += "}}";
    }
    out += "\n]}";
  }
  out += "\n]}\n";
  return out;
}

void TimeSeries::write_json(std::FILE* out) const {
  const std::string s = snapshot_json();
  std::fwrite(s.data(), 1, s.size(), out);
}

}  // namespace pg::obs
