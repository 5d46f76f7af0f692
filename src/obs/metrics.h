// Named counters, gauges, and log2-bucket latency histograms with a
// deterministic JSON snapshot.
//
// A MetricsRegistry is an explicit sink: model code publishes through
// the free helpers (obs::count / obs::observe / obs::gauge_set), which
// reduce to a single predictable branch on the global sink pointer when
// no registry is attached. Registries are plain value objects - tests
// attach their own, benches attach one when --json is requested.
//
// Everything is keyed by name in an ordered map, so two identical
// simulation runs produce byte-identical snapshots (a property the obs
// tests assert).
#pragma once

#include <bit>
#include <array>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>

#include "obs/defer.h"

namespace pg::obs {

/// Monotonically increasing event count.
class Counter {
 public:
  void add(std::uint64_t delta = 1) { value_ += delta; }
  std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_ = 0;
};

/// Last-write-wins instantaneous value.
class Gauge {
 public:
  void set(double value) { value_ = value; }
  double value() const { return value_; }

 private:
  double value_ = 0.0;
};

/// Histogram over unsigned samples with power-of-two bucket boundaries.
///
/// Bucket 0 holds the value 0 exactly; bucket i (i >= 1) holds values in
/// [2^(i-1), 2^i - 1]. Equivalently, a sample lands in the bucket whose
/// index is std::bit_width(sample). Latencies are recorded in
/// nanoseconds by convention (histogram names end in `_ns`).
class Log2Histogram {
 public:
  /// bit_width of a uint64 is in [0, 64], hence 65 buckets.
  static constexpr unsigned kBuckets = 65;

  static unsigned bucket_index(std::uint64_t value) {
    return static_cast<unsigned>(std::bit_width(value));
  }
  /// Smallest value that lands in bucket `i`.
  static std::uint64_t bucket_lower(unsigned i) {
    return i == 0 ? 0 : (1ull << (i - 1));
  }
  /// Largest value that lands in bucket `i`.
  static std::uint64_t bucket_upper(unsigned i) {
    if (i == 0) return 0;
    if (i >= 64) return ~0ull;
    return (1ull << i) - 1;
  }

  void record(std::uint64_t value) {
    ++buckets_[bucket_index(value)];
    ++count_;
    sum_ += value;
    if (count_ == 1 || value < min_) min_ = value;
    if (value > max_) max_ = value;
  }

  std::uint64_t count() const { return count_; }
  std::uint64_t sum() const { return sum_; }
  std::uint64_t min() const { return count_ ? min_ : 0; }
  std::uint64_t max() const { return max_; }
  std::uint64_t bucket_count(unsigned i) const { return buckets_.at(i); }
  double mean() const {
    return count_ ? static_cast<double>(sum_) / static_cast<double>(count_)
                  : 0.0;
  }

  /// Upper bound of the bucket containing the `p`-quantile sample
  /// (p in [0, 1]); 0 for an empty histogram. p=0 reports the first
  /// occupied bucket, p=1 the last.
  std::uint64_t percentile(double p) const;

  /// Folds `other` into this histogram bucket-wise. Exact: the result
  /// is identical to recording both sample streams into one histogram.
  /// Used to aggregate per-link distributions (e.g. queue depths kept
  /// passively in LinkDirStats) into a registry-level instrument.
  void merge(const Log2Histogram& other) {
    for (unsigned i = 0; i < kBuckets; ++i) {
      buckets_[i] += other.buckets_[i];
    }
    if (other.count_ > 0) {
      if (count_ == 0 || other.min_ < min_) min_ = other.min_;
      if (other.max_ > max_) max_ = other.max_;
      count_ += other.count_;
      sum_ += other.sum_;
    }
  }

 private:
  std::array<std::uint64_t, kBuckets> buckets_{};
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t min_ = 0;
  std::uint64_t max_ = 0;
};

/// Name-keyed home for all three instrument kinds.
class MetricsRegistry {
 public:
  Counter& counter(const std::string& name) { return counters_[name]; }
  Gauge& gauge(const std::string& name) { return gauges_[name]; }
  Log2Histogram& histogram(const std::string& name) {
    return histograms_[name];
  }

  bool empty() const {
    return counters_.empty() && gauges_.empty() && histograms_.empty();
  }

  /// Renders the full registry as one JSON object, deterministically
  /// ordered by instrument kind then name. Histograms include count,
  /// sum, min, max, p50/p90/p99, and the occupied buckets.
  std::string snapshot_json() const;
  void write_json(std::FILE* out) const;

 private:
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, Log2Histogram> histograms_;
};

// ---------------------------------------------------------------------------
// Global sink. Attach/detach is the caller's job (bench::Session, tests);
// model code only ever consults the pointer.

/// The attached registry, or nullptr when metrics are off.
MetricsRegistry* metrics();
/// Attaches `registry` (pass nullptr to detach). Not thread-safe; the
/// simulator is single-threaded by design.
void attach_metrics(MetricsRegistry* registry);

/// Adds `delta` to counter `name` if a registry is attached. Inside a
/// parallel shard window (obs/defer.h) the update is buffered and
/// folded in at the next fence, in global event order.
inline void count(const char* name, std::uint64_t delta = 1) {
  if (MetricsRegistry* m = metrics()) {
    apply_or_defer<metrics>(
        m, [name = std::string(name), delta](MetricsRegistry& reg) {
          reg.counter(name).add(delta);
        });
  }
}

/// Records `value` into histogram `name` if a registry is attached.
inline void observe(const char* name, std::uint64_t value) {
  if (MetricsRegistry* m = metrics()) {
    apply_or_defer<metrics>(
        m, [name = std::string(name), value](MetricsRegistry& reg) {
          reg.histogram(name).record(value);
        });
  }
}

/// Sets gauge `name` if a registry is attached.
inline void gauge_set(const char* name, double value) {
  if (MetricsRegistry* m = metrics()) {
    apply_or_defer<metrics>(
        m, [name = std::string(name), value](MetricsRegistry& reg) {
          reg.gauge(name).set(value);
        });
  }
}

}  // namespace pg::obs
