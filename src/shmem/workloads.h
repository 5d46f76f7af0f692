// Proof workloads for the symmetric-heap API: GUPS-style random remote
// updates and a 2-D stencil halo exchange. Both run the *same user
// code* on either fabric — the backend is a config field, nothing else
// changes — which is the portability claim the shmem layer exists to
// make.
#pragma once

#include <cstdint>
#include <string>

#include "putget/notify.h"

namespace pg::shmem {

// ---------------------------------------------------------------------------
// GUPS: each PE issues a stream of 8-byte updates to random words of a
// distributed table (HPCC RandomAccess flavour, with a Zipf option so
// hot-spot behaviour is measurable too).

enum class GupsMode {
  /// Host-driven put-with-notification stream, windowed.
  kPutNotify,
  /// Remote fetch-and-add per update (serialized; latency-focused).
  kAmo,
  /// GPU-driven: the update list is compiled into a device put-list
  /// kernel posting straight from the symmetric heap.
  kGpu,
};

const char* gups_mode_name(GupsMode m);

struct GupsConfig {
  putget::RmaBackend backend = putget::RmaBackend::kExtoll;
  GupsMode mode = GupsMode::kPutNotify;
  int num_pes = 4;
  std::uint32_t updates_per_pe = 64;
  /// Table words per (target, origin) column. Updates from one origin
  /// land only in its own column, so final-state verification can
  /// replay per-origin FIFO streams exactly.
  std::uint32_t table_words = 32;
  /// Zipf skew over the word index; 0 = uniform.
  double zipf_s = 0.0;
  std::uint64_t seed = 1;
  /// Outstanding puts per origin in kPutNotify mode.
  std::uint32_t window = 8;
  /// Event-engine worker threads (see ClusterConfig::threads). Results
  /// are byte-identical for any value.
  int threads = 1;
  /// Telemetry sample interval (see ClusterConfig::sample_every).
  SimDuration sample_every = 0;
};

struct GupsResult {
  bool verified = false;
  std::string error;  // set when a setup/post step failed
  int num_pes = 0;
  std::uint64_t updates = 0;
  double sim_time_us = 0.0;
  /// Updates per simulated nanosecond == giga-updates per second.
  double gups = 0.0;
  std::uint64_t checksum = 0;
  /// Sum of notification arrivals over all PEs (kPutNotify only).
  std::uint64_t notified_total = 0;
  /// Determinism fingerprint.
  std::uint64_t events_executed = 0;
  /// kAmo: per-op latency quantiles. kGpu: device post-loop time.
  double amo_p50_ns = 0.0;
  double amo_p99_ns = 0.0;
  double device_span_ns = 0.0;
};

GupsResult run_gups(const GupsConfig& cfg);

// ---------------------------------------------------------------------------
// 2-D halo exchange: an additive 5-point stencil over a px*py torus of
// PEs. Rows are contiguous and travel as direct puts into the
// neighbour's halo row; columns are strided and go through GPU
// pack/unpack kernels plus staging buffers. All four edges per PE per
// iteration are put-with-notification, so target-side readiness is one
// wait_notified call.
//
// A px x 1 grid is a ring of PEs: each PE is its own north and south
// neighbour, so its halo rows are filled by local GPU copies and only
// the two column edges cross the fabric.

struct Halo2dConfig {
  putget::RmaBackend backend = putget::RmaBackend::kExtoll;
  /// Wiring of the px*py-node cluster the workload builds.
  net::Topology topology = net::Topology::kFullMesh;
  int px = 2;  // PE grid width, >= 2
  int py = 2;  // PE grid height, >= 1
  std::uint32_t nx = 8;  // interior cells per PE, x
  std::uint32_t ny = 8;  // interior cells per PE, y
  std::uint32_t iterations = 4;
  std::uint64_t seed = 1;
  /// Event-engine worker threads (see ClusterConfig::threads). Results
  /// are byte-identical for any value.
  int threads = 1;
  /// Telemetry sample interval (see ClusterConfig::sample_every).
  SimDuration sample_every = 0;
};

struct Halo2dResult {
  bool verified = false;
  std::string error;
  int num_pes = 0;
  std::uint32_t iterations = 0;
  std::uint64_t halo_puts = 0;
  double sim_time_us = 0.0;
  std::uint64_t checksum = 0;
  std::uint64_t notified_total = 0;
  std::uint64_t events_executed = 0;
};

Halo2dResult run_halo2d(const Halo2dConfig& cfg);

}  // namespace pg::shmem
