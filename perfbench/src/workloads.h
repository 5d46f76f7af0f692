// Benchmark workloads: the seeded list of driver calls each workload
// makes, the call runner, the correctness gate and the result digest.
//
// A call is one experiment point of a public driver entry point
// (putget::run_{extoll,ib}_{pingpong,msgrate}, shmem::run_halo2d). Every
// driver call builds a fresh cluster, so the modelled L2 always starts
// empty. Simulated results are deterministic, so a pass over the same
// call list must reproduce the same digest exactly.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "putget/modes.h"
#include "putget/results.h"
#include "shmem/workloads.h"
#include "sys/cluster.h"

namespace pb {

enum class Workload { kPingpongHost, kPingpongGpu, kMsgrate, kShmemHalo8 };

std::optional<Workload> parse_workload(std::string_view name);
const char* workload_name(Workload w);

enum class Fabric { kExtoll, kIb };
const char* fabric_name(Fabric f);

/// One driver call. Only the fields of its kind are meaningful.
struct Call {
  enum class Kind { kPingPong, kMsgRate, kHalo };
  Kind kind = Kind::kPingPong;
  Fabric fabric = Fabric::kExtoll;
  // kPingPong
  pg::putget::TransferMode mode = pg::putget::TransferMode::kHostControlled;
  pg::putget::QueueLocation location = pg::putget::QueueLocation::kHostMemory;
  std::uint32_t size = 0;
  std::uint32_t iterations = 0;  // also kHalo
  // kMsgRate
  pg::putget::RateVariant variant = pg::putget::RateVariant::kHostControlled;
  std::uint32_t pairs = 0;
  std::uint32_t msgs_per_pair = 0;
  // kHalo
  int px = 0;
  int py = 0;
  std::uint32_t tile = 0;
  std::uint64_t halo_seed = 0;
  int threads = 1;

  std::string label() const;
};

/// Everything a call returns that the digest and the per-layer metrics
/// read. `failed` is the correctness gate's verdict.
struct Outcome {
  bool failed = false;
  std::uint64_t digest = 0;
  std::uint64_t gpu_instructions = 0;   // ping-pong initiator GPU
  std::uint64_t events_scheduled = 0;   // ping-pong
  std::uint64_t events_executed = 0;    // halo
  std::uint64_t halo_puts = 0;
  std::uint64_t notified = 0;
  std::uint64_t checksum = 0;           // halo field checksum
};

/// The workload's measured call list. The seed draws each ping-pong size
/// inside its band, the order of the points, and the halo field seed.
std::vector<Call> make_calls(Workload w, std::uint64_t seed);

/// The warm-up slice run during set-up: one call per (fabric, mode) at
/// each band up to 1 KiB, one per (fabric, variant) at 1 and 2 pairs, or
/// a short halo call per fabric. The seed only feeds the halo field.
std::vector<Call> warmup_calls(Workload w, std::uint64_t seed);

/// Engine workers of shmem_halo8's parallel passes in the traced run
/// (this host's core count); the measured calls use one.
constexpr int kHaloParallelThreads = 4;

/// The calls with the event engine's worker count replaced (halo only).
std::vector<Call> with_threads(std::vector<Call> calls, int threads);

/// The correctness gate, one rule per result type.
bool gate_failed(const pg::putget::PingPongResult& r);
bool gate_failed(const pg::putget::MessageRateResult& r);
bool gate_failed(const pg::shmem::Halo2dResult& r);

/// Digests of every simulated result field (FNV-1a over the raw bits).
std::uint64_t digest_of(const pg::putget::PingPongResult& r);
std::uint64_t digest_of(const pg::putget::MessageRateResult& r);
std::uint64_t digest_of(const pg::shmem::Halo2dResult& r);

Outcome run_call(const Call& c);

/// Sizes and builds the cluster configurations the workload's driver
/// calls use, so set-up can time cluster construction on its own.
std::vector<pg::sys::ClusterConfig> cluster_configs(Workload w);

/// Largest buffer one call of the list moves (the fill_pattern probe
/// size).
std::uint32_t largest_size(const std::vector<Call>& calls);

/// FNV-1a, 64-bit, over 8-byte words.
class Digest {
 public:
  void add(std::uint64_t v);
  void add(double v);
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

}  // namespace pb
