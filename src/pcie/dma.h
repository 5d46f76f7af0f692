// Segmenting DMA engine, as embedded in each NIC model.
//
// Bulk transfers are split into read-request-sized segments kept in a
// window of outstanding requests, so request issue, target service and
// completion return overlap: steady-state throughput becomes the minimum
// of the path's stages instead of their sum. This is what lets the NIC
// stream at (almost) link rate from host memory while the same engine is
// throttled by the GPU's peer read server when sourcing from GPU memory.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "mem/address_map.h"
#include "mem/payload.h"
#include "obs/flow.h"
#include "pcie/fabric.h"
#include "sim/simulation.h"

namespace pg::pcie {

struct DmaConfig {
  std::uint32_t read_request_size = 4096;  // PCIe max read request
  std::uint32_t max_outstanding_reads = 8;
  std::uint32_t write_chunk_size = 4096;   // descriptor-side segmentation
};

class DmaEngine {
 public:
  /// One streamed segment: its offset within the stream, whether it is
  /// the stream's last, and its bytes.
  using SegmentFn =
      std::function<void(std::uint64_t offset, bool last, mem::Payload data)>;

  DmaEngine(sim::Simulation& sim, Fabric& fabric, EndpointId self,
            DmaConfig cfg)
      : sim_(sim), fabric_(fabric), self_(self), cfg_(cfg) {}

  // In-flight jobs and their fabric callbacks hold the engine's address.
  DmaEngine(const DmaEngine&) = delete;
  DmaEngine& operator=(const DmaEngine&) = delete;

  /// Gathers [addr, addr+len) into one payload - each read request's
  /// completion fills its slice - and hands it to `on_done` once the
  /// final completion arrives. A nonzero `flow` annotates the completed
  /// transfer with that message lifecycle (trace-only).
  void read(mem::Addr addr, std::uint64_t len,
            std::function<void(mem::Payload)> on_done, obs::FlowId flow = 0);

  /// Streams [addr, addr+len) out of memory in `segment`-byte reads, one
  /// in flight: when segment k lands, the read of segment k+1 is issued
  /// before segment k is handed to `on_segment`, so whatever the caller
  /// does with k (push it through a datapath, onto the wire) overlaps
  /// the pull of k+1. Segments arrive in order. A nonzero `flow`
  /// annotates the first read only.
  void stream(mem::Addr addr, std::uint64_t len, std::uint32_t segment,
              obs::FlowId flow, SegmentFn on_segment);

  /// Scatters `data` to [addr, addr+size) in write-chunk TLPs that are
  /// slices of it; `on_done` runs when the last byte has landed (posted
  /// writes, so this is target-arrival time). A nonzero `flow` annotates
  /// the transfer (trace-only).
  void write(mem::Addr addr, mem::Payload data, std::function<void()> on_done,
             obs::FlowId flow = 0);

  std::uint64_t reads_issued() const { return reads_issued_; }
  std::uint64_t writes_issued() const { return writes_issued_; }

 private:
  /// Owns every T it hands out, so in-flight jobs abandoned at teardown
  /// are freed with the engine; released slots are reset and reused.
  template <typename T>
  class Slots {
   public:
    T* acquire() {
      if (free_.empty()) {
        all_.push_back(std::make_unique<T>());
        return all_.back().get();
      }
      T* t = free_.back();
      free_.pop_back();
      return t;
    }
    void release(T* t) {
      *t = T{};
      free_.push_back(t);
    }

   private:
    std::vector<std::unique_ptr<T>> all_;
    std::vector<T*> free_;
  };

  struct ReadJob {
    DmaEngine* engine = nullptr;     // lets chunk callbacks stay small
    mem::Addr base = 0;
    std::uint64_t length = 0;
    mem::Payload buffer;
    std::uint64_t next_offset = 0;   // next segment to request
    std::uint64_t outstanding = 0;   // requests in flight
    std::uint64_t received = 0;      // bytes completed
    SimTime t_start = 0;             // issue time (observability span)
    obs::FlowId flow = 0;            // lifecycle annotation, trace-only
    std::function<void(mem::Payload)> on_done;
  };

  struct Stream {
    DmaEngine* engine = nullptr;
    mem::Addr base = 0;
    std::uint64_t length = 0;
    std::uint32_t segment = 0;
    std::uint64_t pulled = 0;  // bytes whose read has been issued
    SegmentFn on_segment;
  };

  void pump_reads(ReadJob* job);
  void pull_next(Stream* s, obs::FlowId flow);
  void segment_landed(Stream* s, mem::Payload data);

  sim::Simulation& sim_;
  Fabric& fabric_;
  EndpointId self_;
  DmaConfig cfg_;
  Slots<ReadJob> reads_;
  Slots<Stream> streams_;
  std::uint64_t reads_issued_ = 0;
  std::uint64_t writes_issued_ = 0;
};

}  // namespace pg::pcie
