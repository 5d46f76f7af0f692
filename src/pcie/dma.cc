#include "pcie/dma.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <memory>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace pg::pcie {

void DmaEngine::read(mem::Addr addr, std::uint64_t len,
                     std::function<void(std::vector<std::uint8_t>)> on_done,
                     obs::FlowId flow) {
  assert(len > 0);
  ReadJob* job = reads_.acquire();
  job->engine = this;
  job->base = addr;
  job->length = len;
  job->buffer.resize(len);
  job->t_start = sim_.now();
  job->flow = flow;
  job->on_done = std::move(on_done);
  pump_reads(job);
}

void DmaEngine::pump_reads(ReadJob* job) {
  while (job->next_offset < job->length &&
         job->outstanding < cfg_.max_outstanding_reads) {
    const std::uint64_t offset = job->next_offset;
    const auto chunk = static_cast<std::uint32_t>(std::min<std::uint64_t>(
        cfg_.read_request_size, job->length - offset));
    job->next_offset += chunk;
    ++job->outstanding;
    ++reads_issued_;
    // Packed 40-bit offset / 24-bit chunk: with the engine pointer folded
    // into the job, the capture is exactly two words, so std::function
    // stores the callback inline — no heap allocation per chunk on a path
    // every payload byte of every modeled transfer funnels through.
    const std::uint64_t packed = offset | (std::uint64_t{chunk} << 40);
    fabric_.read(self_, job->base + offset, chunk,
                 [job, packed](std::vector<std::uint8_t> data) {
                   const std::uint64_t offset = packed & ((1ull << 40) - 1);
                   const auto chunk = static_cast<std::uint32_t>(packed >> 40);
                   assert(data.size() == chunk);
                   std::memcpy(job->buffer.data() + offset, data.data(),
                               chunk);
                   --job->outstanding;
                   job->received += chunk;
                   DmaEngine* self = job->engine;
                   if (job->received == job->length) {
                     if (obs::metrics()) {
                       obs::count("dma.reads");
                       obs::observe(
                           "dma.read_ns",
                           static_cast<std::uint64_t>(
                               to_ns(self->sim_.now() - job->t_start)));
                     }
                     if (obs::enabled()) {
                       if (job->flow != 0) {
                         obs::span("pcie.dma", "dma", "dma-read",
                                   job->t_start, self->sim_.now(),
                                   {{"addr", job->base},
                                    {"len", job->length},
                                    {"flow", job->flow}});
                       } else {
                         obs::span("pcie.dma", "dma", "dma-read",
                                   job->t_start, self->sim_.now(),
                                   {{"addr", job->base},
                                    {"len", job->length}});
                       }
                       obs::flow_step(job->flow, "pcie.dma", self->sim_.now());
                     }
                     job->on_done(std::move(job->buffer));
                     self->reads_.release(job);
                     return;
                   }
                   self->pump_reads(job);
                 });
  }
}

void DmaEngine::stream(mem::Addr addr, std::uint64_t len,
                       std::uint32_t segment, obs::FlowId flow,
                       SegmentFn on_segment) {
  assert(len > 0 && segment > 0);
  Stream* s = streams_.acquire();
  s->engine = this;
  s->base = addr;
  s->length = len;
  s->segment = segment;
  s->on_segment = std::move(on_segment);
  pull_next(s, flow);
}

void DmaEngine::pull_next(Stream* s, obs::FlowId flow) {
  const std::uint64_t offset = s->pulled;
  s->pulled += std::min<std::uint64_t>(s->segment, s->length - offset);
  // One read in flight per stream, so the stream itself knows which
  // segment landed and the callback captures one pointer (stored inline).
  read(s->base + offset, s->pulled - offset,
       [s](std::vector<std::uint8_t> data) {
         s->engine->segment_landed(s, std::move(data));
       },
       flow);
}

void DmaEngine::segment_landed(Stream* s, std::vector<std::uint8_t> data) {
  const std::uint64_t offset = s->pulled - data.size();
  const bool last = s->pulled == s->length;
  if (!last) pull_next(s, 0);
  s->on_segment(offset, last, std::move(data));
  if (last) streams_.release(s);
}

void DmaEngine::write(mem::Addr addr, std::vector<std::uint8_t> data,
                      std::function<void()> on_done, obs::FlowId flow) {
  assert(!data.empty());
  const std::uint64_t total = data.size();
  if (flow != 0 && obs::enabled()) {
    // Trace-only: draw the flow's DMA hop as a span over the whole
    // scatter, completing when the last byte lands. Wrapping the
    // callback adds no simulation events, so timing is unchanged.
    on_done = [this, addr, total, flow, inner = std::move(on_done),
               t0 = sim_.now()] {
      obs::span("pcie.dma", "dma", "dma-write", t0, sim_.now(),
                {{"addr", addr}, {"len", total}, {"flow", flow}});
      obs::flow_step(flow, "pcie.dma", sim_.now());
      if (inner) inner();
    };
  }
  // Single-chunk payloads (the message-rate workload: tiny puts) move
  // straight into the fabric - no shared-buffer machinery.
  if (total <= cfg_.write_chunk_size) {
    ++writes_issued_;
    fabric_.write(self_, addr, std::move(data), std::move(on_done));
    return;
  }
  // Posted writes: issue all chunks back to back; the link model
  // serializes them. Only the final chunk carries the completion callback
  // ("last byte landed"). All chunks alias one shared payload buffer, so
  // chunking a large put costs zero extra copies on the DMA side.
  auto payload = std::make_shared<const std::vector<std::uint8_t>>(
      std::move(data));
  std::uint64_t offset = 0;
  while (offset < total) {
    const auto chunk = static_cast<std::uint32_t>(std::min<std::uint64_t>(
        cfg_.write_chunk_size, total - offset));
    const bool last = offset + chunk == total;
    ++writes_issued_;
    fabric_.write_shared(self_, addr + offset, payload, offset, chunk,
                         last ? std::move(on_done) : std::function<void()>{});
    offset += chunk;
  }
}

}  // namespace pg::pcie
