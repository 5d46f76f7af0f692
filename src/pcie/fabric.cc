#include "pcie/fabric.h"

#include <cassert>

#include "common/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace pg::pcie {

Fabric::Fabric(sim::Simulation& sim, mem::MemoryDomain& memory,
               FabricConfig cfg)
    : sim_(sim), memory_(memory), cfg_(cfg) {
  // Port 0 is the root complex; it has no link of its own (its latency is
  // part of each endpoint's up/down link traversal).
  ports_.push_back(Port{"root", nullptr, nullptr, nullptr});
}

EndpointId Fabric::attach(std::string name, Endpoint* device,
                          LinkConfig link_cfg) {
  assert(device != nullptr);
  Port port;
  port.name = std::move(name);
  port.device = device;
  port.up = std::make_unique<Link>(link_cfg);
  port.down = std::make_unique<Link>(link_cfg);
  ports_.push_back(std::move(port));
  return static_cast<EndpointId>(ports_.size() - 1);
}

void Fabric::claim_range(EndpointId id, Addr base, std::uint64_t size) {
  assert(id > 0 && id < ports_.size());
  claims_.push_back(Claim{base, size, id});
}

bool Fabric::route(Addr addr, EndpointId& out) const {
  for (const Claim& c : claims_) {
    if (addr >= c.base && addr < c.base + c.size) {
      out = c.owner;
      return true;
    }
  }
  if (mem::AddressMap::in_host_dram(addr)) {
    out = kRootComplex;
    return true;
  }
  return false;
}

SimTime Fabric::serve_read(EndpointId target, SimTime arrival, Addr addr,
                           std::span<std::uint8_t> out) {
  if (target == kRootComplex) {
    memory_.read(addr, out);
    return arrival + cfg_.host_dram_latency;
  }
  Port& port = ports_[target];
  return port.device->inbound_read(arrival, addr, out) +
         cfg_.endpoint_turnaround;
}

void Fabric::apply_write(EndpointId target, Addr addr,
                         std::span<const std::uint8_t> data) {
  if (target == kRootComplex) {
    memory_.write(addr, data);
    return;
  }
  ports_[target].device->inbound_write(addr, data);
}

bool Fabric::post_write_timing(EndpointId src, Addr addr, std::uint64_t len,
                               EndpointId& target, SimTime& delivery) {
  target = kRootComplex;
  if (!route(addr, target)) {
    PG_ERROR("pcie", "write to unrouted address 0x%llx",
             static_cast<unsigned long long>(addr));
    assert(false && "pcie write to unrouted address");
    return false;
  }
  ++transactions_;
  const SimTime now = sim_.now();
  // Upstream traversal (issuer side), skipped for the root complex.
  SimTime t = now;
  if (src != kRootComplex) {
    t = ports_[src].up->occupy(now, len);
  }
  // Downstream traversal (target side), skipped for host DRAM.
  if (target != kRootComplex) {
    t = ports_[target].down->occupy(t, len);
  } else {
    t += cfg_.host_dram_latency;
  }
  if (obs::metrics()) {
    obs::count("pcie.write_tlps");
    obs::observe("pcie.write_ns",
                 static_cast<std::uint64_t>(to_ns(t - now)));
  }
  if (obs::enabled()) {
    obs::span("pcie", "tlp", "write", now, t,
              {{"addr", addr},
               {"bytes", len},
               {"src", ports_[src].name},
               {"dst", ports_[target].name}});
  }
  delivery = t;
  return true;
}

void Fabric::write(EndpointId src, Addr addr, std::vector<std::uint8_t> data,
                   std::function<void()> on_delivered) {
  EndpointId target = kRootComplex;
  SimTime t = 0;
  if (!post_write_timing(src, addr, data.size(), target, t)) return;
  sim_.schedule_at(
      t, [this, target, addr, data = std::move(data),
          cb = std::move(on_delivered)]() {
        apply_write(target, addr, data);
        if (cb) cb();
      });
}

void Fabric::write_shared(
    EndpointId src, Addr addr,
    std::shared_ptr<const std::vector<std::uint8_t>> payload,
    std::uint64_t offset, std::uint32_t len,
    std::function<void()> on_delivered) {
  assert(payload && offset + len <= payload->size());
  EndpointId target = kRootComplex;
  SimTime t = 0;
  if (!post_write_timing(src, addr, len, target, t)) return;
  sim_.schedule_at(
      t, [this, target, addr, payload = std::move(payload), offset, len,
          cb = std::move(on_delivered)]() {
        apply_write(target, addr,
                    std::span<const std::uint8_t>(payload->data() + offset,
                                                  len));
        if (cb) cb();
      });
}

void Fabric::read(EndpointId src, Addr addr, std::uint32_t len,
                  std::function<void(std::vector<std::uint8_t>)> on_data) {
  EndpointId target = kRootComplex;
  if (!route(addr, target)) {
    PG_ERROR("pcie", "read of unrouted address 0x%llx",
             static_cast<unsigned long long>(addr));
    assert(false && "pcie read of unrouted address");
    return;
  }
  ++transactions_;
  const SimTime now = sim_.now();
  // Request TLP: issuer up-link, then target down-link.
  SimTime arrival = now;
  if (src != kRootComplex) {
    arrival = ports_[src].up->occupy(now, 0);
  }
  if (target != kRootComplex) {
    arrival = ports_[target].down->occupy(arrival, 0);
  }
  // Service at the target: data is sampled when the request is served.
  // We defer sampling to the arrival event so that writes landing before
  // the request is served are observed.
  const SimTime t_issue = now;
  sim_.schedule_at(arrival, [this, src, target, addr, len, arrival, t_issue,
                             cb = std::move(on_data)]() mutable {
    std::vector<std::uint8_t> data(len);
    const SimTime ready = serve_read(target, arrival, addr, data);
    // Completion path: target up-link, then issuer down-link.
    SimTime back = ready;
    if (target != kRootComplex) {
      back = ports_[target].up->occupy(ready, len);
    }
    if (src != kRootComplex) {
      back = ports_[src].down->occupy(back, len);
    }
    if (obs::metrics()) {
      obs::count("pcie.read_tlps");
      obs::observe("pcie.read_ns",
                   static_cast<std::uint64_t>(to_ns(back - t_issue)));
    }
    if (obs::enabled()) {
      obs::span("pcie", "tlp", "read", t_issue, back,
                {{"addr", addr},
                 {"bytes", len},
                 {"src", ports_[src].name},
                 {"dst", ports_[target].name}});
    }
    sim_.schedule_at(back, [data = std::move(data), cb = std::move(cb)]() {
      cb(std::move(data));
    });
  });
}

std::uint64_t Fabric::upstream_bytes(EndpointId id) const {
  assert(id > 0 && id < ports_.size());
  return ports_[id].up->bytes_carried();
}

}  // namespace pg::pcie
