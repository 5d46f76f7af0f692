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

void Fabric::write(EndpointId src, Addr addr, mem::Payload data,
                   std::function<void()> on_delivered) {
  EndpointId target = kRootComplex;
  if (!route(addr, target)) {
    PG_ERROR("pcie", "write to unrouted address 0x%llx",
             static_cast<unsigned long long>(addr));
    assert(false && "pcie write to unrouted address");
    return;
  }
  ++transactions_;
  const std::uint64_t len = data.size();
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
  sim_.schedule_at(t, [this, target, addr, data = std::move(data),
                       cb = std::move(on_delivered)]() {
    apply_write(target, addr, data.bytes());
    if (cb) cb();
  });
}

void Fabric::read(EndpointId src, Addr addr, mem::Payload into,
                  std::function<void(mem::Payload)> on_data) {
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
  sim_.schedule_at(arrival, [this, src, target, addr, arrival, t_issue,
                             data = std::move(into),
                             cb = std::move(on_data)]() mutable {
    const std::uint64_t len = data.size();
    const SimTime ready = serve_read(target, arrival, addr, data.writable());
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
    sim_.schedule_at(back, [data = std::move(data),
                            cb = std::move(cb)]() mutable {
      cb(std::move(data));
    });
  });
}

std::uint64_t Fabric::upstream_bytes(EndpointId id) const {
  assert(id > 0 && id < ports_.size());
  return ports_[id].up->bytes_carried();
}

}  // namespace pg::pcie
