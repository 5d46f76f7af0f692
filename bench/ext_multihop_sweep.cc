// Extension: multi-hop topology sweep over the routed fabric.
//
// Runs the notifiable put/get layer over both backends (EXTOLL RMA and
// InfiniBand verbs) on the three routed wiring shapes — ring, 2-D
// torus, fat tree — at N in {4, 8, 16}, always between node 0 and the
// terminal the route tables place farthest from it, so the traffic
// genuinely relays through intermediate NICs (ring, torus) or switch
// vertices (fat tree). Reports one-way put latency, streaming put
// bandwidth and small-put message rate per (backend, topology, N), plus
// a per-link utilization/contention snapshot at N = 8.
//
// Every case ends with a hard frame-conservation check against the
// per-link counters: the sum of frames (and bytes) that crossed the
// links must equal frames originated + frames forwarded, and every
// originated frame must have been delivered. A mismatch means the
// fabric dropped or duplicated traffic and fails the bench.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "net/fabric.h"
#include "putget/notify.h"
#include "sys/testbed.h"

namespace {

using namespace pg;
using putget::Completion;
using putget::NotifyDomain;
using putget::RmaBackend;

constexpr std::uint64_t kRegionLen = 512 * 1024;
constexpr std::uint64_t kDataOff = 4096;  // clear of the reserved bytes
constexpr int kLatIters = 16;
constexpr int kBwPuts = 8;
constexpr std::uint32_t kBwBytes = 32 * 1024;
constexpr int kRatePuts = 64;

struct CaseResult {
  double lat_us = 0.0;
  double bw_gbs = 0.0;
  double mmsgs = 0.0;
  bool ok = false;
};

/// One (topology, nodes, backend) case. `snapshot` additionally emits
/// the per-link utilization table through `session`.
CaseResult run_case(net::Topology topo, int nodes, RmaBackend backend,
                    int threads, bench::Session& session, bool snapshot,
                    const std::string& case_name) {
  CaseResult out;
  sys::ClusterConfig cfg = backend == RmaBackend::kExtoll
                               ? sys::extoll_testbed()
                               : sys::ib_testbed();
  cfg.num_nodes = nodes;
  cfg.topology = topo;
  cfg.threads = threads;
  cfg.sample_every = session.sample_every();
  sys::Cluster cluster(cfg);

  auto d = NotifyDomain::create(cluster, backend);
  if (!d.is_ok()) {
    std::fprintf(stderr, "%s: create: %s\n", case_name.c_str(),
                 d.status().to_string().c_str());
    return out;
  }
  NotifyDomain& domain = **d;
  std::vector<mem::Addr> bases;
  for (int n = 0; n < nodes; ++n) {
    bases.push_back(cluster.node(n).gpu_heap().alloc(kRegionLen, 4096));
  }
  if (Status s = domain.register_region(bases, kRegionLen); !s.is_ok()) {
    std::fprintf(stderr, "%s: register: %s\n", case_name.c_str(),
                 s.to_string().c_str());
    return out;
  }

  // The terminal the routes place farthest from node 0 — the sweep's
  // whole point is that this is > 1 hop away on every shape at N >= 8.
  int far = 1, far_hops = 0;
  for (int dst = 1; dst < nodes; ++dst) {
    const int h = net::path_hops(cluster.fabric_plan(), cluster.routes(), 0,
                                 dst);
    if (h > far_hops) {
      far_hops = h;
      far = dst;
    }
  }

  // One-way put latency: notification puts, one in flight at a time.
  const SimTime t_lat = cluster.now();
  for (int i = 0; i < kLatIters; ++i) {
    auto op = domain.post_put(0, far, bases[0] + kDataOff,
                              bases[far] + kDataOff, 8,
                              Completion::kNotification);
    if (!op.is_ok() || !domain.wait_notified(far, i + 1)) {
      std::fprintf(stderr, "%s: latency put %d failed\n", case_name.c_str(),
                   i);
      return out;
    }
  }
  out.lat_us = to_us(cluster.now() - t_lat) / kLatIters;

  // Streaming bandwidth: back-to-back large payload-poll puts, then
  // quiet(0) for remote completion of the whole train.
  const SimTime t_bw = cluster.now();
  for (int i = 0; i < kBwPuts; ++i) {
    const std::uint64_t off = kDataOff + static_cast<std::uint64_t>(i) * kBwBytes;
    auto op = domain.post_put(0, far, bases[0] + off, bases[far] + off,
                              kBwBytes, Completion::kPayloadPoll);
    if (!op.is_ok()) {
      std::fprintf(stderr, "%s: bandwidth put %d failed\n",
                   case_name.c_str(), i);
      return out;
    }
  }
  if (Status s = domain.quiet(0); !s.is_ok()) {
    std::fprintf(stderr, "%s: quiet: %s\n", case_name.c_str(),
                 s.to_string().c_str());
    return out;
  }
  // bytes per nanosecond == GB/s.
  out.bw_gbs = static_cast<double>(kBwPuts) * kBwBytes / to_ns(cluster.now() - t_bw);

  // Small-put message rate: a train of 8-byte payload-poll puts.
  const SimTime t_rate = cluster.now();
  for (int i = 0; i < kRatePuts; ++i) {
    const std::uint64_t off = kDataOff + static_cast<std::uint64_t>(i) * 8;
    auto op = domain.post_put(0, far, bases[0] + off, bases[far] + off, 8,
                              Completion::kPayloadPoll);
    if (!op.is_ok()) {
      std::fprintf(stderr, "%s: rate put %d failed\n", case_name.c_str(), i);
      return out;
    }
  }
  if (Status s = domain.quiet(0); !s.is_ok()) {
    std::fprintf(stderr, "%s: quiet: %s\n", case_name.c_str(),
                 s.to_string().c_str());
    return out;
  }
  // messages per microsecond == Mmsg/s.
  out.mmsgs = static_cast<double>(kRatePuts) / to_us(cluster.now() - t_rate);

  // Frame conservation against the per-link counters (hard check).
  const net::FabricTotals totals = cluster.fabric_totals(backend);
  const std::vector<sys::Cluster::LinkReport> reports =
      cluster.link_reports(backend);
  std::uint64_t link_frames = 0, link_bytes = 0;
  for (const auto& r : reports) {
    link_frames += r.frames;
    link_bytes += r.bytes;
  }
  if (link_frames != totals.frames_originated + totals.frames_forwarded ||
      link_bytes != totals.bytes_originated + totals.bytes_forwarded ||
      totals.frames_delivered != totals.frames_originated ||
      totals.bytes_delivered != totals.bytes_originated) {
    std::fprintf(
        stderr,
        "%s: conservation violated: links %llu frames / %llu B, "
        "originated %llu / %llu B, forwarded %llu / %llu B, delivered "
        "%llu / %llu B\n",
        case_name.c_str(), static_cast<unsigned long long>(link_frames),
        static_cast<unsigned long long>(link_bytes),
        static_cast<unsigned long long>(totals.frames_originated),
        static_cast<unsigned long long>(totals.bytes_originated),
        static_cast<unsigned long long>(totals.frames_forwarded),
        static_cast<unsigned long long>(totals.bytes_forwarded),
        static_cast<unsigned long long>(totals.frames_delivered),
        static_cast<unsigned long long>(totals.bytes_delivered));
    return out;
  }
  if (far_hops > 1 && totals.frames_forwarded == 0) {
    std::fprintf(stderr, "%s: %d-hop path but nothing was forwarded\n",
                 case_name.c_str(), far_hops);
    return out;
  }

  if (snapshot) {
    bench::SeriesTable links("link", {"util[%]", "frames", "fwd", "stalls"});
    for (const auto& r : reports) {
      links.add_row(r.label,
                    {100.0 * r.utilization, static_cast<double>(r.frames),
                     static_cast<double>(r.forwarded_frames),
                     static_cast<double>(r.stalls)});
    }
    session.emit(case_name + "-links", links, "%12.3f");
  }
  cluster.publish_link_metrics();
  out.ok = true;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  if (bench::handle_list_flag(
          argc, argv, "ext-multihop-sweep",
          {"extoll lat[us]", "extoll bw[GB/s]", "extoll Mmsg/s",
           "ib lat[us]", "ib bw[GB/s]", "ib Mmsg/s"},
          /*threads=*/true)) {
    return 0;
  }
  bench::Session session(argc, argv);
  bench::print_title(
      "Extension - multi-hop sweep, EXTOLL vs InfiniBand",
      "node 0 <-> farthest terminal over the routed fabric; per-link "
      "utilization snapshot at N=8; frame conservation hard-checked");

  const net::Topology topos[] = {net::Topology::kRing,
                                 net::Topology::kTorus2D,
                                 net::Topology::kFatTree};
  const RmaBackend backends[] = {RmaBackend::kExtoll, RmaBackend::kIb};
  for (net::Topology topo : topos) {
    bench::SeriesTable table(
        "nodes", {"extoll lat[us]", "extoll bw[GB/s]", "extoll Mmsg/s",
                  "ib lat[us]", "ib bw[GB/s]", "ib Mmsg/s"});
    for (int nodes : {4, 8, 16}) {
      std::vector<double> row;
      for (RmaBackend backend : backends) {
        const std::string case_name =
            std::string("multihop-") + net::topology_name(topo) + "-n" +
            std::to_string(nodes) + "-" + sys::backend_name(backend);
        const CaseResult r =
            run_case(topo, nodes, backend, session.threads(), session,
                     /*snapshot=*/nodes == 8, case_name);
        if (!r.ok) {
          std::fprintf(stderr, "FAILED: %s\n", case_name.c_str());
          return 1;
        }
        row.push_back(r.lat_us);
        row.push_back(r.bw_gbs);
        row.push_back(r.mmsgs);
      }
      table.add_row(std::to_string(nodes), row);
    }
    session.emit(std::string("multihop-") + net::topology_name(topo), table);
  }
  return 0;
}
