// Ablation: per-post vs. build-time big-endian conversion in the
// device-side ibv_post_send.
//
// The paper: "the elements for the work requests have to be converted
// from little-endian to big-endian ... To optimize this for the GPU, we
// used static converted values where possible. However, since the source
// and destination address ... may change for every communication request,
// these values have to be converted for every request."
//
// This bench measures the device post_send instruction count with the
// optimization off (every field swapped per post) and on (constants
// pre-converted; only the addresses swapped at run time).
#include <cstdio>

#include "bench_util.h"
#include "putget/device_lib.h"
#include "putget/setup.h"
#include "sys/testbed.h"

namespace {

using namespace pg;

std::uint64_t count_post_instructions(bool preswap) {
  sys::Cluster cluster(sys::ib_testbed());
  sys::Node& n0 = cluster.node(0);
  auto pair = putget::IbPair::create(
      cluster, putget::QueueLocation::kGpuMemory, 64, 11);
  if (!pair.is_ok()) return 0;
  const mem::Addr table = putget::make_qp_table(n0, pair->ep0.qp().qpn, 8);
  const mem::Addr qpc =
      putget::make_qp_device_context(n0, pair->ep0, table, 8);

  putget::IbPostSendTemplate tmpl;
  tmpl.opcode = ib::WqeOpcode::kRdmaWrite;
  tmpl.signaled = true;
  tmpl.byte_len = 64;
  tmpl.lkey = pair->mr_send0.lkey;
  tmpl.rkey = pair->mr_recv1.rkey;
  tmpl.preswap_static_fields = preswap;

  const gpu::Reg qpc_r(9), laddr(10), raddr(11), wr_id(12);
  const gpu::Reg s0(23), s1(24), s2(25), s3(26), s4(27), s5(28);
  auto build = [&](bool with_post) {
    gpu::Assembler a(with_post ? "post" : "baseline");
    a.movi(qpc_r, static_cast<std::int64_t>(qpc));
    a.movi(laddr, static_cast<std::int64_t>(pair->send0));
    a.movi(raddr, static_cast<std::int64_t>(pair->recv1));
    a.movi(wr_id, 1);
    if (with_post) {
      putget::emit_ib_post_send(a, {qpc_r, laddr, raddr, wr_id}, tmpl, s0,
                                s1, s2, s3, s4, s5);
    }
    a.exit();
    auto p = a.finish();
    if (!p.is_ok()) std::abort();
    return std::move(p).value();
  };
  auto run = [&](const gpu::Program& prog) {
    const auto before = n0.gpu().counters_snapshot();
    bool done = false;
    n0.gpu().launch({.program = &prog, .params = {}}, [&] { done = true; });
    cluster.run_until([&] { return done; });
    cluster.run_for(microseconds(200));
    return (n0.gpu().counters_snapshot() - before).instructions_executed;
  };
  const gpu::Program baseline = build(false);
  const gpu::Program with_post = build(true);
  const std::uint64_t base = run(baseline);
  return run(with_post) - base;
}

}  // namespace

int main(int argc, char** argv) {
  if (pg::bench::handle_list_flag(argc, argv, "ablation-wqe-swap",
                                   {"instructions"})) {
    return 0;
  }
  using namespace pg;
  bench::Session session(argc, argv);
  bench::print_title("Ablation - WQE endian-conversion strategy",
                     "device-side ibv_post_send instruction count");
  const std::uint64_t per_post = count_post_instructions(false);
  const std::uint64_t preswapped = count_post_instructions(true);
  std::printf("  convert every field per post : %llu instructions\n",
              static_cast<unsigned long long>(per_post));
  std::printf("  static fields pre-converted  : %llu instructions\n",
              static_cast<unsigned long long>(preswapped));
  std::printf("  -> the paper's optimization saves %lld instructions per "
              "post;\n     the dynamic address swaps remain, as the paper "
              "notes they must.\n",
              static_cast<long long>(per_post) -
                  static_cast<long long>(preswapped));
  bench::SeriesTable jt("strategy", {"instructions"});
  jt.add_row("per-post conversion", {static_cast<double>(per_post)});
  jt.add_row("pre-converted statics", {static_cast<double>(preswapped)});
  session.record("ablation-wqe-swap", jt);
  return 0;
}
