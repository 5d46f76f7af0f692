// Sec. V-B.3: instruction counts of the ported verbs calls, measured by
// assembling minimal kernels around a single emit_ib_post_send /
// emit_ib_poll_cq expansion and differencing GPU performance counters
// against a prologue-only baseline.
#include "common/log.h"
#include "gpu/assembler.h"
#include "putget/device_lib.h"
#include "putget/ib_experiments.h"
#include "putget/ib_host.h"
#include "putget/op_span.h"
#include "putget/setup.h"
#include "putget/stats.h"

namespace pg::putget {

namespace {

using ib::WqeOpcode;
using mem::Addr;

}  // namespace

VerbsInstructionCounts measure_verbs_instruction_counts(
    const sys::ClusterConfig& cfg, QueueLocation location) {
  VerbsInstructionCounts out;
  sys::Cluster cluster(cfg);
  OpSpan op([&cluster] { return cluster.now(); },
            op_label("ib-verbs-instr", queue_location_name(location), 64));
  sys::Node& n0 = cluster.node(0);
  auto pair = IbPair::create(cluster, location, 64, 909);
  if (!pair.is_ok()) return out;
  IbPair& p = *pair;
  const Addr table = make_qp_table(n0, p.ep0.qp().qpn, 8);
  const Addr qpc = make_qp_device_context(n0, p.ep0, table, 8);

  const gpu::Reg qpc_r(9), laddr(10), raddr(11), wr_id(12), status(17);
  const gpu::Reg s0(23), s1(24), s2(25), s3(26), s4(27), s5(28);
  auto prologue = [&](gpu::Assembler& a) {
    a.movi(qpc_r, static_cast<std::int64_t>(qpc));
    a.movi(laddr, static_cast<std::int64_t>(p.send0));
    a.movi(raddr, static_cast<std::int64_t>(p.recv1));
    a.movi(wr_id, 1);
  };
  IbPostSendTemplate tmpl;
  tmpl.opcode = WqeOpcode::kRdmaWrite;
  tmpl.signaled = true;
  tmpl.byte_len = 64;
  tmpl.lkey = p.mr_send0.lkey;
  tmpl.rkey = p.mr_recv1.rkey;

  auto run_and_count = [&](const gpu::Program& prog, std::uint64_t* instr,
                           std::uint64_t* mem) {
    const gpu::PerfCounters before = n0.gpu().counters_snapshot();
    bool finished = false;
    n0.gpu().launch({.program = &prog, .params = {}},
                    [&finished] { finished = true; });
    cluster.run_until([&] { return finished; });
    cluster.run_for(microseconds(200));
    const gpu::PerfCounters delta = n0.gpu().counters_snapshot() - before;
    *instr = delta.instructions_executed;
    *mem = delta.memory_accesses;
  };

  // Baseline: prologue only.
  std::uint64_t base_instr = 0, base_mem = 0;
  {
    gpu::Assembler a("verbs_baseline");
    prologue(a);
    a.exit();
    auto prog = a.finish();
    run_and_count(*prog, &base_instr, &base_mem);
  }
  // post_send once.
  {
    gpu::Assembler a("verbs_post_once");
    prologue(a);
    emit_ib_post_send(a, {qpc_r, laddr, raddr, wr_id}, tmpl, s0, s1, s2, s3,
                      s4, s5);
    a.exit();
    auto prog = a.finish();
    std::uint64_t instr = 0, mem = 0;
    run_and_count(*prog, &instr, &mem);
    out.post_send_instructions = instr - base_instr;
    out.post_send_mem_accesses = mem - base_mem;
  }
  // poll_cq once, with the completion already present (one successful
  // poll, as the paper measures). The previous post's CQE has landed by
  // now (run_and_count drains the simulator).
  {
    gpu::Assembler a("verbs_poll_once");
    prologue(a);
    emit_ib_poll_cq(a, qpc_r, status, s0, s1, s2, s3, s4, s5);
    a.exit();
    auto prog = a.finish();
    std::uint64_t instr = 0, mem = 0;
    run_and_count(*prog, &instr, &mem);
    out.poll_cq_instructions = instr - base_instr;
    out.poll_cq_mem_accesses = mem - base_mem;
  }
  return out;
}

}  // namespace pg::putget
