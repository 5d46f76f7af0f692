// GPU-driven pipeline: a producer kernel on node0 generates records and
// streams each one to node1 with DEVICE-SIDE InfiniBand verbs - the
// GPU builds WQEs, rings doorbells and polls completions with no CPU
// involvement after launch. A consumer kernel on node1 polls for each
// record's arrival (in-order RC delivery) and folds it into a running
// checksum in GPU memory.
//
// This is the end state the paper argues toward: the entire
// produce -> communicate -> consume loop lives on the GPUs, built from
// the device put/get library (emit_ib_post_send / emit_poll_equals).
#include <cstdio>

#include "putget/device_lib.h"
#include "putget/ib_host.h"
#include "sys/testbed.h"

using namespace pg;

namespace {

constexpr std::uint32_t kRecords = 32;
constexpr std::uint32_t kRecordWords = 8;  // 64-byte records
constexpr std::uint32_t kRecordBytes = kRecordWords * 8;

/// Producer: per round, synthesize a record (f(round, word)), tag its
/// last word with the round number, post an RDMA write, retire the
/// completion, repeat.
gpu::Program build_producer(const putget::IbPostSendTemplate& tmpl,
                            mem::Addr qpc, mem::Addr laddr,
                            mem::Addr raddr) {
  gpu::Assembler a("pipeline_producer");
  using gpu::Cmp;
  using gpu::Reg;
  const Reg round(8), qpc_r(9), laddr_r(10), raddr_r(11), wr_id(12);
  const Reg word(13), addr(14), val(15), status(16);
  const Reg s0(23), s1(24), s2(25), s3(26), s4(27), s5(28);
  a.movi(round, 0);
  a.movi(qpc_r, static_cast<std::int64_t>(qpc));
  a.movi(laddr_r, static_cast<std::int64_t>(laddr));
  a.movi(raddr_r, static_cast<std::int64_t>(raddr));
  a.bind("round_loop");
  // Synthesize the record: word w = (round+1) * 1000003 + w * 7.
  a.movi(word, 0);
  a.bind("gen_loop");
  a.addi(val, round, 1);
  a.muli(val, val, 1000003);
  a.muli(addr, word, 7);
  a.add(val, val, addr);
  a.muli(addr, word, 8);
  a.add(addr, addr, laddr_r);
  a.st(addr, val, 0, 8);
  a.addi(word, word, 1);
  a.setpi(Cmp::kLtU, s0, word, kRecordWords - 1);
  a.bra_if(s0, "gen_loop");
  // Last word carries the round tag (the consumer polls it).
  a.addi(val, round, 1);
  a.muli(addr, word, 8);
  a.add(addr, addr, laddr_r);
  a.st(addr, val, 0, 8);
  // Ship it: device-side ibv_post_send + ibv_poll_cq.
  a.mov(wr_id, round);
  putget::emit_ib_post_send(a, {qpc_r, laddr_r, raddr_r, wr_id}, tmpl, s0,
                            s1, s2, s3, s4, s5);
  putget::emit_ib_poll_cq(a, qpc_r, status, s0, s1, s2, s3, s4, s5);
  a.addi(round, round, 1);
  a.setpi(Cmp::kLtU, s0, round, kRecords);
  a.bra_if(s0, "round_loop");
  a.exit();
  auto p = a.finish();
  if (!p.is_ok()) std::abort();
  return std::move(p).value();
}

/// Consumer: per round, poll the record's tag word (device memory; L2
/// until the NIC's DMA write invalidates the line), then fold all words
/// into the checksum cell.
gpu::Program build_consumer(mem::Addr recv, mem::Addr checksum) {
  gpu::Assembler a("pipeline_consumer");
  using gpu::Cmp;
  using gpu::Reg;
  const Reg round(8), recv_r(9), sum_addr(10), tag(11);
  const Reg word(12), addr(13), val(14), sum(15);
  const Reg s0(23), s1(24);
  a.movi(round, 0);
  a.movi(recv_r, static_cast<std::int64_t>(recv));
  a.movi(sum_addr, static_cast<std::int64_t>(checksum));
  a.movi(sum, 0);
  a.bind("round_loop");
  a.addi(tag, round, 1);
  {
    const Reg tag_addr(16);
    a.movi(tag_addr,
           static_cast<std::int64_t>(recv + (kRecordWords - 1) * 8));
    putget::emit_poll_equals(a, tag_addr, tag, 8, s0, s1);
  }
  // Fold the record into the checksum.
  a.movi(word, 0);
  a.bind("fold_loop");
  a.muli(addr, word, 8);
  a.add(addr, addr, recv_r);
  a.ld(val, addr, 0, 8);
  a.add(sum, sum, val);
  a.addi(word, word, 1);
  a.setpi(Cmp::kLtU, s0, word, kRecordWords);
  a.bra_if(s0, "fold_loop");
  a.st(sum_addr, sum, 0, 8);
  a.addi(round, round, 1);
  a.setpi(Cmp::kLtU, s0, round, kRecords);
  a.bra_if(s0, "round_loop");
  a.exit();
  auto p = a.finish();
  if (!p.is_ok()) std::abort();
  return std::move(p).value();
}

}  // namespace

int main() {
  sys::Cluster cluster(sys::ib_testbed());
  sys::Node& n0 = cluster.node(0);
  sys::Node& n1 = cluster.node(1);

  // Verbs resources with GPU-resident queues (the paper's bufOnGPU).
  putget::IbHostEndpoint::Options opts;
  opts.location = putget::QueueLocation::kGpuMemory;
  auto ep0 = putget::IbHostEndpoint::create(n0, opts);
  auto ep1 = putget::IbHostEndpoint::create(n1, opts);
  if (!ep0.is_ok() || !ep1.is_ok()) return 1;
  putget::IbHostEndpoint::connect(*ep0, *ep1);

  const mem::Addr laddr = n0.gpu_heap().alloc(kRecordBytes, 64);
  const mem::Addr recv = n1.gpu_heap().alloc(kRecordBytes, 64);
  const mem::Addr checksum = n1.gpu_heap().alloc(8, 8);
  auto mr0 = ep0->reg_mr(laddr, kRecordBytes, mem::Access::kReadWrite);
  auto mr1 = ep1->reg_mr(recv, kRecordBytes, mem::Access::kReadWrite);
  if (!mr0.is_ok() || !mr1.is_ok()) return 1;

  // Device-side QP context + QP table for the producer's verbs calls.
  const mem::Addr qp_table = n0.gpu_heap().alloc(8 * 8, 64);
  for (int i = 0; i < 7; ++i) {
    n0.memory().write_u64(qp_table + i * 8, 0xAAAA0000ull + i);
  }
  n0.memory().write_u64(qp_table + 7 * 8, ep0->qp().qpn);
  const mem::Addr qpc = n0.gpu_heap().alloc(putget::kQpContextBytes, 64);
  n0.memory().write_u64(qpc + putget::kQpcSqBuffer, ep0->qp().sq_buffer);
  n0.memory().write_u64(qpc + putget::kQpcSqMask, ep0->qp().sq_entries - 1);
  n0.memory().write_u64(qpc + putget::kQpcSqPi, 0);
  n0.memory().write_u64(qpc + putget::kQpcSqDoorbell, ep0->qp().sq_doorbell);
  n0.memory().write_u64(qpc + putget::kQpcCqBuffer, ep0->cq().info().buffer);
  n0.memory().write_u64(qpc + putget::kQpcCqMask,
                        ep0->cq().info().entries - 1);
  n0.memory().write_u64(qpc + putget::kQpcCqCi, 0);
  n0.memory().write_u64(qpc + putget::kQpcCqCiCell, ep0->cq().info().ci_addr);
  n0.memory().write_u64(qpc + putget::kQpcQpTable, qp_table);
  n0.memory().write_u64(qpc + putget::kQpcQpTableLen, 8);
  n0.memory().write_u64(qpc + putget::kQpcQpn, ep0->qp().qpn);

  putget::IbPostSendTemplate tmpl;
  tmpl.opcode = ib::WqeOpcode::kRdmaWrite;
  tmpl.signaled = true;
  tmpl.byte_len = kRecordBytes;
  tmpl.lkey = mr0->lkey;
  tmpl.rkey = mr1->rkey;

  const gpu::Program producer = build_producer(tmpl, qpc, laddr, recv);
  const gpu::Program consumer = build_consumer(recv, checksum);

  bool prod_done = false, cons_done = false;
  n0.gpu().launch({.program = &producer, .params = {}},
                  [&] { prod_done = true; });
  n1.gpu().launch({.program = &consumer, .params = {}},
                  [&] { cons_done = true; });
  const bool ok =
      cluster.run_until([&] { return prod_done && cons_done; });
  if (!ok) {
    std::fprintf(stderr, "pipeline did not converge\n");
    return 1;
  }
  // Drain in-flight posted writes before reading results.
  cluster.run_for(microseconds(100));

  // Expected checksum, computed on the host.
  std::uint64_t expect = 0;
  for (std::uint32_t r = 1; r <= kRecords; ++r) {
    for (std::uint32_t w = 0; w + 1 < kRecordWords; ++w) {
      expect += static_cast<std::uint64_t>(r) * 1000003 + w * 7;
    }
    expect += r;  // tag word
  }
  const std::uint64_t got = n1.memory().read_u64(checksum);
  if (got != expect) {
    std::fprintf(stderr, "checksum mismatch: %llu != %llu\n",
                 static_cast<unsigned long long>(got),
                 static_cast<unsigned long long>(expect));
    return 1;
  }
  std::printf("pipeline: %u records (%u B each) streamed GPU->GPU with "
              "device-side verbs\n",
              kRecords, kRecordBytes);
  std::printf("checksum verified (%llu); simulated time %.1f us; "
              "%llu HCA messages\n",
              static_cast<unsigned long long>(got),
              to_us(cluster.now()),
              static_cast<unsigned long long>(
                  n1.hca().messages_delivered()));
  std::printf("producer GPU executed %llu instructions with zero CPU "
              "involvement after launch\n",
              static_cast<unsigned long long>(
                  n0.gpu().counters().instructions_executed));
  return 0;
}
