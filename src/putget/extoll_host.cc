#include "putget/extoll_host.h"

namespace pg::putget {

Result<ExtollHostPort> ExtollHostPort::open(extoll::ExtollNic& nic,
                                            std::uint32_t port) {
  auto info = nic.open_port(port);
  if (!info.is_ok()) return info.status();
  return ExtollHostPort(*info);
}

sim::CoTask ExtollHostPort::post(host::HostCpu& cpu, extoll::WorkRequest wr) {
  const mem::Addr page = info_.requester_page;
  // Open this message's lifecycle before the CPU starts assembling the
  // descriptor; the NIC pops it (by requester page) when it accepts the
  // WR, closing the post stage.
  obs::flow_push(obs::flow_key(&cpu.fabric(), page),
                 obs::flow_begin(cpu.sim().now()));
  co_await cpu.build_descriptor();
  co_await cpu.mmio_write_u64(page + extoll::kWrWord0Offset,
                              wr.encode_word0());
  co_await cpu.mmio_write_u64(page + extoll::kWrWord1Offset, wr.src_nla);
  co_await cpu.mmio_write_u64(page + extoll::kWrWord2Offset, wr.dst_nla);
}

sim::CoTask ExtollHostPort::wait_requester(host::HostCpu& cpu) {
  co_await cpu.poll_until(
      [this, &cpu] { return req_reader_.pending(cpu); });
  co_await cpu.touch_dram();
  (void)req_reader_.consume(cpu);
}

sim::CoTask ExtollHostPort::wait_completer(host::HostCpu& cpu) {
  co_await cpu.poll_until(
      [this, &cpu] { return cmp_reader_.pending(cpu); });
  co_await cpu.touch_dram();
  (void)cmp_reader_.consume(cpu);
}

}  // namespace pg::putget
