#include "gpu/program.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>

namespace pg::gpu {

const char* op_name(Op op) {
  switch (op) {
    case Op::kNop: return "nop";
    case Op::kMovI: return "movi";
    case Op::kMov: return "mov";
    case Op::kAdd: return "add";
    case Op::kAddI: return "addi";
    case Op::kSub: return "sub";
    case Op::kMul: return "mul";
    case Op::kMulI: return "muli";
    case Op::kShlI: return "shli";
    case Op::kShrI: return "shri";
    case Op::kAnd: return "and";
    case Op::kAndI: return "andi";
    case Op::kOr: return "or";
    case Op::kOrI: return "ori";
    case Op::kXor: return "xor";
    case Op::kNot: return "not";
    case Op::kBswap32: return "bswap32";
    case Op::kBswap64: return "bswap64";
    case Op::kSetp: return "setp";
    case Op::kSetpI: return "setpi";
    case Op::kBra: return "bra";
    case Op::kSsy: return "ssy";
    case Op::kCall: return "call";
    case Op::kRet: return "ret";
    case Op::kExit: return "exit";
    case Op::kLd: return "ld";
    case Op::kSt: return "st";
    case Op::kAtomAdd: return "atom.add";
    case Op::kAtomExch: return "atom.exch";
    case Op::kMembarSys: return "membar.sys";
    case Op::kBarSync: return "bar.sync";
    case Op::kSreg: return "sreg";
  }
  return "?";
}

const char* cmp_name(Cmp cmp) {
  switch (cmp) {
    case Cmp::kEq: return "eq";
    case Cmp::kNe: return "ne";
    case Cmp::kLt: return "lt";
    case Cmp::kLe: return "le";
    case Cmp::kGt: return "gt";
    case Cmp::kGe: return "ge";
    case Cmp::kLtU: return "ltu";
    case Cmp::kGeU: return "geu";
  }
  return "?";
}

std::string Instr::to_string() const {
  char buf[128];
  switch (op) {
    case Op::kNop:
    case Op::kRet:
    case Op::kExit:
    case Op::kMembarSys:
    case Op::kBarSync:
      std::snprintf(buf, sizeof(buf), "%s", op_name(op));
      break;
    case Op::kMovI:
      std::snprintf(buf, sizeof(buf), "movi r%u, %lld", rd,
                    static_cast<long long>(imm));
      break;
    case Op::kMov:
    case Op::kNot:
    case Op::kBswap32:
    case Op::kBswap64:
      std::snprintf(buf, sizeof(buf), "%s r%u, r%u", op_name(op), rd, ra);
      break;
    case Op::kAdd:
    case Op::kSub:
    case Op::kMul:
    case Op::kAnd:
    case Op::kOr:
    case Op::kXor:
      std::snprintf(buf, sizeof(buf), "%s r%u, r%u, r%u", op_name(op), rd, ra,
                    rb);
      break;
    case Op::kAddI:
    case Op::kMulI:
    case Op::kShlI:
    case Op::kShrI:
    case Op::kAndI:
    case Op::kOrI:
      std::snprintf(buf, sizeof(buf), "%s r%u, r%u, %lld", op_name(op), rd, ra,
                    static_cast<long long>(imm));
      break;
    case Op::kSetp:
      std::snprintf(buf, sizeof(buf), "setp.%s r%u, r%u, r%u", cmp_name(cmp),
                    rd, ra, rb);
      break;
    case Op::kSetpI:
      std::snprintf(buf, sizeof(buf), "setpi.%s r%u, r%u, %lld", cmp_name(cmp),
                    rd, ra, static_cast<long long>(imm));
      break;
    case Op::kBra:
      if (cond == BraCond::kAlways) {
        std::snprintf(buf, sizeof(buf), "bra %d", target);
      } else {
        std::snprintf(buf, sizeof(buf), "bra.%s r%u, %d",
                      cond == BraCond::kIfTrue ? "if" : "ifnot", ra, target);
      }
      break;
    case Op::kSsy:
      std::snprintf(buf, sizeof(buf), "ssy %d", target);
      break;
    case Op::kCall:
      std::snprintf(buf, sizeof(buf), "call %d", target);
      break;
    case Op::kLd:
      std::snprintf(buf, sizeof(buf), "ld.u%u r%u, [r%u%+lld]", width * 8, rd,
                    ra, static_cast<long long>(imm));
      break;
    case Op::kSt:
      std::snprintf(buf, sizeof(buf), "st.u%u [r%u%+lld], r%u", width * 8, ra,
                    static_cast<long long>(imm), rb);
      break;
    case Op::kAtomAdd:
    case Op::kAtomExch:
      std::snprintf(buf, sizeof(buf), "%s r%u, [r%u%+lld], r%u", op_name(op),
                    rd, ra, static_cast<long long>(imm), rb);
      break;
    case Op::kSreg:
      std::snprintf(buf, sizeof(buf), "sreg r%u, %u", rd,
                    static_cast<unsigned>(sreg));
      break;
  }
  return buf;
}

namespace {

XOp predecode_op(const Instr& in) {
  const auto offset = [](XOp base, unsigned idx) {
    return static_cast<XOp>(static_cast<unsigned>(base) + idx);
  };
  switch (in.op) {
    case Op::kNop: return XOp::kNop;
    case Op::kMovI: return XOp::kMovI;
    case Op::kMov: return XOp::kMov;
    case Op::kAdd: return XOp::kAdd;
    case Op::kAddI: return XOp::kAddI;
    case Op::kSub: return XOp::kSub;
    case Op::kMul: return XOp::kMul;
    case Op::kMulI: return XOp::kMulI;
    case Op::kShlI: return XOp::kShlI;
    case Op::kShrI: return XOp::kShrI;
    case Op::kAnd: return XOp::kAnd;
    case Op::kAndI: return XOp::kAndI;
    case Op::kOr: return XOp::kOr;
    case Op::kOrI: return XOp::kOrI;
    case Op::kXor: return XOp::kXor;
    case Op::kNot: return XOp::kNot;
    case Op::kBswap32: return XOp::kBswap32;
    case Op::kBswap64: return XOp::kBswap64;
    case Op::kSetp:
      return offset(XOp::kSetpEq, static_cast<unsigned>(in.cmp));
    case Op::kSetpI:
      return offset(XOp::kSetpEqI, static_cast<unsigned>(in.cmp));
    case Op::kSreg:
      return offset(XOp::kSregTid, static_cast<unsigned>(in.sreg));
    case Op::kBra:
      return offset(XOp::kBraAlways, static_cast<unsigned>(in.cond));
    case Op::kSsy: return XOp::kSsy;
    case Op::kCall: return XOp::kCall;
    case Op::kRet: return XOp::kRet;
    case Op::kExit: return XOp::kExit;
    case Op::kMembarSys: return XOp::kMembarSys;
    case Op::kBarSync: return XOp::kBarSync;
    case Op::kLd: return XOp::kLd;
    case Op::kSt: return XOp::kSt;
    case Op::kAtomAdd: return XOp::kAtomAdd;
    case Op::kAtomExch: return XOp::kAtomExch;
  }
  return XOp::kNop;
}

/// Ops a spin-loop body may hold besides its load and closing branch:
/// register-only computations that do not read the clock.
bool spin_body_op(XOp op) {
  return op <= XOp::kSregWarpId && op != XOp::kSregClock;
}

/// Marks the load of every spin loop (see Decoded).
void mark_spin_loops(std::vector<Decoded>& code) {
  for (std::size_t b = 0; b < code.size(); ++b) {
    const Decoded& br = code[b];
    if (br.op != XOp::kBraIfTrue && br.op != XOp::kBraIfFalse) continue;
    const auto head = static_cast<std::size_t>(br.target);
    const std::size_t len = b - head + 1;
    if (head > b || len > UINT8_MAX) continue;
    std::size_t ld = code.size();
    bool ok = true;
    for (std::size_t i = head; i < b && ok; ++i) {
      if (code[i].op == XOp::kLd) {
        ok = ld == code.size();
        ld = i;
      } else {
        ok = spin_body_op(code[i].op);
      }
    }
    if (!ok || ld == code.size()) continue;
    code[ld].spin_len = static_cast<std::uint8_t>(len);
    code[ld].target = br.target;
  }
}

}  // namespace

const std::vector<Decoded>& Program::decoded() const {
  if (decoded_.size() == code_.size()) return decoded_;
  decoded_.clear();
  decoded_.reserve(code_.size());
  num_regs_ = 1;
  for (const Instr& in : code_) {
    num_regs_ = std::max({num_regs_, in.rd + 1u, in.ra + 1u, in.rb + 1u});
    Decoded d;
    d.op = predecode_op(in);
    d.rd = in.rd;
    d.ra = in.ra;
    d.rb = in.rb;
    d.width = in.width;
    d.target = in.target;
    d.imm = static_cast<std::uint64_t>(in.imm);
    if (in.op == Op::kShlI || in.op == Op::kShrI) d.imm &= 63;
    decoded_.push_back(d);
  }
  mark_spin_loops(decoded_);
  return decoded_;
}

Status Program::validate() const {
  if (code_.empty()) {
    return invalid_argument("program '" + name_ + "' is empty");
  }
  bool has_exit = false;
  for (std::size_t i = 0; i < code_.size(); ++i) {
    const Instr& in = code_[i];
    if (in.op == Op::kExit) has_exit = true;
    if (in.op == Op::kBra || in.op == Op::kSsy || in.op == Op::kCall) {
      if (in.target < 0 ||
          static_cast<std::size_t>(in.target) >= code_.size()) {
        return out_of_range("program '" + name_ + "': instruction " +
                            std::to_string(i) + " targets out of range");
      }
    }
    if (is_memory_op(in.op) && !valid_width(in.width)) {
      return invalid_argument("program '" + name_ + "': instruction " +
                              std::to_string(i) + " has illegal width");
    }
    if (in.rd >= kNumRegs || in.ra >= kNumRegs || in.rb >= kNumRegs) {
      return invalid_argument("program '" + name_ + "': instruction " +
                              std::to_string(i) + " uses illegal register");
    }
  }
  if (!has_exit) {
    return failed_precondition("program '" + name_ + "' has no EXIT");
  }
  return Status::ok();
}

std::string Program::disassemble() const {
  std::string out = name_ + ":\n";
  char line[160];
  for (std::size_t i = 0; i < code_.size(); ++i) {
    std::snprintf(line, sizeof(line), "%4zu: %s\n", i,
                  code_[i].to_string().c_str());
    out += line;
  }
  return out;
}

}  // namespace pg::gpu
