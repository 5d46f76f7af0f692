#include "gpu/warp.h"

#include <cassert>

namespace pg::gpu {

WarpState::WarpState(unsigned active_lanes, unsigned num_regs)
    : lanes_(active_lanes), num_regs_(num_regs) {
  assert(active_lanes >= 1 && active_lanes <= kWarpSize);
  assert(num_regs >= 1 && num_regs <= kNumRegs);
  mask_ = active_lanes == kWarpSize ? 0xFFFFFFFFu
                                    : ((1u << active_lanes) - 1u);
  // Zeroed. Sized to the active count, not kWarpSize: every reg access
  // is bounded by a mask bit, and the tail warp of the device put/get
  // library is usually one lane.
  regs_.assign(std::size_t{num_regs} * active_lanes, 0);
}

bool WarpState::maybe_reconverge() {
  if (sync_stack_.empty() || mask_ == 0) return false;
  SyncEntry& top = sync_stack_.back();
  if (pc_ != top.reconv_pc) return false;
  // This fragment arrived at the reconvergence point: park it.
  top.merged |= mask_;
  mask_ = 0;
  next_fragment();
  return true;
}

void WarpState::push_sync(int reconv_pc) {
  sync_stack_.push_back(SyncEntry{reconv_pc, 0, {}});
}

bool WarpState::branch(LaneMask taken, int target) {
  assert((taken & ~mask_) == 0 && "branch decided by inactive lanes");
  if (taken == mask_) {  // uniformly taken
    pc_ = target;
    return false;
  }
  if (taken == 0) {  // uniformly not taken
    ++pc_;
    return false;
  }
  // Divergence: requires an enclosing SSY scope, as on real pre-Volta
  // hardware where the compiler inserts SSY before potentially divergent
  // branches.
  assert(!sync_stack_.empty() &&
         "divergent branch without SSY reconvergence point");
  SyncEntry& top = sync_stack_.back();
  // Fall-through fragment runs later; taken fragment runs now. (The order
  // is arbitrary on hardware too.)
  top.pending.push_back(Fragment{static_cast<LaneMask>(mask_ & ~taken),
                                 pc_ + 1});
  mask_ = taken;
  pc_ = target;
  return true;
}

void WarpState::exit_active() {
  mask_ = 0;
  next_fragment();
}

void WarpState::next_fragment() {
  while (!sync_stack_.empty()) {
    SyncEntry& top = sync_stack_.back();
    if (!top.pending.empty()) {
      const Fragment frag = top.pending.back();
      top.pending.pop_back();
      mask_ = frag.mask;
      pc_ = frag.pc;
      return;
    }
    // All fragments of this scope arrived (or exited): merge and continue
    // after the reconvergence point.
    const LaneMask merged = top.merged;
    const int reconv = top.reconv_pc;
    sync_stack_.pop_back();
    if (merged != 0) {
      mask_ = merged;
      pc_ = reconv;
      return;
    }
    // Everybody exited inside the scope; unwind further.
  }
  // No fragments anywhere: warp is done (mask stays 0).
}

void WarpState::call(int target) {
  assert(call_stack_.size() < kMaxCallDepth && "device call stack overflow");
  call_stack_.push_back(pc_ + 1);
  pc_ = target;
}

void WarpState::ret() {
  assert(!call_stack_.empty() && "RET without CALL");
  pc_ = call_stack_.back();
  call_stack_.pop_back();
}

}  // namespace pg::gpu
