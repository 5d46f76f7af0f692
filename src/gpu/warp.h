// Warp execution state: per-thread registers plus SIMT control flow.
//
// Divergence follows the pre-Volta (Kepler-era) hardware scheme the
// paper's GPUs used: an SSY instruction pushes a reconvergence point;
// a divergent branch splits the warp into fragments that execute
// serially; fragments park when they reach the reconvergence point and
// the warp continues with the merged mask once all fragments arrive.
// Control flow that never diverges (the common case in the device
// put/get library, which the paper notes is effectively single-threaded)
// pays nothing for this machinery.
//
// This class is purely architectural state - no timing - so it is unit
// testable without a simulation.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "gpu/isa.h"

namespace pg::gpu {

using LaneMask = std::uint32_t;

class WarpState {
 public:
  /// A warp of `active_lanes` threads (1..32) starting at pc 0.
  explicit WarpState(unsigned active_lanes);

  // --- basic state ----------------------------------------------------------

  int pc() const { return pc_; }
  void set_pc(int pc) { pc_ = pc; }
  LaneMask mask() const { return mask_; }
  bool alive() const { return mask_ != 0 || !pending_work(); }
  bool done() const { return mask_ == 0 && !pending_work(); }
  unsigned active_count() const { return __builtin_popcount(mask_); }

  std::uint64_t reg(unsigned lane, unsigned r) const {
    return regs_[lane][r];
  }
  void set_reg(unsigned lane, unsigned r, std::uint64_t v) {
    regs_[lane][r] = v;
  }

  /// Applies `fn(lane)` to every active lane, in ascending lane order.
  /// Iterates set bits directly: a single-lane warp (the common case in
  /// the device put/get library) costs one iteration, not kWarpSize.
  template <typename Fn>
  void for_each_active(Fn&& fn) const {
    for (LaneMask m = mask_; m != 0; m &= m - 1) {
      fn(static_cast<unsigned>(__builtin_ctz(m)));
    }
  }

  // --- control flow ---------------------------------------------------------

  /// Handles reconvergence: if the current pc is the top reconvergence
  /// point, parks the fragment and switches to the next one (or merges).
  /// Returns true if state changed (caller should re-check before
  /// executing). Costs no instruction slot, like hardware.
  bool maybe_reconverge();

  /// SSY: declares `reconv_pc` as the reconvergence point for subsequent
  /// divergence.
  void push_sync(int reconv_pc);

  /// Resolves a branch where `taken` lanes (subset of the active mask) go
  /// to `target` and the rest fall through to pc+1. Uniform branches do
  /// not diverge. Returns true when the warp actually diverged.
  bool branch(LaneMask taken, int target);

  /// EXIT for all currently active lanes. Switches to the next fragment
  /// if one is pending.
  void exit_active();

  /// CALL: pushes pc+1 and jumps (warp-uniform control flow required).
  void call(int target);

  /// RET: pops the return address.
  void ret();

  unsigned call_depth() const { return static_cast<unsigned>(call_stack_.size()); }
  unsigned divergence_depth() const { return static_cast<unsigned>(sync_stack_.size()); }

 private:
  struct Fragment {
    LaneMask mask;
    int pc;
  };
  struct SyncEntry {
    int reconv_pc;
    LaneMask merged = 0;               // lanes already arrived
    std::vector<Fragment> pending;     // fragments not yet run
  };

  bool pending_work() const {
    for (const auto& entry : sync_stack_) {
      if (!entry.pending.empty() || entry.merged != 0) return true;
    }
    return false;
  }

  /// Activates the next pending fragment or merges the top entry.
  void next_fragment();

  int pc_ = 0;
  LaneMask mask_;
  std::vector<std::array<std::uint64_t, kNumRegs>> regs_;
  std::vector<SyncEntry> sync_stack_;
  std::vector<int> call_stack_;
};

}  // namespace pg::gpu
