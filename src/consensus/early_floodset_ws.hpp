// EarlyFloodSetWS — early-deciding uniform consensus for RWS, extending the
// paper's Section 5.3 separation to every t (the companion paper [7]
// direction).
//
// EarlyFloodSet decides in RS once its observed failures satisfy
// f_r <= r - 2.  In RWS that rule is one round too aggressive: silence in
// round r does not mean "crashed before sending" but only "crashes by round
// r+1", so the same observation is one round staler.  EarlyFloodSetWS
// therefore combines FloodSetWS's halt set with the shifted rule
//
//     decide min(W) at the end of round r  iff  f_r <= r - 3,
//
// falling back to t+1.  Failure-free runs decide at round 3 where RS's rule
// decides at round 2 — the paper's one-round RS/RWS gap, reproduced at
// every failure count: Lat(·, f) = min(f+3, t+1) versus RS's min(f+2, t+1).
//
// The model-checker tests validate the WS rule exhaustively and refute the
// unshifted rule (f_r <= r - 2 with a halt set) in RWS, mirroring how A1
// and its halt-set repair both fail for t = 1.
#pragma once

#include "consensus/floodset.hpp"

namespace ssvsp {

class EarlyFloodSetWs : public FloodSet {
 public:
  /// shift = 3 is the safe RWS rule; shift = 2 is the RS rule transplanted
  /// into RWS (the ablation candidate, refuted by the model checker).
  explicit EarlyFloodSetWs(int shift = 3) : FloodSet(true), shift_(shift) {}

  void transition(
      const std::vector<std::optional<Payload>>& received) override;
  std::string describeState() const override;
  // shift_ is a construction-time constant, so inheriting the base pod
  // would be behaviorally correct — but carrying shift_ keeps the snapshot
  // self-describing.
  std::size_t stateBytes(std::byte* out) const override {
    if (out != nullptr) {
      const Pod pod{packBase(), shift_, 0};
      std::memcpy(out, &pod, sizeof(pod));
    }
    return sizeof(Pod);
  }
  void restoreBytes(const std::byte* in) override {
    Pod pod;
    std::memcpy(&pod, in, sizeof(pod));
    unpackBase(pod.base);
    shift_ = pod.shift;
  }
  const std::type_info* stateBytesType() const override {
    return &typeid(EarlyFloodSetWs);
  }

 private:
  struct Pod {
    BasePod base;
    std::int32_t shift;
    std::int32_t pad;
  };

  int shift_;
};

RoundAutomatonFactory makeEarlyFloodSetWs();
/// The unsafe transplant of the RS rule (for ablation).
RoundAutomatonFactory makeEarlyFloodSetWsUnsafeCandidate();

}  // namespace ssvsp
