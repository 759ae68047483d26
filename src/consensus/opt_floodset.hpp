// The optimized FloodSet variants of Section 5.2.
//
// C_OptFloodSet / C_OptFloodSetWS — configuration-optimized: a process that
// receives a message from EVERY process in round 1, all carrying the same
// value v, decides v at the end of round 1 (by uniform validity the decision
// is already determined).  These witnesses lat(A) = 1 in both models.
//
// F_OptFloodSet / F_OptFloodSetWS (Figure 3) — failure-optimized: a process
// that receives exactly n-t messages in round 1 knows (round synchrony /
// weak round synchrony + the resilience bound) the exact faulty set, decides
// min(W) at the end of round 1, and forces its decision with a (D, v)
// broadcast in round 2.  These witness Lat(A) = 1: the worst-case initial
// configuration still has a 1-round run — the run where t processes crash
// initially, contradicting the intuition that minimal latency occurs in
// failure-free runs.
//
// The WS variants carry FloodSetWS's halt set, which also shields the (D, v)
// path from pending-message ghosts.
#pragma once

#include "consensus/floodset.hpp"

namespace ssvsp {

class COptFloodSet : public FloodSet {
 public:
  explicit COptFloodSet(bool useHaltSet) : FloodSet(useHaltSet) {}

  void transition(
      const std::vector<std::optional<Payload>>& received) override;
  std::string describeState() const override;
  // Stateless beyond the base; certify the inherited snapshot layout.
  const std::type_info* stateBytesType() const override {
    return &typeid(COptFloodSet);
  }
};

class FOptFloodSet : public FloodSet {
 public:
  explicit FOptFloodSet(bool useHaltSet) : FloodSet(useHaltSet) {}

  void begin(ProcessId self, const RoundConfig& cfg, Value initial) override;
  std::optional<Payload> messageFor(ProcessId dst) const override;
  void transition(
      const std::vector<std::optional<Payload>>& received) override;
  std::string describeState() const override;
  // decided_/decidedEarly_ vary per round: this override is load-bearing —
  // inheriting the base pod would silently drop them on restore.
  std::size_t stateBytes(std::byte* out) const override {
    if (out != nullptr) {
      const Pod pod{packBase(), decided_, decidedEarly_, {0, 0, 0, 0, 0, 0}};
      std::memcpy(out, &pod, sizeof(pod));
    }
    return sizeof(Pod);
  }
  void restoreBytes(const std::byte* in) override {
    Pod pod;
    std::memcpy(&pod, in, sizeof(pod));
    unpackBase(pod.base);
    decided_ = pod.decided;
    decidedEarly_ = pod.decidedEarly;
  }
  const std::type_info* stateBytesType() const override {
    return &typeid(FOptFloodSet);
  }

  bool decidedEarly() const { return decidedEarly_; }

 private:
  struct Pod {
    BasePod base;
    bool decided;
    bool decidedEarly;
    char pad[6];
  };

  bool decided_ = false;      ///< Figure 3's `decided` flag
  bool decidedEarly_ = false; ///< true if the round-1 fast path fired
};

RoundAutomatonFactory makeCOptFloodSet();
RoundAutomatonFactory makeCOptFloodSetWs();
RoundAutomatonFactory makeFOptFloodSet();
RoundAutomatonFactory makeFOptFloodSetWs();

}  // namespace ssvsp
