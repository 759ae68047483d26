// One-shot atomic broadcast on the round models.
//
// Every process may contribute one application message (its initial value;
// kUndecided opts out).  AbFlood floods the known message set for t+1
// rounds — FloodSet on (origin, payload) pairs instead of bare values — and
// at the end of round t+1 delivers the whole batch in deterministic
// (origin) order.  The FloodSet clean-round argument gives all deliverers
// the same set, hence the same sequence: uniform total order.
//
// Like FloodSet, the plain variant is RS-only: in RWS a pending flood can
// leak a dying origin's message into exactly one deliverer's batch and
// break uniform total order; the WS variant adds the halt set (the
// exhaustive checker confirms the pair, mirroring Figures 1-2).
#pragma once

#include <set>
#include <utility>
#include <vector>

#include "broadcast/urb.hpp"
#include "rounds/round_automaton.hpp"

namespace ssvsp {

class AbFlood : public RoundAutomaton {
 public:
  explicit AbFlood(bool useHaltSet) : useHaltSet_(useHaltSet) {}

  void begin(ProcessId self, const RoundConfig& cfg, Value initial) override;
  std::optional<Payload> messageFor(ProcessId dst) const override;
  void transition(
      const std::vector<std::optional<Payload>>& received) override;
  std::optional<Value> decision() const override { return std::nullopt; }
  std::string describeState() const override;

  const std::vector<Delivery>& delivered() const { return delivered_; }

 private:
  bool useHaltSet_;
  ProcessId self_ = kNoProcess;
  RoundConfig cfg_;
  int rounds_ = 0;
  std::set<std::pair<ProcessId, Value>> known_;
  ProcessSet halt_;
  std::vector<Delivery> delivered_;
};

RoundAutomatonFactory makeAtomicBroadcastRs();
RoundAutomatonFactory makeAtomicBroadcastRws();

}  // namespace ssvsp
