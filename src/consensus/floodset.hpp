// FloodSet and FloodSetWS (paper Figures 1 and 2).
//
// FloodSet (Lynch): every process floods the set W of values it has seen for
// t+1 rounds and decides min(W) at the end of round t+1.  Correct in RS.
//
// FloodSetWS adds the halt set: a process that is silent towards p_i in some
// round is ignored by p_i forever after.  This neutralizes pending messages
// — in RWS a late round-r message can surface in round r+1 and, without the
// halt set, smuggle a value known only to crashed processes into one
// survivor's W, breaking uniform agreement.  The companion paper [7] proves
// FloodSetWS correct in RWS; the exhaustive model checker in src/mc verifies
// it for small systems, and also exhibits the FloodSet-in-RWS disagreement
// (the ablation for the halt set).
#pragma once

#include <cstring>

#include "consensus/messages.hpp"
#include "rounds/round_automaton.hpp"
#include "util/process_set.hpp"
#include "util/value_set.hpp"

namespace ssvsp {

class FloodSet : public RoundAutomaton {
 public:
  /// useHaltSet = false: Figure 1 (FloodSet).
  /// useHaltSet = true:  Figure 2 (FloodSetWS).
  explicit FloodSet(bool useHaltSet) : useHaltSet_(useHaltSet) {}

  void begin(ProcessId self, const RoundConfig& cfg, Value initial) override;
  std::optional<Payload> messageFor(ProcessId dst) const override;
  void transition(
      const std::vector<std::optional<Payload>>& received) override;
  std::optional<Value> decision() const override { return decision_; }
  std::string describeState() const override;
  std::size_t stateBytes(std::byte* out) const override {
    if (out != nullptr) {
      const BasePod pod = packBase();
      std::memcpy(out, &pod, sizeof(pod));
    }
    return sizeof(BasePod);
  }
  void restoreBytes(const std::byte* in) override {
    BasePod pod;
    std::memcpy(&pod, in, sizeof(BasePod));
    unpackBase(pod);
  }
  const std::type_info* stateBytesType() const override {
    return &typeid(FloodSet);
  }

  ValueSet w() const { return w_; }
  ProcessSet halt() const { return halt_; }

 protected:
  /// The round-varying state of the base algorithm, as plain bytes — what
  /// the POD-snapshot contract saves and restores.  Construction-time
  /// constants (useHaltSet_) and begin()-time parameters (self_, cfg_) are
  /// deliberately absent: restores happen into pooled automata of the same
  /// run.  Subclasses that add round-varying state embed this in their own
  /// pod (see EarlyFloodSetWs / FOptFloodSet) and override the hooks.
  struct BasePod {
    std::uint64_t w = 0;
    std::uint64_t halt = 0;
    std::int32_t rounds = 0;
    std::int32_t decision = kUndecided;  ///< kUndecided = none
  };
  BasePod packBase() const {
    BasePod pod;
    pod.w = w_.mask();
    pod.halt = halt_.mask();
    pod.rounds = rounds_;
    pod.decision = decision_.has_value() ? *decision_ : kUndecided;
    return pod;
  }
  void unpackBase(const BasePod& pod) {
    w_ = ValueSet::fromMask(pod.w);
    halt_ = ProcessSet::fromMask(pod.halt);
    rounds_ = pod.rounds;
    if (pod.decision == kUndecided)
      decision_.reset();
    else
      decision_ = pod.decision;
  }

  bool useHaltSet_;
  ProcessId self_ = kNoProcess;
  RoundConfig cfg_;
  int rounds_ = 0;  ///< the paper's `rounds` state variable (0 before round 1)
  ValueSet w_;
  ProcessSet halt_;
  std::optional<Value> decision_;

  /// Folds the received W-sets into w_, honouring the halt set, and then
  /// extends the halt set with this round's silent senders.  Returns the set
  /// of senders heard from (post-halt-filter), which subclasses use for
  /// their optimized decision rules.
  ProcessSet absorb(const std::vector<std::optional<Payload>>& received);
};

/// Factory helpers.
RoundAutomatonFactory makeFloodSet();    // Figure 1
RoundAutomatonFactory makeFloodSetWs();  // Figure 2

}  // namespace ssvsp
