// Emulation of the RWS round model on the SP step-level model (paper §4.2).
//
// "The reception of messages in round r is done as follows in SP: process
//  p_i keeps executing (possibly null) steps of model SP until, for every
//  process p_j, either p_i receives a message from p_j or p_i suspects p_j."
//
// Because P's detection delay is finite but unbounded, a process may leave
// round r without the round-r message of a crashed-but-suspected sender —
// that message is PENDING and may surface while the receiver is in a later
// round, which is exactly the RWS behaviour.  Lemma 4.1 shows the emulation
// still guarantees weak round synchrony: a sender whose round-r message goes
// pending towards a receiver that finishes round r crashes by the end of its
// own round r+1.  checkWeakRoundSynchrony() verifies that operationally on
// finished executions.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "emul/round_inbox.hpp"
#include "rounds/round_automaton.hpp"
#include "runtime/automaton.hpp"
#include "runtime/executor.hpp"

namespace ssvsp {

class RwsEmulator : public Automaton {
 public:
  RwsEmulator(std::unique_ptr<RoundAutomaton> inner, RoundConfig cfg,
              Value initial, Round maxRounds);

  void start(ProcessId self, int n) override;
  void onStep(StepContext& ctx) override;
  std::optional<Value> output() const override;

  Round roundsCompleted() const { return roundsCompleted_; }
  const RoundAutomaton& inner() const { return *inner_; }

  /// For each completed round, the set of senders whose message was consumed
  /// in that round — the raw material for the Lemma 4.1 check.
  const std::vector<ProcessSet>& heardPerRound() const {
    return heardPerRound_;
  }

 private:
  std::unique_ptr<RoundAutomaton> inner_;
  RoundConfig cfg_;
  Value initial_;
  Round maxRounds_;

  ProcessId self_ = kNoProcess;
  Round roundsCompleted_ = 0;
  ProcessId nextDst_ = 0;  ///< next destination in the current send phase
  RoundInbox inbox_;
  std::vector<ProcessSet> heardPerRound_;
};

AutomatonFactory emulateRwsOnSp(const RoundAutomatonFactory& factory,
                                RoundConfig cfg, std::vector<Value> initial,
                                Round maxRounds);

struct WeakSynchronyReport {
  bool ok = true;
  std::string witness;
};

/// Lemma 4.1, checked on a finished execution: for every receiver p that
/// completed round r without hearing sender q (while q was expected — i.e.
/// q completed the sends of round r or crashed before), if p is alive at the
/// end of its round r, then q crashed and q never completed round r+2.
/// `emulators` are the per-process RwsEmulator states after the run.
WeakSynchronyReport checkWeakRoundSynchrony(
    const std::vector<const RwsEmulator*>& emulators,
    const FailurePattern& pattern);

}  // namespace ssvsp
