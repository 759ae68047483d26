// The A1 algorithm (paper Figure 4, Section 5.3) — uniform consensus in RS
// for t = 1 with Lambda(A1) = 1.
//
//   Round 1: p1 broadcasts its initial value v1; every process receiving v1
//            adopts and decides it at the end of round 1.
//   Round 2: processes that decided broadcast the report (p1, w); if p1
//            crashed before reaching anyone, p2 broadcasts its own initial
//            value v2.  Undecided processes prefer a (p1, w) report, and
//            fall back to p2's value.
//
// Every run of A1 lasts two rounds, and in failure-free runs every process
// decides at the end of round 1 — hence Lambda(A1) = Lat(A1, 0) = 1.
//
// In RWS the algorithm is incorrect: with p1's round-1 broadcast pending,
// p1 decides v1 on its own message and crashes, while everyone else decides
// v2 — a uniform agreement violation (the run is produced in the tests and
// by the model checker).  The companion paper [7] shows no RWS algorithm
// can achieve Lambda = 1 for n >= 3, which the exhaustive checker witnesses
// for candidate repairs (A1 + halt set, in a1ws_candidate).
#pragma once

#include <cstring>

#include "consensus/messages.hpp"
#include "rounds/round_automaton.hpp"

namespace ssvsp {

class A1 : public RoundAutomaton {
 public:
  /// withHaltSet = true yields the "A1WS candidate": round-1 silence from a
  /// sender makes its later messages invisible.  The candidate still fails
  /// in RWS (see mc tests) — it repairs the scenario above but not the one
  /// where the report messages of round 2 go pending.
  explicit A1(bool withHaltSet = false) : withHaltSet_(withHaltSet) {}

  void begin(ProcessId self, const RoundConfig& cfg, Value initial) override;
  std::optional<Payload> messageFor(ProcessId dst) const override;
  void transition(
      const std::vector<std::optional<Payload>>& received) override;
  std::optional<Value> decision() const override { return decision_; }
  std::string describeState() const override;
  std::size_t stateBytes(std::byte* out) const override {
    if (out != nullptr) {
      Pod pod{};
      pod.halt = halt_.mask();
      pod.rounds = rounds_;
      pod.w = w_;
      pod.decision = decision_.has_value() ? *decision_ : 0;
      pod.decided = decided_;
      pod.hasDecision = decision_.has_value();
      std::memcpy(out, &pod, sizeof(pod));
    }
    return sizeof(Pod);
  }
  void restoreBytes(const std::byte* in) override {
    Pod pod;
    std::memcpy(&pod, in, sizeof(pod));
    halt_ = ProcessSet::fromMask(pod.halt);
    rounds_ = pod.rounds;
    w_ = pod.w;
    decided_ = pod.decided;
    if (pod.hasDecision)
      decision_ = pod.decision;
    else
      decision_.reset();
  }
  const std::type_info* stateBytesType() const override {
    return &typeid(A1);
  }

 private:
  // w_ may legally hold kUndecided, so the pod carries an explicit
  // hasDecision flag instead of reusing it as the decision sentinel.
  struct Pod {
    std::uint64_t halt;
    std::int32_t rounds;
    std::int32_t w;
    std::int32_t decision;
    bool decided;
    bool hasDecision;
    char pad[2];
  };

  bool withHaltSet_;
  ProcessId self_ = kNoProcess;
  RoundConfig cfg_;
  int rounds_ = 0;
  Value w_ = kUndecided;
  bool decided_ = false;
  std::optional<Value> decision_;
  ProcessSet halt_;
};

RoundAutomatonFactory makeA1();
RoundAutomatonFactory makeA1WsCandidate();

}  // namespace ssvsp
