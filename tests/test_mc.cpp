// Exhaustive model-checking tests.  These decide the paper's claims for
// small systems outright:
//   * FloodSet is correct in RS (no violation over the full script space),
//     and provably incorrect in RWS (violations found);
//   * FloodSetWS, C_OptFloodSetWS, F_OptFloodSetWS are correct in RWS;
//   * A1 is correct in RS for t = 1; A1 and its halt-set repair both fail in
//     RWS;
//   * EarlyFloodSet is correct in RS, while the tempting "my own view was
//     clean for two rounds" rule is unsound (counterexample reproduced);
//   * the Section 5.3 separation: in RS (t = 1) A1 decides round 1 in every
//     failure-free run, while every RWS algorithm in the registry has some
//     failure-free run deciding no earlier than round 2.
#include <gtest/gtest.h>

#include "consensus/early_floodset_ws.hpp"
#include "consensus/floodset.hpp"
#include "consensus/registry.hpp"
#include "mc/checker.hpp"
#include "util/check.hpp"

namespace ssvsp {
namespace {

RoundConfig cfgOf(int n, int t) {
  RoundConfig c;
  c.n = n;
  c.t = t;
  return c;
}

McCheckOptions rsOptions(int t, int horizon = -1) {
  McCheckOptions o;
  o.enumeration.horizon = horizon > 0 ? horizon : t + 2;
  o.enumeration.maxCrashes = t;
  return o;
}

McCheckOptions rwsOptions(int t, std::vector<int> lags = {1, 0},
                          int horizon = -1) {
  McCheckOptions o;
  o.enumeration.horizon = horizon > 0 ? horizon : t + 2;
  o.enumeration.maxCrashes = t;
  o.enumeration.pendingLags = std::move(lags);
  return o;
}

TEST(EnumeratorBasics, CountsFailureFreeOnly) {
  EnumOptions o;
  o.horizon = 3;
  o.maxCrashes = 0;
  EXPECT_EQ(countScripts(cfgOf(3, 2), RoundModel::kRs, o), 1);
}

TEST(EnumeratorBasics, SingleCrashSpaceSize) {
  // 3 crashers x 3 rounds x 2^2 sendTo subsets (subsets of the OTHER two
  // processes: the self bit is unobservable) + the failure-free script.
  EnumOptions o;
  o.horizon = 3;
  o.maxCrashes = 1;
  EXPECT_EQ(countScripts(cfgOf(3, 1), RoundModel::kRs, o), 1 + 3 * 3 * 4);
}

TEST(EnumeratorBasics, CrasherSendToNeverContainsSelf) {
  EnumOptions o;
  o.horizon = 2;
  o.maxCrashes = 2;
  const auto cfg = cfgOf(4, 2);
  forEachScript(cfg, RoundModel::kRs, o, [](const FailureScript& s) {
    for (const CrashEvent& c : s.crashes)
      EXPECT_FALSE(c.sendTo.contains(c.p)) << s.toString();
    return true;
  });
}

TEST(EnumeratorBasics, CountScriptsValidatesOptions) {
  EnumOptions o;
  o.horizon = 0;  // inadmissible
  EXPECT_THROW(countScripts(cfgOf(3, 1), RoundModel::kRs, o),
               InvariantViolation);
  o.horizon = 3;
  o.maxCrashes = 2;  // > t
  EXPECT_THROW(countScripts(cfgOf(3, 1), RoundModel::kRs, o),
               InvariantViolation);
}

TEST(EnumeratorBasics, EveryEmittedScriptIsLegal) {
  EnumOptions o;
  o.horizon = 3;
  o.maxCrashes = 2;
  o.pendingLags = {1, 0};
  const auto cfg = cfgOf(3, 2);
  std::int64_t count = forEachScript(
      cfg, RoundModel::kRws, o, [&](const FailureScript& s) {
        EXPECT_TRUE(validateScript(s, cfg, RoundModel::kRws).ok)
            << s.toString();
        return true;
      });
  EXPECT_GT(count, 1000);
}

TEST(EnumeratorBasics, MaxScriptsCapRespected) {
  EnumOptions o;
  o.horizon = 3;
  o.maxCrashes = 2;
  o.maxScripts = 100;
  EXPECT_EQ(countScripts(cfgOf(4, 2), RoundModel::kRs, o), 100);
}

TEST(EnumeratorBasics, AllInitialConfigs) {
  const auto configs = allInitialConfigs(3, 2);
  EXPECT_EQ(configs.size(), 8u);
  const auto big = allInitialConfigs(2, 3);
  EXPECT_EQ(big.size(), 9u);
}

// ------------------------- exhaustive correctness ------------------------

// The naive early-decision rule ("my heard set was stable for one round
// pair") is UNSOUND: two staggered partial crashes tunnel a minimal value
// around one process's clean view.  This automaton implements the naive
// rule; the checker finds the counterexample.
class NaiveEarlyFloodSet : public FloodSet {
 public:
  NaiveEarlyFloodSet() : FloodSet(false) {}
  // The engine pools automata across runs, so a subclass with extra state
  // has to override begin() (it must fully reset).  stateBytes /
  // restoreBytes are deliberately NOT overridden: the inherited snapshot
  // would slice off hasPrev_/prevHeard_, and this test doubles as a check
  // that the engine's stateBytesType() tripwire detects the mismatch and
  // runs without checkpoints instead of corrupting resumed runs.
  void begin(ProcessId self, const RoundConfig& cfg, Value initial) override {
    FloodSet::begin(self, cfg, initial);
    hasPrev_ = false;
    prevHeard_ = ProcessSet();
  }
  void transition(
      const std::vector<std::optional<Payload>>& received) override {
    ++rounds_;
    const ProcessSet heard = absorb(received);
    if (decision_.has_value()) return;
    const bool cleanPair = hasPrev_ && heard == prevHeard_;
    prevHeard_ = heard;
    hasPrev_ = true;
    if (cleanPair || rounds_ == cfg_.t + 1) decision_ = *w_.begin();
  }

 private:
  bool hasPrev_ = false;
  ProcessSet prevHeard_;
};


TEST(ExhaustiveRs, FloodSetCorrectN3T1) {
  const auto r = modelCheckConsensus(algorithmByName("FloodSet").factory,
                                     cfgOf(3, 1), RoundModel::kRs,
                                     rsOptions(1));
  EXPECT_TRUE(r.ok()) << r.violations.front().verdict.witness << "\n"
                      << r.violations.front().runDump;
  // (1 + 3 crashers x 3 rounds x 2^2 sendTo subsets) scripts x 2^3 configs.
  EXPECT_EQ(r.runsExecuted, 37 * 8);
}

TEST(ExhaustiveRs, FloodSetCorrectN4T2) {
  const auto r = modelCheckConsensus(algorithmByName("FloodSet").factory,
                                     cfgOf(4, 2), RoundModel::kRs,
                                     rsOptions(2));
  EXPECT_TRUE(r.ok()) << r.violations.front().verdict.witness;
}

TEST(ExhaustiveRws, FloodSetVIOLATESInRws) {
  // The paper's Section 5.1 remark, decided mechanically: pending messages
  // break FloodSet.  n = 3, t = 2 with arrival-lag-1 and lost pendings.
  const auto r = modelCheckConsensus(algorithmByName("FloodSet").factory,
                                     cfgOf(3, 2), RoundModel::kRws,
                                     rwsOptions(2));
  ASSERT_FALSE(r.ok());
  EXPECT_FALSE(r.violations.front().verdict.uniformAgreement)
      << r.violations.front().verdict.witness;
}

TEST(ExhaustiveRws, FloodSetWsCorrectN3T1) {
  const auto r = modelCheckConsensus(algorithmByName("FloodSetWS").factory,
                                     cfgOf(3, 1), RoundModel::kRws,
                                     rwsOptions(1));
  EXPECT_TRUE(r.ok()) << r.violations.front().verdict.witness << "\n"
                      << r.violations.front().runDump;
}

TEST(ExhaustiveRws, FloodSetWsCorrectN3T2) {
  // The full pending space for t = 2 is ~10^7 scripts; the unit test covers
  // a 200k prefix (the full sweep lives in bench_floodsetws).
  McCheckOptions o = rwsOptions(2, {1, 0});
  o.enumeration.maxScripts = 200000;
  const auto r = modelCheckConsensus(algorithmByName("FloodSetWS").factory,
                                     cfgOf(3, 2), RoundModel::kRws, o);
  EXPECT_TRUE(r.ok()) << r.violations.front().verdict.witness << "\n"
                      << r.violations.front().runDump;
}

TEST(ExhaustiveRws, FloodSetWsCorrectLag2) {
  // Pendings that surface two rounds late.
  const auto r = modelCheckConsensus(algorithmByName("FloodSetWS").factory,
                                     cfgOf(3, 1), RoundModel::kRws,
                                     rwsOptions(1, {2, 0}));
  EXPECT_TRUE(r.ok()) << r.violations.front().verdict.witness;
}

TEST(ExhaustiveRs, COptFloodSetCorrectN3T2) {
  const auto r = modelCheckConsensus(algorithmByName("C_OptFloodSet").factory,
                                     cfgOf(3, 2), RoundModel::kRs,
                                     rsOptions(2));
  EXPECT_TRUE(r.ok()) << r.violations.front().verdict.witness;
}

TEST(ExhaustiveRws, COptFloodSetWsCorrectN3T2) {
  McCheckOptions o = rwsOptions(2);
  o.enumeration.maxScripts = 150000;
  const auto r = modelCheckConsensus(
      algorithmByName("C_OptFloodSetWS").factory, cfgOf(3, 2),
      RoundModel::kRws, o);
  EXPECT_TRUE(r.ok()) << r.violations.front().verdict.witness;
}

TEST(ExhaustiveRs, FOptFloodSetCorrectN3T1) {
  const auto r = modelCheckConsensus(algorithmByName("F_OptFloodSet").factory,
                                     cfgOf(3, 1), RoundModel::kRs,
                                     rsOptions(1));
  EXPECT_TRUE(r.ok()) << r.violations.front().verdict.witness << "\n"
                      << r.violations.front().runDump;
}

TEST(ExhaustiveRs, FOptFloodSetCorrectN4T2) {
  McCheckOptions o = rsOptions(2);
  o.enumeration.maxScripts = 40000;  // bound the 4-process sweep
  const auto r = modelCheckConsensus(algorithmByName("F_OptFloodSet").factory,
                                     cfgOf(4, 2), RoundModel::kRs, o);
  EXPECT_TRUE(r.ok()) << r.violations.front().verdict.witness << "\n"
                      << r.violations.front().runDump;
}

TEST(ExhaustiveRws, FOptFloodSetWsCorrectN3T1) {
  const auto r = modelCheckConsensus(
      algorithmByName("F_OptFloodSetWS").factory, cfgOf(3, 1),
      RoundModel::kRws, rwsOptions(1));
  EXPECT_TRUE(r.ok()) << r.violations.front().verdict.witness << "\n"
                      << r.violations.front().runDump;
}

TEST(ExhaustiveRws, FOptFloodSetWsCorrectN3T2) {
  McCheckOptions o = rwsOptions(2);
  o.enumeration.maxScripts = 150000;
  const auto r = modelCheckConsensus(
      algorithmByName("F_OptFloodSetWS").factory, cfgOf(3, 2),
      RoundModel::kRws, o);
  EXPECT_TRUE(r.ok()) << r.violations.front().verdict.witness << "\n"
                      << r.violations.front().runDump;
}

TEST(ExhaustiveRs, A1CorrectN3T1) {
  const auto r = modelCheckConsensus(algorithmByName("A1").factory,
                                     cfgOf(3, 1), RoundModel::kRs,
                                     rsOptions(1, /*horizon=*/3));
  EXPECT_TRUE(r.ok()) << r.violations.front().verdict.witness << "\n"
                      << r.violations.front().runDump;
  // All runs of A1 have at most two rounds.
  EXPECT_LE(r.latUpToCrashes(1), 2);
}

TEST(ExhaustiveRs, A1CorrectN4T1) {
  const auto r = modelCheckConsensus(algorithmByName("A1").factory,
                                     cfgOf(4, 1), RoundModel::kRs,
                                     rsOptions(1, /*horizon=*/3));
  EXPECT_TRUE(r.ok()) << r.violations.front().verdict.witness;
}

TEST(ExhaustiveRws, A1ViolatesInRws) {
  const auto r = modelCheckConsensus(algorithmByName("A1").factory,
                                     cfgOf(3, 1), RoundModel::kRws,
                                     rwsOptions(1, {1, 0}, /*horizon=*/3));
  ASSERT_FALSE(r.ok());
}

TEST(ExhaustiveRws, A1HaltSetRepairStillFails) {
  // The halt set fixes the "own broadcast pending" scenario but not the
  // pending round-2 report scenario — witnessing that achieving Lambda = 1
  // in RWS is not a matter of simple filtering (companion result [7]).
  const auto r = modelCheckConsensus(
      algorithmByName("A1WS_candidate").factory, cfgOf(3, 1), RoundModel::kRws,
      rwsOptions(1, {1, 0}, /*horizon=*/3));
  ASSERT_FALSE(r.ok());
}

TEST(ExhaustiveRs, EarlyFloodSetCorrectSmall) {
  // Fully exhaustive for (n=3, t=1) and (n=4, t=2).
  for (auto [n, t] : {std::pair<int, int>{3, 1}, {4, 2}}) {
    const auto r =
        modelCheckConsensus(algorithmByName("EarlyFloodSet").factory,
                            cfgOf(n, t), RoundModel::kRs, rsOptions(t));
    ASSERT_TRUE(r.ok()) << "n=" << n << " t=" << t << ": "
                        << r.violations.front().verdict.witness << "\n"
                        << r.violations.front().runDump;
  }
}

TEST(ExhaustiveRs, EarlyFloodSetSurvivesStaggeredCrashCounterexample) {
  // The exact scenario that breaks the naive clean-pair rule: the minimum
  // value tunnels p4 -> p3 -> p0 through two partial crashes while p0's own
  // received-from view stays stable across rounds 1-2.
  FailureScript script;
  script.crashes.push_back({4, 1, ProcessSet{3}});   // min value reaches p3
  script.crashes.push_back({3, 2, ProcessSet{0}});   // ...then only p0
  script.crashes.push_back({0, 3, ProcessSet{}});    // p0 decides, dies mute
  RoundEngineOptions opt;
  opt.horizon = 6;
  const std::vector<Value> initial{5, 5, 5, 5, 0};
  const auto run =
      runRounds(cfgOf(5, 3), RoundModel::kRs,
                algorithmByName("EarlyFloodSet").factory, initial, script, opt);
  const UcVerdict v = checkUniformConsensus(run);
  EXPECT_TRUE(v.ok()) << v.witness << "\n" << run.toString();

  // The same script defeats the naive rule: p0's view is stable over rounds
  // 1-2, it decides the tunneled 0 and crashes; survivors decide 5.
  const auto naive = runRounds(
      cfgOf(5, 3), RoundModel::kRs,
      [](ProcessId) { return std::make_unique<NaiveEarlyFloodSet>(); },
      initial, script, opt);
  EXPECT_FALSE(checkUniformConsensus(naive).uniformAgreement)
      << naive.toString();
}

TEST(EarlyDecide, NaiveCleanPairRuleIsUnsafe) {
  McCheckOptions o = rsOptions(3, /*horizon=*/4);
  o.enumeration.maxScripts = 3000000;
  const auto r = modelCheckConsensus(
      [](ProcessId) { return std::make_unique<NaiveEarlyFloodSet>(); },
      cfgOf(5, 3), RoundModel::kRs, o);
  ASSERT_FALSE(r.ok()) << "expected the staggered-crash counterexample";
  EXPECT_FALSE(r.violations.front().verdict.uniformAgreement);
}

TEST(ExhaustiveRws, EarlyFloodSetWsCorrect) {
  // The shifted early-decision rule (f_r <= r-3) with the halt set solves
  // uniform consensus in RWS — exhaustive for (3,1), capped for (3,2) and
  // (4,2).
  {
    const auto r =
        modelCheckConsensus(algorithmByName("EarlyFloodSetWS").factory,
                            cfgOf(3, 1), RoundModel::kRws, rwsOptions(1));
    ASSERT_TRUE(r.ok()) << r.violations.front().verdict.witness << "\n"
                        << r.violations.front().runDump;
  }
  for (auto [n, t] : {std::pair<int, int>{3, 2}, {4, 2}}) {
    McCheckOptions o = rwsOptions(t, {1, 0}, t + 3);
    o.enumeration.maxScripts = 40000;
    const auto r =
        modelCheckConsensus(algorithmByName("EarlyFloodSetWS").factory,
                            cfgOf(n, t), RoundModel::kRws, o);
    ASSERT_TRUE(r.ok()) << "n=" << n << " t=" << t << ": "
                        << r.violations.front().verdict.witness << "\n"
                        << r.violations.front().runDump;
  }
}

TEST(ExhaustiveRws, EarlyFloodSetWsLatencyIsFPlus3) {
  // Lat(A, f) = min(f+3, t+1): the one-round price of weak round synchrony
  // at every failure count (t = 3 keeps f+3 below the fallback for f = 0;
  // the sweep is restricted to f <= 1 to stay fast — larger f hits the
  // t+1 fallback anyway).
  McCheckOptions o = rwsOptions(3, {1, 0}, /*horizon=*/6);
  o.enumeration.maxCrashes = 1;
  o.enumeration.maxScripts = 20000;
  const auto r =
      modelCheckConsensus(algorithmByName("EarlyFloodSetWS").factory,
                          cfgOf(5, 3), RoundModel::kRws, o);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.worstLatencyByCrashes.at(0), 3);  // failure-free: round 3
  EXPECT_LE(r.worstLatencyByCrashes.at(1), 4);  // one crash: by round 4
  // Compare: the RS rule decides failure-free runs at round 2.
  McCheckOptions rs = rsOptions(3, 6);
  rs.enumeration.maxCrashes = 0;
  const auto r2 = modelCheckConsensus(algorithmByName("EarlyFloodSet").factory,
                                      cfgOf(5, 3), RoundModel::kRs, rs);
  EXPECT_EQ(r2.worstLatencyByCrashes.at(0), 2);
}

TEST(ExhaustiveRws, UnshiftedEarlyRuleVIOLATESInRws) {
  // Ablation: transplanting the RS rule (f_r <= r-2, even with the halt
  // set) into RWS breaks uniform agreement — the same one-round trap that
  // defeats A1WS_candidate, now at a general t.
  McCheckOptions o = rwsOptions(2, {1, 0}, /*horizon=*/5);
  const auto r = modelCheckConsensus(makeEarlyFloodSetWsUnsafeCandidate(),
                                     cfgOf(3, 2), RoundModel::kRws, o);
  ASSERT_FALSE(r.ok()) << "expected the one-round-too-early violation";
  EXPECT_FALSE(r.violations.front().verdict.uniformAgreement);
}

// ------------------------- the Section 5.3 separation --------------------

TEST(Separation, A1AchievesLambda1InRs) {
  const auto r = modelCheckConsensus(algorithmByName("A1").factory,
                                     cfgOf(3, 1), RoundModel::kRs,
                                     rsOptions(1, 3));
  ASSERT_TRUE(r.ok());
  // Worst failure-free run decides in round 1.
  EXPECT_EQ(r.worstLatencyByCrashes.at(0), 1);
}

TEST(Separation, EveryRwsAlgorithmHasLambdaAtLeast2) {
  // For each RWS algorithm in the registry, check its worst FAILURE-FREE
  // run over all initial configs: none decides everyone at round 1 (except
  // on unanimous configs, which is why Lambda is a max over configs).
  for (const auto& entry : algorithmRegistry()) {
    if (entry.intendedModel != RoundModel::kRws) continue;
    const int t = 1;
    const int n = 3;
    if (entry.requiresTLe1 && t > 1) continue;
    McCheckOptions o = rwsOptions(t, {}, /*horizon=*/3);
    o.enumeration.maxCrashes = 0;  // failure-free runs only
    const auto r = modelCheckConsensus(entry.factory, cfgOf(n, t),
                                       RoundModel::kRws, o);
    // A1WS_candidate is incorrect, but latency is still measured; the
    // correct RWS algorithms must all have Lambda >= 2.
    if (entry.name == "A1WS_candidate") continue;
    ASSERT_TRUE(r.ok()) << entry.name;
    EXPECT_GE(r.worstLatencyByCrashes.at(0), 2)
        << entry.name << " beats the Lambda >= 2 bound?!";
  }
}

}  // namespace
}  // namespace ssvsp
