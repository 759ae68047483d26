// Tests for the static admissibility analyzer (src/lint): every documented
// diagnostic code fires on its seeded-invalid artifact (tests/data), the
// golden scenario library lints clean, the script-space estimate really
// bounds the enumerator, and the analyzers' preflight rejects inadmissible
// specs with structured diagnostics.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include "consensus/registry.hpp"
#include "latency/latency.hpp"
#include "lint/lint.hpp"
#include "mc/checker.hpp"
#include "mc/enumerator.hpp"

namespace ssvsp {
namespace {

RoundConfig cfgOf(int n, int t) {
  RoundConfig cfg;
  cfg.n = n;
  cfg.t = t;
  return cfg;
}

std::string readFile(const std::filesystem::path& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in) << "cannot open " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

DiagnosticSink lintDataFile(const std::string& name) {
  DiagnosticSink sink;
  lintScenarioText(readFile(std::filesystem::path(SSVSP_LINT_DATA_DIR) / name),
                   sink);
  return sink;
}

DiagnosticSink lintSpecDataFile(const std::string& name) {
  DiagnosticSink sink;
  lintSpecText(readFile(std::filesystem::path(SSVSP_LINT_DATA_DIR) / name),
               sink);
  return sink;
}

/// The single non-note diagnostic of a seeded artifact.
const Diagnostic& soleFinding(const DiagnosticSink& sink) {
  const Diagnostic* found = nullptr;
  int count = 0;
  for (const Diagnostic& d : sink.diagnostics()) {
    if (d.severity == Severity::kNote) continue;
    found = &d;
    ++count;
  }
  EXPECT_EQ(count, 1) << renderText(sink.diagnostics());
  static const Diagnostic none{};
  return found != nullptr ? *found : none;
}

// --- failure-script checks (in-memory artifacts) --------------------------

FailureScript crashAt(ProcessId p, Round r, ProcessSet sendTo) {
  FailureScript s;
  s.crashes.push_back({p, r, sendTo});
  return s;
}

TEST(LintScript, AdmissibleScriptIsClean) {
  DiagnosticSink sink;
  lintFailureScript(crashAt(0, 2, ProcessSet::full(3)), cfgOf(3, 1),
                    RoundModel::kRs, 3, sink);
  EXPECT_TRUE(sink.empty()) << renderText(sink.diagnostics());
}

TEST(LintScript, L100CrashUnknownProcess) {
  DiagnosticSink sink;
  lintFailureScript(crashAt(9, 1, {}), cfgOf(3, 1), RoundModel::kRs, 3, sink);
  EXPECT_EQ(soleFinding(sink).code, kDiagCrashUnknownProcess);
}

TEST(LintScript, L102CrashRoundOutOfRange) {
  DiagnosticSink sink;
  lintFailureScript(crashAt(0, 0, {}), cfgOf(3, 1), RoundModel::kRs, 3, sink);
  EXPECT_EQ(soleFinding(sink).code, kDiagCrashRoundOutOfRange);
}

TEST(LintScript, L103SendToOutsidePi) {
  DiagnosticSink sink;
  ProcessSet bad;
  bad.insert(5);
  lintFailureScript(crashAt(0, 1, bad), cfgOf(3, 1), RoundModel::kRs, 3,
                    sink);
  EXPECT_EQ(soleFinding(sink).code, kDiagSendToOutsidePi);
}

TEST(LintScript, L106PendingUnknownProcess) {
  FailureScript s;
  s.pendings.push_back({0, 9, 1, 2});
  DiagnosticSink sink;
  lintFailureScript(s, cfgOf(3, 1), RoundModel::kRws, 3, sink);
  EXPECT_EQ(soleFinding(sink).code, kDiagPendingUnknownProcess);
}

TEST(LintScript, L107PendingRoundOutOfRange) {
  FailureScript s;
  s.pendings.push_back({0, 1, 0, 2});
  DiagnosticSink sink;
  lintFailureScript(s, cfgOf(3, 1), RoundModel::kRws, 3, sink);
  EXPECT_EQ(soleFinding(sink).code, kDiagPendingRoundOutOfRange);
}

TEST(LintScript, L108ArrivalNotLater) {
  FailureScript s = crashAt(0, 2, ProcessSet::full(3));
  s.pendings.push_back({0, 1, 1, 1});
  DiagnosticSink sink;
  lintFailureScript(s, cfgOf(3, 1), RoundModel::kRws, 3, sink);
  EXPECT_EQ(soleFinding(sink).code, kDiagPendingArrivalNotLater);
}

TEST(LintScript, EmitsEveryViolationNotJustTheFirst) {
  // Two independent problems: a duplicate crash AND a pending in a script
  // whose sender never crashes (weak round synchrony).
  FailureScript s;
  s.crashes.push_back({0, 1, {}});
  s.crashes.push_back({0, 2, {}});
  s.pendings.push_back({1, 2, 1, 2});
  DiagnosticSink sink;
  lintFailureScript(s, cfgOf(3, 2), RoundModel::kRws, 3, sink);
  std::set<std::string> codes;
  for (const Diagnostic& d : sink.diagnostics()) codes.insert(d.code);
  EXPECT_TRUE(codes.count(std::string(kDiagDuplicateCrash)));
  EXPECT_TRUE(codes.count(std::string(kDiagWeakRoundSynchrony)));
}

TEST(LintScript, AgreesWithValidateScriptOnEnumeratedScripts) {
  // Every script the enumerator produces is accepted by validateScript;
  // the static lint must agree (no error-severity diagnostics).
  const RoundConfig cfg = cfgOf(3, 2);
  EnumOptions options;
  options.horizon = 3;
  options.maxCrashes = 2;
  options.pendingLags = {1, 0};
  options.maxScripts = 400;
  std::int64_t checked = 0;
  forEachScript(cfg, RoundModel::kRws, options,
                [&](const FailureScript& script) {
                  DiagnosticSink sink;
                  lintFailureScript(script, cfg, RoundModel::kRws,
                                    options.horizon, sink);
                  EXPECT_FALSE(sink.hasErrors())
                      << script.toString() << "\n"
                      << renderText(sink.diagnostics());
                  ++checked;
                  return true;
                });
  EXPECT_GT(checked, 100);
}

// --- explore-spec checks --------------------------------------------------

TEST(LintSpec, CleanSpecProducesNoDiagnostics) {
  ExploreSpec spec;
  spec.enumeration.maxCrashes = 1;
  DiagnosticSink sink;
  lintExploreSpec(spec, cfgOf(3, 1), RoundModel::kRs, sink);
  EXPECT_TRUE(sink.empty()) << renderText(sink.diagnostics());
}

TEST(LintSpec, L200ConfigOutOfRange) {
  DiagnosticSink sink;
  lintExploreSpec(ExploreSpec{}, cfgOf(3, 3), RoundModel::kRs, sink);
  EXPECT_EQ(soleFinding(sink).code, kDiagConfigOutOfRange);
}

TEST(LintSpec, L201CrashBoundVsConfig) {
  ExploreSpec spec;
  spec.enumeration.maxCrashes = 5;
  DiagnosticSink sink;
  lintExploreSpec(spec, cfgOf(3, 1), RoundModel::kRs, sink);
  EXPECT_EQ(soleFinding(sink).code, kDiagCrashBoundVsConfig);
}

TEST(LintSpec, L202EmptyValueDomain) {
  ExploreSpec spec;
  spec.valueDomain = 0;
  DiagnosticSink sink;
  lintExploreSpec(spec, cfgOf(3, 1), RoundModel::kRs, sink);
  EXPECT_EQ(soleFinding(sink).code, kDiagEmptyValueDomain);
}

TEST(LintSpec, L203DegenerateValueDomain) {
  ExploreSpec spec;
  spec.valueDomain = 1;
  DiagnosticSink sink;
  lintExploreSpec(spec, cfgOf(3, 1), RoundModel::kRs, sink);
  const Diagnostic& d = soleFinding(sink);
  EXPECT_EQ(d.code, kDiagDegenerateValueDomain);
  EXPECT_EQ(d.severity, Severity::kWarning);
}

TEST(LintSpec, L204PendingLagsInRs) {
  ExploreSpec spec;
  spec.enumeration.pendingLags = {1};
  DiagnosticSink sink;
  lintExploreSpec(spec, cfgOf(3, 1), RoundModel::kRs, sink);
  EXPECT_EQ(soleFinding(sink).code, kDiagPendingLagsInRs);
}

TEST(LintSpec, L205NegativePendingLag) {
  ExploreSpec spec;
  spec.enumeration.pendingLags = {-1};
  DiagnosticSink sink;
  lintExploreSpec(spec, cfgOf(3, 1), RoundModel::kRws, sink);
  EXPECT_EQ(soleFinding(sink).code, kDiagNegativePendingLag);
}

TEST(LintSpec, L206DuplicatePendingLag) {
  ExploreSpec spec;
  spec.enumeration.pendingLags = {1, 1};
  DiagnosticSink sink;
  lintExploreSpec(spec, cfgOf(3, 1), RoundModel::kRws, sink);
  EXPECT_EQ(soleFinding(sink).code, kDiagDuplicatePendingLag);
}

TEST(LintSpec, L207HorizonOutOfRange) {
  ExploreSpec spec;
  spec.enumeration.horizon = 0;
  DiagnosticSink sink;
  lintExploreSpec(spec, cfgOf(3, 1), RoundModel::kRs, sink);
  EXPECT_EQ(soleFinding(sink).code, kDiagHorizonOutOfRange);
}

TEST(LintSpec, L208ScriptSpaceOverBudget) {
  ExploreSpec spec;
  spec.enumeration.horizon = 4;
  spec.enumeration.maxCrashes = 2;
  spec.enumeration.pendingLags = {1, 2, 0};
  DiagnosticSink sink;
  SweepLintOptions tight;
  tight.scriptBudget = 1000;
  lintExploreSpec(spec, cfgOf(4, 2), RoundModel::kRws, sink, tight);
  EXPECT_EQ(soleFinding(sink).code, kDiagScriptSpaceOverBudget);
}

TEST(LintSpec, L209AndL210EngineKnobWarnings) {
  ExploreSpec spec;
  spec.chunkScripts = 0;
  spec.threads = -2;
  DiagnosticSink sink;
  lintExploreSpec(spec, cfgOf(3, 1), RoundModel::kRs, sink);
  std::set<std::string> codes;
  for (const Diagnostic& d : sink.diagnostics()) codes.insert(d.code);
  EXPECT_TRUE(codes.count(std::string(kDiagChunkScriptsClamped)));
  EXPECT_TRUE(codes.count(std::string(kDiagThreadsNegative)));
  EXPECT_FALSE(sink.hasErrors());
}

TEST(LintSpec, L211LagPastHorizon) {
  ExploreSpec spec;
  spec.enumeration.horizon = 2;
  spec.enumeration.pendingLags = {3};
  DiagnosticSink sink;
  lintExploreSpec(spec, cfgOf(3, 1), RoundModel::kRws, sink);
  EXPECT_EQ(soleFinding(sink).code, kDiagLagPastHorizon);
}

TEST(LintSpec, EstimateBoundsTheEnumeratorCount) {
  struct Case {
    int n, t;
    RoundModel model;
    std::vector<int> lags;
  };
  const std::vector<Case> cases = {
      {3, 1, RoundModel::kRs, {}},
      {3, 2, RoundModel::kRs, {}},
      {3, 1, RoundModel::kRws, {1, 0}},
      {3, 2, RoundModel::kRws, {1}},
  };
  for (const Case& c : cases) {
    EnumOptions options;
    options.horizon = 3;
    options.maxCrashes = c.t;
    options.pendingLags = c.lags;
    const RoundConfig cfg = cfgOf(c.n, c.t);
    const std::int64_t exact = countScripts(cfg, c.model, options);
    const std::int64_t bound = estimateScriptSpace(cfg, c.model, options);
    EXPECT_GE(bound, exact) << "n=" << c.n << " t=" << c.t;
    EXPECT_GT(exact, 0);
  }
}

TEST(LintSpec, EstimateSaturatesInsteadOfOverflowing) {
  EnumOptions options;
  options.horizon = 10;
  options.maxCrashes = 30;
  options.pendingLags = {1, 2, 3};
  EXPECT_EQ(estimateScriptSpace(cfgOf(64, 31), RoundModel::kRws, options),
            kScriptSpaceSaturated);
}

// Regression at n = kMaxProcs = 64: a single crasher already contributes a
// 2^(n-1) = 2^63 partial-send factor, exactly one doubling past INT64_MAX.
// A wrapping estimate would come out negative (or tiny) and sail under the
// budget; the saturating arithmetic must pin it at kScriptSpaceSaturated.
TEST(LintSpec, EstimateAtMaxProcsSingleCrashSaturatesNotWraps) {
  EnumOptions options;
  options.horizon = 1;     // minimal horizon isolates the 2^63 factor
  options.maxCrashes = 1;  // one crasher: estimate = 1 + C(64,1) * 2^63
  const std::int64_t estimate =
      estimateScriptSpace(cfgOf(64, 1), RoundModel::kRs, options);
  EXPECT_EQ(estimate, kScriptSpaceSaturated);
  EXPECT_GT(estimate, 0) << "a wrapped estimate would be negative";
}

TEST(LintSpec, L208FiresAtMaxProcsDespiteOverflowingClosedForm) {
  // The budget comparison behind L208 — the reason the estimate exists —
  // must see the saturated value, not a wrapped one that re-enters the
  // budget.  n = 64 with the canonical RWS menu is the worst case.
  ExploreSpec spec;
  spec.enumeration.horizon = 4;
  spec.enumeration.maxCrashes = 2;
  spec.enumeration.pendingLags = {1, 0};
  DiagnosticSink sink;
  lintExploreSpec(spec, cfgOf(64, 2), RoundModel::kRws, sink);
  EXPECT_EQ(soleFinding(sink).code, kDiagScriptSpaceOverBudget);
  EXPECT_NE(soleFinding(sink).message.find("2^63"), std::string::npos)
      << soleFinding(sink).message;
}

TEST(SaturatingArithmetic, StickySaturationAndDomainClamps) {
  // The shared helpers of util/saturating.hpp, at their edges.
  EXPECT_EQ(satAdd(kSatI64Max, kSatI64Max), kSatI64Max);
  EXPECT_EQ(satAdd(kSatI64Max - 1, 1), kSatI64Max);
  EXPECT_EQ(satAdd(kSatI64Max - 1, 0), kSatI64Max - 1);
  EXPECT_EQ(satMul(kSatI64Max, 2), kSatI64Max);
  EXPECT_EQ(satMul(kSatI64Max / 2 + 1, 2), kSatI64Max);
  EXPECT_EQ(satMul(kSatI64Max / 2, 2), kSatI64Max - 1);
  EXPECT_EQ(satMul(kSatI64Max, 0), 0);
  EXPECT_EQ(satPow(2, 62), std::int64_t{1} << 62);
  EXPECT_EQ(satPow(2, 63), kSatI64Max);  // the n = 64 factor
  EXPECT_EQ(satPow(2, 200), kSatI64Max);
  EXPECT_EQ(satPow(1, 1000000), 1);
  EXPECT_EQ(satPow(0, 5), 0);
  // Out-of-domain operands degrade to empty counts, never to UB.
  EXPECT_EQ(satAdd(-5, 3), 3);
  EXPECT_EQ(satMul(-5, 3), 0);
  EXPECT_EQ(satPow(2, -1), 1);
}

TEST(LintSpec, EstimateRespectsMaxScriptsCap) {
  EnumOptions options;
  options.horizon = 5;
  options.maxCrashes = 2;
  options.maxScripts = 1234;
  EXPECT_LE(estimateScriptSpace(cfgOf(5, 2), RoundModel::kRs, options), 1234);
}

// --- seeded-invalid artifacts (tests/data) --------------------------------

struct SeededCase {
  const char* file;
  std::string_view code;
  Severity severity;
};

TEST(LintData, EachSeededArtifactProducesItsDocumentedCode) {
  const std::vector<SeededCase> cases = {
      {"L101_duplicate_crash.txt", kDiagDuplicateCrash, Severity::kError},
      {"L104_crash_bound.txt", kDiagCrashBoundExceeded, Severity::kError},
      {"L105_rs_with_pending.txt", kDiagPendingInRs, Severity::kError},
      {"L109_crashed_sender_pends_later.txt", kDiagCrashedSenderSendsLater,
       Severity::kError},
      {"L110_pending_never_sent.txt", kDiagPendingNeverSent,
       Severity::kError},
      {"L111_wrs_violation.txt", kDiagWeakRoundSynchrony, Severity::kError},
      {"L112_duplicate_pending.txt", kDiagDuplicatePending, Severity::kError},
      {"L113_arrival_past_horizon.txt", kDiagArrivalPastHorizon,
       Severity::kWarning},
      {"L114_crash_past_horizon.txt", kDiagCrashPastHorizon,
       Severity::kWarning},
      {"L300_bad_integer.txt", kDiagParseError, Severity::kError},
      {"L301_unknown_directive.txt", kDiagUnknownDirective, Severity::kError},
      {"L302_unknown_algorithm.txt", kDiagUnknownAlgorithm, Severity::kError},
      {"L303_values_mismatch.txt", kDiagValueCountMismatch, Severity::kError},
      {"L304_unknown_model.txt", kDiagUnknownModel, Severity::kError},
      {"L306_missing_t.txt", kDiagMissingDirective, Severity::kError},
      {"L307_process_out_of_range.txt", kDiagProcessIdOutOfRange,
       Severity::kError},
  };
  for (const SeededCase& c : cases) {
    SCOPED_TRACE(c.file);
    const DiagnosticSink sink = lintDataFile(c.file);
    const Diagnostic& d = soleFinding(sink);
    EXPECT_EQ(d.code, c.code);
    EXPECT_EQ(d.severity, c.severity);
  }
}

TEST(LintData, EachSeededSpecProducesItsDocumentedCode) {
  const std::vector<SeededCase> cases = {
      {"L200_config_out_of_range.spec", kDiagConfigOutOfRange,
       Severity::kError},
      {"L201_crash_bound_vs_config.spec", kDiagCrashBoundVsConfig,
       Severity::kError},
      {"L202_empty_value_domain.spec", kDiagEmptyValueDomain,
       Severity::kError},
      {"L203_degenerate_value_domain.spec", kDiagDegenerateValueDomain,
       Severity::kWarning},
      {"L204_lags_in_rs.spec", kDiagPendingLagsInRs, Severity::kWarning},
      {"L205_negative_lag.spec", kDiagNegativePendingLag, Severity::kError},
      {"L206_duplicate_lag.spec", kDiagDuplicatePendingLag,
       Severity::kWarning},
      {"L207_horizon_out_of_range.spec", kDiagHorizonOutOfRange,
       Severity::kError},
      {"L208_script_space_over_budget.spec", kDiagScriptSpaceOverBudget,
       Severity::kWarning},
      {"L209_chunk_clamped.spec", kDiagChunkScriptsClamped,
       Severity::kWarning},
      {"L210_threads_negative.spec", kDiagThreadsNegative, Severity::kWarning},
      {"L211_lag_past_horizon.spec", kDiagLagPastHorizon, Severity::kWarning},
      {"L212_parse_error.spec", kDiagSpecParseError, Severity::kError},
  };
  for (const SeededCase& c : cases) {
    SCOPED_TRACE(c.file);
    const DiagnosticSink sink = lintSpecDataFile(c.file);
    const Diagnostic& d = soleFinding(sink);
    EXPECT_EQ(d.code, c.code);
    EXPECT_EQ(d.severity, c.severity);
  }
}

TEST(LintData, ParseDiagnosticsCarryLineAndColumn) {
  // "frobnicate 7" sits on line 6 (after the comment header), column 1.
  {
    const DiagnosticSink sink = lintDataFile("L301_unknown_directive.txt");
    const Diagnostic& d = soleFinding(sink);
    EXPECT_EQ(d.location.line, 6);
    EXPECT_EQ(d.location.column, 1);
  }
  // "algorithm Paxos": the offending token starts at column 11 of line 3.
  {
    const DiagnosticSink sink = lintDataFile("L302_unknown_algorithm.txt");
    const Diagnostic& d = soleFinding(sink);
    EXPECT_EQ(d.location.line, 3);
    EXPECT_EQ(d.location.column, 11);
  }
}

TEST(LintData, GoldenScenariosLintWithoutErrorsOrWarnings) {
  int linted = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(SSVSP_SCENARIO_DIR)) {
    if (entry.path().extension() != ".txt") continue;
    SCOPED_TRACE(entry.path().string());
    DiagnosticSink sink;
    const ScenarioLintResult result =
        lintScenarioText(readFile(entry.path()), sink);
    EXPECT_TRUE(result.parsed);
    EXPECT_EQ(sink.errorCount(), 0) << renderText(sink.diagnostics());
    EXPECT_EQ(sink.warningCount(), 0) << renderText(sink.diagnostics());
    ++linted;
  }
  EXPECT_GE(linted, 7);
}

TEST(LintData, CounterexampleScenarioGetsModelMismatchNote) {
  DiagnosticSink sink;
  lintScenarioText(
      readFile(std::filesystem::path(SSVSP_SCENARIO_DIR) /
               "floodset_rws_disagreement.txt"),
      sink);
  bool noted = false;
  for (const Diagnostic& d : sink.diagnostics())
    if (d.code == kDiagAlgorithmModelMismatch &&
        d.severity == Severity::kNote)
      noted = true;
  EXPECT_TRUE(noted) << renderText(sink.diagnostics());
}

TEST(LintReplay, L311CrashBeyondReplayableHorizon) {
  // horizon 3 => the transport harness runs exactly 3 rounds; a crash
  // scripted for round 5 could never fire and the replay verdict would
  // silently check a different failure pattern than the file claims.
  const auto parsed = parseScenario(
      "model rws\nalgorithm FloodSetWS\nn 3\nt 1\nvalues 0 1 1\n"
      "horizon 3\ncrash 0 round 5 sendto none\n");
  ASSERT_TRUE(parsed.ok) << parsed.error;
  DiagnosticSink sink;
  lintScenarioForReplay(parsed.scenario, /*maxRounds=*/0, sink);
  ASSERT_EQ(sink.errorCount(), 1) << renderText(sink.diagnostics());
  EXPECT_EQ(sink.diagnostics()[0].code, kDiagCrashBeyondReplayHorizon);

  // An explicit maxRounds override extends the replayable window.
  DiagnosticSink relaxed;
  lintScenarioForReplay(parsed.scenario, /*maxRounds=*/5, relaxed);
  EXPECT_EQ(relaxed.errorCount(), 0) << renderText(relaxed.diagnostics());
}

TEST(LintReplay, L312PendingChoicesAreAdvisoryNote) {
  const auto parsed = parseScenario(
      "model rws\nalgorithm FloodSetWS\nn 3\nt 1\nvalues 0 1 1\n"
      "horizon 3\ncrash 0 round 2 sendto none\n"
      "pending 0 -> 1 round 1 arrival 2\n");
  ASSERT_TRUE(parsed.ok) << parsed.error;
  DiagnosticSink sink;
  lintScenarioForReplay(parsed.scenario, /*maxRounds=*/0, sink);
  EXPECT_EQ(sink.errorCount(), 0) << renderText(sink.diagnostics());
  bool noted = false;
  for (const Diagnostic& d : sink.diagnostics())
    if (d.code == kDiagPendingAdvisoryInReplay && d.severity == Severity::kNote)
      noted = true;
  EXPECT_TRUE(noted) << renderText(sink.diagnostics());
}

TEST(LintReplay, InWindowScriptIsClean) {
  const auto parsed = parseScenario(
      readFile(std::filesystem::path(SSVSP_SCENARIO_DIR) /
               "floodsetws_net_replay.txt"));
  ASSERT_TRUE(parsed.ok) << parsed.error;
  DiagnosticSink sink;
  lintScenarioForReplay(parsed.scenario, /*maxRounds=*/0, sink);
  EXPECT_TRUE(sink.diagnostics().empty()) << renderText(sink.diagnostics());
}

// --- spec-text parsing and fail thresholds --------------------------------

TEST(LintSpecText, ParsesKeysCommentsAndSeparators) {
  RoundConfig cfg;
  RoundModel model = RoundModel::kRs;
  ExploreSpec spec;
  std::string problem;
  const std::string text =
      "# header comment\n"
      "n=4, t=2\tmodel=rws\n"
      "horizon=5 maxCrashes=2 lags=1:2:0  # trailing comment\n"
      "maxScripts=999 domain=3 threads=4 chunk=32\n";
  ASSERT_TRUE(parseSweepSpecText(text, &cfg, &model, &spec, &problem))
      << problem;
  EXPECT_EQ(cfg.n, 4);
  EXPECT_EQ(cfg.t, 2);
  EXPECT_EQ(model, RoundModel::kRws);
  EXPECT_EQ(spec.enumeration.horizon, 5);
  EXPECT_EQ(spec.enumeration.maxCrashes, 2);
  EXPECT_EQ(spec.enumeration.pendingLags, (std::vector<int>{1, 2, 0}));
  EXPECT_EQ(spec.enumeration.maxScripts, 999);
  EXPECT_EQ(spec.valueDomain, 3);
  EXPECT_EQ(spec.threads, 4);
  EXPECT_EQ(spec.chunkScripts, 32);
}

TEST(LintSpecText, ParsesReductionModes) {
  RoundConfig cfg;
  RoundModel model = RoundModel::kRs;
  ExploreSpec spec;
  std::string problem;
  ASSERT_TRUE(parseSweepSpecText("n=3 t=1 reduction=symmetry_por", &cfg,
                                 &model, &spec, &problem))
      << problem;
  EXPECT_EQ(spec.reduction, Reduction::kSymmetryPor);
  ASSERT_TRUE(parseSweepSpecText("n=3 t=1 reduction=none", &cfg, &model,
                                 &spec, &problem));
  EXPECT_EQ(spec.reduction, Reduction::kNone);
  // The retired symmetry-only mode is refused by name, with its
  // replacement, not reinterpreted.
  EXPECT_FALSE(parseSweepSpecText("n=3 t=1 reduction=symmetry", &cfg, &model,
                                  &spec, &problem));
  EXPECT_NE(problem.find("'symmetry' was retired"), std::string::npos)
      << problem;
  EXPECT_NE(problem.find("symmetry_por"), std::string::npos) << problem;
  EXPECT_FALSE(parseSweepSpecText("n=3 t=1 reduction=dpor", &cfg, &model,
                                  &spec, &problem));
  EXPECT_NE(problem.find("reduction"), std::string::npos) << problem;
}

TEST(LintSpecText, RejectsMissingConfigAndBadTokens) {
  RoundConfig cfg;
  RoundModel model = RoundModel::kRs;
  ExploreSpec spec;
  std::string problem;
  EXPECT_FALSE(parseSweepSpecText("n=3", &cfg, &model, &spec, &problem));
  EXPECT_NE(problem.find("n= and t="), std::string::npos) << problem;
  EXPECT_FALSE(
      parseSweepSpecText("n=3 t=1 bogus", &cfg, &model, &spec, &problem));
  EXPECT_FALSE(
      parseSweepSpecText("n=3 t=1 model=async", &cfg, &model, &spec,
                         &problem));
  EXPECT_FALSE(
      parseSweepSpecText("n=3 t=x", &cfg, &model, &spec, &problem));
}

TEST(LintSpecText, CommentDoesNotSwallowFollowingLines) {
  // A '#' ends its own line only; later lines still parse.
  DiagnosticSink sink;
  lintSpecText("# all of this is comment\nn=3 t=3\n", sink);
  EXPECT_EQ(soleFinding(sink).code, kDiagConfigOutOfRange);
}

TEST(LintFailOn, ParseAndThreshold) {
  FailOn failOn = FailOn::kError;
  EXPECT_TRUE(parseFailOn("warning", &failOn));
  EXPECT_EQ(failOn, FailOn::kWarning);
  EXPECT_TRUE(parseFailOn("error", &failOn));
  EXPECT_EQ(failOn, FailOn::kError);
  EXPECT_FALSE(parseFailOn("note", &failOn));

  DiagnosticSink warnings;
  warnings.report("L203", Severity::kWarning, "degenerate domain", "");
  EXPECT_FALSE(failsThreshold(warnings, FailOn::kError));
  EXPECT_TRUE(failsThreshold(warnings, FailOn::kWarning));

  DiagnosticSink errors;
  errors.report("L200", Severity::kError, "bad config", "");
  EXPECT_TRUE(failsThreshold(errors, FailOn::kError));
  EXPECT_TRUE(failsThreshold(errors, FailOn::kWarning));

  DiagnosticSink notes;
  notes.report("L402", Severity::kNote, "dead rounds", "");
  EXPECT_FALSE(failsThreshold(notes, FailOn::kWarning));
}

// --- renderers and the code registry --------------------------------------

TEST(LintRender, TextAndJsonFormats) {
  DiagnosticSink sink;
  sink.report("L301", Severity::kError, "unknown directive 'x'", "drop it",
              {6, 1});
  const std::string text = renderText(sink.diagnostics(), "file.txt");
  EXPECT_NE(text.find("file.txt:6:1: error L301: unknown directive 'x'"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("[hint: drop it]"), std::string::npos);

  const std::string json = renderJson(sink.diagnostics(), "file.txt");
  EXPECT_NE(json.find("\"code\":\"L301\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"severity\":\"error\""), std::string::npos);
  EXPECT_NE(json.find("\"line\":6"), std::string::npos);
  EXPECT_NE(json.find("\"artifact\":\"file.txt\""), std::string::npos);
}

TEST(LintRender, JsonEscapesQuotesAndControlChars) {
  DiagnosticSink sink;
  sink.report("L300", Severity::kError, "bad \"value\"\n", "");
  const std::string json = renderJson(sink.diagnostics());
  EXPECT_NE(json.find("bad \\\"value\\\"\\n"), std::string::npos) << json;
}

TEST(LintCodes, TableIsUniqueAndSorted) {
  const auto& table = diagCodeTable();
  ASSERT_FALSE(table.empty());
  for (std::size_t i = 1; i < table.size(); ++i)
    EXPECT_LT(table[i - 1].code, table[i].code) << table[i].code;
}

// --- preflight contract ---------------------------------------------------

TEST(Preflight, ModelCheckerRejectsInadmissibleSpecBeforeSweeping) {
  McCheckOptions options;
  options.enumeration.maxCrashes = 5;  // > t
  try {
    modelCheckConsensus(algorithmByName("FloodSet").factory, cfgOf(3, 1),
                        RoundModel::kRs, options);
    FAIL() << "expected PreflightError";
  } catch (const PreflightError& e) {
    ASSERT_FALSE(e.diagnostics().empty());
    EXPECT_EQ(e.diagnostics()[0].code, kDiagCrashBoundVsConfig);
    EXPECT_NE(std::string(e.what()).find("L201"), std::string::npos);
  }
}

TEST(Preflight, LatencyAnalyzerRejectsInadmissibleSpecBeforeSweeping) {
  LatencyOptions options;
  options.valueDomain = 0;
  EXPECT_THROW(measureLatency(algorithmByName("FloodSet").factory,
                              cfgOf(3, 1), RoundModel::kRs, options),
               PreflightError);
}

TEST(Preflight, PreflightErrorIsAnInvariantViolation) {
  // Pre-lint callers that caught InvariantViolation keep working.
  LatencyOptions options;
  options.enumeration.horizon = 0;
  EXPECT_THROW(measureLatency(algorithmByName("FloodSet").factory,
                              cfgOf(3, 1), RoundModel::kRs, options),
               InvariantViolation);
}

TEST(Preflight, WarningsDoNotBlockTheSweep) {
  // Degenerate domain is a warning: the sweep still runs (and trivially
  // agrees).
  McCheckOptions options;
  options.valueDomain = 1;
  options.enumeration.maxCrashes = 1;
  const McReport report = modelCheckConsensus(
      algorithmByName("FloodSet").factory, cfgOf(3, 1), RoundModel::kRs,
      options);
  EXPECT_TRUE(report.ok());
  EXPECT_GT(report.runsExecuted, 0);
}

TEST(Preflight, SinkReceivesWarningsWithoutThrowing) {
  ExploreSpec spec;
  spec.valueDomain = 1;
  DiagnosticSink sink;
  preflightSweep(cfgOf(3, 1), RoundModel::kRs, spec, {}, &sink);
  EXPECT_EQ(sink.warningCount(), 1);
  EXPECT_FALSE(sink.hasErrors());
}

}  // namespace
}  // namespace ssvsp
