// Tests for the abstract-interpretation bound analyzer (src/analysis): the
// derived latency degrees reproduce the golden theorem table for every
// algorithm with a contract, the closed-form fitter recovers the paper's
// shapes, the structural findings L401-L403 fire exactly where the
// automata warrant them, and the model checker's latency-bound hook turns
// an asserted bound into a checkable property.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>

#include "analysis/analysis.hpp"
#include "analysis/golden.hpp"
#include "consensus/registry.hpp"
#include "lint/codes.hpp"
#include "mc/checker.hpp"

namespace ssvsp {
namespace {

/// One analysis per algorithm, shared across tests (the abstract sweep of
/// all 11 algorithms takes seconds; running it once keeps the suite fast).
const std::map<std::string, AnalysisReport>& reports() {
  static const std::map<std::string, AnalysisReport> cache = [] {
    std::map<std::string, AnalysisReport> out;
    for (const AnalysisReport& r : analyzeAllAlgorithms())
      out.emplace(r.algorithm, r);
    return out;
  }();
  return cache;
}

const AnalysisReport& reportFor(const std::string& name) {
  const auto it = reports().find(name);
  EXPECT_NE(it, reports().end()) << name << " not in the registry";
  return it->second;
}

bool hasCode(const DiagnosticSink& sink, std::string_view code) {
  for (const Diagnostic& d : sink.diagnostics())
    if (d.code == code) return true;
  return false;
}

// --- derived bounds vs the golden theorem table ---------------------------

TEST(Analysis, DerivedBoundsMatchTheGoldenTableExactly) {
  int checked = 0;
  for (const GoldenBoundsRow& row : goldenBoundsTable()) {
    SCOPED_TRACE(row.name);
    const AnalysisReport& r = reportFor(row.name);
    EXPECT_EQ(r.cfg.n, row.n);
    EXPECT_EQ(r.cfg.t, row.t);
    EXPECT_EQ(r.derived.lat, row.lat);
    EXPECT_EQ(r.derived.latMax, row.latMax);
    EXPECT_EQ(r.derived.lambda, row.lambda);
    ASSERT_EQ(r.derived.byMaxCrashes.size(), row.latByF.size());
    for (std::size_t f = 0; f < row.latByF.size(); ++f)
      EXPECT_EQ(r.derived.byMaxCrashes[f].latest, row.latByF[f])
          << "Lat(A, " << f << ")";
    ++checked;
  }
  EXPECT_EQ(checked, 10);  // every algorithm except A1WS_candidate
}

TEST(Analysis, NoDeclaredAlgorithmProducesABoundMismatch) {
  for (const auto& [name, r] : reports()) {
    SCOPED_TRACE(name);
    EXPECT_FALSE(hasCode(r.sink, kDiagBoundMismatch))
        << renderText(r.sink.diagnostics());
    EXPECT_TRUE(r.ok());
  }
}

TEST(Analysis, EarlyFloodSetFitsThePaperFPlus2Form) {
  const AnalysisReport& r = reportFor("EarlyFloodSet");
  ASSERT_TRUE(r.closedForm.has_value());
  EXPECT_EQ(*r.closedForm, boundFPlusCapped(2));
  EXPECT_NE(r.closedForm->toString().find("f + 2"), std::string::npos);
}

TEST(Analysis, COptFloodSetDecidesInRoundOneSomewhere) {
  EXPECT_EQ(reportFor("C_OptFloodSet").derived.lat, 1);
  EXPECT_EQ(reportFor("C_OptFloodSet").derived.latMax, 3);
}

TEST(Analysis, A1WSCandidateHasANonTerminatingRunUnderRws) {
  // The paper's point: A1's decision rule is unsound under weak round
  // synchrony.  The abstract sweep finds the witness (a run where p3 misses
  // x1 and halt-filters everyone else), so Lat at f = 1 is unbounded.
  const AnalysisReport& r = reportFor("A1WS_candidate");
  ASSERT_EQ(r.derived.byMaxCrashes.size(), 2u);
  EXPECT_EQ(r.derived.byMaxCrashes[0].latest, 1);
  EXPECT_EQ(r.derived.byMaxCrashes[1].latest, kNoRound);
  EXPECT_FALSE(r.closedForm.has_value());
  EXPECT_FALSE(r.declared.has_value());  // claims nothing, so no L400
}

// --- structural findings --------------------------------------------------

TEST(Analysis, StructuralNotesFireWhereTheAutomataWarrantThem) {
  // L401: A1 decides in round 1 from p1's message alone (below n - t).
  EXPECT_TRUE(hasCode(reportFor("A1").sink, kDiagDecideBelowQuorum));
  EXPECT_FALSE(hasCode(reportFor("FloodSet").sink, kDiagDecideBelowQuorum));

  // L402: FloodSet's estimates stabilize a round before its fixed decision
  // round; EarlyFloodSet's early-stopping rule removes the dead round.
  EXPECT_TRUE(hasCode(reportFor("FloodSet").sink, kDiagDeadEstimateRounds));
  EXPECT_TRUE(
      hasCode(reportFor("C_OptFloodSet").sink, kDiagDeadEstimateRounds));
  EXPECT_FALSE(
      hasCode(reportFor("EarlyFloodSet").sink, kDiagDeadEstimateRounds));

  // L403: C_OptFloodSet keeps broadcasting after its round-1 fast path
  // decided; FloodSet never decides before its last sending round.
  EXPECT_TRUE(
      hasCode(reportFor("C_OptFloodSet").sink, kDiagMessageAfterDecision));
  EXPECT_FALSE(
      hasCode(reportFor("FloodSet").sink, kDiagMessageAfterDecision));

  // L404 is a tripwire: no registry algorithm exceeds the 2 f (n - 1)
  // pending backlog of the RWS model.
  for (const auto& [name, r] : reports()) {
    SCOPED_TRACE(name);
    EXPECT_FALSE(hasCode(r.sink, kDiagPendingBoundExceeded));
  }
}

TEST(Analysis, StructuralFindingsAreNotesNotErrors) {
  for (const auto& [name, r] : reports()) {
    for (const Diagnostic& d : r.sink.diagnostics()) {
      if (d.code == kDiagDecideBelowQuorum ||
          d.code == kDiagDeadEstimateRounds ||
          d.code == kDiagMessageAfterDecision) {
        EXPECT_EQ(d.severity, Severity::kNote) << name << " " << d.code;
      }
    }
  }
}

// --- the closed-form fitter ----------------------------------------------

TEST(Analysis, FitClosedFormRecoversThePaperShapes) {
  EXPECT_EQ(fitClosedForm({3, 3, 3}, 2), boundTPlus(1));
  EXPECT_EQ(fitClosedForm({1, 1, 1}, 2), boundConst(1));
  EXPECT_EQ(fitClosedForm({2, 3, 3}, 2), boundFPlusCapped(2));
  EXPECT_EQ(fitClosedForm({1, 2, 3}, 2), boundFPlusCapped(1));
  EXPECT_EQ(fitClosedForm({1, 2}, 1), boundFPlusCapped(1));
}

TEST(Analysis, FitClosedFormRejectsNonPaperShapes) {
  EXPECT_EQ(fitClosedForm({1, 3}, 1), std::nullopt);   // jumps past f + c
  EXPECT_EQ(fitClosedForm({3, 2, 1}, 2), std::nullopt);  // decreasing
  EXPECT_EQ(fitClosedForm({1, kNoRound}, 1), std::nullopt);  // unbounded
  EXPECT_EQ(fitClosedForm({}, 0), std::nullopt);
}

// --- the abstract domain itself -------------------------------------------

TEST(Analysis, CanonicalConfigsQuotientTheValueRelabeling) {
  const auto configs = canonicalConfigs(4);
  EXPECT_EQ(configs.size(), 8u);  // 2^(n-1)
  for (const auto& c : configs) {
    ASSERT_EQ(c.size(), 4u);
    EXPECT_EQ(c[0], 0);  // the canonical representative fixes p1's value
  }
}

TEST(Analysis, ScheduleCellsAreLegalAndDeduplicated) {
  const RoundConfig cfg{4, 2};
  std::set<std::string> seen;
  for (const FailureScript& s : enumerateScheduleCells(cfg, RoundModel::kRws)) {
    EXPECT_TRUE(validateScript(s, cfg, RoundModel::kRws).ok)
        << s.toString();
    EXPECT_TRUE(seen.insert(s.toString()).second)
        << "duplicate cell " << s.toString();
  }
  // The RWS cell space strictly refines the RS one (pending shapes).
  EXPECT_GT(seen.size(),
            enumerateScheduleCells(cfg, RoundModel::kRs).size());
}

// --- the pooled interpreter -----------------------------------------------

TEST(Analysis, InterpreterBoundsAreTheSameWithAndWithoutAnObserver) {
  // Both paths resume each cell from the pooled engine's checkpoint chain;
  // they differ only in tracing: with an observer every run's deliveries
  // are traced.  The two paths must agree on every field.
  for (const AlgorithmEntry& entry : algorithmRegistry()) {
    const RoundConfig cfg = canonicalAnalysisConfig(entry);
    std::int64_t observed = 0;
    const AbstractBounds traced =
        interpretAutomaton(entry, cfg, [&](const RoundRunResult& run) {
          ++observed;
          EXPECT_TRUE(run.automata.empty());
        });
    const AbstractBounds untraced = interpretAutomaton(entry, cfg);
    SCOPED_TRACE(entry.name);
    EXPECT_EQ(observed, traced.runs);
    EXPECT_EQ(traced.cfg.n, untraced.cfg.n);
    EXPECT_EQ(traced.cfg.t, untraced.cfg.t);
    EXPECT_EQ(traced.model, untraced.model);
    EXPECT_EQ(traced.lat, untraced.lat);
    EXPECT_EQ(traced.latMax, untraced.latMax);
    EXPECT_EQ(traced.lambda, untraced.lambda);
    EXPECT_EQ(traced.cells, untraced.cells);
    EXPECT_EQ(traced.runs, untraced.runs);
    ASSERT_EQ(traced.byMaxCrashes.size(), untraced.byMaxCrashes.size());
    for (std::size_t f = 0; f < traced.byMaxCrashes.size(); ++f) {
      const PerBudgetBounds& a = traced.byMaxCrashes[f];
      const PerBudgetBounds& b = untraced.byMaxCrashes[f];
      EXPECT_EQ(a.earliest, b.earliest) << "f = " << f;
      EXPECT_EQ(a.latest, b.latest) << "f = " << f;
      EXPECT_EQ(a.maxMsgsPerRound, b.maxMsgsPerRound) << "f = " << f;
      EXPECT_EQ(a.quiescence, b.quiescence) << "f = " << f;
      EXPECT_EQ(a.peakPendingInFlight, b.peakPendingInFlight) << "f = " << f;
    }
  }
}

// --- the model checker's latency-bound hook -------------------------------

TEST(Analysis, ModelCheckerAcceptsTheDerivedLatBound) {
  McCheckOptions options;
  options.enumeration.maxCrashes = 1;
  options.latencyBound = 2;  // Lat(FloodSet) = t + 1 at t = 1
  const McReport report =
      modelCheckConsensus(algorithmByName("FloodSet").factory,
                          RoundConfig{3, 1}, RoundModel::kRs, options);
  EXPECT_TRUE(report.ok()) << report.summary();
}

TEST(Analysis, ModelCheckerRefutesATooTightLatBound) {
  McCheckOptions options;
  options.enumeration.maxCrashes = 1;
  options.latencyBound = 1;  // one below Lat(FloodSet)
  const McReport report =
      modelCheckConsensus(algorithmByName("FloodSet").factory,
                          RoundConfig{3, 1}, RoundModel::kRs, options);
  EXPECT_FALSE(report.ok());
  ASSERT_FALSE(report.violations.empty());
  const UcVerdict& v = report.violations.front().verdict;
  EXPECT_FALSE(v.withinLatencyBound);
  EXPECT_NE(v.witness.find("latency-bound"), std::string::npos) << v.witness;
  // The bound is the only property violated: consensus itself still holds.
  EXPECT_TRUE(v.uniformAgreement && v.uniformValidity && v.termination);
}

}  // namespace
}  // namespace ssvsp
