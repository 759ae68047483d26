// Tests for the parametric cutoff certifier (src/param): the counting
// abstraction, the certificate wire form, the L6xx claim lint, the L602
// induction/entailment discharge, the L410 sweep cross-check and the
// committed goldens under certs/.
//
// The expensive full regeneration (window up to n0 + 1 = 7 per entry) is
// NOT run here — that is the param_golden_certs ctest (ssvsp_analyze
// --recheck) and the CI param-certify leg.  These tests load the committed
// goldens and check them the cheap ways: fingerprints, round-trips, claim
// consistency, and the exhaustive sweep cross-check at the small sizes.
#include <algorithm>
#include <fstream>
#include <sstream>

#include "gtest/gtest.h"
#include "lint/codes.hpp"
#include "param/certifier.hpp"
#include "rounds/engine.hpp"
#include "util/serde.hpp"

namespace ssvsp {
namespace param {
namespace {

ParamCertificate loadGolden(const std::string& algorithm) {
  const std::string path =
      std::string(SSVSP_CERT_DIR) + "/" + algorithm + ".cert.json";
  std::ifstream in(path);
  EXPECT_TRUE(in) << "missing golden " << path
                  << " (regenerate: ssvsp_analyze --certify --cert-dir=certs)";
  std::ostringstream buf;
  buf << in.rdbuf();
  std::string error;
  const auto doc = parseJson(buf.str(), &error);
  EXPECT_TRUE(doc.has_value()) << path << ": " << error;
  ParamCertificate cert;
  EXPECT_TRUE(certificateFromJson(*doc, &cert, &error)) << path << ": "
                                                        << error;
  return cert;
}

std::vector<std::string> codesOf(const DiagnosticSink& sink) {
  std::vector<std::string> codes;
  for (const Diagnostic& d : sink.diagnostics()) codes.push_back(d.code);
  return codes;
}

// ---- claim lint (L600-L604) ----------------------------------------------

TEST(ParamClaimLint, RegistryClaimsAreCleanExceptTheCandidate) {
  for (const AlgorithmEntry& entry : algorithmRegistry()) {
    DiagnosticSink sink;
    lintParamClaim(entry, sink);
    if (entry.name == "A1WS_candidate") {
      // Incorrect by design: ships without a claim, and the lint says so.
      ASSERT_EQ(sink.diagnostics().size(), 1u);
      EXPECT_EQ(sink.diagnostics()[0].code, kDiagParamClaimMissing);
      EXPECT_EQ(sink.diagnostics()[0].severity, Severity::kWarning);
    } else {
      EXPECT_TRUE(sink.empty())
          << entry.name << ": " << renderText(sink.diagnostics());
    }
  }
}

TEST(ParamClaimLint, BoundsClaimWithoutDeclaredBoundsIsL600) {
  AlgorithmEntry entry = algorithmByName("FloodSet");
  entry.declaredBounds.reset();
  DiagnosticSink sink;
  lintParamClaim(entry, sink);
  EXPECT_EQ(codesOf(sink), std::vector<std::string>{"L600"});
}

TEST(ParamClaimLint, CutoffBelowQuorumIsL601) {
  AlgorithmEntry entry = algorithmByName("FloodSet");  // t = 2: needs n0 >= 4
  entry.paramClaim.cutoff = 3;
  DiagnosticSink sink;
  lintParamClaim(entry, sink);
  EXPECT_EQ(codesOf(sink), std::vector<std::string>{"L601"});
}

TEST(ParamClaimLint, LambdaAboveDeclaredClosedFormIsL604) {
  AlgorithmEntry entry = algorithmByName("FloodSetWS");
  entry.paramClaim.lambdaLowerBound = 4;  // declared Lambda = t + 1 = 3
  DiagnosticSink sink;
  lintParamClaim(entry, sink);
  EXPECT_EQ(codesOf(sink), std::vector<std::string>{"L604"});
}

// ---- the counting abstraction --------------------------------------------

TEST(ParamAbstraction, FoldTracksBoundariesAndCorrectUndecided) {
  const AlgorithmEntry& entry = algorithmByName("FloodSet");
  RoundEngineOptions opt;
  opt.horizon = 5;
  opt.traceDeliveries = true;
  opt.stopWhenAllDecided = false;
  const RoundRunResult run = runRounds(RoundConfig{4, 2}, RoundModel::kRs,
                                       entry.factory, {0, 1, 0, 1},
                                       FailureScript{}, opt);
  AbstractionFolder folder(/*countSaturation=*/2);
  folder.fold(run);
  const AbstractionResult out = folder.result();
  // One abstract state per boundary 0 .. roundsExecuted, chained by edges.
  EXPECT_EQ(out.states.size(),
            static_cast<std::size_t>(run.roundsExecuted + 1));
  EXPECT_EQ(out.edges.size(), static_cast<std::size_t>(run.roundsExecuted));
  bool sawUndecided = false, sawDecided = false;
  for (const auto& [state, info] : out.info) {
    EXPECT_EQ(info.f, 0);
    if (info.r == 0) {
      EXPECT_TRUE(info.aliveUndecided) << state;
      sawUndecided = true;
    }
    if (info.r >= 3) {  // FloodSet decides at t + 1 = 3
      EXPECT_FALSE(info.aliveUndecided) << state;
      sawDecided = true;
    }
  }
  EXPECT_TRUE(sawUndecided);
  EXPECT_TRUE(sawDecided);
  // The failure-free run IS a Lambda witness with two 1s.
  EXPECT_EQ(out.lambdaWitnessLatency, 3);
  EXPECT_EQ(out.lambdaWitnessOnes, 2);
}

TEST(ParamAbstraction, DoomedProcessesDoNotCountAsCorrectUndecided) {
  // p0 crashes silently in round 1 of a FloodSet run: at boundary 0 it is
  // alive-but-doomed, and once every CORRECT process has decided the
  // abstract states must read "nothing correct undecided" even though the
  // doomed/crashed class never decides.
  const AlgorithmEntry& entry = algorithmByName("FloodSet");
  RoundEngineOptions opt;
  opt.horizon = 5;
  opt.traceDeliveries = true;
  opt.stopWhenAllDecided = false;
  FailureScript script;
  script.crashes.push_back({0, 1, ProcessSet{}});
  const RoundRunResult run = runRounds(RoundConfig{4, 2}, RoundModel::kRs,
                                       entry.factory, {1, 0, 0, 0}, script,
                                       opt);
  AbstractionFolder folder(2);
  folder.fold(run);
  const AbstractionResult out = folder.result();
  for (const auto& [state, info] : out.info) {
    EXPECT_EQ(info.f, 1);
    if (info.r == 0) {
      EXPECT_NE(state.find("A!1"), std::string::npos)
          << "doomed marker missing: " << state;
    }
    if (info.r >= 3) {
      EXPECT_FALSE(info.aliveUndecided) << state;
    }
  }
  // No failure-free run seen, so no Lambda witness.
  EXPECT_EQ(out.lambdaWitnessLatency, kNoRound);
}

TEST(ParamAbstraction, FoldIsIndependentOfRunOrder) {
  // The folder's interned ids depend on the order runs arrive in; the
  // rendered reach set, relation and facts must not.  One RS and one RWS
  // row (the latter with pending profiles), folded with the cells in
  // canonical and in reversed order.
  for (const char* name : {"FloodSet", "A1WS_candidate"}) {
    const AlgorithmEntry& entry = algorithmByName(name);
    const RoundConfig cfg = canonicalAnalysisConfig(entry);
    RoundEngineOptions opt;
    opt.horizon = cfg.t + 3;
    opt.traceDeliveries = true;
    opt.stopWhenAllDecided = false;
    RoundEngine engine(cfg, entry.intendedModel, entry.factory, opt);
    std::vector<FailureScript> cells =
        enumerateScheduleCells(cfg, entry.intendedModel);
    const auto foldAll = [&] {
      AbstractionFolder folder(entry.paramClaim.countSaturation);
      for (const std::vector<Value>& initial : canonicalConfigs(cfg.n)) {
        for (const FailureScript& cell : cells) {
          engine.execute(initial, cell);
          folder.fold(engine.result());
        }
      }
      return folder.result();
    };
    const AbstractionResult forward = foldAll();
    std::reverse(cells.begin(), cells.end());
    const AbstractionResult reversed = foldAll();

    SCOPED_TRACE(name);
    EXPECT_FALSE(forward.states.empty());
    if (entry.intendedModel == RoundModel::kRws) {
      EXPECT_TRUE(std::any_of(
          forward.states.begin(), forward.states.end(),
          [](const std::string& s) { return s.find("pend[") != s.npos; }));
    }
    EXPECT_EQ(forward.states, reversed.states);
    EXPECT_EQ(forward.edges, reversed.edges);
    ASSERT_EQ(forward.info.size(), reversed.info.size());
    for (const auto& [state, info] : forward.info) {
      const auto it = reversed.info.find(state);
      ASSERT_NE(it, reversed.info.end()) << state;
      EXPECT_EQ(info.f, it->second.f) << state;
      EXPECT_EQ(info.r, it->second.r) << state;
      EXPECT_EQ(info.aliveUndecided, it->second.aliveUndecided) << state;
    }
    // And both are the driver's reach set at this size.
    const AbstractionResult driven =
        abstractInterpret(entry, cfg.n, entry.paramClaim.countSaturation);
    EXPECT_EQ(forward.states, driven.states);
    EXPECT_EQ(forward.edges, driven.edges);
  }
}

TEST(ParamAbstraction, RowsAreTheQuotientInterpretersBounds) {
  // The derived row at the canonical config must equal the closed forms the
  // analysis layer pins — the certificate's base cases are the analyzer's
  // numbers, not a parallel implementation.
  const AlgorithmEntry& entry = algorithmByName("EarlyFloodSet");
  const AbstractionResult res = abstractInterpret(entry, 4, 2);
  EXPECT_EQ(res.row.n, 4);
  EXPECT_EQ(res.row.lat, 2);     // min(f + 2, t + 1) at f = 0 fires first
  EXPECT_EQ(res.row.latMax, 2);  // min(2, t + 1) — the paper's capped form
  EXPECT_EQ(res.row.lambda, 2);
  ASSERT_EQ(res.row.latByF.size(), 3u);
  EXPECT_EQ(res.row.latByF[0], 2);
  EXPECT_EQ(res.row.latByF[1], 3);
  EXPECT_EQ(res.row.latByF[2], 3);
  EXPECT_EQ(res.row.states, static_cast<std::int64_t>(res.states.size()));
  EXPECT_EQ(res.row.edges, static_cast<std::int64_t>(res.edges.size()));
  EXPECT_GT(res.row.runs, 0);
}

// ---- certificate wire form ------------------------------------------------

TEST(ParamCertificateSerde, GoldenRoundTripsThroughSerde) {
  for (const AlgorithmEntry& entry : algorithmRegistry()) {
    const ParamCertificate cert = loadGolden(entry.name);
    for (const int indent : {0, 2}) {
      const std::string text = certificateToJson(cert, indent);
      std::string error;
      const auto doc = parseJson(text, &error);
      ASSERT_TRUE(doc.has_value()) << entry.name << ": " << error;
      ParamCertificate back;
      ASSERT_TRUE(certificateFromJson(*doc, &back, &error))
          << entry.name << ": " << error;
      EXPECT_TRUE(back == cert) << entry.name
                                << ": round-trip changed the certificate";
    }
  }
}

TEST(ParamCertificateSerde, EnvelopeRejectsForeignDocuments) {
  std::string error;
  ParamCertificate cert;
  const auto wrongKind = parseJson(
      R"({"schema":"ssvsp.cert.v1","kind":"latency_profile"})", &error);
  ASSERT_TRUE(wrongKind.has_value());
  EXPECT_FALSE(certificateFromJson(*wrongKind, &cert, &error));
  const auto wrongSchema = parseJson(
      R"({"schema":"ssvsp.report.v1","kind":"param_certificate"})", &error);
  ASSERT_TRUE(wrongSchema.has_value());
  EXPECT_FALSE(certificateFromJson(*wrongSchema, &cert, &error));
}

TEST(ParamCertificateSerde, FingerprintDetectsTampering) {
  ParamCertificate cert = loadGolden("A1");
  EXPECT_EQ(certificateFingerprint(cert), cert.fingerprint);
  cert.cutoff += 1;  // a hand-edit
  EXPECT_NE(certificateFingerprint(cert), cert.fingerprint);
  DiagnosticSink sink;
  EXPECT_FALSE(checkCertificate(cert, algorithmByName("A1"), sink));
  ASSERT_FALSE(sink.empty());
  EXPECT_EQ(sink.diagnostics()[0].code, kDiagCertRecheckMismatch);
}

// ---- committed goldens ----------------------------------------------------

TEST(ParamGolden, EveryRegistryEntryHasAnIntactCommittedCertificate) {
  for (const AlgorithmEntry& entry : algorithmRegistry()) {
    const ParamCertificate cert = loadGolden(entry.name);
    EXPECT_EQ(cert.algorithm, entry.name);
    EXPECT_EQ(cert.model, entry.intendedModel);
    EXPECT_EQ(certificateFingerprint(cert), cert.fingerprint) << entry.name;
    // The acceptance bar: every cutoff is small enough for the exhaustive
    // cross-check window to reach past it.
    EXPECT_LE(cert.cutoff, 6) << entry.name;
    EXPECT_GE(cert.cutoff, cert.t + 2) << entry.name;
    // Window covers [t + 2, cutoff + 1] ascending.
    ASSERT_EQ(cert.window.size(),
              static_cast<std::size_t>(cert.cutoff - cert.t)) << entry.name;
    EXPECT_EQ(cert.window.front().n, cert.t + 2);
    EXPECT_EQ(cert.window.back().n, cert.cutoff + 1);
    EXPECT_FALSE(cert.invariant.empty());
    EXPECT_FALSE(cert.transitions.empty());
    if (entry.paramClaim.declared) {
      EXPECT_TRUE(cert.boundsForAllN) << entry.name;
      EXPECT_EQ(cert.cutoff, entry.paramClaim.cutoff) << entry.name;
    }
  }
}

TEST(ParamGolden, RwsEntriesCertifyTheLambdaLowerBound) {
  // The paper's RWS lower bound: no correct RWS uniform consensus algorithm
  // decides its worst failure-free run in round 1.  Every declared RWS
  // entry carries Lambda >= 2; the incorrect-by-design candidate instead
  // RECORDS the Lambda = 1 fast path the bound forbids.
  int rwsDeclared = 0;
  for (const AlgorithmEntry& entry : algorithmRegistry()) {
    if (entry.intendedModel != RoundModel::kRws) continue;
    const ParamCertificate cert = loadGolden(entry.name);
    if (entry.name == "A1WS_candidate") {
      EXPECT_FALSE(cert.lambdaLowerBound.has_value());
      EXPECT_EQ(cert.lambdaWitnessLatency, 1);
      continue;
    }
    ++rwsDeclared;
    ASSERT_TRUE(cert.lambdaLowerBound.has_value()) << entry.name;
    EXPECT_EQ(*cert.lambdaLowerBound, 2) << entry.name;
    EXPECT_GE(cert.lambdaWitnessLatency, 2) << entry.name;
    for (const ParamWindowRow& row : cert.window)
      EXPECT_GE(row.lambda, 2) << entry.name << " at n = " << row.n;
  }
  EXPECT_EQ(rwsDeclared, 4);
}

// ---- induction / entailment discharge (L602) ------------------------------

TEST(ParamCertify, TooSmallCutoffTripsL602Deterministically) {
  // FloodSet's reach set is NOT closed at n0 = 4 (a size-5 system can doom
  // two differently-valued processes while keeping a surviving crowd of
  // each value).  Certification must say so — and say exactly the same
  // thing twice.
  AlgorithmEntry entry = algorithmByName("FloodSet");
  entry.paramClaim.cutoff = 4;
  DiagnosticSink first, second;
  certifyAlgorithm(entry, first);
  certifyAlgorithm(entry, second);
  EXPECT_FALSE(first.empty());
  bool sawInduction = false;
  for (const Diagnostic& d : first.diagnostics()) {
    EXPECT_EQ(d.code, kDiagParamNotInductive);
    sawInduction = true;
  }
  EXPECT_TRUE(sawInduction);
  EXPECT_EQ(renderText(first.diagnostics()), renderText(second.diagnostics()));
}

TEST(ParamCertify, ObservationOnlyCandidateCertifiesWithoutFindings) {
  // A1WS_candidate declares nothing, so there is nothing to discharge: the
  // certificate just records what was observed — including the Lambda = 1
  // fast path that would refute any Lambda >= 2 claim.
  DiagnosticSink sink;
  const ParamCertificate cert =
      certifyAlgorithm(algorithmByName("A1WS_candidate"), sink);
  EXPECT_TRUE(sink.empty()) << renderText(sink.diagnostics());
  EXPECT_FALSE(cert.declared);
  EXPECT_EQ(cert.cutoff, 3);  // t + 2 observation window
  EXPECT_EQ(cert.lambdaWitnessLatency, 1);
}

// ---- exhaustive sweep cross-check (L410) ----------------------------------

TEST(ParamCrossCheck, WrongDeclaredBoundTripsL410Deterministically) {
  // Perturb a stored certificate's claim: A1 declares Lat = 1, pretend it
  // declared 2.  The exhaustive sweep measures 1 and must refuse, twice,
  // identically.
  ParamCertificate cert = loadGolden("A1");
  ASSERT_TRUE(cert.bounds.has_value());
  cert.bounds->latMax = boundConst(2);
  const AlgorithmEntry& entry = algorithmByName("A1");
  DiagnosticSink first, second;
  crossCheckCertificate(cert, entry, first);
  crossCheckCertificate(cert, entry, second);
  ASSERT_FALSE(first.empty());
  for (const Diagnostic& d : first.diagnostics())
    EXPECT_EQ(d.code, kDiagCertSweepDivergence);
  EXPECT_EQ(renderText(first.diagnostics()), renderText(second.diagnostics()));
}

TEST(ParamCrossCheck, FalseLambdaLowerBoundTripsL410) {
  // Claim Lambda >= 2 for the candidate that actually decides failure-free
  // runs in round 1: the sweep's exact Lambda = 1 must trip the check.
  ParamCertificate cert = loadGolden("A1WS_candidate");
  cert.lambdaLowerBound = 2;
  DiagnosticSink sink;
  crossCheckCertificate(cert, algorithmByName("A1WS_candidate"), sink);
  ASSERT_FALSE(sink.empty());
  bool sawLambda = false;
  for (const Diagnostic& d : sink.diagnostics()) {
    EXPECT_EQ(d.code, kDiagCertSweepDivergence);
    if (d.message.find("Lambda") != std::string::npos) sawLambda = true;
  }
  EXPECT_TRUE(sawLambda);
}

// One test per registry algorithm: the committed certificate agrees with
// the exhaustive measured sweep at every small size of its window — the
// cross-check shares no code with the abstraction (src/mc enumerator +
// round engine vs quotient interpreter).
class ParamCrossCheckGolden : public ::testing::TestWithParam<std::string> {};

TEST_P(ParamCrossCheckGolden, CommittedCertificateMatchesExhaustiveSweep) {
  const AlgorithmEntry& entry = algorithmByName(GetParam());
  const ParamCertificate cert = loadGolden(entry.name);
  DiagnosticSink sink;
  crossCheckCertificate(cert, entry, sink);
  EXPECT_TRUE(sink.empty()) << renderText(sink.diagnostics());
}

std::vector<std::string> registryNames() {
  std::vector<std::string> names;
  for (const AlgorithmEntry& entry : algorithmRegistry())
    names.push_back(entry.name);
  return names;
}

INSTANTIATE_TEST_SUITE_P(Registry, ParamCrossCheckGolden,
                         ::testing::ValuesIn(registryNames()),
                         [](const auto& info) { return info.param; });

}  // namespace
}  // namespace param
}  // namespace ssvsp
