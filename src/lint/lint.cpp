#include "lint/lint.hpp"

#include <algorithm>
#include <sstream>
#include <string>

#include "consensus/registry.hpp"

namespace ssvsp {

namespace {

/// sink.report with a string_view code (the constants of codes.hpp).
void rep(DiagnosticSink& sink, std::string_view code, Severity severity,
         std::string message, std::string hint = "") {
  sink.report(std::string(code), severity, std::move(message),
              std::move(hint));
}

bool configOk(const RoundConfig& cfg) {
  return cfg.n >= 1 && cfg.n <= kMaxProcs && cfg.t >= 0 && cfg.t < cfg.n;
}

std::string configProblem(const RoundConfig& cfg) {
  std::ostringstream os;
  os << "round config n=" << cfg.n << " t=" << cfg.t
     << " out of range (need 1 <= n <= " << kMaxProcs << " and 0 <= t < n)";
  return os.str();
}

// The estimate's arithmetic lives in util/saturating.hpp (satMul / satAdd /
// satPow, saturating at kSatI64Max == kScriptSpaceSaturated): the closed
// form below overflows int64 long before n reaches kMaxProcs, and a wrapped
// estimate could land back UNDER the budget and admit an impossible sweep.

std::string showCount(std::int64_t count) {
  return count == kScriptSpaceSaturated ? std::string("more than 2^63")
                                        : std::to_string(count);
}

}  // namespace

void lintFailureScript(const FailureScript& script, const RoundConfig& cfg,
                       RoundModel model, Round horizon, DiagnosticSink& sink) {
  if (!configOk(cfg)) {
    rep(sink, kDiagConfigOutOfRange, Severity::kError, configProblem(cfg));
    return;  // every later bound would be judged against a broken config
  }

  if (script.numCrashes() > cfg.t) {
    std::ostringstream os;
    os << script.numCrashes() << " crashes exceed the resilience bound t="
       << cfg.t;
    rep(sink, kDiagCrashBoundExceeded, Severity::kError, os.str(),
        "failure patterns of the model crash at most t processes");
  }

  ProcessSet seen;
  for (const CrashEvent& c : script.crashes) {
    if (c.p < 0 || c.p >= cfg.n) {
      std::ostringstream os;
      os << "crash names process " << c.p << " outside [0, " << cfg.n << ")";
      rep(sink, kDiagCrashUnknownProcess, Severity::kError, os.str());
      continue;
    }
    if (seen.contains(c.p)) {
      std::ostringstream os;
      os << "process " << c.p << " crashes more than once";
      rep(sink, kDiagDuplicateCrash, Severity::kError, os.str(),
          "crashes are permanent: keep the earliest event only");
    }
    seen.insert(c.p);
    if (c.round < 1) {
      std::ostringstream os;
      os << "crash of process " << c.p << " in round " << c.round << " < 1";
      rep(sink, kDiagCrashRoundOutOfRange, Severity::kError, os.str());
    } else if (horizon >= 1 && c.round > horizon) {
      std::ostringstream os;
      os << "crash of process " << c.p << " in round " << c.round
         << " lies past the horizon " << horizon;
      rep(sink, kDiagCrashPastHorizon, Severity::kWarning, os.str(),
          "the run ends before the crash takes effect");
    }
    if (!c.sendTo.isSubsetOf(ProcessSet::full(cfg.n))) {
      std::ostringstream os;
      os << "sendto of process " << c.p << " reaches outside Pi = [0, "
         << cfg.n << ")";
      rep(sink, kDiagSendToOutsidePi, Severity::kError, os.str());
    }
  }

  if (model == RoundModel::kRs) {
    if (!script.pendings.empty()) {
      std::ostringstream os;
      os << script.pendings.size()
         << " pending choice(s) in an RS script: round synchrony delivers "
            "every sent message in its round";
      rep(sink, kDiagPendingInRs, Severity::kError, os.str(),
          "switch the model to rws or drop the pending directives");
    }
    return;
  }

  for (std::size_t i = 0; i < script.pendings.size(); ++i) {
    const PendingChoice& p = script.pendings[i];
    std::ostringstream who;
    who << "pending " << p.src << " -> " << p.dst << " round " << p.round;

    if (p.src < 0 || p.src >= cfg.n || p.dst < 0 || p.dst >= cfg.n) {
      rep(sink, kDiagPendingUnknownProcess, Severity::kError,
          who.str() + " names a process outside [0, " +
              std::to_string(cfg.n) + ")");
      continue;
    }
    if (p.round < 1) {
      rep(sink, kDiagPendingRoundOutOfRange, Severity::kError,
          who.str() + ": send round < 1");
      continue;
    }
    if (p.arrival != kNoRound && p.arrival <= p.round) {
      rep(sink, kDiagPendingArrivalNotLater, Severity::kError,
          who.str() + ": arrival " + std::to_string(p.arrival) +
              " is not after the send round",
          "a pending message surfaces strictly later than it was sent");
    } else if (p.arrival != kNoRound && horizon >= 1 && p.arrival > horizon) {
      rep(sink, kDiagArrivalPastHorizon, Severity::kWarning,
          who.str() + ": arrival " + std::to_string(p.arrival) +
              " lands past the horizon " + std::to_string(horizon),
          "within the simulated prefix this behaves like 'never'");
    }

    // The message must actually be sent: a crashed process sends nothing.
    const Round srcCrash = script.crashRound(p.src);
    if (srcCrash < p.round) {
      rep(sink, kDiagCrashedSenderSendsLater, Severity::kError,
          who.str() + ": sender crashed in round " + std::to_string(srcCrash) +
              " and cannot send afterwards",
          "crash monotonicity: no step after the crash round");
    } else if (srcCrash == p.round &&
               !script.sendSubset(p.src, cfg.n).contains(p.dst)) {
      rep(sink, kDiagPendingNeverSent, Severity::kError,
          who.str() + ": the crash-round sendto of process " +
              std::to_string(p.src) + " does not include " +
              std::to_string(p.dst),
          "only messages that were sent can be pending");
    }

    // Weak round synchrony: if dst is alive at the end of round p.round,
    // src must crash by the end of round p.round + 1.
    const Round dstCrash = script.crashRound(p.dst);
    const bool dstAliveAtEnd = dstCrash == kNoRound || dstCrash > p.round;
    if (dstAliveAtEnd && !(srcCrash != kNoRound && srcCrash <= p.round + 1)) {
      rep(sink, kDiagWeakRoundSynchrony, Severity::kError,
          who.str() + ": receiver survives round " + std::to_string(p.round) +
              " but the sender does not crash by round " +
              std::to_string(p.round + 1),
          "weak round synchrony: a sender silent towards a surviving "
          "receiver in round r is crashed by the end of round r+1");
    }

    for (std::size_t j = 0; j < i; ++j) {
      const PendingChoice& q = script.pendings[j];
      if (q.src == p.src && q.dst == p.dst && q.round == p.round) {
        rep(sink, kDiagDuplicatePending, Severity::kError,
            who.str() + ": duplicate pending entry for the same message");
        break;
      }
    }
  }
}

std::int64_t estimateScriptSpace(const RoundConfig& cfg, RoundModel model,
                                 const EnumOptions& options) {
  if (!configOk(cfg) || options.horizon < 1) return 0;
  const int maxCrashes = std::clamp(options.maxCrashes, 0, cfg.t);

  // Per crashed process: a crash round times a partial-send subset of the
  // OTHER processes (the enumerator skips the unobservable self bit).
  const std::int64_t perCrasher =
      satMul(options.horizon, satPow(2, cfg.n - 1));
  // Per pending slot (RWS only): "not pending" or one lag from the menu.
  const std::int64_t radix =
      model == RoundModel::kRws && !options.pendingLags.empty()
          ? 1 + static_cast<std::int64_t>(options.pendingLags.size())
          : 1;

  std::int64_t total = 0;
  std::int64_t choose = 1;  // C(n, k), updated incrementally
  for (int k = 0; k <= maxCrashes; ++k) {
    if (k > 0) {
      choose = satMul(choose, cfg.n - k + 1);
      if (choose != kScriptSpaceSaturated) choose /= k;
    }
    std::int64_t term = satMul(choose, satPow(perCrasher, k));
    // Each dying sender exposes at most 2*(n-1) pending slots (its crash
    // round and the one before, towards every other process).
    term = satMul(term, satPow(radix, static_cast<std::int64_t>(2) * k *
                                          (cfg.n - 1)));
    total = satAdd(total, term);
    if (total == kScriptSpaceSaturated) break;
  }
  if (options.maxScripts >= 0) total = std::min(total, options.maxScripts);
  return total;
}

void lintExploreSpec(const ExploreSpec& spec, const RoundConfig& cfg,
                     RoundModel model, DiagnosticSink& sink,
                     const SweepLintOptions& options) {
  if (!configOk(cfg)) {
    rep(sink, kDiagConfigOutOfRange, Severity::kError, configProblem(cfg));
    return;  // the remaining bounds are judged against n and t
  }

  const EnumOptions& e = spec.enumeration;
  if (e.horizon < 1) {
    rep(sink, kDiagHorizonOutOfRange, Severity::kError,
        "enumeration horizon " + std::to_string(e.horizon) + " < 1");
  }
  if (e.maxCrashes < 0 || e.maxCrashes > cfg.t) {
    std::ostringstream os;
    os << "crash bound maxCrashes=" << e.maxCrashes << " outside [0, t="
       << cfg.t << "] for n=" << cfg.n;
    rep(sink, kDiagCrashBoundVsConfig, Severity::kError, os.str(),
        "the enumerator walks crash sets of size 0..maxCrashes <= t < n");
  }

  if (spec.valueDomain < 1) {
    rep(sink, kDiagEmptyValueDomain, Severity::kError,
        "value domain of size " + std::to_string(spec.valueDomain) +
            ": no initial configuration exists");
  } else if (spec.valueDomain == 1) {
    rep(sink, kDiagDegenerateValueDomain, Severity::kWarning,
        "value domain of size 1: every process proposes the same value, "
        "agreement holds trivially",
        "use valueDomain >= 2 to exercise agreement");
  }

  for (std::size_t i = 0; i < e.pendingLags.size(); ++i) {
    const int lag = e.pendingLags[i];
    if (lag < 0) {
      rep(sink, kDiagNegativePendingLag, Severity::kError,
          "pending lag " + std::to_string(lag) +
              " < 0: a message cannot surface before it is sent",
          "use lag 0 for 'never surfaces within the horizon'");
    } else if (lag > 0 && e.horizon >= 1 && lag >= e.horizon) {
      rep(sink, kDiagLagPastHorizon, Severity::kWarning,
          "pending lag " + std::to_string(lag) + " >= horizon " +
              std::to_string(e.horizon) +
              ": every arrival lands past the horizon",
          "lag 0 already encodes 'never surfaces within the horizon'");
    }
    for (std::size_t j = 0; j < i; ++j) {
      if (e.pendingLags[j] == lag) {
        rep(sink, kDiagDuplicatePendingLag, Severity::kWarning,
            "pending lag " + std::to_string(lag) +
                " listed twice: the same scripts enumerate twice");
        break;
      }
    }
  }
  if (model == RoundModel::kRs && !e.pendingLags.empty()) {
    rep(sink, kDiagPendingLagsInRs, Severity::kWarning,
        "pending-lag menu has no effect under RS: round synchrony forbids "
        "pending messages");
  }

  if (spec.chunkScripts < 1) {
    rep(sink, kDiagChunkScriptsClamped, Severity::kWarning,
        "chunkScripts " + std::to_string(spec.chunkScripts) +
            " < 1 (the sweep engine clamps it to 1)");
  }
  if (spec.threads < 0) {
    rep(sink, kDiagThreadsNegative, Severity::kWarning,
        "threads " + std::to_string(spec.threads) +
            " < 0 (treated as 'one worker per hardware thread')");
  }

  if (!sink.hasErrors()) {
    const std::int64_t estimate = estimateScriptSpace(cfg, model, e);
    if (estimate > options.scriptBudget) {
      std::ostringstream os;
      os << "script space bounded by " << showCount(estimate)
         << " scripts, over the sweep budget of " << options.scriptBudget;
      rep(sink, kDiagScriptSpaceOverBudget, Severity::kWarning, os.str(),
          "lower horizon/maxCrashes/pendingLags, or set maxScripts to cap "
          "the sweep");
    }
  }
}

ScenarioLintResult lintScenarioText(const std::string& text,
                                    DiagnosticSink& sink) {
  const ScenarioParseResult parsed = parseScenario(text);
  ScenarioLintResult out;
  out.parsed = parsed.structureOk;
  out.scenario = parsed.scenario;

  // Forward the parse diagnostics, but replace the coarse script-invalid
  // wrapper with the per-condition codes of lintFailureScript below.
  for (const Diagnostic& d : parsed.diagnostics)
    if (d.code != kDiagScriptInvalid) sink.add(d);

  if (!parsed.structureOk) return out;
  const Scenario& sc = out.scenario;
  const Round horizon = sc.horizon > 0 ? sc.horizon : sc.cfg.t + 2;
  lintFailureScript(sc.script, sc.cfg, sc.model, horizon, sink);

  if (const AlgorithmEntry* entry = findAlgorithm(sc.algorithm)) {
    if (entry->intendedModel != sc.model) {
      rep(sink, kDiagAlgorithmModelMismatch, Severity::kNote,
          sc.algorithm + " is designed for " + toString(entry->intendedModel) +
              " but this scenario runs it in " + toString(sc.model),
          "expected for counterexample scenarios; ignore if intentional");
    }
    if (entry->requiresTLe1 && sc.cfg.t > 1) {
      rep(sink, kDiagAlgorithmResilience, Severity::kWarning,
          sc.algorithm + " is only proved for t <= 1 but the scenario sets "
                         "t = " +
              std::to_string(sc.cfg.t));
    }
  }
  return out;
}

void lintScenarioForReplay(const Scenario& scenario, Round maxRounds,
                           DiagnosticSink& sink) {
  const Round scenarioHorizon =
      scenario.horizon > 0 ? scenario.horizon : scenario.cfg.t + 2;
  const Round horizon = maxRounds > 0 ? maxRounds : scenarioHorizon;
  for (const CrashEvent& crash : scenario.script.crashes) {
    if (crash.round == kNoRound || crash.round <= horizon) continue;
    rep(sink, kDiagCrashBeyondReplayHorizon, Severity::kError,
        "p" + std::to_string(crash.p) + " crashes in round " +
            std::to_string(crash.round) +
            ", beyond the replayable horizon of " + std::to_string(horizon) +
            " rounds",
        "raise the scenario horizon (or --max-rounds) to at least the crash "
        "round, or move the crash earlier");
  }
  if (!scenario.script.pendings.empty()) {
    rep(sink, kDiagPendingAdvisoryInReplay, Severity::kNote,
        std::to_string(scenario.script.pendings.size()) +
            " pending choice(s) are not enforced by the transport harness: "
            "real network scheduling decides arrivals",
        "crashes replay exactly; drop the pendings or accept that the "
        "wire run realizes some other admissible RWS schedule");
  }
}

bool parseSweepSpecText(const std::string& text, RoundConfig* cfg,
                        RoundModel* model, ExploreSpec* spec,
                        std::string* problem) {
  // Strip '#' comments per line, then flatten separators to spaces so the
  // same parser accepts a one-line --spec argument and a .spec file.
  std::string norm;
  std::istringstream rawLines(text);
  std::string line;
  while (std::getline(rawLines, line)) {
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    norm += line;
    norm += ' ';
  }
  for (char& c : norm)
    if (c == ',' || c == '\r' || c == '\t') c = ' ';
  std::istringstream in(norm);
  std::string tok;
  bool haveN = false, haveT = false;
  while (in >> tok) {
    const std::size_t eq = tok.find('=');
    if (eq == std::string::npos || eq == 0) {
      *problem = "expected key=value, got '" + tok + "'";
      return false;
    }
    const std::string key = tok.substr(0, eq);
    const std::string value = tok.substr(eq + 1);
    try {
      if (key == "n") {
        cfg->n = std::stoi(value);
        haveN = true;
      } else if (key == "t") {
        cfg->t = std::stoi(value);
        haveT = true;
      } else if (key == "model") {
        if (value == "rs" || value == "RS") {
          *model = RoundModel::kRs;
        } else if (value == "rws" || value == "RWS") {
          *model = RoundModel::kRws;
        } else {
          *problem = "unknown model '" + value + "' (want rs or rws)";
          return false;
        }
      } else if (key == "horizon") {
        spec->enumeration.horizon = std::stoi(value);
      } else if (key == "maxCrashes") {
        spec->enumeration.maxCrashes = std::stoi(value);
      } else if (key == "lags") {
        spec->enumeration.pendingLags.clear();
        std::istringstream lags(value);
        std::string lag;
        while (std::getline(lags, lag, ':'))
          spec->enumeration.pendingLags.push_back(std::stoi(lag));
      } else if (key == "maxScripts") {
        spec->enumeration.maxScripts = std::stoll(value);
      } else if (key == "reduction") {
        const std::optional<Reduction> reduction = reductionFromString(value);
        if (!reduction) {
          *problem = reductionSpellingError(value);
          return false;
        }
        spec->reduction = *reduction;
      } else if (key == "domain") {
        spec->valueDomain = std::stoi(value);
      } else if (key == "threads") {
        spec->threads = std::stoi(value);
      } else if (key == "chunk") {
        spec->chunkScripts = std::stoi(value);
      } else {
        *problem = "unknown spec key '" + key + "'";
        return false;
      }
    } catch (const std::exception&) {
      *problem = "bad value for '" + key + "': '" + value + "'";
      return false;
    }
  }
  if (!haveN || !haveT) {
    *problem = "a spec needs both n= and t=";
    return false;
  }
  return true;
}

void lintSpecText(const std::string& text, DiagnosticSink& sink,
                  const SweepLintOptions& options) {
  RoundConfig cfg;
  RoundModel model = RoundModel::kRs;
  ExploreSpec spec;
  std::string problem;
  if (!parseSweepSpecText(text, &cfg, &model, &spec, &problem)) {
    rep(sink, kDiagSpecParseError, Severity::kError, problem,
        "write space/comma-separated k=v pairs; see ssvsp_lint --help");
    return;
  }
  lintExploreSpec(spec, cfg, model, sink, options);
}

void preflightSweep(const RoundConfig& cfg, RoundModel model,
                    const ExploreSpec& spec, const SweepLintOptions& options,
                    DiagnosticSink* sink) {
  DiagnosticSink local;
  lintExploreSpec(spec, cfg, model, local, options);
  if (sink != nullptr)
    for (const Diagnostic& d : local.diagnostics()) sink->add(d);
  if (local.hasErrors()) throw PreflightError(local.diagnostics());
}

}  // namespace ssvsp
