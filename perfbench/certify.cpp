// Workload `certify`: re-check the committed FloodSet certificate
// (param::checkCertificate — fingerprint check plus a full regeneration of
// the window n = 4..7).  Serial, memo-free, thread-free and wire-free: the
// "no change" side for every sweep, store or transport optimisation.
#include <fstream>
#include <sstream>

#include "analysis/abstract_interp.hpp"
#include "common.hpp"
#include "consensus/registry.hpp"
#include "lint/diagnostic.hpp"
#include "param/abstraction.hpp"
#include "param/certifier.hpp"
#include "rounds/engine.hpp"
#include "util/serde.hpp"

namespace perfbench {
namespace {

using namespace ssvsp;

constexpr const char* kCertFile = "certs/FloodSet.cert.json";

std::string readFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

struct LoadedCert {
  param::ParamCertificate cert;
  const AlgorithmEntry* entry = nullptr;
  std::string error;
};

/// The workload's set-up: read, parse and decode the golden, resolve its
/// algorithm.  With the `tampered-cert` fault the golden is altered in
/// memory first (its cutoff edited), which checkCertificate must refuse.
LoadedCert loadCertificate(const RunContext& ctx) {
  LoadedCert out;
  std::string text = readFile(ctx.repoRoot + "/" + kCertFile);
  if (ctx.inject == "tampered-cert") {
    const std::string from = "\"cutoff\": 6";
    const auto at = text.find(from);
    if (at != std::string::npos) text.replace(at, from.size(), "\"cutoff\": 5");
  }
  const auto doc = parseJson(text, &out.error);
  if (!doc || !param::certificateFromJson(*doc, &out.cert, &out.error))
    return out;
  out.entry = findAlgorithm(out.cert.algorithm);
  if (out.entry == nullptr)
    out.error = "unknown algorithm " + out.cert.algorithm;
  return out;
}

bool checkOnce(const LoadedCert& loaded, Result& out) {
  DiagnosticSink sink;
  const bool ok = param::checkCertificate(loaded.cert, *loaded.entry, sink);
  std::string why =
      "certify: checkCertificate refused " + std::string(kCertFile);
  if (!sink.empty()) why += ": " + sink.diagnostics().front().message;
  out.check(ok, why);
  return ok;
}

}  // namespace

void runCertify(const RunContext& ctx, Result& out) {
  out.facts["seed"] = "unused: the certificate recheck is exhaustive";
  out.facts["threads"] = "1 (checkCertificate is serial)";
  out.facts["input"] = std::string(kCertFile) + ", window n=4..7, t=2";

  LoadedCert loaded;
  auto setup = [&] { loaded = loadCertificate(ctx); };
  setupBatch(out, setup);
  if (loaded.entry == nullptr) {
    out.check(false, "certify: cannot load certificate: " + loaded.error);
    return;
  }

  auto job = [&](bool traced) {
    // The recheck is serial: it rotates over every CPU (RotatingPin).
    const RotatingPin pin;
    auto call = [&] { checkOnce(loaded, out); };
    const double s = traced ? probe("certify.check", call) : timeSeconds(call);
    const char* suffix = traced ? "_traced" : "";
    out.samples[std::string("certify_s") + suffix].push_back(s);
    out.samples[std::string("job_s") + suffix].push_back(s);
  };
  if (ctx.trace) {
    // Traced pass: untraced and traced rechecks in alternation, for the
    // tracing overhead.
    tracedPairs(ctx.seconds / 2, job);
    return;
  }
  repeatFor(ctx.seconds, 3, out, [&] { job(false); }, setup);
}

void profileCertifyLayers(const RunContext& ctx, Result& out) {
  ssvsp::obs::MetricsRegistry& registry = ssvsp::obs::metrics();
  const LoadedCert loaded = loadCertificate(ctx);
  if (loaded.entry == nullptr) {
    out.check(false, "profile: cannot load certificate: " + loaded.error);
    return;
  }
  const AlgorithmEntry& entry = *loaded.entry;
  const param::ParamCertificate& cert = loaded.cert;

  double interpretS = 0, foldS = 0;
  std::int64_t runs = 0;
  for (const param::ParamWindowRow& row : cert.window) {
    const RoundConfig cfg{row.n, cert.t};
    AbstractBounds bounds;
    const double interp = probe("analysis.interpret", [&] {
      bounds = interpretAutomaton(entry, cfg);
    });
    param::AbstractionResult abs;
    const double full = probe("param.abstract_interpret", [&] {
      abs = param::abstractInterpret(entry, row.n, cert.countSaturation);
    });
    interpretS += interp;
    foldS += full - interp;
    runs += bounds.runs;
    if (row.n == cert.cutoff) {
      // A tripwire, not a target: the reach set the certificate records.
      out.check(abs.states.size() == cert.invariant.size() &&
                    abs.edges.size() == cert.transitions.size(),
                "profile: reach set at the cutoff differs from the "
                "certificate");
      out.layer["param.states"] = static_cast<double>(abs.states.size());
      out.layer["param.edges"] = static_cast<double>(abs.edges.size());
      registry.gauge("param.states").set(
          static_cast<std::int64_t>(abs.states.size()));
      registry.gauge("param.edges").set(
          static_cast<std::int64_t>(abs.edges.size()));
    }
  }
  out.layer["analysis.interpret_s"] = interpretS;
  out.layer["param.fold_s"] = foldS;
  out.layer["analysis.runs"] = static_cast<double>(runs);
  registry.counter("analysis.runs").add(runs);

  // The certifier's inner loop, call by call: one runRounds per
  // (schedule cell, canonical config), with interpretAutomaton's options.
  std::vector<double> perCall;
  {
    ssvsp::obs::ScopedSpan span("rounds.window_loop");
    for (const param::ParamWindowRow& row : cert.window) {
      const RoundConfig cfg{row.n, cert.t};
      RoundEngineOptions opt;
      opt.horizon = cfg.t + 3;
      opt.traceDeliveries = true;
      opt.stopWhenAllDecided = false;
      const auto configs = canonicalConfigs(cfg.n);
      for (const FailureScript& script :
           enumerateScheduleCells(cfg, entry.intendedModel))
        for (const auto& initial : configs)
          perCall.push_back(1e6 * observe("rounds.run", [&] {
            runRounds(cfg, entry.intendedModel, entry.factory, initial,
                      script, opt);
          }));
    }
  }
  out.layer["rounds.run_us"] = median(perCall);
}

}  // namespace perfbench
