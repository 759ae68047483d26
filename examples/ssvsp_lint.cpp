// ssvsp_lint: static admissibility analyzer for scenario files and sweep
// specs — the preflight of src/lint as a command-line tool.
//
//   $ ./ssvsp_lint scenarios/*.txt                 # lint scenario files
//   $ ./ssvsp_lint sweeps/big.spec                 # lint a sweep-spec file
//   $ ./ssvsp_lint --spec "n=3 t=2 model=rws lags=1:0"   # inline sweep spec
//   $ ./ssvsp_lint --json --budget 1000000 ...     # JSON, custom L208 budget
//   $ ./ssvsp_lint --fail-on=warning ...           # -Werror for lints
//   $ ./ssvsp_lint --footprints                    # lint registry footprints
//   $ ./ssvsp_lint --param                         # lint parametric claims
//
// Files ending in ".spec" are parsed as sweep-spec texts (the same k=v
// format as --spec, '#' comments allowed); everything else is a scenario
// file.  --footprints lints every registered algorithm's declared
// observational footprint (src/indep; codes L510-L512) against a swept
// system size (--footprints-n, default 4) — the static half of the POR
// soundness story (reduction=symmetry_por).  Exit status: 0 when no
// artifact tripped the --fail-on threshold (errors by default; notes never
// fail a lint), 1 when at least one did, 2 on usage or I/O problems.
// Diagnostic codes are documented in DESIGN.md section 8.
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "consensus/registry.hpp"
#include "indep/independence.hpp"
#include "lint/lint.hpp"
#include "param/certifier.hpp"

namespace {

using namespace ssvsp;

int usage() {
  std::cerr
      << "usage: ssvsp_lint [--json] [--budget N] [--fail-on=error|warning]\n"
         "                  [file.txt | file.spec ...]\n"
         "       ssvsp_lint [--json] [--budget N] --spec \"k=v ...\"\n"
         "\n"
         "Lints scenario files (*.txt), sweep-spec files (*.spec) and/or one\n"
         "inline sweep spec; exits nonzero when any artifact trips the\n"
         "--fail-on threshold (default: errors only).\n"
         "\n"
         "spec keys (space- or comma-separated k=v pairs; '#' comments):\n"
         "  n, t            round config (required)\n"
         "  model           rs | rws (default rs)\n"
         "  horizon         enumeration horizon (default 3)\n"
         "  maxCrashes      crash bound (default 1)\n"
         "  lags            pending-lag menu, ':'-separated,\n"
         "                  e.g. lags=1:0 (default empty)\n"
         "  domain          value domain size (default 2)\n"
         "  reduction       none | symmetry_por (default none)\n"
         "  threads, chunk, maxScripts   sweep engine knobs\n"
         "--budget N        script-space size that triggers L208\n"
         "--fail-on=SEV     fail on warnings too, not just errors\n"
         "--footprints      lint every registry footprint (L510-L512)\n"
         "--footprints-n N  system size the footprints are linted at "
         "(default 4)\n"
         "--param           lint every registry parametric claim (L600-L604)\n"
         "--json            machine-readable output\n";
  return 2;
}

bool endsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  FailOn failOn = FailOn::kError;
  SweepLintOptions lintOpt;
  std::string specText;
  bool haveSpec = false;
  bool footprints = false;
  bool paramClaims = false;
  int footprintsN = 4;
  std::vector<std::string> files;

  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else if (std::strcmp(argv[i], "--budget") == 0) {
      if (++i >= argc) return usage();
      try {
        lintOpt.scriptBudget = std::stoll(argv[i]);
      } catch (const std::exception&) {
        return usage();
      }
    } else if (std::strncmp(argv[i], "--fail-on=", 10) == 0) {
      if (!parseFailOn(argv[i] + 10, &failOn)) return usage();
    } else if (std::strcmp(argv[i], "--spec") == 0) {
      if (++i >= argc) return usage();
      specText = argv[i];
      haveSpec = true;
    } else if (std::strcmp(argv[i], "--footprints") == 0) {
      footprints = true;
    } else if (std::strcmp(argv[i], "--param") == 0) {
      paramClaims = true;
    } else if (std::strcmp(argv[i], "--footprints-n") == 0) {
      if (++i >= argc) return usage();
      try {
        footprintsN = std::stoi(argv[i]);
      } catch (const std::exception&) {
        return usage();
      }
      footprints = true;
    } else if (std::strncmp(argv[i], "--", 2) == 0) {
      return usage();
    } else {
      files.emplace_back(argv[i]);
    }
  }
  if (!haveSpec && !footprints && !paramClaims && files.empty())
    return usage();

  bool failed = false;
  bool firstJson = true;
  if (json) std::cout << "[";
  auto emit = [&](const std::string& artifact, const DiagnosticSink& sink) {
    if (failsThreshold(sink, failOn)) failed = true;
    if (json) {
      if (!firstJson) std::cout << ",";
      firstJson = false;
      std::cout << renderJson(sink.diagnostics(), artifact);
      return;
    }
    std::cout << renderText(sink.diagnostics(), artifact);
    if (sink.empty()) std::cout << artifact << ": ok\n";
  };

  for (const std::string& file : files) {
    std::ifstream in(file);
    if (!in) {
      if (json) std::cout << "]";
      std::cerr << "cannot open " << file << "\n";
      return 2;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    DiagnosticSink sink;
    if (endsWith(file, ".spec"))
      lintSpecText(buf.str(), sink, lintOpt);
    else
      lintScenarioText(buf.str(), sink);
    emit(file, sink);
  }

  if (footprints) {
    for (const AlgorithmEntry& entry : algorithmRegistry()) {
      DiagnosticSink sink;
      indep::lintFootprint(entry, footprintsN, sink);
      emit("footprint:" + entry.name, sink);
    }
  }

  if (paramClaims) {
    for (const AlgorithmEntry& entry : algorithmRegistry()) {
      DiagnosticSink sink;
      param::lintParamClaim(entry, sink);
      emit("param:" + entry.name, sink);
    }
  }

  if (haveSpec) {
    DiagnosticSink sink;
    lintSpecText(specText, sink, lintOpt);
    emit("--spec", sink);
    if (!json && !sink.hasErrors()) {
      RoundConfig cfg;
      RoundModel model = RoundModel::kRs;
      ExploreSpec spec;
      std::string problem;
      parseSweepSpecText(specText, &cfg, &model, &spec, &problem);
      const std::int64_t estimate =
          estimateScriptSpace(cfg, model, spec.enumeration);
      std::cout << "--spec: script space <= "
                << (estimate == kScriptSpaceSaturated
                        ? std::string("2^63")
                        : std::to_string(estimate))
                << " scripts\n";
    }
  }

  if (json) std::cout << "]\n";
  return failed ? 1 : 0;
}
