// Experiment E8: the sweep engine's state-space reduction stack.
//
// Each cell sweeps one (algorithm, n, t, model) space three ways:
//
//   legacy  — the pre-reduction hot path: forEachScript x allInitialConfigs
//             with a fresh runRounds() (new automata, new buffers) per run;
//   pooled  — modelCheckConsensus with Reduction::kNone: per-worker engine
//             arenas, pooled automata, checkpoint/prefix resume;
//   por     — Reduction::kSymmetryPor on top: orbit memoization over the
//             algorithm's process-id symmetry group, composed with the
//             static independence analysis (src/indep) collapsing
//             observationally-equivalent schedules onto one memo entry.
//
// Reports must be bit-identical across all three (the reduction contract,
// see DESIGN.md §10/§13); the table and BENCH_sweep.json record wall-clock,
// scripts/s, runs/s, the memo reduction factor and peak RSS.  The rws-n4
// cell gates the POR acceptance: a reduction factor (pairs visited per
// executed engine run) of at least 12.
//
// The `campaign` section additionally measures the campaign layer on one
// cell: a cold 2-worker campaign whose shard-1 worker is chaos-SIGKILLed
// mid-shard (and the slice reassigned), checked bit-identical against the
// single-process in-memory sweep (timed: the same-run reference), then
// re-swept against the warm memo store.  The warm gate compares the warm
// pass with the reference scaled by the committed baseline ratio of cold
// campaign to reference (`campaign_gate_baseline` in BENCH_sweep.json,
// measured before the orchestrator shared the memo log between shard
// workers): full mode requires that scaled cold time >= 2.5x the warm pass
// on the rws-n4 acceptance cell (smoke: >= 2x).  The baseline is read from
// the source tree's BENCH_sweep.json and copied into the report unchanged.
//
// Flags:
//   --smoke          one small RS cell only; exits non-zero unless the
//                    por sweep is >= 2x faster than the pooled one and
//                    reduces >= 80.6x (the CI gates).
//   --out=PATH       where to write the JSON report (default
//                    BENCH_sweep.json).
//   --campaign-dir=D scratch dir for the campaign section (default
//                    bench_campaign_e8; scrubbed before use).
//   --threads=N      worker count for the pooled/por sweeps (default 1,
//                    so speedups measure the reduction stack, not
//                    parallelism; the legacy baseline is inherently serial).
//   --cell=NAME      run only the named cell and skip the campaign section
//                    and the pass/fail gates — a profiling aid, so obs
//                    traces of e.g. rws-n6 are not diluted by other cells.
#include "bench_common.hpp"

#include <sys/resource.h>

#include <array>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "campaign/campaign.hpp"
#include "consensus/registry.hpp"
#include "explore/reduction.hpp"
#include "indep/independence.hpp"
#include "mc/checker.hpp"
#include "rounds/spec.hpp"
#include "util/serde.hpp"

namespace ssvsp {
namespace {

/// Peak resident set size of this process, in KiB (ru_maxrss unit on Linux).
long peakRssKb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return u.ru_maxrss;
}

struct Cell {
  std::string name;
  std::string algo;
  int n = 3;
  int t = 2;
  RoundModel model = RoundModel::kRs;
  std::int64_t maxScripts = -1;
  /// The rws-n5 acceptance cell carries the >= 5x end-to-end requirement
  /// (por vs legacy).
  double requiredSpeedupVsLegacy = 0;
  /// POR acceptance: (script, config) pairs visited per executed engine
  /// run under symmetry_por must be at least this.
  double requiredPorReductionFactor = 0;
};

McCheckOptions cellOptions(const Cell& cell, int threads) {
  McCheckOptions o;
  o.enumeration.horizon = cell.t + 2;
  o.enumeration.maxCrashes = cell.t;
  if (cell.model == RoundModel::kRws) o.enumeration.pendingLags = {1, 0};
  o.enumeration.maxScripts = cell.maxScripts;
  o.maxViolations = 1000000000;  // count everything: keeps reports comparable
  o.threads = threads;
  return o;
}

struct LegacyOutcome {
  std::int64_t scripts = 0;
  std::int64_t runs = 0;
  std::int64_t violations = 0;
};

/// The pre-reduction sweep loop, kept verbatim as the baseline: one fresh
/// single-use execution per (script, config) pair, same horizon and early
/// stop as the engine path.
LegacyOutcome legacySweep(const AlgorithmEntry& entry, const Cell& cell,
                          const McCheckOptions& options) {
  const RoundConfig cfg{cell.n, cell.t};
  RoundEngineOptions engineOpt;
  engineOpt.horizon = options.enumeration.horizon + options.horizonSlack;
  const auto configs = allInitialConfigs(cell.n, options.valueDomain);

  LegacyOutcome out;
  forEachScript(cfg, cell.model, options.enumeration,
                [&](const FailureScript& script) {
                  ++out.scripts;
                  for (const auto& config : configs) {
                    const RoundRunResult run =
                        runRounds(cfg, cell.model, entry.factory, config,
                                  script, engineOpt);
                    ++out.runs;
                    if (!checkUniformConsensus(run).ok()) ++out.violations;
                  }
                  return true;
                });
  return out;
}

/// Executed engine runs of a sweep: fresh executions plus prefix-covered
/// reuses — the work the memo failed to avoid.
std::int64_t engineRuns(const SweepRunStats& stats) {
  return stats.runsExecuted + stats.runsReusedInEngine;
}

struct CellResult {
  Cell cell;
  std::int64_t scripts = 0;
  std::int64_t runs = 0;
  double legacySecs = 0;
  double pooledSecs = 0;
  double porSecs = 0;
  SweepRunStats porStats;  ///< from the symmetry_por sweep
  bool identicalReports = false;

  double speedupPooled() const {
    return pooledSecs > 0 ? legacySecs / pooledSecs : 0;
  }
  double speedupPor() const { return porSecs > 0 ? legacySecs / porSecs : 0; }
  double speedupPorVsPooled() const {
    return porSecs > 0 ? pooledSecs / porSecs : 0;
  }
  /// (script, config) pairs per engine execution: the memo's dedup factor.
  double porReductionFactor() const {
    const std::int64_t executed = engineRuns(porStats);
    return executed > 0
               ? static_cast<double>(porStats.runsRequested) / executed
               : 0;
  }
};

CellResult runCell(const Cell& cell, int threads) {
  const AlgorithmEntry& entry = algorithmByName(cell.algo);
  const RoundConfig cfg{cell.n, cell.t};
  const McCheckOptions base = cellOptions(cell, threads);

  CellResult res;
  res.cell = cell;

  LegacyOutcome legacy;
  res.legacySecs =
      bench::wallSeconds([&] { legacy = legacySweep(entry, cell, base); });

  McReport pooled;
  res.pooledSecs = bench::wallSeconds([&] {
    pooled = modelCheckConsensus(entry.factory, cfg, cell.model, base);
  });

  McCheckOptions porOpt = base;
  porOpt.reduction = Reduction::kSymmetryPor;
  porOpt.symmetryFixedIds = entry.symmetryFixedIds;
  porOpt.decisionFixRound = indep::resolveDecisionFixRound(entry, cfg);
  porOpt.porReadsAllSenders = entry.footprint.readsAllSenders;
  porOpt.porReadIdsMask = indep::readIdsMaskFor(entry.footprint, cfg.n);
  // Best-of-3: por is the gated mode (the hotpath gate anchors rws-n6 por
  // runs/s to a fixed baseline) and also the cheapest of the three, so the
  // standard min-of-N answer to scheduler noise costs almost nothing here.
  McReport por;
  res.porSecs = 0;
  for (int rep = 0; rep < 3; ++rep) {
    SweepRunStats repStats;
    porOpt.runStats = &repStats;
    McReport repReport;
    const double secs = bench::wallSeconds([&] {
      repReport =
          modelCheckConsensus(entry.factory, cfg, cell.model, porOpt);
    });
    if (rep == 0 || secs < res.porSecs) {
      res.porSecs = secs;
      res.porStats = repStats;
      por = std::move(repReport);
    }
  }

  res.scripts = por.scriptsVisited;
  res.runs = por.runsExecuted;
  res.identicalReports =
      pooled.toJsonString() == por.toJsonString() &&
      legacy.scripts == por.scriptsVisited &&
      legacy.runs == por.runsExecuted &&
      legacy.violations == static_cast<std::int64_t>(por.violations.size());
  return res;
}

/// The committed warm-gate baseline (`campaign_gate_baseline`): cold
/// campaign wall time over a same-run reference that memo sharing between
/// shard workers does not touch, measured once at the commit before that
/// sharing.  Scaling today's reference by it gives the cold time the warm
/// gate was calibrated against, so a cheaper cold pass cannot fail the gate
/// and a slower warm pass still does.
struct GateBaseline {
  std::string measuredAt;
  /// Per cell: cold campaign / in-memory ground-truth sweep.
  std::map<std::string, double> coldOverReference;
  /// CI campaign-smoke: cold campaign / the --reduction=none oracle
  /// campaign (read by the CI step, carried here so it stays committed).
  double cliColdOverOracle = 0;
};

std::optional<GateBaseline> loadGateBaseline(const std::string& path,
                                             std::string* error) {
  std::ifstream in(path);
  std::ostringstream text;
  text << in.rdbuf();
  const std::optional<JsonValue> doc = parseJson(text.str(), error);
  if (!doc) {
    *error = "cannot read '" + path + "': " + *error;
    return std::nullopt;
  }
  const JsonValue* b = doc->find("campaign_gate_baseline");
  const JsonValue* cells = b != nullptr ? b->find("cold_over_reference")
                                        : nullptr;
  const JsonValue* cli = b != nullptr ? b->find("cli_cold_over_oracle")
                                      : nullptr;
  GateBaseline out;
  if (cells == nullptr || !cells->isObject() || cli == nullptr ||
      cli->kind != JsonValue::Kind::kNumber ||
      !readJsonString(b->find("measured_at"), &out.measuredAt)) {
    *error = "'" + path + "' has no well-formed campaign_gate_baseline";
    return std::nullopt;
  }
  for (const auto& [name, ratio] : cells->members)
    if (ratio.kind == JsonValue::Kind::kNumber)
      out.coldOverReference[name] = ratio.number;
  out.cliColdOverOracle = cli->number;
  return out;
}

/// The campaign-layer measurement: cold multi-process sweep (with a
/// chaos-killed worker), bit-identity against the in-memory sweep, and the
/// warm-store re-sweep.
struct CampaignOutcome {
  Cell cell;
  double coldSecs = 0;
  double warmSecs = 0;
  double referenceSecs = 0;  ///< the in-memory ground-truth sweep
  double coldOverReference = 0;  ///< committed baseline ratio for the cell
  bool coldOk = false;
  bool warmOk = false;
  bool identicalToInMemory = false;  ///< cold merged == single-process sweep
  bool identicalWarm = false;        ///< warm merged == cold merged
  int workerDeaths = 0;
  std::int64_t memoEntriesAppended = 0;
  std::int64_t memoEntriesLoaded = 0;  ///< replayed by the warm pass
  std::string error;

  double warmSpeedup() const {
    return warmSecs > 0 ? coldSecs / warmSecs : 0;
  }
  /// The gated ratio: the baseline cold time (reference x committed ratio)
  /// over the warm pass.
  double warmSpeedupVsBaseline() const {
    return warmSecs > 0 ? referenceSecs * coldOverReference / warmSecs : 0;
  }
};

CampaignOutcome runCampaignCell(const Cell& cell, const std::string& dir) {
  CampaignOutcome out;
  out.cell = cell;

  // Scrub any previous invocation's state: the cold pass must be cold.
  std::remove((dir + "/manifest.json").c_str());
  std::remove((dir + "/memo.log").c_str());

  CampaignSpec spec;
  spec.algorithm = cell.algo;
  spec.n = cell.n;
  spec.t = cell.t;
  spec.maxScripts = cell.maxScripts;

  CampaignOptions options;
  options.dir = dir;
  options.workers = 2;
  options.chaosKillShard = 1;  // SIGKILL one worker mid-shard, survive it

  CampaignResult cold;
  out.coldSecs = bench::wallSeconds([&] { cold = runCampaign(spec, options); });
  out.coldOk = cold.ok;
  out.workerDeaths = cold.workerDeaths;
  out.memoEntriesAppended = cold.memoEntriesAppended;
  if (!cold.ok) {
    out.error = cold.error;
    return out;
  }

  // The ground truth: the same spec swept single-process, in memory.  The
  // campaign manifest carries the derived sweep options, so the reference
  // is per construction over the same space.
  std::string error;
  const std::optional<CampaignManifest> manifest =
      campaignStatus(dir, &error);
  if (!manifest) {
    out.error = error;
    return out;
  }
  McCheckOptions ref = manifest->shardOptions(0);
  ref.shard = ShardRange{};  // the whole stream
  McReport inMemory;
  out.referenceSecs = bench::wallSeconds([&] {
    inMemory = modelCheckConsensus(algorithmByName(cell.algo).factory,
                                   RoundConfig{cell.n, cell.t},
                                   manifest->model, ref);
  });
  out.identicalToInMemory =
      inMemory.toJsonString() == cold.report.toJsonString();

  // Warm pass: drop the ledger but keep the memo store, so every shard is
  // re-swept and every orbit hits.  Same worker topology as the cold pass
  // (minus the chaos) — the speedup is the store's doing, nothing else's.
  std::remove((dir + "/manifest.json").c_str());
  options.chaosKillShard = -1;
  CampaignResult warm;
  out.warmSecs = bench::wallSeconds([&] { warm = runCampaign(spec, options); });
  out.warmOk = warm.ok;
  if (!warm.ok) {
    out.error = warm.error;
    return out;
  }
  out.identicalWarm = warm.report.toJsonString() == cold.report.toJsonString();
  out.memoEntriesLoaded = warm.memoEntriesLoaded;
  return out;
}

std::string fmtSecs(double s) {
  std::ostringstream os;
  os.precision(3);
  os << std::fixed << s;
  return os.str();
}

std::string fmtX(double x) {
  std::ostringstream os;
  os.precision(2);
  os << std::fixed << x << "x";
  return os.str();
}

void printTable(const std::vector<CellResult>& results) {
  Table table({"cell", "algorithm", "n", "t", "model", "scripts", "runs",
               "legacy s", "pooled s", "por s", "vs legacy", "vs pooled",
               "por dedup", "identical report"});
  for (const CellResult& r : results) {
    table.addRowValues(
        r.cell.name, r.cell.algo, r.cell.n, r.cell.t, toString(r.cell.model),
        r.scripts, r.runs, fmtSecs(r.legacySecs), fmtSecs(r.pooledSecs),
        fmtSecs(r.porSecs), fmtX(r.speedupPor()),
        fmtX(r.speedupPorVsPooled()), fmtX(r.porReductionFactor()),
        bench::checkMark(r.identicalReports));
  }
  table.print(std::cout);
}

void printCampaignTable(const CampaignOutcome& c, double requiredSpeedup) {
  Table table({"cell", "cold s", "warm s", "ref s", "warm vs cold",
               "warm vs baseline", "required", "deaths survived",
               "identical (in-mem)", "identical (warm)"});
  table.addRowValues(c.cell.name, fmtSecs(c.coldSecs), fmtSecs(c.warmSecs),
                     fmtSecs(c.referenceSecs), fmtX(c.warmSpeedup()),
                     fmtX(c.warmSpeedupVsBaseline()), fmtX(requiredSpeedup),
                     c.workerDeaths, bench::checkMark(c.identicalToInMemory),
                     bench::checkMark(c.identicalWarm));
  std::cout << "\ncampaign layer (2 workers, one chaos-SIGKILLed "
               "mid-shard):\n";
  table.print(std::cout);
}

// ----------------------------- hotpath section ---------------------------
//
// The ISSUE-9 microarchitecture pass (bitset state, packed memo keys, arena
// snapshots) is gated here.  Full mode: the rws-n6 por sweep must at least
// double the PR 8 baseline runs/s on the reference machine without growing
// peak RSS.  Smoke mode: a same-run A/B — the retired string-key
// canonicalizer (kept verbatim below) against the packed-key one over the
// smoke cell's script stream — must show >= 1.3x; being same-run, it is
// machine-independent and safe for CI.

// PR 8 baseline for rws-n6 (por, --threads 1, release LTO, the reference
// machine): 512000 runs in 1.022 s, whole-bench peak RSS 85860 KiB.
constexpr double kBaselineRwsN6PorRunsPerS = 500952.9;
constexpr std::int64_t kBaselineRwsN6PeakRssKb = 85860;
constexpr double kRequiredHotpathSpeedup = 2.0;
constexpr double kRequiredHotpathMicroSpeedup = 1.3;

/// The pre-ISSUE-9 PairCanonicalizer, preserved as the micro-benchmark
/// baseline: int64-tuple script encodings minimized as std::vector
/// comparisons, keys materialized as std::string.
class LegacyStringCanonicalizer {
 public:
  explicit LegacyStringCanonicalizer(const SymmetryGroup& group)
      : group_(group) {}

  void setScript(const FailureScript& script) {
    argmin_.clear();
    bestScript_.clear();
    for (int g = 0; g < group_.size(); ++g) {
      encodeScript(g, script, candidate_);
      if (argmin_.empty() || candidate_ < bestScript_) {
        std::swap(bestScript_, candidate_);
        argmin_.assign(1, g);
      } else if (candidate_ == bestScript_) {
        argmin_.push_back(g);
      }
    }
  }

  const std::string& key(const std::vector<Value>& config) {
    bestConfig_.clear();
    for (std::size_t i = 0; i < argmin_.size(); ++i) {
      const std::vector<ProcessId>& inv = group_.inverse(argmin_[i]);
      candidateConfig_.clear();
      for (int q = 0; q < group_.n(); ++q)
        candidateConfig_.push_back(
            config[static_cast<std::size_t>(inv[static_cast<std::size_t>(q)])]);
      if (i == 0 || candidateConfig_ < bestConfig_)
        std::swap(bestConfig_, candidateConfig_);
    }
    keyBuffer_.assign(reinterpret_cast<const char*>(bestScript_.data()),
                      bestScript_.size() * sizeof(std::int64_t));
    keyBuffer_.append(reinterpret_cast<const char*>(bestConfig_.data()),
                      bestConfig_.size() * sizeof(Value));
    return keyBuffer_;
  }

 private:
  void encodeScript(int g, const FailureScript& script,
                    std::vector<std::int64_t>& out) {
    const std::vector<ProcessId>& perm = group_.perm(g);
    crashTuples_.clear();
    for (const CrashEvent& c : script.crashes)
      crashTuples_.push_back(
          {std::int64_t{perm[static_cast<std::size_t>(c.p)]},
           std::int64_t{c.round},
           static_cast<std::int64_t>(group_.applyToMask(g, c.sendTo.mask()))});
    std::sort(crashTuples_.begin(), crashTuples_.end());
    pendingTuples_.clear();
    for (const PendingChoice& pc : script.pendings)
      pendingTuples_.push_back(
          {std::int64_t{perm[static_cast<std::size_t>(pc.src)]},
           std::int64_t{perm[static_cast<std::size_t>(pc.dst)]},
           std::int64_t{pc.round}, std::int64_t{pc.arrival}});
    std::sort(pendingTuples_.begin(), pendingTuples_.end());
    out.clear();
    out.push_back(static_cast<std::int64_t>(crashTuples_.size()));
    out.push_back(static_cast<std::int64_t>(pendingTuples_.size()));
    for (const auto& t : crashTuples_)
      out.insert(out.end(), t.begin(), t.end());
    for (const auto& t : pendingTuples_)
      out.insert(out.end(), t.begin(), t.end());
  }

  const SymmetryGroup& group_;
  std::vector<int> argmin_;
  std::vector<std::int64_t> bestScript_, candidate_;
  std::vector<std::array<std::int64_t, 3>> crashTuples_;
  std::vector<std::array<std::int64_t, 4>> pendingTuples_;
  std::vector<Value> bestConfig_, candidateConfig_;
  std::string keyBuffer_;
};

struct HotpathMicro {
  std::int64_t keys = 0;  ///< (script, config) keys computed per side
  double legacySecs = 0;
  double packedSecs = 0;
  bool identicalDedup = false;  ///< both sides memoize to the same orbit count
  double speedup() const {
    return packedSecs > 0 ? legacySecs / packedSecs : 0;
  }
};

/// A/B over one cell's full (script, config) stream: canonicalize + memo
/// probe with the legacy string keys, then with packed MemoKeys.  Both
/// sides do identical canonical-minimization work; only the key
/// representation (and therefore hashing, equality, allocation) differs.
HotpathMicro runHotpathMicro(const Cell& cell) {
  const AlgorithmEntry& entry = algorithmByName(cell.algo);
  const RoundConfig cfg{cell.n, cell.t};
  const McCheckOptions o = cellOptions(cell, 1);
  const SymmetryGroup group(cell.n, entry.symmetryFixedIds);
  const auto configs = allInitialConfigs(cell.n, o.valueDomain);

  HotpathMicro micro;
  std::size_t legacyOrbits = 0;
  micro.legacySecs = bench::wallSeconds([&] {
    LegacyStringCanonicalizer canon(group);
    std::unordered_map<std::string, RunSummary> memo;
    forEachScript(cfg, cell.model, o.enumeration,
                  [&](const FailureScript& script) {
                    canon.setScript(script);
                    for (const auto& config : configs) {
                      memo.try_emplace(canon.key(config), RunSummary{1, true});
                      ++micro.keys;
                    }
                    return true;
                  });
    legacyOrbits = memo.size();
  });

  std::size_t packedOrbits = 0;
  micro.packedSecs = bench::wallSeconds([&] {
    PairCanonicalizer canon(group);
    std::unordered_map<MemoKey, RunSummary, MemoKeyHash> memo;
    forEachScript(cfg, cell.model, o.enumeration,
                  [&](const FailureScript& script) {
                    canon.setScript(script);
                    for (const auto& config : configs)
                      memo.try_emplace(canon.key(config), RunSummary{1, true});
                    return true;
                  });
    packedOrbits = memo.size();
  });
  micro.identicalDedup = legacyOrbits == packedOrbits && legacyOrbits > 0;
  return micro;
}

void writeJson(const std::vector<CellResult>& results,
               const CampaignOutcome& campaign, double requiredWarmSpeedup,
               const GateBaseline& baseline, int threads, bool smoke,
               const HotpathMicro* micro, const std::string& path) {
  const auto perSec = [](std::int64_t count, double secs) {
    return secs > 0 ? static_cast<double>(count) / secs : 0.0;
  };

  std::ofstream out(path);
  JsonWriter w(out, 2);
  w.beginObject();
  w.kv("bench", "sweep_reduction");
  w.kv("smoke", smoke);
  w.kv("threads", threads);
  w.kv("peak_rss_kb", static_cast<std::int64_t>(peakRssKb()));
  w.key("cells").beginArray();
  for (const CellResult& r : results) {
    w.beginObject();
    w.kv("name", r.cell.name);
    w.kv("algorithm", r.cell.algo);
    w.kv("n", r.cell.n);
    w.kv("t", r.cell.t);
    w.kv("model", toString(r.cell.model));
    w.kv("max_scripts", r.cell.maxScripts);
    w.kv("scripts", r.scripts);
    w.kv("runs", r.runs);
    w.kv("identical_reports", r.identicalReports);

    w.key("legacy").beginObject();
    w.kv("wall_s", r.legacySecs);
    w.kv("scripts_per_s", perSec(r.scripts, r.legacySecs));
    w.kv("runs_per_s", perSec(r.runs, r.legacySecs));
    w.endObject();

    w.key("pooled").beginObject();
    w.kv("wall_s", r.pooledSecs);
    w.kv("runs_per_s", perSec(r.runs, r.pooledSecs));
    w.kv("speedup_vs_legacy", r.speedupPooled());
    w.endObject();

    w.key("por").beginObject();
    w.kv("wall_s", r.porSecs);
    w.kv("runs_per_s", perSec(r.runs, r.porSecs));
    w.kv("speedup_vs_legacy", r.speedupPor());
    w.kv("speedup_vs_pooled", r.speedupPorVsPooled());
    w.kv("reduction_factor", r.porReductionFactor());
    w.kv("engine_runs", engineRuns(r.porStats));
    w.key("stats");
    r.porStats.toJson(w);  // the ssvsp.report.v1 sweep_run_stats document
    w.endObject();

    if (r.cell.requiredSpeedupVsLegacy > 0) {
      w.key("acceptance").beginObject();
      w.kv("required_speedup_vs_legacy", r.cell.requiredSpeedupVsLegacy);
      w.kv("measured", r.speedupPor());
      w.kv("pass", r.speedupPor() >= r.cell.requiredSpeedupVsLegacy);
      w.endObject();
    }
    if (r.cell.requiredPorReductionFactor > 0) {
      w.key("por_acceptance").beginObject();
      w.kv("required_reduction_factor", r.cell.requiredPorReductionFactor);
      w.kv("measured", r.porReductionFactor());
      w.kv("pass",
           r.porReductionFactor() >= r.cell.requiredPorReductionFactor);
      w.endObject();
    }
    w.endObject();
  }
  w.endArray();

  // The ISSUE-9 hotpath record: full mode anchors the rws-n6 por sweep to
  // the PR 8 baseline; smoke mode records the same-run key-representation
  // A/B.  `pass` is informational here — run() turns it into the exit code.
  for (const CellResult& r : results) {
    if (r.cell.name != "rws-n6") continue;
    const double runsPerS = perSec(r.runs, r.porSecs);
    w.key("hotpath").beginObject();
    w.kv("cell", r.cell.name);
    w.kv("mode", "por");
    w.kv("wall_s", r.porSecs);
    w.kv("runs_per_s", runsPerS);
    w.kv("peak_rss_kb", static_cast<std::int64_t>(peakRssKb()));
    w.kv("rounds_executed", r.porStats.roundsExecuted);
    w.kv("rounds_resumed", r.porStats.roundsResumed);
    w.kv("baseline_runs_per_s", kBaselineRwsN6PorRunsPerS);
    w.kv("baseline_peak_rss_kb", kBaselineRwsN6PeakRssKb);
    w.kv("speedup_vs_baseline", runsPerS / kBaselineRwsN6PorRunsPerS);
    w.kv("required_speedup", kRequiredHotpathSpeedup);
    w.kv("pass", runsPerS >= kRequiredHotpathSpeedup *
                                 kBaselineRwsN6PorRunsPerS &&
                     peakRssKb() <= kBaselineRwsN6PeakRssKb);
    w.endObject();
  }
  if (micro != nullptr) {
    w.key("hotpath").beginObject();
    w.kv("mode", "micro");
    w.kv("keys", micro->keys);
    w.kv("legacy_key_wall_s", micro->legacySecs);
    w.kv("packed_key_wall_s", micro->packedSecs);
    w.kv("identical_dedup", micro->identicalDedup);
    w.kv("speedup", micro->speedup());
    w.kv("required_speedup", kRequiredHotpathMicroSpeedup);
    w.kv("pass", micro->identicalDedup &&
                     micro->speedup() >= kRequiredHotpathMicroSpeedup);
    w.endObject();
  }

  w.key("campaign").beginObject();
  w.kv("cell", campaign.cell.name);
  w.kv("workers", 2);
  w.kv("chaos_killed_worker", true);
  w.kv("cold_wall_s", campaign.coldSecs);
  w.kv("warm_wall_s", campaign.warmSecs);
  w.kv("reference_wall_s", campaign.referenceSecs);
  w.kv("warm_speedup", campaign.warmSpeedup());
  w.kv("baseline_cold_over_reference", campaign.coldOverReference);
  w.kv("warm_speedup_vs_baseline", campaign.warmSpeedupVsBaseline());
  w.kv("required_warm_speedup", requiredWarmSpeedup);
  w.kv("worker_deaths_survived", std::int64_t{campaign.workerDeaths});
  w.kv("identical_to_in_memory", campaign.identicalToInMemory);
  w.kv("identical_warm", campaign.identicalWarm);
  w.kv("memo_entries_appended", campaign.memoEntriesAppended);
  w.kv("memo_entries_loaded_warm", campaign.memoEntriesLoaded);
  w.endObject();

  w.key("campaign_gate_baseline").beginObject();
  w.kv("measured_at", baseline.measuredAt);
  w.key("cold_over_reference").beginObject();
  for (const auto& [name, ratio] : baseline.coldOverReference)
    w.kv(name, ratio);
  w.endObject();
  w.kv("cli_cold_over_oracle", baseline.cliColdOverOracle);
  w.endObject();

  w.endObject();
  out << "\n";
  std::cout << "\nwrote " << path << " (peak RSS " << peakRssKb()
            << " KiB)\n";
}

std::vector<Cell> fullCells() {
  return {
      {"rs-n3", "FloodSet", 3, 2, RoundModel::kRs, -1, 0, 0},
      {"rs-n4", "FloodSet", 4, 2, RoundModel::kRs, -1, 0, 0},
      // The POR acceptance cell: symmetry_por must reduce >= 12x — five
      // times the 2.40x the retired symmetry-only mode reached here.
      {"rws-n4", "FloodSetWS", 4, 2, RoundModel::kRws, 20000, 0, 12.0},
      // The ISSUE-6 acceptance cell: n=5, f=2, FloodSetWS under RWS.
      {"rws-n5", "FloodSetWS", 5, 2, RoundModel::kRws, 20000, 5.0, 0},
      {"rws-n6", "FloodSetWS", 6, 2, RoundModel::kRws, 8000, 0, 0},
  };
}

std::vector<Cell> smokeCells() {
  // Big enough that the 2x CI gate is safely above timer noise, small
  // enough to finish in seconds.  The 80.6x reduction gate is twice the
  // 40.33x the retired symmetry-only mode reached on this cell.
  return {{"smoke-rs-n5", "FloodSet", 5, 2, RoundModel::kRs, 20000, 0, 80.6}};
}

int run(int threads, bool smoke, const std::string& outPath,
        const std::string& campaignDir, const std::string& onlyCell) {
  bench::printHeader(
      smoke ? "E8 (smoke) — sweep reduction stack"
            : "E8 — sweep reduction stack (legacy vs pooled vs por)",
      "reduced sweeps are bit-identical to unreduced ones and strictly "
      "cheaper");

  std::vector<Cell> cells = smoke ? smokeCells() : fullCells();
  // --cell: profiling aid — run one named cell and skip the campaign
  // section and the pass/fail gates (a single cell is not an acceptance
  // run; it exists so obs traces of e.g. rws-n6 are not diluted by the
  // other cells).
  const bool profileOnly = !onlyCell.empty();
  if (profileOnly) {
    std::vector<Cell> filtered;
    for (const Cell& cell : cells)
      if (cell.name == onlyCell) filtered.push_back(cell);
    if (filtered.empty()) {
      std::cerr << "unknown cell '" << onlyCell << "'\n";
      return 1;
    }
    cells = std::move(filtered);
  }
  std::vector<CellResult> results;
  for (const Cell& cell : cells) results.push_back(runCell(cell, threads));
  if (profileOnly) {
    printTable(results);
    writeJson(results, CampaignOutcome{}, 0, GateBaseline{}, threads, smoke,
              nullptr, outPath);
    return 0;
  }

  // Smoke-mode hotpath A/B: machine-independent because both sides run in
  // this very process, back to back, over the same stream.
  HotpathMicro micro;
  if (smoke) {
    micro = runHotpathMicro(cells.front());
    std::cout << "\nhotpath key A/B (" << micro.keys << " keys): legacy "
              << fmtSecs(micro.legacySecs) << "s, packed "
              << fmtSecs(micro.packedSecs) << "s — "
              << fmtX(micro.speedup()) << "\n";
  }

  // Campaign layer: the rws-n4 acceptance cell in full mode (warm >= 2.5x),
  // the smoke cell under the CI gate (warm >= 2x).  The full-mode bar was
  // 5x before the hot-path pass; the same pass that doubled raw engine
  // throughput cut the COLD sweep ~3.5x, so the warm/cold ratio compressed
  // — warm is now dominated by the enumeration + canonicalization work
  // both passes share, not by the engine runs it avoids (observed ~2.9-3.5x
  // across runs; 2.5x leaves noise headroom without losing the property
  // being gated).  The symmetry_por default cut the cold pass again; the
  // executor's per-normalized-script summary table cut the shared work
  // back (2.6-3.2x on rws-n4, smoke 2.6-3.3x), and neither bar moved.
  // Sharing the memo log between shard workers then halved the cold pass,
  // so the bar is now held against the committed baseline cold time
  // (reference x campaign_gate_baseline), which a cheaper cold pass does
  // not move; the factors stay 2.5x and 2x.
  const double requiredWarmSpeedup = smoke ? 2.0 : 2.5;
  Cell campaignCell = cells.front();
  for (const Cell& cell : cells)
    if (cell.name == "rws-n4") campaignCell = cell;
  std::string baselineError;
  const std::optional<GateBaseline> baseline =
      loadGateBaseline(SSVSP_BENCH_SWEEP_BASELINE, &baselineError);
  CampaignOutcome campaign = runCampaignCell(campaignCell, campaignDir);
  if (baseline) {
    const auto it = baseline->coldOverReference.find(campaignCell.name);
    if (it != baseline->coldOverReference.end())
      campaign.coldOverReference = it->second;
  }

  printTable(results);
  printCampaignTable(campaign, requiredWarmSpeedup);
  writeJson(results, campaign, requiredWarmSpeedup,
            baseline.value_or(GateBaseline{}), threads, smoke,
            smoke ? &micro : nullptr, outPath);

  int rc = 0;
  if (!baseline || campaign.coldOverReference <= 0) {
    std::cerr << "FAIL: no committed warm-gate baseline for cell "
              << campaignCell.name << ": "
              << (baseline ? "missing from campaign_gate_baseline"
                           : baselineError)
              << "\n";
    rc = 1;
  }
  if (!campaign.coldOk || !campaign.warmOk) {
    std::cerr << "FAIL: campaign section: " << campaign.error << "\n";
    rc = 1;
  } else {
    if (!campaign.identicalToInMemory) {
      std::cerr << "FAIL: campaign merged report differs from the "
                   "in-memory sweep\n";
      rc = 1;
    }
    if (!campaign.identicalWarm) {
      std::cerr << "FAIL: warm campaign report differs from the cold one\n";
      rc = 1;
    }
    if (campaign.workerDeaths < 1) {
      std::cerr << "FAIL: chaos kill did not register a worker death\n";
      rc = 1;
    }
    if (campaign.warmSpeedupVsBaseline() < requiredWarmSpeedup) {
      std::cerr << "FAIL: warm campaign only "
                << fmtX(campaign.warmSpeedupVsBaseline())
                << " faster than the baseline cold time ("
                << fmtSecs(campaign.referenceSecs) << "s reference x "
                << campaign.coldOverReference << "; need >= "
                << fmtX(requiredWarmSpeedup) << ")\n";
      rc = 1;
    }
  }
  for (const CellResult& r : results) {
    if (!r.identicalReports) {
      std::cerr << "FAIL: cell " << r.cell.name
                << " reports differ across modes\n";
      rc = 1;
    }
    if (r.cell.requiredSpeedupVsLegacy > 0 &&
        r.speedupPor() < r.cell.requiredSpeedupVsLegacy) {
      std::cerr << "FAIL: cell " << r.cell.name << " por speedup "
                << fmtX(r.speedupPor()) << " below required "
                << fmtX(r.cell.requiredSpeedupVsLegacy) << " vs legacy\n";
      rc = 1;
    }
    if (r.cell.requiredPorReductionFactor > 0 &&
        r.porReductionFactor() < r.cell.requiredPorReductionFactor) {
      std::cerr << "FAIL: cell " << r.cell.name << " symmetry_por executed "
                << engineRuns(r.porStats) << " engine runs for "
                << r.porStats.runsRequested << " pairs ("
                << fmtX(r.porReductionFactor()) << ", need >= "
                << fmtX(r.cell.requiredPorReductionFactor) << ")\n";
      rc = 1;
    }
    if (smoke && r.speedupPorVsPooled() < 2.0) {
      std::cerr << "FAIL: smoke gate: por sweep only "
                << fmtX(r.speedupPorVsPooled())
                << " faster than unreduced (need >= 2x)\n";
      rc = 1;
    }
    // The ISSUE-9 hotpath gate, full mode: the rws-n6 por sweep must at
    // least double the PR 8 baseline without growing peak RSS.
    if (!smoke && r.cell.name == "rws-n6") {
      const double runsPerS =
          r.porSecs > 0 ? static_cast<double>(r.runs) / r.porSecs : 0;
      if (runsPerS < kRequiredHotpathSpeedup * kBaselineRwsN6PorRunsPerS) {
        std::cerr << "FAIL: hotpath gate: rws-n6 por at "
                  << static_cast<std::int64_t>(runsPerS)
                  << " runs/s, below "
                  << fmtX(kRequiredHotpathSpeedup) << " the PR 8 baseline of "
                  << static_cast<std::int64_t>(kBaselineRwsN6PorRunsPerS)
                  << " runs/s\n";
        rc = 1;
      }
      if (peakRssKb() > kBaselineRwsN6PeakRssKb) {
        std::cerr << "FAIL: hotpath gate: peak RSS " << peakRssKb()
                  << " KiB above the PR 8 baseline of "
                  << kBaselineRwsN6PeakRssKb << " KiB\n";
        rc = 1;
      }
    }
  }
  if (smoke &&
      (!micro.identicalDedup ||
       micro.speedup() < kRequiredHotpathMicroSpeedup)) {
    std::cerr << "FAIL: hotpath smoke gate: packed keys only "
              << fmtX(micro.speedup())
              << " faster than legacy string keys (need >= "
              << fmtX(kRequiredHotpathMicroSpeedup) << ", identical dedup: "
              << (micro.identicalDedup ? "yes" : "NO") << ")\n";
    rc = 1;
  }
  return rc;
}

}  // namespace
}  // namespace ssvsp

int main(int argc, char** argv) {
  ssvsp::bench::BenchArgs args("bench_sweep_reduction [options]",
                               "E8: the sweep engine's reduction stack and "
                               "the campaign layer on top of it.");
  args.threads = 1;  // speedups measure the stack, not parallelism
  bool smoke = false;
  std::string outPath = "BENCH_sweep.json";
  std::string campaignDir = "bench_campaign_e8";
  std::string onlyCell;
  args.spec()
      .flag("smoke", &smoke, "one small RS cell + the 2x CI gates")
      .value("out", &outPath, "JSON report path")
      .value("campaign-dir", &campaignDir,
             "scratch dir for the campaign section (scrubbed)")
      .value("cell", &onlyCell,
             "run only this cell, skip campaign + gates (profiling aid)");
  args.parse(&argc, argv);
  int rc = 1;
  if (const int guard = ssvsp::bench::guarded([&] {
        rc = ssvsp::run(args.threads, smoke, outPath, campaignDir, onlyCell);
      }))
    return guard;
  return rc;
}
