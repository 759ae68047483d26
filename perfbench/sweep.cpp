// Workload `sweep`: FloodSetWS at n=5 t=2 under RWS (horizon 4, pending
// lags {1, 0}, reduction symmetry_por), over the first 200,000 scripts of
// the stream (6.4M runs).  One job is three phases:
//   (a) modelCheckConsensus in memory at nproc threads;
//   (b) a cold runCampaign with nproc forked workers into an empty dir;
//   (c) a warm re-run with a fresh manifest against (b)'s memo.log.
// (a) and (b) load the sweep stack; (b) adds store appends; (c) does no
// engine work and is dominated by the store's replay-on-open.
#include <algorithm>
#include <filesystem>

#include "campaign/campaign.hpp"
#include "campaign/store.hpp"
#include "common.hpp"
#include "consensus/registry.hpp"
#include "explore/reduction.hpp"
#include "indep/independence.hpp"
#include "indep/normalizer.hpp"
#include "mc/checker.hpp"
#include "mc/enumerator.hpp"

namespace perfbench {
namespace {

using namespace ssvsp;
namespace fs = std::filesystem;

constexpr const char* kAlgorithm = "FloodSetWS";
constexpr int kN = 5;
constexpr int kT = 2;
constexpr std::int64_t kScripts = 200'000;
/// Lat(FloodSetWS, f) = t + 1 for every f at t = 2.
constexpr Round kExpectedLat = 3;

struct SweepInputs {
  const AlgorithmEntry* entry = nullptr;
  RoundConfig cfg{kN, kT};
  McCheckOptions mc;
  CampaignSpec campaign;
  std::int64_t totalScripts = 0;
};

/// The workload's set-up: resolve the algorithm and its POR footprint and
/// size the script prefix — the derivation a campaign manifest makes.
SweepInputs prepare(int threads) {
  SweepInputs in;
  in.entry = findAlgorithm(kAlgorithm);
  McCheckOptions& mc = in.mc;
  mc.enumeration.horizon = kT + 2;
  mc.enumeration.maxCrashes = kT;
  mc.enumeration.pendingLags = {1, 0};
  mc.enumeration.maxScripts = kScripts;
  // Pinned, not defaulted: a change of the default reduction must not
  // change this workload.
  mc.reduction = Reduction::kSymmetryPor;
  mc.symmetryFixedIds = in.entry->symmetryFixedIds;
  mc.decisionFixRound = indep::resolveDecisionFixRound(*in.entry, in.cfg);
  mc.porReadsAllSenders = in.entry->footprint.readsAllSenders;
  mc.porReadIdsMask = indep::readIdsMaskFor(in.entry->footprint, kN);
  mc.threads = threads;
  mc.progressIntervalSec = 0;
  in.totalScripts =
      countScripts(in.cfg, in.entry->intendedModel, mc.enumeration);

  in.campaign.algorithm = kAlgorithm;
  in.campaign.n = kN;
  in.campaign.t = kT;
  in.campaign.maxScripts = kScripts;
  in.campaign.reduction = Reduction::kSymmetryPor;
  return in;
}

McReport inMemory(const SweepInputs& in, int threads, SweepRunStats* stats) {
  McCheckOptions mc = in.mc;
  mc.threads = threads;
  mc.runStats = stats;
  return modelCheckConsensus(in.entry->factory, in.cfg,
                             in.entry->intendedModel, mc);
}

CampaignResult campaign(const SweepInputs& in, const std::string& dir,
                        int workers) {
  CampaignOptions options;
  options.dir = dir;
  options.workers = workers;
  return runCampaign(in.campaign, options);
}

/// One three-phase job; `traced` wraps each phase in a probe.
void sweepJob(const RunContext& ctx, const SweepInputs& in, Result& out,
              bool traced) {
  const std::string dir = ctx.workDir + "/campaign";
  fs::remove_all(dir);
  const char* suffix = traced ? "_traced" : "";
  auto timed = [&](const char* span, auto&& fn) {
    return traced ? probe(span, fn) : timeSeconds(fn);
  };

  McReport memReport;
  SweepRunStats stats;
  const double a = timed("sweep.in_memory", [&] {
    memReport = inMemory(in, ctx.threads, &stats);
  });
  CampaignResult cold, warm;
  const double b =
      timed("campaign.cold", [&] { cold = campaign(in, dir, ctx.threads); });
  fs::remove(dir + "/manifest.json");
  const double c =
      timed("campaign.warm", [&] { warm = campaign(in, dir, ctx.threads); });
  fs::remove_all(dir);

  out.samples[std::string("sweep_s") + suffix].push_back(a);
  out.samples[std::string("sweep_runs_per_s") + suffix].push_back(
      static_cast<double>(stats.runsRequested) / a);
  out.samples[std::string("campaign_cold_s") + suffix].push_back(b);
  out.samples[std::string("campaign_warm_s") + suffix].push_back(c);
  out.samples[std::string("job_s") + suffix].push_back(a + b + c);

  out.check(cold.ok, "sweep: cold campaign failed: " + cold.error);
  out.check(warm.ok, "sweep: warm campaign failed: " + warm.error);
  const std::string mem = memReport.toJsonString();
  out.check(cold.ok && cold.report.toJsonString() == mem,
            "sweep: cold campaign report differs from the in-memory report");
  out.check(warm.ok && warm.report.toJsonString() == mem,
            "sweep: warm campaign report differs from the in-memory report");
  for (int f = 0; f <= kT; ++f)
    out.check(memReport.ok() && memReport.latUpToCrashes(f) == kExpectedLat,
              "sweep: Lat(f=" + std::to_string(f) + ") is " +
                  std::to_string(memReport.latUpToCrashes(f)) + ", expected " +
                  std::to_string(kExpectedLat));
  out.facts["sweep_runs_requested"] = std::to_string(stats.runsRequested);
  out.facts["campaign_cold_engine_runs"] =
      std::to_string(cold.stats.runsExecuted);
  out.facts["campaign_warm_engine_runs"] =
      std::to_string(warm.stats.runsExecuted);
}

}  // namespace

void runSweep(const RunContext& ctx, Result& out) {
  out.facts["seed"] = "unused: the sweep is exhaustive over a fixed prefix";
  out.facts["threads"] = std::to_string(ctx.threads) + " (in-memory sweep)";
  out.facts["workers"] = std::to_string(ctx.threads) + " (campaigns)";
  out.facts["input"] = "FloodSetWS n=5 t=2 rws horizon 4 lags {1,0} "
                       "symmetry_por, first 200000 scripts";

  SweepInputs in;
  auto setup = [&] { in = prepare(ctx.threads); };
  setupBatch(out, setup);
  out.facts["scripts"] = std::to_string(in.totalScripts);
  out.check(in.totalScripts == kScripts,
            "sweep: script prefix has " + std::to_string(in.totalScripts) +
                " scripts, expected " + std::to_string(kScripts));
  fs::create_directories(ctx.workDir);

  if (ctx.trace) {
    tracedPairs(ctx.seconds / 2,
                [&](bool traced) { sweepJob(ctx, in, out, traced); });
    return;
  }
  repeatFor(
      ctx.seconds, 3, out, [&] { sweepJob(ctx, in, out, false); }, setup);
}

void profileSweepLayers(const RunContext& ctx, Result& out) {
  ssvsp::obs::MetricsRegistry& registry = ssvsp::obs::metrics();
  const SweepInputs in = prepare(ctx.threads);
  const AlgorithmEntry& entry = *in.entry;
  const RoundModel model = entry.intendedModel;
  fs::create_directories(ctx.workDir);

  // -- explore: the 1/2/nproc thread curve and the sweep's own counters.
  const int wide = std::min(4, ctx.threads);
  SweepRunStats s1, sw;
  const double t1 = probe("explore.sweep_t1", [&] { inMemory(in, 1, &s1); });
  const double t2 = probe("explore.sweep_t2",
                          [&] { inMemory(in, std::min(2, wide), nullptr); });
  const double tw = probe("explore.sweep_t4", [&] { inMemory(in, wide, &sw); });
  out.layer["explore.speedup_t2"] = t1 / t2;
  out.layer["explore.speedup_t4"] = t1 / tw;
  out.layer["explore.engine_runs"] = static_cast<double>(sw.runsExecuted);
  out.layer["explore.lost_dedup_runs"] =
      static_cast<double>(sw.runsExecuted - s1.runsExecuted);
  out.layer["explore.memo_hit_ratio"] =
      static_cast<double>(sw.runsFromMemo) / sw.runsRequested;
  out.layer["explore.rounds_resumed_ratio"] =
      static_cast<double>(sw.roundsResumed) /
      (sw.roundsExecuted + sw.roundsResumed);
  registry.counter("explore.runs_requested").add(sw.runsRequested);
  registry.counter("explore.runs_from_memo").add(sw.runsFromMemo);
  registry.counter("explore.engine_runs").add(sw.runsExecuted);
  registry.counter("explore.engine_runs_t1").add(s1.runsExecuted);
  out.facts["speedup_threads"] = std::to_string(wide);

  // -- the sweep stack stage by stage, single-threaded, as the sweep wires
  // it: enumerate -> normalize -> canonicalize -> memo probe -> engine.
  // Each pass adds one stage; a stage's cost is the difference between
  // consecutive passes, divided by the scripts or pairs it handled.
  const auto configs = allInitialConfigs(kN, in.mc.valueDomain);
  const indep::PorSpec por = porSpecFromExplore(in.mc);
  const SymmetryGroup group(kN, in.mc.symmetryFixedIds);
  RoundEngineOptions engineOpt;
  engineOpt.horizon = in.mc.enumeration.horizon + in.mc.horizonSlack;
  engineOpt.stopWhenAllDecided = true;
  RunExecutor executor(in.cfg, model, entry.factory, configs, engineOpt,
                       nullptr, nullptr);
  RunMemo memo;

  std::int64_t scripts = 0, collapsed = 0, misses = 0;
  enum Stage { kEnumerate, kNormalize, kCanonicalize, kEngine, kProbe };
  auto pass = [&](Stage stage, const char* span) {
    indep::ScriptNormalizer normalizer(in.cfg, por);
    PairCanonicalizer canon(group);
    std::int64_t index = 0;
    return probe(span, [&] {
      forEachScript(in.cfg, model, in.mc.enumeration,
                    [&](const FailureScript& script) {
        const std::int64_t at = index++;
        if (stage == kEnumerate) return true;
        const FailureScript& key = normalizer.normalize(script);
        if (stage == kNormalize) {
          collapsed += normalizer.lastCollapsed() ? 1 : 0;
          return true;
        }
        canon.setScript(key);
        for (std::size_t ci = 0; ci < configs.size(); ++ci) {
          const MemoKey& k = canon.key(configs[ci]);
          if (stage == kCanonicalize) continue;
          if (memo.find(k) || stage == kProbe) continue;
          ++misses;
          const MemoKey missed = k;
          RunSummary summary;
          observe("explore.engine_run",
                  [&] { summary = executor.run(script, at, ci); });
          memo.insert(missed, summary);
        }
        return true;
      });
      scripts = index;
    });
  };
  const double tEnum = pass(kEnumerate, "mc.enumerate");
  const double tNorm = pass(kNormalize, "indep.normalize");
  const double tCanon = pass(kCanonicalize, "explore.canonicalize");
  pass(kEngine, "explore.pipeline");
  const double tProbe = pass(kProbe, "explore.memo_probe");
  const double pairs = static_cast<double>(scripts) * configs.size();
  out.layer["mc.enumerate_ns"] = tEnum * 1e9 / scripts;
  out.layer["indep.normalize_ns"] = (tNorm - tEnum) * 1e9 / scripts;
  out.layer["indep.collapsed_ratio"] =
      static_cast<double>(collapsed) / scripts;
  out.layer["explore.canonicalize_ns"] = (tCanon - tNorm) * 1e9 / pairs;
  out.layer["explore.memo_probe_ns"] = (tProbe - tCanon) * 1e9 / pairs;
  const auto engine = registry.histogram("explore.engine_run").snapshot();
  out.layer["explore.engine_run_us"] =
      engine.count > 0 ? engine.sum / 1e3 / engine.count : 0;
  registry.counter("indep.scripts_collapsed").add(collapsed);
  registry.counter("mc.scripts").add(scripts);
  registry.counter("explore.pipeline_misses").add(misses);

  // -- campaign: a cold campaign, then its store, shard by shard.
  const std::string dir = ctx.workDir + "/profile_campaign";
  fs::remove_all(dir);
  CampaignResult cold;
  probe("campaign.cold", [&] { cold = campaign(in, dir, ctx.threads); });
  out.check(cold.ok, "profile: cold campaign failed: " + cold.error);
  out.layer["campaign.memo_hit_ratio"] =
      static_cast<double>(cold.stats.runsFromMemo) / cold.stats.runsRequested;
  out.layer["campaign.engine_runs"] =
      static_cast<double>(cold.stats.runsExecuted);
  registry.counter("campaign.engine_runs").add(cold.stats.runsExecuted);
  registry.counter("campaign.runs_from_memo").add(cold.stats.runsFromMemo);
  registry.counter("campaign.runs_requested").add(cold.stats.runsRequested);
  registry.counter("campaign.worker_deaths").add(cold.workerDeaths);
  out.facts["campaign_worker_deaths"] = std::to_string(cold.workerDeaths);
  out.check(cold.workerDeaths == 0, "profile: campaign workers died");

  const std::string log = dir + "/memo.log";
  std::string error;
  std::unique_ptr<MemoStore> store;
  out.layer["campaign.store_open_s"] = probe(
      "campaign.store_open", [&] { store = MemoStore::open(log, &error); });
  out.check(store != nullptr, "profile: cannot open memo.log: " + error);
  if (store == nullptr) return;
  out.layer["campaign.store_entries"] =
      static_cast<double>(store->openStats().entriesLoaded);
  store.reset();
  out.layer["campaign.store_mb"] =
      static_cast<double>(fs::file_size(log)) / (1024.0 * 1024.0);
  registry.gauge("campaign.store_bytes").set(
      static_cast<std::int64_t>(fs::file_size(log)));

  // The shards of the same manifest, in this process, into a fresh store.
  const auto manifest = campaignStatus(dir, &error);
  out.check(manifest.has_value(), "profile: no campaign manifest: " + error);
  if (!manifest) return;
  {
    auto shardStore = MemoStore::open(dir + "/shards.log", &error);
    out.check(shardStore != nullptr, "profile: cannot open shard store");
    if (shardStore == nullptr) return;
    std::vector<double> shardS, flushMs;
    std::int64_t engineRuns = 0;
    for (std::size_t i = 0; i < manifest->shards.size(); ++i) {
      shardS.push_back(probe("campaign.shard", [&] {
        engineRuns += runShard(ShardJob{*manifest, i}, shardStore.get())
                          .stats.runsExecuted;
      }));
      bool sealed = false;
      flushMs.push_back(
          1e3 * probe("campaign.flush",
                      [&] { sealed = shardStore->appendFooter(&error); }));
      out.check(sealed, "profile: appendFooter failed: " + error);
    }
    // One process, one store: what the forked workers would execute if
    // they saw each other's memo inserts.
    registry.counter("campaign.inprocess_engine_runs").add(engineRuns);
    out.facts["campaign_inprocess_engine_runs"] = std::to_string(engineRuns);
    out.layer["campaign.shard_s"] = median(shardS);
    out.layer["campaign.flush_ms"] = median(flushMs);
  }

  CompactStats compacted;
  bool compactOk = false;
  out.layer["campaign.compact_s"] = probe("campaign.compact", [&] {
    compactOk = compactMemoStore(log, false, &compacted, &error);
  });
  out.check(compactOk, "profile: compaction failed: " + error);
  out.layer["campaign.store_open_compacted_s"] =
      probe("campaign.store_open_compacted",
            [&] { store = MemoStore::open(log, &error); });
  out.check(store != nullptr, "profile: cannot reopen compacted store");
  store.reset();
  fs::remove_all(dir);
}

}  // namespace perfbench
