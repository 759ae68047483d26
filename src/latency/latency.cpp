#include "latency/latency.hpp"

#include <algorithm>
#include <memory>
#include <optional>
#include <sstream>
#include <utility>
#include <vector>

#include "explore/parallel_sweep.hpp"
#include "explore/reduction.hpp"
#include "indep/independence.hpp"
#include "lint/lint.hpp"
#include "mc/checker.hpp"
#include "obs/obs.hpp"
#include "rounds/adversary.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"
#include "util/serde.hpp"

namespace ssvsp {

std::string LatencyProfile::toString() const {
  auto fmt = [](Round r) {
    return r == kNoRound ? std::string("inf") : std::to_string(r);
  };
  std::ostringstream os;
  os << "lat=" << fmt(lat) << " Lat=" << fmt(latMax)
     << " Lambda=" << fmt(lambda);
  for (const auto& [f, worst] : latByMaxCrashes)
    os << " Lat(f<=" << f << ")=" << fmt(worst);
  os << " runs=" << runsExecuted;
  return os.str();
}

void LatencyProfile::toJson(JsonWriter& w) const {
  w.beginObject();
  w.kv("schema", kReportSchemaV1);
  w.kv("kind", "latency_profile");
  w.key("lat");
  writeJsonRound(w, lat);
  w.key("lat_max");
  writeJsonRound(w, latMax);
  w.key("lambda");
  writeJsonRound(w, lambda);
  w.key("lat_by_max_crashes");
  writeJsonLatencyMap(w, latByMaxCrashes);
  w.kv("runs_executed", runsExecuted);
  w.endObject();
}

std::string LatencyProfile::toJsonString() const {
  std::ostringstream os;
  JsonWriter w(os);
  toJson(w);
  return os.str();
}

std::optional<LatencyProfile> LatencyProfile::fromJson(const JsonValue& doc,
                                                       std::string* error) {
  if (!checkJsonEnvelope(doc, kReportSchemaV1, "latency_profile", error))
    return std::nullopt;
  LatencyProfile profile;
  const JsonValue* lat = doc.find("lat");
  const JsonValue* latMax = doc.find("lat_max");
  const JsonValue* lambda = doc.find("lambda");
  const bool ok =
      lat != nullptr && readJsonRound(*lat, &profile.lat) &&
      latMax != nullptr && readJsonRound(*latMax, &profile.latMax) &&
      lambda != nullptr && readJsonRound(*lambda, &profile.lambda) &&
      readJsonLatencyMap(doc.find("lat_by_max_crashes"),
                         &profile.latByMaxCrashes) &&
      readJsonI64(doc.find("runs_executed"), &profile.runsExecuted);
  if (!ok) {
    if (error != nullptr) *error = "latency_profile: bad fields";
    return std::nullopt;
  }
  return profile;
}

namespace {

/// lat(A, C) accumulates "min over runs": kNoRound means no deciding run
/// seen yet, so it never wins.
void foldMin(Round& into, Round lat) {
  if (lat != kNoRound && (into == kNoRound || lat < into)) into = lat;
}

/// One shard of the latency sweep.  All aggregates are per-config minima
/// and per-crash-count maxima (with kNoRound = infinity), so merging two
/// shards is the same elementwise min/max regardless of how the stream was
/// split — the profile is thread-count-invariant.
class LatShard : public SweepShard {
 public:
  LatShard(const SweepContext& ctx, RunExecutor& executor)
      : ctx_(ctx),
        executor_(executor),
        minPerConfig_(ctx.configs.size(), kNoRound) {}

  void visit(const FailureScript& script, std::int64_t scriptIndex) override {
    const int crashes = script.numCrashes();
    for (std::size_t ci = 0; ci < ctx_.configs.size(); ++ci) {
      ++runsExecuted_;
      const Round lr = executor_.run(script, scriptIndex, ci).latency;
      foldMin(minPerConfig_[ci], lr);
      foldWorst(worstByExactCrashes_, crashes, lr);
    }
  }

  void mergeFrom(SweepShard& from) override {
    LatShard& other = static_cast<LatShard&>(from);
    runsExecuted_ += other.runsExecuted_;
    for (std::size_t ci = 0; ci < minPerConfig_.size(); ++ci)
      foldMin(minPerConfig_[ci], other.minPerConfig_[ci]);
    for (const auto& [crashes, lr] : other.worstByExactCrashes_)
      foldWorst(worstByExactCrashes_, crashes, lr);
  }

  /// Folds the accumulated minima/maxima into the profile's degrees.
  LatencyProfile finish() {
    LatencyProfile profile;
    profile.runsExecuted = runsExecuted_;

    // lat(A) = min over configs of lat(A, C);  Lat(A) = max over configs.
    profile.latMax = 0;
    for (Round cmin : minPerConfig_) {
      foldMin(profile.lat, cmin);
      if (cmin == kNoRound)
        profile.latMax = kNoRound;  // some config never yields a deciding run
      else if (profile.latMax != kNoRound)
        profile.latMax = std::max(profile.latMax, cmin);
    }

    // Lat(A, f) = max over exact-crash buckets 0..f (monotone accumulation).
    Round running = 0;
    for (const auto& [crashes, worst] : worstByExactCrashes_) {
      if (worst == kNoRound || running == kNoRound)
        running = kNoRound;
      else
        running = std::max(running, worst);
      profile.latByMaxCrashes[crashes] = running;
    }
    const auto zero = profile.latByMaxCrashes.find(0);
    profile.lambda = zero != profile.latByMaxCrashes.end() ? zero->second
                                                           : kNoRound;
    return profile;
  }

 private:
  const SweepContext& ctx_;
  RunExecutor& executor_;  ///< the owning worker's arena; visit()-only
  std::int64_t runsExecuted_ = 0;
  /// lat(A, C) per configuration index; latencies here are "min over runs",
  /// so start at kNoRound (no run seen yet).
  std::vector<Round> minPerConfig_;
  /// Worst |r| over runs with exactly k crashes.
  std::map<int, Round> worstByExactCrashes_;
};

}  // namespace

LatencyOptions canonicalLatencyOptions(const AlgorithmEntry& entry,
                                       const RoundConfig& cfg,
                                       bool exhaustive) {
  LatencyOptions options;
  options.exhaustive = exhaustive;
  options.samples = 1000;
  options.enumeration.horizon = cfg.t + 2;
  options.enumeration.maxCrashes = cfg.t;
  if (entry.intendedModel == RoundModel::kRws) {
    options.enumeration.pendingLags = {1, 0};
    options.enumeration.maxScripts = 200000;
  }
  // Behaviour-preserving accelerator: profiles are bit-identical with
  // reduction on (the orbit-equivalence and POR-equality tests pin this),
  // it only cuts the number of engine executions.  symmetry_por composes
  // the footprint-derived independence collapse on top of the orbit memo.
  options.reduction = Reduction::kSymmetryPor;
  options.symmetryFixedIds = entry.symmetryFixedIds;
  options.decisionFixRound = indep::resolveDecisionFixRound(entry, cfg);
  options.porReadsAllSenders = entry.footprint.readsAllSenders;
  options.porReadIdsMask = indep::readIdsMaskFor(entry.footprint, cfg.n);
  // SSVSP_CHECK turns the L501 replay tripwire on for every canonical
  // sweep — the belt the CI por-equality leg wears over the bit-identity
  // braces.
  options.porReplayEvery = indep::replayEveryFromEnv();
  return options;
}

LatencyProfile measureLatency(const RoundAutomatonFactory& factory,
                              const RoundConfig& cfg, RoundModel model,
                              const LatencyOptions& options) {
  // Same preflight contract as modelCheckConsensus: reject inadmissible
  // specs with structured diagnostics before any worker spawns.
  preflightSweep(cfg, model, options);

  const SweepContext ctx(factory, cfg, model,
                         allInitialConfigs(cfg.n, options.valueDomain),
                         options);
  ScriptStream stream;
  if (options.exhaustive) {
    stream = [&](const std::function<bool(const FailureScript&)>& fn) {
      forEachScript(cfg, model, options.enumeration, fn);
    };
  } else {
    // Sampling mode: the script list is drawn up front (serially, from the
    // spec's seed) and then swept like any other stream, so the profile is
    // a function of (seed, samples) alone — not of the thread count.
    Rng rng(options.seed);
    ScriptSampler sampler(cfg, model, options.enumeration.horizon);
    // Always include the designed corner cases the paper's arguments use.
    auto scripts = std::make_shared<std::vector<FailureScript>>();
    scripts->push_back(noFailures());
    for (int k = 1; k <= cfg.t; ++k)
      scripts->push_back(initialCrashes(cfg.n, k));
    for (int i = 0; i < options.samples; ++i)
      scripts->push_back(sampler.sample(rng));
    stream = [scripts](const std::function<bool(const FailureScript&)>& fn) {
      for (const FailureScript& script : *scripts)
        if (!fn(script)) return;
    };
  }

  SweepRun sweep = runSweep(
      ctx, stream, options, /*memo=*/nullptr,
      {"latency", "latency.sweep",
       [&] {
         return options.exhaustive
                    ? countScripts(cfg, model, options.enumeration)
                    : std::int64_t{options.samples} + cfg.t + 1;
       }},
      [&](RunExecutor& arena) {
        return std::make_unique<LatShard>(ctx, arena);
      });

  LatencyProfile profile = static_cast<LatShard&>(*sweep.merged).finish();
  obs::metrics().counter("latency.runs").add(profile.runsExecuted);
  return profile;
}

LatencyProfile measureLatency(const RoundAutomatonFactory& factory,
                              const RoundConfig& cfg, RoundModel model,
                              const ExploreSpec& spec) {
  LatencyOptions options;
  static_cast<ExploreSpec&>(options) = spec;
  return measureLatency(factory, cfg, model, options);
}

}  // namespace ssvsp
