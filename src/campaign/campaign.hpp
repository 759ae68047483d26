// Campaign orchestrator: multi-process sharded sweeps with a persistent
// memo store and a cached Lat(A, f) query front-end.
//
// A campaign turns one cell's exhaustive sweep — algorithm x (n, t) x model
// — into durable, addressable work:
//
//   * the script stream is cut into ShardRange slices (the manifest's shard
//     plan); each shard sweep keeps GLOBAL script indices, so shard reports
//     merge bit-identically into the whole-stream McReport;
//   * runShard() executes one slice against the shared MemoStore, in this
//     process or in a forked worker — the ShardJob is the same either way;
//   * the orchestrator forks up to `workers` shard processes, reaps them,
//     records each finished shard (report + manifest save, tmp + rename)
//     and reassigns the slices of workers that died.  Before each fork it
//     catches the store up on memo.log (MemoStore::catchUp), so a new
//     worker inherits every orbit finished workers logged.  Killing ANY
//     process — SIGKILL included — costs at most the in-flight shards:
//     `resume` (the same runCampaign call) reruns only shards not recorded
//     done;
//   * shards are dispatched largest-remaining-first from one shared queue,
//     so a straggling worker simply stops picking up new slices while the
//     others drain the plan — work stealing by grain, not by preemption;
//   * queryCampaign() answers Lat(A, f) / verdict lookups from the merged
//     manifest reports without executing anything, with admission control:
//     an incomplete campaign or an f outside the swept crash budget is
//     rejected with a reason pointing at the manifest entry to fix.
//
// Layout of a campaign directory: manifest.json (ledger, orchestrator-only
// writer), memo.log (MemoStore, all workers append), shard-<first>.json
// (transient worker -> orchestrator handoff, deleted once recorded).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "campaign/manifest.hpp"
#include "campaign/store.hpp"
#include "explore/reduction.hpp"
#include "mc/checker.hpp"

namespace ssvsp {

/// What a campaign sweeps.  Everything else (enumeration, reduction) is
/// derived from the registry entry exactly like the canonical latency
/// sweeps, so "campaign result" and "in-memory sweep result" are reports
/// over the same space.
struct CampaignSpec {
  std::string algorithm;  ///< registry name (consensus/registry.hpp)
  int n = 4;
  int t = 2;
  /// Cap on the script stream (-1 = the full space).
  std::int64_t maxScripts = -1;
  /// Scripts per shard — the campaign's scheduling grain.
  std::int64_t shardScripts = 2048;
  int maxViolations = 4;
  /// State-space reduction the shards sweep under.  kSymmetryPor resolves
  /// the algorithm's observational footprint (src/indep) into the manifest
  /// at creation time; reports are bit-identical to the kNone oracle either
  /// way, and every memo key maps to the true summary of the script it
  /// canonicalizes.
  Reduction reduction = Reduction::kSymmetryPor;
};

struct CampaignOptions {
  /// Campaign directory (created if absent): manifest.json + memo.log.
  std::string dir;
  /// Forked shard worker processes; 0 = run shards in THIS process (no
  /// fork — the mode tests and single-machine debugging use).
  int workers = 2;
  /// Test hook: the worker dispatched the shard-plan index kills itself
  /// (SIGKILL) mid-shard, once; -1 = off.  The orchestrator survives,
  /// reassigns the slice, and the campaign completes.
  int chaosKillShard = -1;
};

/// One addressable unit of campaign work: the manifest's sweep spec
/// restricted to the shard at `index`.  Stable across execution modes —
/// in-process, forked worker, and resume all run the same job.
struct ShardJob {
  const CampaignManifest& manifest;
  std::size_t index = 0;
};

struct ShardResult {
  McReport report;
  SweepRunStats stats;
  /// Memo records the executing worker appended while running this shard
  /// (0 when run without a MemoStore).  Summed into
  /// CampaignResult::memoEntriesAppended.
  std::int64_t memoAppended = 0;
};

/// Executes one shard job against `memo` (nullable: cold, unshared run).
/// Pure: no filesystem side effects beyond what `memo` itself stages.
ShardResult runShard(const ShardJob& job, RunMemo* memo);

/// Folds per-shard reports (range order) into the whole-sweep report —
/// the other half of the runShard()/mergeShards() contract.
McReport mergeShards(std::vector<McReport>&& reports, int maxViolations);

struct CampaignResult {
  bool ok = false;
  std::string error;
  McReport report;  ///< merged over ALL shards (valid when ok)
  int shardsTotal = 0;
  int shardsSkipped = 0;  ///< already done in the manifest (resume path)
  int shardsRun = 0;      ///< executed by this invocation
  int workersForked = 0;
  int workerDeaths = 0;  ///< abnormal worker exits survived
  std::int64_t memoEntriesLoaded = 0;    ///< replayed from memo.log
  std::int64_t memoEntriesAppended = 0;  ///< new orbits this invocation
  std::int64_t memoBytesRepaired = 0;    ///< torn tail truncated on open
  /// Aggregated execution counters of the shards THIS invocation ran.
  SweepRunStats stats;
};

/// Runs (or resumes) the campaign: creates dir + manifest on first call,
/// validates `spec` against the existing manifest otherwise, then drains
/// pending shards.  Returns the merged report once every shard is done.
CampaignResult runCampaign(const CampaignSpec& spec,
                           const CampaignOptions& options);

/// The manifest, for status display; nullopt (with `error`) when absent or
/// unreadable.
std::optional<CampaignManifest> campaignStatus(const std::string& dir,
                                               std::string* error = nullptr);

/// One Lat(A, f) / verdict answer from the query front-end.
struct CampaignAnswer {
  int f = 0;
  bool admitted = false;
  std::string reason;  ///< why not admitted (points at the manifest entry)
  Round latency = kNoRound;  ///< Lat(A, f); kNoRound = unbounded (when admitted)
  bool consensusOk = false;  ///< no violations over the swept space
};

/// Answers every f in `crashBudgets` with ONE manifest read and ONE report
/// merge (the batched read path).  Admission control rejects — per query,
/// with a reason — campaigns that are incomplete and budgets outside the
/// swept space, instead of answering from partial data.
std::vector<CampaignAnswer> queryCampaign(const std::string& dir,
                                          const std::vector<int>& crashBudgets,
                                          std::string* error = nullptr);

}  // namespace ssvsp
