// ExploreSpec — the one description of an exploration sweep.
//
// Every exhaustive artifact in this library (the model checker, the latency
// analyzers, the experiment tables) walks the same space: every legal
// adversary script (per EnumOptions) crossed with every initial
// configuration over a value domain.  ExploreSpec bundles that description
// once — script space, value domain, engine slack, worker count, sharding
// grain, sampling seed — so the sweep is parameterized (and parallelized)
// in one place instead of per caller.
//
// McCheckOptions (src/mc/checker.hpp) and LatencyOptions
// (src/latency/latency.hpp) are thin extensions of ExploreSpec: they add
// only their analyzer-specific knobs.  Code that used to set the
// copy-pasted `enumeration` / `valueDomain` / `horizonSlack` fields on
// those structs keeps compiling unchanged — the fields now live here.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "util/types.hpp"

namespace ssvsp {

/// Options for the exhaustive script enumerator (src/mc/enumerator.hpp).
struct EnumOptions {
  int horizon = 3;
  int maxCrashes = 1;
  /// RWS pending arrival menu: for a message sent in round r, lag k > 0
  /// means "surfaces in round r + k", lag 0 means "never surfaces within the
  /// horizon".  Empty menu (or RS) disables pendings.  Every message of a
  /// dying sender independently picks "not pending" or one of these lags.
  std::vector<int> pendingLags;
  /// Stop after this many scripts (-1 = unlimited).
  std::int64_t maxScripts = -1;
};

/// State-space reduction strategy for a sweep (src/explore/reduction.hpp).
enum class Reduction {
  /// Execute every (script, config) pair directly — the reference oracle
  /// every reduced sweep is tested against.
  kNone,
  /// Memoize runs modulo process-id permutations and the static
  /// independence analysis (src/indep).  Pairs in the same orbit under the
  /// permutations fixing [0, symmetryFixedIds) share one execution, and
  /// before symmetry canonicalization each script is mapped to the
  /// representative of its observational-equivalence class
  /// (indep::ScriptNormalizer), so schedules that differ only in choices
  /// the algorithm cannot observe — deliveries past the declared
  /// decision-fix round, toward crashed receivers, past the engine horizon,
  /// FIFO-tied arrival orders — share one engine execution too.  Sound only
  /// for id-symmetric algorithms (see AlgorithmEntry::symmetryFixedIds);
  /// results are bit-identical to kNone by construction — the enumerated
  /// stream, script indices and per-run folds never change, only
  /// executions are deduplicated.  Uses `decisionFixRound` (resolved from
  /// the AlgorithmEntry footprint, see indep::porSpecFor) for the
  /// decision-horizon rules; kNoRound keeps the algorithm-independent
  /// structural rules only.
  kSymmetryPor,
};

/// The spelling used by sweep specs, CLI flags and the campaign manifest:
/// "none" / "symmetry_por".
constexpr std::string_view toString(Reduction reduction) {
  return reduction == Reduction::kSymmetryPor ? "symmetry_por" : "none";
}

/// Inverse of toString(Reduction); nullopt on any other spelling.
constexpr std::optional<Reduction> reductionFromString(std::string_view s) {
  if (s == "none") return Reduction::kNone;
  if (s == "symmetry_por") return Reduction::kSymmetryPor;
  return std::nullopt;
}

/// Why reductionFromString refused `s` — the one message the spec parser,
/// the CLI flags and the campaign manifest reader report.  The retired
/// symmetry-only mode ("symmetry") is named with its replacement, so an old
/// spec or manifest is refused instead of silently reinterpreted.
std::string reductionSpellingError(std::string_view s);

/// A contiguous slice of the canonical script stream — the unit of work the
/// campaign layer (src/campaign) addresses, schedules across processes and
/// resumes.  Script indices are GLOBAL stream positions: a sweep windowed to
/// [firstScript, firstScript + numScripts) reports the same scriptIndex for
/// a given script as the whole-stream sweep, so per-shard results merge into
/// exactly the whole-stream result (violation order, canonicalization cache
/// keys and progress totals all key on the global index).
struct ShardRange {
  std::int64_t firstScript = 0;
  /// Scripts in the slice; -1 = to the end of the stream.
  std::int64_t numScripts = -1;

  /// The default range: the whole stream (the non-campaign callers).
  bool whole() const { return firstScript == 0 && numScripts < 0; }

  /// Scripts this range covers out of a stream of `totalScripts`.
  std::int64_t countWithin(std::int64_t totalScripts) const;
};

/// Evenly-grained shard plan over a stream of `totalScripts` scripts:
/// ceil(total / shardScripts) ranges of at most `shardScripts` each, in
/// stream order.  The campaign orchestrator assigns these to worker
/// processes dynamically, so a fine grain doubles as work stealing —
/// stragglers simply stop picking up new ranges.
std::vector<ShardRange> planShardRanges(std::int64_t totalScripts,
                                        std::int64_t shardScripts);

/// The shared sweep description consumed by modelCheckConsensus and
/// measureLatency (and anything else that walks script x config spaces).
struct ExploreSpec {
  EnumOptions enumeration;  ///< script space (exhaustive mode)
  int valueDomain = 2;      ///< initial configs drawn from [0, valueDomain)
  /// State-space reduction; kSymmetryPor needs `symmetryFixedIds` to cover
  /// every process id the algorithm treats specially.
  Reduction reduction = Reduction::kNone;
  /// Leading process ids NOT permuted by symmetry reduction (the ids the
  /// algorithm distinguishes; 0 for fully symmetric algorithms, 2 for A1).
  int symmetryFixedIds = 0;
  /// kSymmetryPor only: round by which every process's decision is fixed
  /// in every admissible run, resolved from the algorithm's declared
  /// footprint at f = t (indep::resolveDecisionFixRound); kNoRound = no
  /// declared bound — POR keeps only its structural rules.  Ignored by
  /// kNone.
  Round decisionFixRound = kNoRound;
  /// kSymmetryPor only: the SSVSP_CHECK replay tripwire — every Nth memo
  /// hit whose script was POR-collapsed is re-executed fresh and compared
  /// against the memoized class summary; a mismatch raises L501
  /// (indep::PorTripwireError).  0 disables; the por-equality CI leg and
  /// the soundness ctests run with it on.
  int porReplayEvery = 0;
  /// kSymmetryPor only: F2 of the footprint — false means only the senders
  /// in `porReadIdsMask` can influence any observable state, so delivery
  /// choices of every other sender collapse.  Copied from the algorithm's
  /// ObservationalFootprint by the same callers that copy symmetryFixedIds.
  bool porReadsAllSenders = true;
  /// Distinguished read ids (bit per process id) when porReadsAllSenders is
  /// false.
  std::uint64_t porReadIdsMask = 0;
  /// Extra engine rounds past the enumeration horizon, so that decisions
  /// scheduled at t+1 still happen when crashes land late.
  int horizonSlack = 2;
  /// Worker threads for the parallel sweep engine; 0 = one per hardware
  /// thread, 1 = inline (no worker pool).  Results are bit-identical for
  /// every value — see src/explore/parallel_sweep.hpp.
  int threads = 1;
  /// Scripts per work chunk (the sharding grain).  Affects scheduling and
  /// the granularity of deterministic early exit, never the result of a
  /// sweep that does not saturate; saturating sweeps cut at a chunk
  /// boundary, so the cut depends on this grain but not on `threads`.
  int chunkScripts = 64;
  /// Seed for sampling mode (analyzers that draw scripts instead of
  /// enumerating them).
  std::uint64_t seed = 1;
  /// Stderr progress line period in seconds: > 0 emits one line per period
  /// (configs done, throughput, ETA, memo hit rate), 0 disables, and the
  /// default -1 defers to the SSVSP_PROGRESS environment variable (unset =
  /// off).  Purely observational — never affects results.
  double progressIntervalSec = -1;
  /// The slice of the script stream this sweep executes (default: all of
  /// it).  A windowed sweep visits only the slice but keeps GLOBAL script
  /// indices, so shard results merge bit-identically into the whole-stream
  /// result — see ShardRange and src/campaign.
  ShardRange shard;
};

/// Number of workers `threads` asks for: itself if positive, else the
/// hardware concurrency (minimum 1).
int resolveThreads(int threads);

}  // namespace ssvsp
