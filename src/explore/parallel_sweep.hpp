// Deterministic parallel sweep over an adversary-script stream.
//
// The engine shards a serially-enumerated script stream into fixed-size
// chunks, fans the chunks out to a worker pool, runs each chunk into its own
// shard accumulator, and merges completed shards strictly in chunk order.
// Because (1) chunk boundaries depend only on `chunkScripts`, (2) each shard
// sees its scripts in stream order, and (3) shards are reduced in chunk
// order, the merged accumulator is BIT-IDENTICAL for every thread count —
// workers only change *when* a chunk is processed, never *what* the reduce
// sees.
//
// Early exit is deterministic too: `saturated()` is consulted only on the
// merged in-order prefix, after each chunk joins it.  The sweep therefore
// always cuts at the same chunk boundary; chunks that were speculatively
// processed beyond the cut are discarded, not merged.  (The single-thread
// path checks saturation at the same boundaries, so it cuts identically.)
//
// Shard accumulators must be pure functions of (their chunk of the stream,
// the shared read-only context they capture); mergeFrom must behave like
// "append the later range onto the earlier one".  visit() runs concurrently
// on DISTINCT shards from multiple threads, so anything a shard touches that
// is shared — the automaton factory above all — must be safe to use
// concurrently (see the factory contract in rounds/round_automaton.hpp).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "explore/reduction.hpp"
#include "explore/spec.hpp"
#include "obs/progress.hpp"
#include "rounds/engine.hpp"
#include "rounds/failure_script.hpp"
#include "rounds/round_automaton.hpp"

namespace ssvsp {

/// A per-chunk accumulator.  The engine creates one per chunk via the
/// factory passed to parallelSweep, feeds it the chunk's scripts, and folds
/// it into the in-order merged prefix.
class SweepShard {
 public:
  virtual ~SweepShard() = default;

  /// Absorbs one script.  `scriptIndex` is the script's position in the
  /// canonical stream (the deterministic run key for reports).  Called from
  /// worker threads, but always on a shard no other thread touches.
  virtual void visit(const FailureScript& script, std::int64_t scriptIndex) = 0;

  /// Folds `from` — which covers the index range immediately after this
  /// shard's — into this shard.  Called with the merge lock held (never
  /// concurrently).
  virtual void mergeFrom(SweepShard& from) = 0;

  /// True once the merged prefix already decides the sweep (e.g. the
  /// violation cap is reached) and later chunks can be skipped.  Consulted
  /// only on the merged in-order prefix, at chunk boundaries.
  virtual bool saturated() const { return false; }
};

/// A serial producer of scripts: calls the callback for each script in
/// canonical order; the callback returning false stops the stream.
/// `forEachScript` curried with its options is the canonical instance.
using ScriptStream =
    std::function<void(const std::function<bool(const FailureScript&)>&)>;

struct SweepOutcome {
  /// The shards of chunks 0..k merged in order (k = the saturation cut, or
  /// the last chunk).  Never null: an empty stream yields a fresh shard.
  std::unique_ptr<SweepShard> merged;
  /// Scripts absorbed into `merged` — i.e. visible in the result.  Equals
  /// the stream length unless the sweep saturated.
  std::int64_t scriptsMerged = 0;
  int threadsUsed = 1;
};

/// Runs the sweep described by `spec` (threads, chunkScripts) over `stream`.
/// The enumeration itself stays serial (it is cheap next to executing runs);
/// chunk processing is what parallelizes.
///
/// When `spec.shard` names a slice of the stream, only that slice is
/// visited — but scriptIndex values stay GLOBAL (based at
/// shard.firstScript), so per-shard results merge into exactly the
/// whole-stream result.  SweepOutcome::scriptsMerged counts the scripts of
/// the slice actually merged.
///
/// The factory receives the index of the worker thread the shard will run
/// on (0 on the inline path), in [0, resolveThreads(spec.threads)).  Shards
/// of the same worker never run concurrently, so the factory may hand them
/// a shared per-worker arena (pooled engines, scratch buffers — see
/// explore/reduction.hpp); such an arena must only be touched from visit(),
/// never from mergeFrom(), which can run on a different thread.
///
/// `progress`, when non-null, is fed the merged-script count each time the
/// in-order prefix advances (under the merge lock — the update is a couple
/// of relaxed atomics, see obs/progress.hpp).
SweepOutcome parallelSweep(
    const ScriptStream& stream, const ExploreSpec& spec,
    const std::function<std::unique_ptr<SweepShard>(int worker)>& makeShard,
    obs::ProgressMeter* progress = nullptr);

/// The read-only world every shard of one run-executing sweep shares: the
/// algorithm, the system, the initial configurations each script is crossed
/// with, and the engine options they run under (the spec's enumeration
/// horizon + slack, stopping once every alive process decided — decisions
/// are final, and the early stop makes exhaustive sweeps ~2x faster).  The
/// factory must be callable concurrently (see rounds/round_automaton.hpp).
struct SweepContext {
  SweepContext(const RoundAutomatonFactory& factory, const RoundConfig& cfg,
               RoundModel model, std::vector<std::vector<Value>> configs,
               const ExploreSpec& spec);

  const RoundAutomatonFactory& factory;
  const RoundConfig& cfg;
  RoundModel model;
  std::vector<std::vector<Value>> configs;
  RoundEngineOptions engineOptions;
};

/// How runSweep reports itself.  `span` must outlive the trace session (a
/// string literal); `streamScripts` counts the WHOLE stream and is called
/// only when the stderr progress line is on, since counting may cost an
/// extra enumeration pass.
struct SweepLabel {
  const char* progress;  ///< progress-line label, e.g. "mc"
  const char* span;      ///< trace span around the sweep, e.g. "mc.sweep"
  std::function<std::int64_t()> streamScripts;
};

struct SweepRun {
  /// The merged shard, as in SweepOutcome.
  std::unique_ptr<SweepShard> merged;
  std::int64_t scriptsMerged = 0;
  /// Execution counters summed over the workers' arenas (memoEntries = the
  /// memo's final size), already published under sweep.* in obs::metrics().
  SweepRunStats stats;
};

/// Builds a chunk's shard around the executing worker's arena.
using ArenaShardFactory =
    std::function<std::unique_ptr<SweepShard>(RunExecutor& arena)>;

/// The one run-executing sweep: parallelSweep over `stream` with one
/// RunExecutor arena per worker (pooled engines, checkpoint resume and,
/// unless spec.reduction is kNone, the symmetry_por memo shared by all
/// workers), a progress meter fed the arenas' memo counters, and the
/// aggregated SweepRunStats published at the end.  `memo` is an external
/// memo to recall and publish through (a persistent MemoStore, say); null
/// gives the sweep a private one.  Ignored under Reduction::kNone.
/// Shards only consume RunSummary values, which the memo keeps invariant,
/// so what they fold is identical with reduction on or off.
SweepRun runSweep(const SweepContext& ctx, const ScriptStream& stream,
                  const ExploreSpec& spec, RunMemo* memo,
                  const SweepLabel& label,
                  const ArenaShardFactory& makeShard);

}  // namespace ssvsp
