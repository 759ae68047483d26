// The RS / RWS round engines (paper Sections 4.1-4.3).
//
// Both models execute in lock-step rounds; each round every alive process
// (1) emits the messages produced by msgs_i and (2) applies trans_i to the
// vector of messages received.  The difference is delivery:
//
//   RS  — every message sent in round r to a process alive at the end of
//         round r is received in round r.  The round synchrony property
//         follows: silence from p_j implies p_j failed before sending.
//
//   RWS — the adversary (the failure script) may mark sent messages as
//         pending; a pending round-r message is not received in round r and
//         surfaces in a later round (or after the simulated horizon).  Weak
//         round synchrony is enforced by script validation: silence from a
//         sender implies the sender crashes by the end of the next round.
//
// Channels are FIFO and at most one message per (sender, receiver) pair is
// delivered per round; if a pending message and a fresher one become
// deliverable in the same round, the older is delivered and the fresher is
// deferred — receivers cannot tell a late message from a current one, which
// is exactly the ambiguity FloodSetWS's halt set exists to neutralize.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "rounds/failure_script.hpp"
#include "rounds/round_automaton.hpp"
#include "util/process_set.hpp"

namespace ssvsp {

/// One delivered message, for trace inspection.
struct RoundDelivery {
  Round deliveredRound = 0;
  Round sentRound = 0;
  ProcessId src = kNoProcess;
  ProcessId dst = kNoProcess;
  Payload payload;
};

struct RoundRunResult {
  RoundConfig cfg;
  RoundModel model = RoundModel::kRs;
  std::vector<Value> initial;
  FailureScript script;
  int roundsExecuted = 0;

  std::vector<std::optional<Value>> decision;  ///< final decision per process
  std::vector<Round> decisionRound;            ///< kNoRound if undecided

  ProcessSet faulty;   ///< crashed within the horizon
  ProcessSet correct;  ///< the rest

  std::vector<RoundDelivery> deliveries;  ///< filled if tracing enabled

  /// Messages actually emitted per executed round (index r-1).  A message a
  /// crashing sender never sends (outside its sendTo) does not count; a
  /// pending message that surfaces late — or never, within the horizon —
  /// does.  The analysis layer derives per-round message-complexity bounds
  /// and quiescence rounds from these counters.
  std::vector<std::int64_t> sentPerRound;

  /// Peak number of sent-but-undelivered messages across all inboxes at any
  /// round boundary.  Always 0 under RS; under RWS it is bounded by
  /// 2 * f * (n - 1) (a dying sender can pend at most two rounds of
  /// broadcasts), which the analyzer checks as L404.
  int peakPendingInFlight = 0;

  /// The automata in their final states, for white-box inspection
  /// (describeState, algorithm-specific getters).  Makes the result
  /// move-only.
  std::vector<std::unique_ptr<RoundAutomaton>> automata;

  /// Latency degree |r|: number of rounds until all correct processes have
  /// decided; kNoRound if some correct process never decides in the prefix.
  Round latency() const;

  /// All decisions made (by correct and faulty processes alike).
  std::vector<Value> allDecisions() const;

  std::string toString() const;
};

struct RoundEngineOptions {
  int horizon = 16;            ///< number of rounds to execute
  bool traceDeliveries = false;
  bool stopWhenAllDecided = true;  ///< stop early once every alive process decided
};

/// One sent-but-undelivered message sitting in a receiver's inbox.
struct InFlightMsg {
  ProcessId src = kNoProcess;
  Round sentRound = 0;
  Round arrival = 0;  ///< first round in which it may be received
  Payload payload;
};

/// A snapshot of a run's state at the END of some round: the automata, the
/// in-flight inboxes, and the partial result accumulated so far.  Produced
/// by RoundEngine while a run executes and consumed by
/// RoundEngine::resumeFrom, so a later run whose script agrees with the
/// snapshotted one on every event of rounds <= `round` can skip
/// re-executing that prefix.
///
/// Automaton state is one flat arena block: every automaton honours the
/// RoundAutomaton::stateBytes contract with the same byte count, so process
/// i's bytes sit at `stateBlob[i * stride ..]`, written by memcpy and
/// restored into the engine's POOLED automata without any allocation.
/// Traced deliveries are not copied: such a later run delivers exactly the
/// same messages in rounds 1 .. `round`, so the checkpoint records only how
/// many there were and a resume truncates the trace back to that count.
/// The engine recycles checkpoint objects (and their blob/inbox buffers)
/// through a freelist, so steady-state snapshotting allocates nothing.
struct RoundCheckpoint {
  Round round = 0;  ///< state captured at the end of this round
  std::vector<std::byte> stateBlob;
  std::vector<std::vector<InFlightMsg>> inbox;
  std::vector<std::optional<Value>> decision;
  std::vector<Round> decisionRound;
  std::vector<std::int64_t> sentPerRound;
  int peakPendingInFlight = 0;
  std::size_t deliveryCount = 0;  ///< result deliveries.size() at `round`
};

/// First round at which executing `a` and `b` may differ — the earliest
/// round where the two scripts disagree on a crash event or on a pending
/// choice (a pending disagreement counts from its SEND round: the in-flight
/// inbox state differs from there on, even if deliveries only diverge
/// later).  kNoRound if the scripts describe the same adversary.
Round divergenceRound(const FailureScript& a, const FailureScript& b);

/// The round engine as a stateful, pooled object.  One engine executes many
/// runs of the same (cfg, model, factory, options) — typically one engine
/// per initial configuration inside a sweep shard — and reuses its automata
/// (via begin(), see the reset contract in round_automaton.hpp), inboxes and
/// result buffers across runs instead of allocating per run.
///
/// When the factory's automata honour the POD-snapshot contract (see
/// round_automaton.hpp), the engine additionally keeps a checkpoint chain
/// for the most recent run, traced or not, and resumes the next run from
/// the deepest checkpoint before divergenceRound(previous script, next
/// script).  Scripts arriving in an order where consecutive scripts share
/// long crash prefixes (the enumerator's lexicographic-by-divergence order)
/// then skip most of their rounds.  Results, traced deliveries included,
/// are bit-identical to fresh execution by construction: a resumed run
/// continues from a copy of exactly the state a fresh run would have
/// reached.  Automata without the POD form get no chain: a run either
/// reuses the previous run whole or executes from round 1.
class RoundEngine {
 public:
  /// Throws InvariantViolation on an inadmissible cfg or horizon < 1.
  RoundEngine(const RoundConfig& cfg, RoundModel model,
              RoundAutomatonFactory factory,
              const RoundEngineOptions& options);

  /// Executes one full run, exactly like the free runRounds(), reusing
  /// pooled state — and the previous run's checkpoints where the scripts
  /// agree.  Throws InvariantViolation for illegal scripts and decision-
  /// integrity violations.  The outcome is available via result().
  void execute(const std::vector<Value>& initial, const FailureScript& script);

  /// The checkpoint at the end of round r from the current chain, or
  /// nullptr (no run yet, no POD snapshots, or r outside the chain — the
  /// final executed round is never snapshotted: a run diverging after it is
  /// fully reusable without one).
  const RoundCheckpoint* snapshotAt(Round r) const;

  /// Re-runs from `cp`, which must belong to this engine's current chain
  /// (i.e. come from snapshotAt() after the last execute), under a script
  /// that agrees with the previous one on every event of rounds <=
  /// cp.round.  execute() calls this automatically; it is public so tests
  /// can exercise the checkpoint contract directly.
  void resumeFrom(const RoundCheckpoint& cp, const FailureScript& script);

  /// The last run's outcome.  `automata` is left empty (the engine keeps
  /// them pooled); everything else matches the free runRounds() exactly.
  const RoundRunResult& result() const { return result_; }

  /// Moves the result out, including the pooled automata in their final
  /// states (the free runRounds() contract).  The engine afterwards starts
  /// from scratch on the next execute().
  RoundRunResult takeResult();

  /// Counters for the perf-facing layers (bench_sweep_reduction).
  struct Stats {
    std::int64_t runsExecuted = 0;  ///< execute() calls that ran >= 1 round
    std::int64_t runsReused = 0;    ///< fully served by the previous run
    std::int64_t roundsExecuted = 0;
    std::int64_t roundsResumed = 0;  ///< rounds skipped via checkpoints
  };
  const Stats& stats() const { return stats_; }

 private:
  void beginFresh(const std::vector<Value>& initial);
  void restore(const RoundCheckpoint& cp);
  void runFrom(Round firstRound, const FailureScript& script);
  void finish(const FailureScript& script);
  std::unique_ptr<RoundCheckpoint> snapshot();
  /// Shrinks chain_ to `keep` entries, parking the dropped checkpoints on
  /// the freelist so their buffers are reused by later snapshots.
  void trimChain(std::size_t keep);

  RoundConfig cfg_;
  RoundModel model_;
  RoundAutomatonFactory factory_;
  RoundEngineOptions options_;

  std::vector<std::unique_ptr<RoundAutomaton>> procs_;  ///< pooled instances
  std::vector<std::vector<InFlightMsg>> inbox_;
  std::vector<std::optional<Payload>> receivedScratch_;
  std::vector<std::size_t> takenScratch_;
  RoundRunResult result_;
  bool resultValid_ = false;

  bool probed_ = false;        ///< POD support probed on the first run
  std::size_t podStride_ = 0;  ///< per-process POD bytes; 0 = no checkpoints
  /// chain_[r - 1] = end-of-round-r state of the last run, rounds
  /// 1 .. roundsExecuted - 1 (the final round needs no snapshot).
  std::vector<std::unique_ptr<RoundCheckpoint>> chain_;
  /// Retired checkpoints whose buffers snapshot() reuses (arena recycling).
  std::vector<std::unique_ptr<RoundCheckpoint>> spare_;
  bool lastStopped_ = false;  ///< last run broke early (stopWhenAllDecided)

  Stats stats_;
};

/// Executes one run.  Throws InvariantViolation if the script is not a legal
/// adversary for the model (see validateScript) or if an automaton violates
/// decision integrity (changes a made decision).  Equivalent to a
/// RoundEngine used once; sweep hot paths hold engines instead so automata
/// and buffers are pooled across runs.
RoundRunResult runRounds(const RoundConfig& cfg, RoundModel model,
                         const RoundAutomatonFactory& factory,
                         const std::vector<Value>& initial,
                         const FailureScript& script,
                         const RoundEngineOptions& options);

}  // namespace ssvsp
