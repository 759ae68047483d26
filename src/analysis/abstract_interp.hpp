// Abstract interpretation of round automata (paper Section 5).
//
// The latency degrees of Section 5.2 quantify over the full run space:
// every initial configuration crossed with every admissible failure script.
// That space is exponential (src/mc enumerates it outright only for tiny
// systems, and truncates RWS sweeps).  This module analyzes an algorithm
// through a *quotient abstraction* of that space instead:
//
//   * initial configurations are collapsed modulo value relabeling — every
//     automaton in the registry chooses its decision ROUND from message
//     presence and cardinalities, never from the value bits, so |r| is
//     invariant under permuting the value domain;
//   * failure scripts are collapsed into schedule cells: each of at most t
//     crashers picks a crash round in [1, t+1], one of four canonical
//     partial-broadcast shapes (silent / full / a single witness / all but
//     one witness) and, under RWS, a canonical pending shape for its last
//     two rounds of messages.  Crasher identities are drawn from {p1, p2}
//     plus the top of the id range — the automata of Section 5 distinguish
//     at most p1 and p2 (A1), so the cells cover every behaviour class the
//     automata can exhibit.
//
// Each cell is executed concretely on its canonical representative (the
// round engine is the transfer function), and the per-cell results are
// joined into earliest/latest decision rounds, per-round message counts and
// quiescence — a sound SUBSET of the run space, so derived minima are upper
// bounds on lat and derived maxima are lower bounds on Lat(A, f).  The
// analysis layer (src/analysis/analysis.hpp) pins the abstraction's
// completeness against the declared theorem bounds, the golden table and
// exhaustive measured sweeps; a divergence anywhere is reported as L400.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "consensus/registry.hpp"
#include "rounds/engine.hpp"

namespace ssvsp {

/// The canonical parameters the analyzer runs an algorithm at: the smallest
/// (n, t) where every closed form of Section 5 is distinguishable from the
/// others (t = 2, n = t + 2 — at t <= 1 e.g. min(f + 2, t + 1) collapses
/// into t + 1), clamped to t = 1 for the algorithms only defined there.
RoundConfig canonicalAnalysisConfig(const AlgorithmEntry& entry);

/// Initial configurations over {0, 1} modulo value relabeling: every config
/// with initial[0] == 0.  2^(n-1) configs instead of 2^n.
std::vector<std::vector<Value>> canonicalConfigs(int n);

/// The schedule cells for (cfg, model): deduplicated, validateScript-legal
/// failure scripts per the quotient described above.  Polynomial in t for
/// fixed crash budget, versus the exponential full enumeration.  With
/// `maxCrashes`, only the cells with at most that many crashers (the same
/// cells, in the same order).
std::vector<FailureScript> enumerateScheduleCells(
    const RoundConfig& cfg, RoundModel model,
    std::optional<int> maxCrashes = std::nullopt);

/// Join of all cells with at most f crashes (index f of
/// AbstractBounds::byMaxCrashes).
struct PerBudgetBounds {
  Round earliest = kNoRound;  ///< min |r|; kNoRound if no run decided
  Round latest = 0;           ///< max |r|; kNoRound if termination failed
  std::int64_t maxMsgsPerRound = 0;
  /// Worst-case last round in which any message is emitted (0: silence).
  Round quiescence = 0;
  /// Worst-case sent-but-undelivered backlog (0 under RS).
  int peakPendingInFlight = 0;
};

struct AbstractBounds {
  RoundConfig cfg;
  RoundModel model = RoundModel::kRs;
  Round lat = kNoRound;     ///< lat(A): min |r| over all cells
  Round latMax = 0;         ///< Lat(A): max over configs of per-config min
  Round lambda = kNoRound;  ///< Lambda(A) = Lat(A, 0)
  std::vector<PerBudgetBounds> byMaxCrashes;  ///< index f = 0 .. t
  std::int64_t cells = 0;   ///< schedule cells interpreted
  std::int64_t runs = 0;    ///< cells x canonical configs
};

/// Observer for the structural checks of the analysis layer (L401-L404) and
/// the src/param fold: called once per interpreted run, deliveries traced.
/// The run is the pooled engine's, valid during the call, `automata` empty.
using RunObserver = std::function<void(const RoundRunResult&)>;

/// Interprets `entry` over the abstract schedule space at `cfg`.  Runs with
/// horizon t + 3 and no early stop, so post-decision traffic and quiescence
/// are visible.  All runs share one pooled RoundEngine, configs outermost in
/// canonical order, and resume from its checkpoints; only an observer gets
/// traced deliveries.  `maxCrashes` keeps the cells with at most that
/// many crashers: byMaxCrashes then stops at that budget with unchanged
/// entries, while lat and latMax cover only those cells.
AbstractBounds interpretAutomaton(const AlgorithmEntry& entry,
                                  const RoundConfig& cfg,
                                  const RunObserver& observer = {},
                                  std::optional<int> maxCrashes = std::nullopt);

}  // namespace ssvsp
