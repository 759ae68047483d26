// Name-indexed registry of the uniform-consensus algorithms.
//
// The latency analyzers and benchmark binaries iterate over "all algorithms
// of Section 5"; keeping the list in one place guarantees every table covers
// the same set, in the paper's order.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "consensus/bounds.hpp"
#include "indep/footprint.hpp"
#include "param/claim.hpp"
#include "rounds/failure_script.hpp"
#include "rounds/round_automaton.hpp"

namespace ssvsp {

struct AlgorithmEntry {
  std::string name;
  /// The model the algorithm is designed (and proved) for.
  RoundModel intendedModel;
  /// Figure or section of the paper introducing it; "ext" for extensions.
  std::string paperRef;
  /// Requires t <= 1 (A1 and its candidate repair).
  bool requiresTLe1 = false;
  /// Number of LEADING process ids the algorithm treats specially: its
  /// behaviour is invariant under every permutation of [symmetryFixedIds, n)
  /// but not under permutations moving ids below it.  The FloodSet family
  /// is fully id-symmetric (0); A1 and its candidate hard-code the roles of
  /// p0 and p1 (2).  Consumed by ExploreSpec::symmetryFixedIds when a sweep
  /// enables Reduction::kSymmetryPor (see src/explore/reduction.hpp).
  int symmetryFixedIds = 0;
  RoundAutomatonFactory factory;
  /// The paper's closed-form latency bounds for this algorithm, in its
  /// intended model.  The static analyzer (src/analysis) derives the same
  /// quantities from the automaton and reports L400 on divergence; nullopt
  /// means "no contract" (A1WS_candidate, which is incorrect by design).
  std::optional<DeclaredLatencyBounds> declaredBounds;
  /// What the algorithm's observable state can depend on — the declaration
  /// the independence analyzer (src/indep) turns into sleep-set pruning
  /// under Reduction::kSymmetryPor.  Declared in the style of
  /// symmetryFixedIds; linted by lintFootprint (L510-L512) and dynamically
  /// tripwired (L500/L501).  Default-constructed = undeclared: POR falls
  /// back to the algorithm-independent structural rules only.
  ObservationalFootprint footprint;
  /// What the entry asserts about ALL system sizes n >= cutoff — the
  /// declaration the parametric cutoff certifier (src/param) discharges
  /// into a machine-checkable ParamCertificate.  Declared in the style of
  /// symmetryFixedIds; linted as L600-L604, certified by reach-set
  /// induction (L602 on failure) and cross-checked against exhaustive
  /// sweeps at n <= cutoff + 1 (L410 on divergence).  Default-constructed
  /// = undeclared: bounds are only checked at the swept sizes (L603).
  ParametricClaim paramClaim;
};

/// All registered algorithms, paper order.
const std::vector<AlgorithmEntry>& algorithmRegistry();

/// Lookup by name; returns nullptr for unknown names.  Prefer this in
/// command-line parsing so an unknown --algo can print the registry instead
/// of an InvariantViolation backtrace.
const AlgorithmEntry* findAlgorithm(const std::string& name);

/// Lookup by name; throws InvariantViolation for unknown names.
const AlgorithmEntry& algorithmByName(const std::string& name);

}  // namespace ssvsp
