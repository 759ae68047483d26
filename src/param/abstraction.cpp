#include "param/abstraction.hpp"

#include <algorithm>
#include <optional>
#include <sstream>

#include "consensus/messages.hpp"
#include "obs/obs.hpp"
#include "util/check.hpp"
#include "util/serde.hpp"

namespace ssvsp {
namespace param {

namespace {

/// Broadcast payloads are rendered for class keys in their LEGACY list form
/// "[kTagW count v...]" regardless of the wire representation: the
/// committed parametric certificates (certs/) embed these strings in their
/// invariants, so the hot-path re-encode of W sets (packed bit mask instead
/// of value list) must not change a single certificate byte.  Non-W
/// payloads fall through to the generic rendering.
std::string renderBroadcast(const Payload& payload) {
  const std::optional<ValueSet> w = wire::decodeW(payload);
  if (!w.has_value()) return payloadToString(payload);
  std::ostringstream os;
  os << "[" << wire::kTagW << " " << w->size();
  for (Value v : *w) os << " " << v;
  os << "]";
  return os.str();
}

// A class tuple: {kCrashed, crash round} or {kAlive / kDoomed, crash
// round or 0, boundary 0 ? 0 : 1, initial value or broadcast payload id (-1:
// silent), decided, decision}, then the pending profile as (send round,
// arrival round, saturated count) triples.
enum : std::int32_t { kCrashed = 0, kAlive = 1, kDoomed = 2 };

/// Appends sender p's in-flight pending profile at boundary r: one slot per
/// (send round, arrival round) pair still undelivered, with the receiver
/// count saturated at c0.  "Never within the horizon" pendings are
/// invisible to any future round, so they do not contribute.
void appendPendProfile(const FailureScript& script, ProcessId p, Round r,
                       int c0, std::vector<std::int32_t>& tuple) {
  std::map<std::pair<Round, Round>, int> slots;
  for (const PendingChoice& pc : script.pendings) {
    if (pc.src != p || pc.arrival == kNoRound) continue;
    if (pc.round <= r && r < pc.arrival) ++slots[{pc.round, pc.arrival}];
  }
  for (const auto& [slot, count] : slots)
    tuple.insert(tuple.end(), {slot.first, slot.second, std::min(count, c0)});
}

/// A count as rendered: "c0+" from c0 on if it saturates.
std::string saturated(std::int32_t count, bool saturates, int c0) {
  return saturates && count >= c0 ? std::to_string(c0) + "+"
                                  : std::to_string(count);
}

}  // namespace

template <class Render>
int AbstractionFolder::Interner::intern(const Key& tuple,
                                        const Render& render) {
  const auto it = ofTuple.find(tuple);
  if (it != ofTuple.end()) return it->second;
  const auto [byText, fresh] =
      ofText.try_emplace(render(), static_cast<int>(text.size()));
  if (fresh) text.push_back(byText->first);
  ofTuple.emplace(tuple, byText->second);
  return byText->second;
}

AbstractionFolder::AbstractionFolder(int countSaturation)
    : c0_(std::max(1, countSaturation)) {}

std::string AbstractionFolder::renderClass(const Key& tuple) const {
  std::ostringstream key;
  std::size_t pend = 2;
  if (tuple[0] == kCrashed) {
    key << "X@" << tuple[1];
  } else {
    // A doomed process (alive now, crashes later in this run) is its own
    // class, so `aliveUndecided` is a fact about CORRECT processes — the
    // ones Lat(A, f) quantifies over — in every run reaching a state.
    key << (tuple[0] == kDoomed ? "A!" : "A ");
    if (tuple[0] == kDoomed) key << tuple[1] << " ";
    if (tuple[2] == 0)
      key << "init=" << tuple[3];
    else
      key << "w=" << (tuple[3] < 0 ? std::string("(silent)")
                                   : payloads_.text[static_cast<std::size_t>(
                                         tuple[3])]);
    key << (tuple[4] != 0 ? " d=" + std::to_string(tuple[5]) : " u");
    pend = 6;
  }
  for (std::size_t i = pend; i < tuple.size(); i += 3)
    key << (i == pend ? " pend[" : ",") << tuple[i] << ">" << tuple[i + 1]
        << "x" << saturated(tuple[i + 2], true, c0_);
  if (pend < tuple.size()) key << "]";
  return key.str();
}

std::string AbstractionFolder::renderState(const Key& tuple) const {
  // Classes in string order: the committed certificates spell states so.
  std::vector<std::pair<const std::string*, std::size_t>> parts;
  for (std::size_t i = 2; i < tuple.size(); i += 2)
    parts.emplace_back(&classes_.text[static_cast<std::size_t>(tuple[i])], i);
  std::sort(parts.begin(), parts.end(),
            [](const auto& a, const auto& b) { return *a.first < *b.first; });
  std::ostringstream state;
  state << "f=" << tuple[0] << " r=" << tuple[1];
  // Alive counts saturate at c0; crashed counts stay exact (at most t of
  // them — they carry the crash budget).
  for (const auto& [text, i] : parts)
    state << " | " << *text << " x"
          << saturated(tuple[i + 1],
                       classAlive_[static_cast<std::size_t>(tuple[i])] != 0,
                       c0_);
  return state.str();
}

void AbstractionFolder::fold(const RoundRunResult& run) {
  const int n = run.cfg.n;
  const int fRun = run.script.numCrashes();
  const auto at = [n](Round r, ProcessId p) {
    return static_cast<std::size_t>(r * n + p);
  };

  // One broadcast sample per (round, sender): the traced self-delivery,
  // exactly as the structural analysis of src/analysis reads estimates.
  std::vector<int> broadcast(at(run.roundsExecuted + 1, 0), -1);
  for (const RoundDelivery& del : run.deliveries)
    if (del.src == del.dst && del.sentRound <= run.roundsExecuted)
      broadcast[at(del.sentRound, del.src)] = payloads_.intern(
          del.payload, [&] { return renderBroadcast(del.payload); });

  Key tuple;
  std::vector<int> ids;
  int prev = -1;
  for (Round r = 0; r <= run.roundsExecuted; ++r) {
    ids.clear();
    for (ProcessId p = 0; p < n; ++p) {
      const auto pi = static_cast<std::size_t>(p);
      const Round rc = run.script.crashRound(p);  // kNoRound: never
      const bool crashed = rc <= r;
      const bool doomed = !crashed && rc != kNoRound;
      const bool decided = run.decisionRound[pi] <= r;
      if (crashed)
        tuple.assign({kCrashed, rc});
      else
        tuple.assign({doomed ? kDoomed : kAlive, doomed ? rc : 0,
                      r == 0 ? 0 : 1,
                      r == 0 ? run.initial[pi] : broadcast[at(r, p)],
                      decided ? 1 : 0, decided ? *run.decision[pi] : 0});
      appendPendProfile(run.script, p, r, c0_, tuple);
      const int id = classes_.intern(tuple, [&] { return renderClass(tuple); });
      if (static_cast<std::size_t>(id) == classAlive_.size()) {
        classAlive_.push_back(!crashed);
        classCorrectUndecided_.push_back(!crashed && !doomed && !decided);
      }
      ids.push_back(id);
    }

    // The state: (f, r, (class id, saturated count) by class id).
    std::sort(ids.begin(), ids.end());
    tuple.assign({fRun, r});
    bool aliveUndecided = false;
    for (auto i = ids.begin(); i != ids.end();) {
      const auto j = std::upper_bound(i, ids.end(), *i);
      const auto cls = static_cast<std::size_t>(*i);
      const auto count = static_cast<std::int32_t>(j - i);
      tuple.insert(tuple.end(),
                   {*i, classAlive_[cls] != 0 ? std::min(count, c0_) : count});
      aliveUndecided = aliveUndecided || classCorrectUndecided_[cls] != 0;
      i = j;
    }
    const int cur = states_.intern(tuple, [&] { return renderState(tuple); });
    if (static_cast<std::size_t>(cur) == stateInfo_.size())
      stateInfo_.push_back({fRun, r, aliveUndecided});
    if (r > 0) edges_.emplace(prev, cur);
    prev = cur;
  }

  // Lambda witness: the worst failure-free run, strict > so the first
  // (lexicographically earliest canonical configuration) is kept.
  if (fRun == 0) {
    const Round latency = run.latency();
    if (latency != kNoRound && (lambdaWitnessLatency_ == kNoRound ||
                                latency > lambdaWitnessLatency_)) {
      lambdaWitnessLatency_ = latency;
      lambdaWitnessOnes_ = static_cast<int>(
          std::count(run.initial.begin(), run.initial.end(), Value{1}));
    }
  }
}

AbstractionResult AbstractionFolder::result() const {
  AbstractionResult out;
  const std::vector<std::string>& text = states_.text;
  out.states.insert(text.begin(), text.end());
  for (std::size_t id = 0; id < text.size(); ++id)
    out.info.emplace(text[id], stateInfo_[id]);
  for (const auto& [from, to] : edges_)
    out.edges.emplace(text[static_cast<std::size_t>(from)],
                      text[static_cast<std::size_t>(to)]);
  out.lambdaWitnessOnes = lambdaWitnessOnes_;
  out.lambdaWitnessLatency = lambdaWitnessLatency_;
  return out;
}

AbstractionResult abstractInterpret(const AlgorithmEntry& entry, int n,
                                    int countSaturation) {
  const int t = canonicalAnalysisConfig(entry).t;
  SSVSP_CHECK_MSG(n > t && n <= kMaxProcs,
                  "abstractInterpret: n = " << n << " out of range for t = "
                                            << t);
  AbstractionFolder folder(countSaturation);
  const AbstractBounds bounds = interpretAutomaton(
      entry, RoundConfig{n, t},
      [&folder](const RoundRunResult& run) { folder.fold(run); });
  AbstractionResult result = folder.result();

  result.row.n = n;
  result.row.lat = bounds.lat;
  result.row.latMax = bounds.latMax;
  result.row.lambda = bounds.lambda;
  for (const PerBudgetBounds& b : bounds.byMaxCrashes)
    result.row.latByF.push_back(b.latest);
  result.row.cells = bounds.cells;
  result.row.runs = bounds.runs;
  result.row.states = static_cast<std::int64_t>(result.states.size());
  result.row.edges = static_cast<std::int64_t>(result.edges.size());
#if SSVSP_OBS_ENABLED
  const std::string suffix = ".n" + std::to_string(n);
  obs::metrics().gauge("param.states" + suffix).set(result.row.states);
  obs::metrics().gauge("param.edges" + suffix).set(result.row.edges);
#endif
  return result;
}

}  // namespace param
}  // namespace ssvsp
