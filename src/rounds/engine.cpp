#include "rounds/engine.hpp"

#include <algorithm>
#include <sstream>
#include <typeinfo>
#include <utility>

#include "obs/obs.hpp"
#include "util/check.hpp"

namespace ssvsp {

Round RoundRunResult::latency() const {
  Round worst = 0;
  for (ProcessId p : correct) {
    const Round r = decisionRound[static_cast<std::size_t>(p)];
    if (r == kNoRound) return kNoRound;
    worst = std::max(worst, r);
  }
  return worst;
}

std::vector<Value> RoundRunResult::allDecisions() const {
  std::vector<Value> out;
  for (const auto& d : decision)
    if (d.has_value()) out.push_back(*d);
  return out;
}

std::string RoundRunResult::toString() const {
  std::ostringstream os;
  os << ssvsp::toString(model) << " n=" << cfg.n << " t=" << cfg.t << " init=[";
  for (std::size_t i = 0; i < initial.size(); ++i)
    os << (i ? "," : "") << initial[i];
  os << "] " << script.toString() << " rounds=" << roundsExecuted << "\n";
  for (ProcessId p = 0; p < cfg.n; ++p) {
    os << "  p" << p << ": ";
    const auto& d = decision[static_cast<std::size_t>(p)];
    if (d.has_value())
      os << "decided " << *d << " @r"
         << decisionRound[static_cast<std::size_t>(p)];
    else
      os << "undecided";
    if (faulty.contains(p)) os << " (faulty)";
    os << '\n';
  }
  return os.str();
}

Round divergenceRound(const FailureScript& a, const FailureScript& b) {
  Round d = kNoRound;
  const auto consider = [&d](Round r) { d = std::min(d, r); };

  // Crash events: a crash of p in round r first matters in round r (partial
  // sends in the send phase, no transition in the receive phase), so two
  // scripts disagreeing on p's crash diverge at the earlier of the two
  // crash rounds (or at the shared round, if only the sendTo masks differ).
  const auto crashOf = [](const FailureScript& s,
                          ProcessId p) -> const CrashEvent* {
    for (const CrashEvent& c : s.crashes)
      if (c.p == p) return &c;
    return nullptr;
  };
  for (const CrashEvent& ca : a.crashes) {
    const CrashEvent* cb = crashOf(b, ca.p);
    if (cb == nullptr)
      consider(ca.round);
    else if (cb->round != ca.round)
      consider(std::min(ca.round, cb->round));
    else if (cb->sendTo != ca.sendTo)
      consider(ca.round);
  }
  for (const CrashEvent& cb : b.crashes)
    if (crashOf(a, cb.p) == nullptr) consider(cb.round);

  // Pending choices: conservative — any disagreement (presence or arrival)
  // diverges the inbox STATE from the send round on, even when deliveries
  // first differ later, so the send round is the divergence point.
  for (const PendingChoice& pa : a.pendings) {
    const PendingChoice* pb = b.pendingFor(pa.src, pa.dst, pa.round);
    if (pb == nullptr || pb->arrival != pa.arrival) consider(pa.round);
  }
  for (const PendingChoice& pb : b.pendings)
    if (a.pendingFor(pb.src, pb.dst, pb.round) == nullptr) consider(pb.round);

  return d;
}

RoundEngine::RoundEngine(const RoundConfig& cfg, RoundModel model,
                         RoundAutomatonFactory factory,
                         const RoundEngineOptions& options)
    : cfg_(cfg),
      model_(model),
      factory_(std::move(factory)),
      options_(options) {
  SSVSP_CHECK(cfg_.n >= 1 && cfg_.n <= kMaxProcs);
  SSVSP_CHECK(options_.horizon >= 1);
  SSVSP_CHECK(factory_ != nullptr);
  inbox_.resize(static_cast<std::size_t>(cfg_.n));
}

void RoundEngine::beginFresh(const std::vector<Value>& initial) {
  if (procs_.empty()) {
    procs_.reserve(static_cast<std::size_t>(cfg_.n));
    for (ProcessId p = 0; p < cfg_.n; ++p) {
      procs_.push_back(factory_(p));
      SSVSP_CHECK(procs_.back() != nullptr);
    }
  }
  for (ProcessId p = 0; p < cfg_.n; ++p)
    procs_[static_cast<std::size_t>(p)]->begin(
        p, cfg_, initial[static_cast<std::size_t>(p)]);
  if (!probed_) {
    // Probe the POD-snapshot contract: when every automaton packs its state
    // into the same fixed byte count, checkpoints are flat arena blocks
    // (memcpy in, memcpy out).  Heterogeneous sizes run without checkpoints,
    // and so does any automaton whose stateBytesType() does not vouch for
    // its exact dynamic type — a subclass that added state but inherited its
    // base's snapshot hooks would otherwise be silently sliced on restore.
    probed_ = true;
    podStride_ = 0;
    if (!procs_.empty()) {
      const std::size_t stride = procs_.front()->stateBytes(nullptr);
      bool uniform = stride > 0;
      for (const auto& a : procs_) {
        const std::type_info* vouched = a->stateBytesType();
        uniform = uniform && vouched != nullptr && *vouched == typeid(*a) &&
                  a->stateBytes(nullptr) == stride;
      }
      if (uniform) podStride_ = stride;
    }
  }
  for (auto& box : inbox_) box.clear();

  result_.cfg = cfg_;
  result_.model = model_;
  result_.initial = initial;
  result_.roundsExecuted = 0;
  result_.decision.assign(static_cast<std::size_t>(cfg_.n), std::nullopt);
  result_.decisionRound.assign(static_cast<std::size_t>(cfg_.n), kNoRound);
  result_.deliveries.clear();
  result_.sentPerRound.clear();
  result_.peakPendingInFlight = 0;
  result_.faulty = ProcessSet();
  result_.correct = ProcessSet();
  result_.automata.clear();
}

std::unique_ptr<RoundCheckpoint> RoundEngine::snapshot() {
  OBS_COUNTER_INC("engine.snapshots");
  std::unique_ptr<RoundCheckpoint> cp;
  if (!spare_.empty()) {
    // Recycle a retired checkpoint: its blob and inbox vectors keep their
    // capacity, so steady-state snapshotting allocates nothing.
    cp = std::move(spare_.back());
    spare_.pop_back();
  } else {
    cp = std::make_unique<RoundCheckpoint>();
  }
  cp->round = result_.roundsExecuted;
  cp->stateBlob.resize(podStride_ * procs_.size());
  for (std::size_t i = 0; i < procs_.size(); ++i)
    procs_[i]->stateBytes(cp->stateBlob.data() + i * podStride_);
  cp->inbox = inbox_;
  cp->decision = result_.decision;
  cp->decisionRound = result_.decisionRound;
  cp->sentPerRound = result_.sentPerRound;
  cp->peakPendingInFlight = result_.peakPendingInFlight;
  cp->deliveryCount = result_.deliveries.size();
  return cp;
}

void RoundEngine::restore(const RoundCheckpoint& cp) {
  // Overwrite the pooled automata in place, no allocation.
  SSVSP_CHECK(podStride_ > 0 &&
              procs_.size() == static_cast<std::size_t>(cfg_.n) &&
              cp.stateBlob.size() == podStride_ * procs_.size());
  for (std::size_t i = 0; i < procs_.size(); ++i)
    procs_[i]->restoreBytes(cp.stateBlob.data() + i * podStride_);
  inbox_ = cp.inbox;
  result_.roundsExecuted = cp.round;
  result_.decision = cp.decision;
  result_.decisionRound = cp.decisionRound;
  result_.sentPerRound = cp.sentPerRound;
  result_.peakPendingInFlight = cp.peakPendingInFlight;
  // A run resumed at round cp.round delivers exactly what the chain's run
  // delivered in rounds 1 .. cp.round, so the traced prefix stays.
  SSVSP_CHECK(cp.deliveryCount <= result_.deliveries.size());
  result_.deliveries.resize(cp.deliveryCount);
  result_.automata.clear();
}

void RoundEngine::runFrom(Round firstRound, const FailureScript& script) {
  lastStopped_ = false;
  const auto crashRound = [&script](ProcessId p) {
    return script.crashRound(p);
  };

  for (Round r = firstRound; r <= options_.horizon; ++r) {
    // Snapshot the END of the previous round lazily: the final executed
    // round never needs one (a script diverging after it reuses the whole
    // run), and this way we never find out too late that we snapshotted
    // for nothing.
    if (podStride_ > 0 && r > firstRound) chain_.push_back(snapshot());

    result_.roundsExecuted = r;
    result_.sentPerRound.push_back(0);
    ++stats_.roundsExecuted;

    // ---- send phase (msgs_i applied to the pre-round states) ----
    for (ProcessId p = 0; p < cfg_.n; ++p) {
      const Round cr = crashRound(p);
      if (cr < r) continue;  // already crashed: sends nothing
      const bool crashingNow = (cr == r);
      const ProcessSet sendTo = script.sendSubset(p, cfg_.n);
      for (ProcessId dst = 0; dst < cfg_.n; ++dst) {
        std::optional<Payload> msg =
            procs_[static_cast<std::size_t>(p)]->messageFor(dst);
        if (!msg.has_value()) continue;
        if (crashingNow && !sendTo.contains(dst)) continue;  // never sent
        ++result_.sentPerRound.back();
        InFlightMsg f;
        f.src = p;
        f.sentRound = r;
        f.arrival = r;
        if (const PendingChoice* pc = script.pendingFor(p, dst, r)) {
          if (pc->arrival == kNoRound) continue;  // surfaces after the horizon
          f.arrival = pc->arrival;
        }
        f.payload = std::move(*msg);
        inbox_[static_cast<std::size_t>(dst)].push_back(std::move(f));
      }
    }

    // ---- receive + transition phase ----
    for (ProcessId p = 0; p < cfg_.n; ++p) {
      const Round cr = crashRound(p);
      if (cr <= r) {
        // Crashed during (or before) this round: performs no transition and
        // will never consume its inbox again.
        inbox_[static_cast<std::size_t>(p)].clear();
        continue;
      }
      auto& box = inbox_[static_cast<std::size_t>(p)];
      // FIFO per sender: among deliverable messages (arrival <= r) pick the
      // oldest per sender; the rest stay for later rounds.
      receivedScratch_.assign(static_cast<std::size_t>(cfg_.n), std::nullopt);
      takenScratch_.clear();
      for (ProcessId src = 0; src < cfg_.n; ++src) {
        std::size_t best = box.size();
        for (std::size_t i = 0; i < box.size(); ++i) {
          if (box[i].src != src || box[i].arrival > r) continue;
          if (best == box.size() || box[i].sentRound < box[best].sentRound)
            best = i;
        }
        if (best == box.size()) continue;
        if (options_.traceDeliveries) {
          RoundDelivery d;
          d.deliveredRound = r;
          d.sentRound = box[best].sentRound;
          d.src = src;
          d.dst = p;
          d.payload = box[best].payload;
          result_.deliveries.push_back(std::move(d));
        }
        receivedScratch_[static_cast<std::size_t>(src)] =
            std::move(box[best].payload);
        takenScratch_.push_back(best);
      }
      std::sort(takenScratch_.begin(), takenScratch_.end());
      for (auto it = takenScratch_.rbegin(); it != takenScratch_.rend(); ++it)
        box.erase(box.begin() + static_cast<std::ptrdiff_t>(*it));

      procs_[static_cast<std::size_t>(p)]->transition(receivedScratch_);

      const std::optional<Value> d =
          procs_[static_cast<std::size_t>(p)]->decision();
      auto& slot = result_.decision[static_cast<std::size_t>(p)];
      if (d.has_value()) {
        if (slot.has_value()) {
          SSVSP_CHECK_MSG(*slot == *d, "p" << p << " changed its decision from "
                                           << *slot << " to " << *d);
        } else {
          slot = d;
          result_.decisionRound[static_cast<std::size_t>(p)] = r;
        }
      } else {
        SSVSP_CHECK_MSG(!slot.has_value(), "p" << p << " revoked its decision");
      }
    }

    int inFlight = 0;
    for (const auto& box : inbox_) inFlight += static_cast<int>(box.size());
    result_.peakPendingInFlight =
        std::max(result_.peakPendingInFlight, inFlight);

    if (options_.stopWhenAllDecided) {
      bool allDone = true;
      for (ProcessId p = 0; p < cfg_.n; ++p) {
        if (crashRound(p) <= r) continue;
        if (!result_.decision[static_cast<std::size_t>(p)].has_value()) {
          allDone = false;
          break;
        }
      }
      // Keep executing while pending messages could still surface and change
      // nothing — decisions are final, so stopping is safe.
      if (allDone) {
        lastStopped_ = true;
        break;
      }
    }
  }
}

void RoundEngine::finish(const FailureScript& script) {
  result_.script = script;
  result_.faulty = script.faultyWithin(options_.horizon, cfg_.n);
  result_.correct = ProcessSet::full(cfg_.n) - result_.faulty;
  resultValid_ = true;
}

void RoundEngine::execute(const std::vector<Value>& initial,
                          const FailureScript& script) {
  SSVSP_CHECK(static_cast<int>(initial.size()) == cfg_.n);
  const ScriptValidity validity = validateScript(script, cfg_, model_);
  SSVSP_CHECK_MSG(validity.ok, "illegal script: " << validity.reason << " "
                                                  << script.toString());

  if (resultValid_ && initial == result_.initial) {
    const Round d = divergenceRound(result_.script, script);
    const Round executed = result_.roundsExecuted;
    const Round reusable = d == kNoRound ? executed : d - 1;
    if (reusable >= executed) {
      // Every executed round of the previous run is also a round of this
      // one, and that run already terminated (at the horizon, or at an
      // early stop whose all-decided condition depends only on events of
      // rounds <= `executed` — identical under both scripts).  Only the
      // script-derived fields change.
      stats_.roundsResumed += executed;
      ++stats_.runsReused;
      finish(script);
      return;
    }
    const Round q = std::min<Round>(reusable,
                                    static_cast<Round>(chain_.size()));
    if (q >= 1) {
      OBS_COUNTER_INC("engine.resumes");
      OBS_HISTOGRAM("engine.resume_depth", q);
      restore(*chain_[static_cast<std::size_t>(q) - 1]);
      trimChain(static_cast<std::size_t>(q));
      stats_.roundsResumed += q;
      runFrom(q + 1, script);
      finish(script);
      ++stats_.runsExecuted;
      return;
    }
  }

  beginFresh(initial);
  trimChain(0);
  runFrom(1, script);
  finish(script);
  ++stats_.runsExecuted;
}

void RoundEngine::trimChain(std::size_t keep) {
  while (chain_.size() > keep) {
    spare_.push_back(std::move(chain_.back()));
    chain_.pop_back();
  }
}

const RoundCheckpoint* RoundEngine::snapshotAt(Round r) const {
  if (r < 1 || static_cast<std::size_t>(r) > chain_.size()) return nullptr;
  return chain_[static_cast<std::size_t>(r) - 1].get();
}

void RoundEngine::resumeFrom(const RoundCheckpoint& cp,
                             const FailureScript& script) {
  SSVSP_CHECK(resultValid_);
  SSVSP_CHECK(cp.round >= 1);
  const ScriptValidity validity = validateScript(script, cfg_, model_);
  SSVSP_CHECK_MSG(validity.ok, "illegal script: " << validity.reason << " "
                                                  << script.toString());
  OBS_COUNTER_INC("engine.resumes");
  OBS_HISTOGRAM("engine.resume_depth", cp.round);
  restore(cp);
  // Park stale snapshots past the resume point on the freelist.  `cp`
  // itself survives: trimChain only detaches entries past the new size,
  // and cp.round <= size.
  if (static_cast<std::size_t>(cp.round) <= chain_.size())
    trimChain(static_cast<std::size_t>(cp.round));
  stats_.roundsResumed += cp.round;
  runFrom(cp.round + 1, script);
  finish(script);
  ++stats_.runsExecuted;
}

RoundRunResult RoundEngine::takeResult() {
  SSVSP_CHECK(resultValid_);
  RoundRunResult out = std::move(result_);
  out.automata = std::move(procs_);
  procs_.clear();
  result_ = RoundRunResult();
  resultValid_ = false;
  probed_ = false;
  podStride_ = 0;
  // The pooled automata left with the result: drop the chain and its
  // recycled buffers so the next execute() starts from scratch.
  chain_.clear();
  spare_.clear();
  return out;
}

RoundRunResult runRounds(const RoundConfig& cfg, RoundModel model,
                         const RoundAutomatonFactory& factory,
                         const std::vector<Value>& initial,
                         const FailureScript& script,
                         const RoundEngineOptions& options) {
  RoundEngine engine(cfg, model, factory, options);
  engine.execute(initial, script);
  return engine.takeResult();
}

}  // namespace ssvsp
