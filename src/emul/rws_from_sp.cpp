#include "emul/rws_from_sp.hpp"

#include <sstream>

#include "util/check.hpp"
#include "util/serde.hpp"

namespace ssvsp {

// Wire format: [round, hasBody, body...].  A wire message is sent every
// round to every destination even when msgs_i is null (hasBody = 0): the
// emulation's receive guard waits for "a message or a suspicion" from every
// peer, so silence must carry information — it must mean a crash.
namespace {
Payload encodeRoundMessage(Round round, const std::optional<Payload>& body) {
  PayloadWriter w;
  w.putInt(round);
  w.putBool(body.has_value());
  if (body.has_value())
    for (std::int32_t word : *body) w.putInt(word);
  return std::move(w).take();
}
}  // namespace

RwsEmulator::RwsEmulator(std::unique_ptr<RoundAutomaton> inner,
                         RoundConfig cfg, Value initial, Round maxRounds)
    : inner_(std::move(inner)),
      cfg_(cfg),
      initial_(initial),
      maxRounds_(maxRounds),
      inbox_(cfg.n) {
  SSVSP_CHECK(inner_ != nullptr);
  SSVSP_CHECK(maxRounds >= 1);
}

void RwsEmulator::start(ProcessId self, int n) {
  SSVSP_CHECK(n == cfg_.n);
  self_ = self;
  inner_->begin(self, cfg_, initial_);
}

std::optional<Value> RwsEmulator::output() const { return inner_->decision(); }

void RwsEmulator::onStep(StepContext& ctx) {
  // Stash arrivals.  Per-sender FIFO: the executor delivers in send order
  // and each sender emits one message per (round, destination), so a
  // duplicate (round, sender) can only be a simulator bug.
  for (const Envelope& e : ctx.received()) {
    PayloadReader r(e.payload);
    const Round round = r.getInt();
    const bool hasBody = r.getBool();
    std::optional<Payload> body;
    if (hasBody) {
      body.emplace();
      while (!r.exhausted()) body->push_back(r.getInt());
    }
    SSVSP_CHECK_MSG(inbox_.stash(round, e.src, std::move(body)),
                    "duplicate round message from p" << e.src);
  }

  if (roundsCompleted_ >= maxRounds_) return;
  const Round round = roundsCompleted_ + 1;

  // Send phase: one destination per step.
  if (nextDst_ < cfg_.n) {
    const ProcessId dst = nextDst_++;
    ctx.send(dst, encodeRoundMessage(round, inner_->messageFor(dst)));
    return;
  }

  // Receive guard: for every peer, a message or a suspicion; otherwise
  // keep waiting (null step).
  if (!inbox_.ready(round, ctx.suspected())) return;
  RoundInbox::Consumed in = inbox_.consume(round);
  heardPerRound_.push_back(in.heard);
  inner_->transition(in.received);
  ++roundsCompleted_;
  nextDst_ = 0;
}

AutomatonFactory emulateRwsOnSp(const RoundAutomatonFactory& factory,
                                RoundConfig cfg, std::vector<Value> initial,
                                Round maxRounds) {
  SSVSP_CHECK(static_cast<int>(initial.size()) == cfg.n);
  return [factory, cfg, initial = std::move(initial),
          maxRounds](ProcessId p) -> std::unique_ptr<Automaton> {
    return std::make_unique<RwsEmulator>(
        factory(p), cfg, initial[static_cast<std::size_t>(p)], maxRounds);
  };
}

WeakSynchronyReport checkWeakRoundSynchrony(
    const std::vector<const RwsEmulator*>& emulators,
    const FailurePattern& pattern) {
  WeakSynchronyReport report;
  const int n = pattern.n();
  for (ProcessId p = 0; p < n; ++p) {
    const auto& heard = emulators[static_cast<std::size_t>(p)]->heardPerRound();
    for (std::size_t ri = 0; ri < heard.size(); ++ri) {
      const Round r = static_cast<Round>(ri + 1);
      for (ProcessId q = 0; q < n; ++q) {
        if (q == p || heard[ri].contains(q)) continue;
        // p finished round r without a message from q: weak round synchrony
        // requires q to crash by the end of q's round r+1, i.e. q is faulty
        // and never starts round r+2.
        const bool qFaulty = pattern.faulty().contains(q);
        const Round qRounds =
            emulators[static_cast<std::size_t>(q)]->roundsCompleted();
        if (!qFaulty || qRounds >= r + 2) {
          std::ostringstream os;
          os << "p" << p << " finished round " << r << " without hearing p"
             << q << ", but p" << q
             << (qFaulty ? " completed round " + std::to_string(qRounds)
                         : " is correct");
          report.ok = false;
          report.witness = os.str();
          return report;
        }
      }
    }
  }
  return report;
}

}  // namespace ssvsp
