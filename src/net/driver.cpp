#include "net/driver.hpp"

#include "util/check.hpp"
#include "util/serde.hpp"

namespace ssvsp::net {

// Wire format on the link channel: kRound | round | hasBody | body words.
// Like the simulator emulation, a wire message goes to every destination
// every round even when msgs_i is null — under the receive guard silence
// must mean a crash, so the null message must still occupy a datagram.
namespace {

std::string frameRound(Round round, const std::optional<Payload>& body) {
  std::string out;
  RecordWriter w(out);
  w.putU8(static_cast<std::uint8_t>(ChannelKind::kRound));
  w.putI32(round);
  w.putU8(body.has_value() ? 1 : 0);
  if (body.has_value())
    for (std::int32_t word : *body) w.putI32(word);
  return out;
}

}  // namespace

RwsFromSpDriver::RwsFromSpDriver(std::unique_ptr<RoundAutomaton> inner,
                                 RoundConfig cfg, ProcessId self,
                                 Value initial, Round maxRounds,
                                 PerfectLink& link, CrashPlan plan)
    : inner_(std::move(inner)),
      cfg_(cfg),
      self_(self),
      maxRounds_(maxRounds),
      link_(link),
      plan_(plan),
      inbox_(cfg.n) {
  SSVSP_CHECK(inner_ != nullptr);
  SSVSP_CHECK(cfg.n >= 1 && cfg.n <= kMaxProcs);
  SSVSP_CHECK(self >= 0 && self < cfg.n);
  SSVSP_CHECK(maxRounds >= 1);
  inner_->begin(self, cfg_, initial);
}

bool RwsFromSpDriver::onPayload(ProcessId from, std::string_view payload) {
  RecordReader r(payload);
  if (static_cast<ChannelKind>(r.getU8()) != ChannelKind::kRound) return false;
  const Round round = r.getI32();
  const bool hasBody = r.getU8() != 0;
  Payload body;
  while (r.ok() && !r.exhausted()) body.push_back(r.getI32());
  if (!r.ok() || round < 1 || from < 0 || from >= cfg_.n || from == self_)
    return true;
  if (!inbox_.stash(round, from,
                    hasBody ? std::optional<Payload>(std::move(body))
                            : std::nullopt))
    ++duplicateRoundFrames_;
  return true;
}

void RwsFromSpDriver::sendRound(Round round, ProcessSet dsts) {
  for (ProcessId dst = 0; dst < cfg_.n; ++dst) {
    if (!dsts.contains(dst)) continue;
    const std::optional<Payload> body = inner_->messageFor(dst);
    if (dst == self_) {
      // The link is peer-to-peer; the self-copy short-circuits locally
      // (the simulator routes it through the executor instead).
      SSVSP_CHECK(inbox_.stash(round, self_, body));
      continue;
    }
    link_.send(dst, frameRound(round, body));
  }
}

int RwsFromSpDriver::advance(ProcessSet suspected) {
  int completed = 0;
  while (!halted_ && roundsCompleted_ < maxRounds_) {
    const Round round = roundsCompleted_ + 1;

    if (!sentThisRound_) {
      if (plan_.round == round) {
        // Scripted crash: the partial broadcast of the crash round, then
        // silence.  The harness turns the silence into a real SIGKILL.
        sendRound(round, plan_.sendTo);
        halted_ = true;
        return completed;
      }
      ProcessSet all;
      for (ProcessId q = 0; q < cfg_.n; ++q) all.insert(q);
      sendRound(round, all);
      sentThisRound_ = true;
    }

    // Receive guard: for every peer, a message or a suspicion.
    if (!inbox_.ready(round, suspected)) return completed;
    RoundInbox::Consumed in = inbox_.consume(round);
    lateDeliveries_ += in.late;

    heardPerRound_.push_back(in.heard);
    inner_->transition(in.received);
    ++roundsCompleted_;
    sentThisRound_ = false;
    ++completed;
    if (decisionRound_ == kNoRound && inner_->decision().has_value())
      decisionRound_ = roundsCompleted_;
  }
  return completed;
}

}  // namespace ssvsp::net
