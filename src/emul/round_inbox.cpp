#include "emul/round_inbox.hpp"

#include <utility>

namespace ssvsp {

bool RoundInbox::stash(Round round, ProcessId from,
                       std::optional<Payload> body) {
  auto& slots = slots_[round];
  if (slots.empty()) slots.resize(static_cast<std::size_t>(n_));
  Slot& slot = slots[static_cast<std::size_t>(from)];
  if (slot.state != Slot::kEmpty) return false;
  slot = {Slot::kBuffered, std::move(body)};
  return true;
}

std::optional<Round> RoundInbox::oldestFor(ProcessId q, Round round) const {
  for (const auto& [r, slots] : slots_) {
    if (r > round) break;  // future-round messages wait their turn
    if (slots[static_cast<std::size_t>(q)].state == Slot::kBuffered) return r;
  }
  return std::nullopt;
}

bool RoundInbox::ready(Round round, ProcessSet suspected) const {
  for (ProcessId q = 0; q < n_; ++q)
    if (!oldestFor(q, round).has_value() && !suspected.contains(q))
      return false;
  return true;
}

RoundInbox::Consumed RoundInbox::consume(Round round) {
  Consumed out;
  out.received.resize(static_cast<std::size_t>(n_));
  for (ProcessId q = 0; q < n_; ++q) {
    const std::optional<Round> src = oldestFor(q, round);
    if (!src.has_value()) continue;
    if (*src < round) ++out.late;
    Slot& slot = slots_[*src][static_cast<std::size_t>(q)];
    out.received[static_cast<std::size_t>(q)] = std::move(slot.body);
    slot = {Slot::kConsumed, std::nullopt};
    out.heard.insert(q);
  }
  return out;
}

}  // namespace ssvsp
