// RoundInbox: the receive guard of the paper's §4.2 emulation of RWS on SP.
//
// "The reception of messages in round r is done as follows in SP: process
//  p_i keeps executing (possibly null) steps of model SP until, for every
//  process p_j, either p_i receives a message from p_j or p_i suspects p_j."
//
// Round messages are buffered by (round, sender) and consumed one per
// sender, oldest round first, so a message that missed its own round (a
// PENDING message) surfaces in a later round — exactly the RWS behaviour.
// Both substrates run this one guard: the step-level simulator
// (emul/rws_from_sp.hpp) and the real-transport driver (net/driver.hpp).
// Each decodes its own wire format and decides what a duplicate means; the
// guard itself is shared, so a fix lands on both.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "util/process_set.hpp"
#include "util/serde.hpp"
#include "util/types.hpp"

namespace ssvsp {

class RoundInbox {
 public:
  explicit RoundInbox(int n) : n_(n) {}

  /// Buffers `from`'s round-`round` message; `body` nullopt is a null
  /// message (heard, but msgs_i was empty — silence must mean a crash, so
  /// null messages still travel).  Returns false, buffering nothing, when
  /// a message of that (round, sender) is already waiting or was already
  /// consumed: the caller decides whether a duplicate is a broken
  /// invariant or hostile input.
  bool stash(Round round, ProcessId from, std::optional<Payload> body);

  /// The guard of `round`: every process has a consumable message (its
  /// oldest buffered one, of any round <= `round`) or is in `suspected`.
  bool ready(Round round, ProcessSet suspected) const;

  struct Consumed {
    /// Per sender: the consumed body; nullopt for a null message or none.
    std::vector<std::optional<Payload>> received;
    ProcessSet heard;       ///< senders whose message was consumed
    std::int64_t late = 0;  ///< consumed messages of rounds before `round`
  };

  /// Consumes one message per sender, oldest round first.  Call once
  /// ready(round, ...) holds.
  Consumed consume(Round round);

 private:
  /// One (round, sender).  A consumed slot is kept, not erased, so a
  /// replay of it is refused instead of surfacing as a late message.
  struct Slot {
    enum State { kEmpty, kBuffered, kConsumed } state = kEmpty;
    std::optional<Payload> body;
  };

  /// The oldest round <= `round` holding a message from `q`.
  std::optional<Round> oldestFor(ProcessId q, Round round) const;

  int n_;
  std::map<Round, std::vector<Slot>> slots_;
};

}  // namespace ssvsp
