// Strictly-separated protocol execution.
//
// Most protocols in this library are written driver-style: one function
// sees both parties' state, with the Channel enforcing that data only
// flows through metered messages. This runtime provides the stronger
// execution mode for the building blocks: each party is an object holding
// ONLY its own input and randomness view, reacting to delivered messages.
// A protocol implemented this way provably uses no out-of-band knowledge.
//
// The concrete parties in core/parties.h mirror the driver implementations
// bit-for-bit (same substream labels, same encodings), so the equivalence
// tests in tests/runtime_test.cc can compare whole transcripts digests —
// the strongest evidence the driver versions don't cheat.
#pragma once

#include <cstdint>
#include <optional>

#include "sim/channel.h"
#include "util/bitio.h"

namespace setint::sim {

// One endpoint of a two-party protocol. The scheduler calls start() once
// on the opening party, then alternates on_message() with each delivered
// payload; a party returning std::nullopt yields the floor without
// speaking (the protocol ends when both parties are done()).
class Party {
 public:
  virtual ~Party() = default;

  // First message, for the party that opens the protocol.
  virtual std::optional<util::BitBuffer> start() { return std::nullopt; }

  // React to a delivered message; optionally reply.
  virtual std::optional<util::BitBuffer> on_message(
      const util::BitBuffer& message) = 0;

  virtual bool done() const = 0;
};

// Runs alice (the opener) against bob through `channel` until both report
// done. Throws std::runtime_error if the conversation stalls (neither
// party speaks while one is unfinished) or exceeds max_messages.
void run_two_party(Channel& channel, Party& alice, Party& bob,
                   std::size_t max_messages = 1u << 20);

}  // namespace setint::sim
