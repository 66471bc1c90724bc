// Output checks of the benchmark: every session it runs is compared with a
// plaintext reference before it counts as done.
#pragma once

#include <cstdint>
#include <string_view>

#include "core/engine.h"
#include "runtime/scheduler.h"
#include "setint.h"
#include "util/set_util.h"

namespace perfbench {

// How a session ended, as far as its answer is concerned.
enum class Outcome {
  kExact,     // verified and equal to S cap T (or, for a service session,
              // digest and result identical to the blocking reference)
  kDegraded,  // flagged superset: S cap T <= answer <= S
  kRefused,   // explicit refusal with an empty answer
  kWrong,     // anything else: a wrong or inconsistent answer
};

const char* outcome_name(Outcome outcome);

// Checks a facade answer against the plaintext std::set_intersection of
// its pair:
//   verified => answer == S cap T;
//   degraded => S cap T <= answer <= S;
//   refused  => answer empty;
// and at most one of the three flags set.
Outcome check_facade(setint::util::SetView s, setint::util::SetView t,
                     const setint::IntersectResult& result);

// The blocking engine's run of one machine config: the bare protocol
// function over a digest-enabled channel, with no sans-IO engine, framing
// or scheduler. `outputs_ok` says whether its outputs hold against the
// plaintext reference.
struct BlockingRef {
  std::uint64_t digest = 0;
  std::uint64_t bits = 0;
  std::uint64_t rounds = 0;
  std::uint64_t messages = 0;
  std::uint64_t result_fingerprint = 0;
  bool outputs_ok = false;
};

BlockingRef blocking_reference(std::string_view kind,
                               const setint::core::MachineConfig& cfg);

// A scheduler-driven session is exact when it finished and its transcript
// digest, bits and result fingerprint equal the blocking reference whose
// outputs passed the plaintext check.
Outcome check_service(const setint::runtime::SessionRecord& record,
                      const BlockingRef& ref);

}  // namespace perfbench
