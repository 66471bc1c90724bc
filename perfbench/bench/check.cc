#include "check.h"

#include <algorithm>
#include <iterator>
#include <vector>

#include "core/basic_intersection.h"
#include "core/bucket_eq.h"
#include "core/verification_tree.h"
#include "eq/amortized_eq.h"
#include "sim/channel.h"
#include "sim/randomness.h"

namespace perfbench {

using namespace setint;

namespace {

util::Set plain_intersection(util::SetView s, util::SetView t) {
  util::Set out;
  std::set_intersection(s.begin(), s.end(), t.begin(), t.end(),
                        std::back_inserter(out));
  return out;
}

bool includes(util::SetView outer, util::SetView inner) {
  return std::includes(outer.begin(), outer.end(), inner.begin(), inner.end());
}

// A one-sided candidate (Lemma 3.3 / Corollary 3.4): it contains S cap T
// and nothing outside its owner's input.
bool candidate_ok(util::SetView candidate, util::SetView own,
                  util::SetView both) {
  return includes(candidate, both) && includes(own, candidate);
}

}  // namespace

const char* outcome_name(Outcome outcome) {
  switch (outcome) {
    case Outcome::kExact:
      return "exact";
    case Outcome::kDegraded:
      return "degraded";
    case Outcome::kRefused:
      return "refused";
    case Outcome::kWrong:
      return "wrong";
  }
  return "wrong";
}

Outcome check_facade(util::SetView s, util::SetView t,
                     const IntersectResult& result) {
  const int flags = int{result.verified} + int{result.degraded} +
                    int{result.refused};
  if (flags != 1) return Outcome::kWrong;
  const util::Set& answer = result.intersection;
  if (result.refused) {
    return answer.empty() ? Outcome::kRefused : Outcome::kWrong;
  }
  const util::Set both = plain_intersection(s, t);
  if (result.verified) {
    return answer == both ? Outcome::kExact : Outcome::kWrong;
  }
  return candidate_ok(answer, s, both) ? Outcome::kDegraded : Outcome::kWrong;
}

BlockingRef blocking_reference(std::string_view kind,
                               const core::MachineConfig& cfg) {
  sim::Channel channel;
  channel.enable_digest();
  const sim::SharedRandomness shared(cfg.seed);
  const util::Set both = plain_intersection(cfg.s, cfg.t);
  BlockingRef ref;
  // The fingerprints mirror each machine's result_fingerprint() in
  // core/engine.cc, so equal outputs give equal fingerprints.
  if (kind == "bi") {
    const core::CandidatePair out = core::basic_intersection(
        channel, shared, cfg.nonce, cfg.universe, cfg.s, cfg.t,
        cfg.bi_target_failure);
    ref.result_fingerprint = core::fingerprint_set(
        core::fingerprint_set(0xB1, out.s_candidate), out.t_candidate);
    ref.outputs_ok = candidate_ok(out.s_candidate, cfg.s, both) &&
                     candidate_ok(out.t_candidate, cfg.t, both);
  } else if (kind == "vt" || kind == "bucket_eq") {
    const bool vt = kind == "vt";
    const core::IntersectionOutput out =
        vt ? core::verification_tree_intersection(channel, shared, cfg.nonce,
                                                  cfg.universe, cfg.s, cfg.t,
                                                  cfg.tree)
           : core::bucket_eq_intersection(channel, shared, cfg.nonce,
                                          cfg.universe, cfg.s, cfg.t,
                                          cfg.bucket_eq_strength);
    ref.result_fingerprint = core::fingerprint_set(
        core::fingerprint_set(vt ? 0x57 : 0xB7, out.alice), out.bob);
    ref.outputs_ok = candidate_ok(out.alice, cfg.s, both) &&
                     candidate_ok(out.bob, cfg.t, both);
  } else {
    std::vector<util::BitBuffer> xs, ys;
    core::make_amortized_eq_inputs(
        cfg.seed,
        cfg.eq_instances != 0 ? cfg.eq_instances
                              : std::max<std::size_t>(cfg.s.size(), 4),
        &xs, &ys);
    const std::vector<bool> out =
        eq::amortized_equality(channel, shared, cfg.nonce, xs, ys);
    ref.result_fingerprint = core::fingerprint_bools(0xE9, out);
    // One-sided: equal inputs always compare equal.
    ref.outputs_ok = out.size() == xs.size();
    for (std::size_t i = 0; ref.outputs_ok && i < xs.size(); ++i) {
      if (xs[i] == ys[i] && !out[i]) ref.outputs_ok = false;
    }
  }
  ref.digest = channel.digest();
  ref.bits = channel.cost().bits_total;
  ref.rounds = channel.cost().rounds;
  ref.messages = channel.cost().messages;
  return ref;
}

Outcome check_service(const runtime::SessionRecord& record,
                      const BlockingRef& ref) {
  const bool same = record.final_status == core::MachineStatus::kDone &&
                    record.digest == ref.digest &&
                    record.bits_total == ref.bits &&
                    record.result_fingerprint == ref.result_fingerprint;
  return same && ref.outputs_ok ? Outcome::kExact : Outcome::kWrong;
}

}  // namespace perfbench
