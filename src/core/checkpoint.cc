#include "core/checkpoint.h"

#include "core/budget.h"

namespace setint::core {

void Checkpoint::save(std::string_view tag, std::uint64_t phase,
                      util::BitBuffer state, std::uint64_t bits_at_boundary) {
  tag_.assign(tag);
  phase_ = phase;
  state_ = std::move(state);
  bits_at_boundary_ = bits_at_boundary;
  snapshots_ += 1;
  if (interrupt_armed_ && tag_ == interrupt_tag_ && phase_ >= interrupt_phase_) {
    interrupt_armed_ = false;
    throw CheckpointInterrupt("checkpoint: injected interrupt after " + tag_ +
                              " phase " + std::to_string(phase_));
  }
  // Budget enforcement point: the snapshot is stored above, so a
  // BudgetExhaustedError here interrupts exactly on the boundary.
  if (budget_ != nullptr) budget_->check();
  // Sans-IO park, strictly after the budget hook: an exhausted budget at
  // this boundary surfaces as BudgetExhaustedError in the stepped path
  // exactly as it would blocking, and budget.checks counts stay equal.
  if (park_at_boundaries_) {
    throw CheckpointPark("checkpoint: parked at " + tag_ + " phase " +
                         std::to_string(phase_));
  }
}

void Checkpoint::clear() {
  tag_.clear();
  phase_ = 0;
  state_.clear();
  bits_at_boundary_ = 0;
}

void Checkpoint::interrupt_after(std::string_view tag, std::uint64_t phase) {
  interrupt_tag_.assign(tag);
  interrupt_phase_ = phase;
  interrupt_armed_ = true;
}

}  // namespace setint::core
