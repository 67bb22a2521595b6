#include "local/round_ledger.h"

#include <sstream>

#include "util/check.h"

namespace deltacol {

RoundLedger::RoundLedger(const RoundLedger& other) {
  std::lock_guard<std::mutex> lock(other.mu_);
  total_ = other.total_;
  congest_bits_ = other.congest_bits_;
  phases_ = other.phases_;
}

RoundLedger& RoundLedger::operator=(const RoundLedger& other) {
  if (this == &other) return *this;
  // Copy under the source lock first so self-consistent state is taken even
  // if the source is being charged concurrently.
  std::int64_t total;
  std::int64_t congest_bits;
  std::vector<PhaseTotal> phases;
  {
    std::lock_guard<std::mutex> lock(other.mu_);
    total = other.total_;
    congest_bits = other.congest_bits_;
    phases = other.phases_;
  }
  std::lock_guard<std::mutex> lock(mu_);
  total_ = total;
  congest_bits_ = congest_bits;
  phases_ = std::move(phases);
  return *this;
}

void RoundLedger::set_congest_bits(std::int64_t bits) {
  std::lock_guard<std::mutex> lock(mu_);
  congest_bits_ = bits > 0 ? bits : 0;
}

std::int64_t RoundLedger::congest_bits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return congest_bits_;
}

std::int64_t RoundLedger::message_round_cost(std::int64_t max_edge_bits) const {
  DC_REQUIRE(max_edge_bits >= 0, "negative edge load");
  std::lock_guard<std::mutex> lock(mu_);
  if (congest_bits_ <= 0 || max_edge_bits <= congest_bits_) return 1;
  return (max_edge_bits + congest_bits_ - 1) / congest_bits_;
}

void RoundLedger::charge_message_round(std::int64_t max_edge_bits,
                                       std::string_view phase,
                                       std::int64_t multiplier) {
  DC_REQUIRE(multiplier >= 1, "multiplier must be >= 1");
  charge(message_round_cost(max_edge_bits) * multiplier, phase);
}

void RoundLedger::charge_locked(std::int64_t rounds, std::string_view phase) {
  total_ += rounds;
  for (auto& p : phases_) {
    if (p.phase == phase) {
      p.rounds += rounds;
      return;
    }
  }
  phases_.push_back({std::string(phase), rounds});
}

void RoundLedger::charge(std::int64_t rounds, std::string_view phase) {
  DC_REQUIRE(rounds >= 0, "cannot charge negative rounds");
  std::lock_guard<std::mutex> lock(mu_);
  charge_locked(rounds, phase);
}

std::int64_t RoundLedger::total() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_;
}

std::int64_t RoundLedger::phase_total(std::string_view phase) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& p : phases_) {
    if (p.phase == phase) return p.rounds;
  }
  return 0;
}

void RoundLedger::merge(const RoundLedger& child) {
  // Take a self-consistent snapshot of the child (it may be `*this`-unlike
  // but still live), then fold it in under our own lock.
  std::vector<PhaseTotal> child_phases;
  {
    std::lock_guard<std::mutex> lock(child.mu_);
    child_phases = child.phases_;
  }
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& p : child_phases) charge_locked(p.rounds, p.phase);
}

std::string RoundLedger::report() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream os;
  os << "total rounds: " << total_ << '\n';
  for (const auto& p : phases_) {
    os << "  " << p.phase << ": " << p.rounds << '\n';
  }
  return os.str();
}

void RoundLedger::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  total_ = 0;
  phases_.clear();
}

void charge_max_component(RoundLedger& parent,
                          const std::vector<RoundLedger>& children) {
  // Strictly-greater scan from 0 in index order: a run whose components all
  // charged nothing merges nothing (matching the serial engine's fold).
  const RoundLedger* best = nullptr;
  std::int64_t best_total = 0;
  for (const auto& child : children) {
    if (child.total() > best_total) {
      best = &child;
      best_total = child.total();
    }
  }
  if (best != nullptr) parent.merge(*best);
}

}  // namespace deltacol
