#include "src/core/decision_cache.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/sim/table_cache.h"

namespace jockey {

UtilityPlateau AnalyzePlateau(const PiecewiseLinear& shifted_utility) {
  UtilityPlateau plateau;
  const auto& knots = shifted_utility.knots();
  if (knots.size() < 2) {
    // A single knot (or empty function) never occurs for real utilities; don't
    // bother proving anything about it.
    return plateau;
  }
  plateau.max_utility = knots.front().second;
  plateau.plateau_end = knots.front().first;
  bool constant = true;
  for (size_t i = 0; i < knots.size(); ++i) {
    plateau.max_abs_utility = std::max(plateau.max_abs_utility, std::abs(knots[i].second));
    if (i > 0 && knots[i].second > knots[i - 1].second) {
      // Utility recovers as time passes; candidates that lost once could win later
      // and the level-2 rule does not hold.
      return plateau;
    }
    if (knots[i].second == plateau.max_utility) {
      plateau.plateau_end = knots[i].first;
    }
    constant = constant && knots[i].second == knots.front().second;
  }
  if (constant) {
    // Flat everywhere (right extrapolation continues the zero final slope).
    plateau.plateau_end = std::numeric_limits<double>::infinity();
  }
  if (plateau.max_abs_utility > kPlateauMaxMagnitude) {
    // The interpolation-rounding bound behind kPlateauPrefixGuard assumes modest
    // knot magnitudes; beyond the cap, fall back to always rescanning.
    return plateau;
  }
  plateau.usable = true;
  return plateau;
}

int WarmStartAllocation(double critical_path_seconds, double total_work_seconds,
                        double deadline_seconds, int min_tokens, int max_tokens) {
  if (deadline_seconds <= critical_path_seconds + 1e-9) {
    // The previous run's critical path alone ate the deadline: no token count
    // makes the bound, so start pessimistically at the ceiling.
    return max_tokens;
  }
  const double parallel_work = std::max(0.0, total_work_seconds - critical_path_seconds);
  const double needed = parallel_work / (deadline_seconds - critical_path_seconds);
  const int tokens = static_cast<int>(std::ceil(needed - 1e-9));
  return std::clamp(tokens, min_tokens, max_tokens);
}

bool DecisionCache::Rekey(uint64_t fingerprint, int num_buckets,
                          const UtilityPlateau& plateau) {
  const size_t buckets = static_cast<size_t>(std::max(0, num_buckets));
  bool dropped = false;
  if (fingerprint != fingerprint_ || columns_.size() != buckets) {
    for (const auto& column : columns_) {
      if (!column.empty()) {
        dropped = true;
        break;
      }
    }
    dropped = dropped ||
              std::find(has_decision_.begin(), has_decision_.end(), char{1}) !=
                  has_decision_.end();
    columns_.assign(buckets, {});
    decisions_.assign(buckets, Decision{});
    has_decision_.assign(buckets, 0);
  }
  fingerprint_ = fingerprint;
  plateau_ = plateau;
  if (dropped) {
    ++stats_.invalidations;
  }
  return dropped;
}

const std::vector<double>* DecisionCache::FindColumn(int bucket) const {
  if (bucket < 0 || static_cast<size_t>(bucket) >= columns_.size()) {
    return nullptr;
  }
  const std::vector<double>& column = columns_[static_cast<size_t>(bucket)];
  return column.empty() ? nullptr : &column;
}

const std::vector<double>& DecisionCache::StoreColumn(int bucket,
                                                      std::vector<double> column) {
  std::vector<double>& slot = columns_[static_cast<size_t>(bucket)];
  slot = std::move(column);
  return slot;
}

const DecisionCache::Decision* DecisionCache::FindDecision(int bucket, double elapsed,
                                                           double slack) const {
  if (!plateau_.usable || bucket < 0 ||
      static_cast<size_t>(bucket) >= has_decision_.size() ||
      !has_decision_[static_cast<size_t>(bucket)]) {
    return nullptr;
  }
  const Decision& decision = decisions_[static_cast<size_t>(bucket)];
  if (elapsed < decision.made_at_elapsed) {
    return nullptr;
  }
  // The winner's utility argument, computed exactly as the scan computes it
  // (slack * prediction first, then the add): still on the plateau means the
  // winner's utility is still the maximum and the decision still stands.
  if (elapsed + slack * decision.prediction > plateau_.plateau_end) {
    return nullptr;
  }
  return &decision;
}

void DecisionCache::StoreDecision(int bucket, const Decision& decision) {
  if (bucket < 0 || static_cast<size_t>(bucket) >= decisions_.size()) {
    return;
  }
  decisions_[static_cast<size_t>(bucket)] = decision;
  has_decision_[static_cast<size_t>(bucket)] = 1;
}

bool DecisionCache::InvalidateDecisions() {
  const bool had =
      std::find(has_decision_.begin(), has_decision_.end(), char{1}) != has_decision_.end();
  std::fill(has_decision_.begin(), has_decision_.end(), char{0});
  if (had) {
    ++stats_.invalidations;
  }
  return had;
}

uint64_t DecisionCache::SignatureFor(int bucket) const {
  return Hasher(fingerprint_).Add(bucket).value();
}

}  // namespace jockey
