// Correctness gates: the served classification against the paper's batch
// classifier (core::ColumnEngine::run) over the same tuples, and sampled
// query answers against the published snapshot of their epoch.
#ifndef BGPCU_E2EBENCH_GATES_H
#define BGPCU_E2EBENCH_GATES_H

#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "clients.h"

namespace e2e {

/// Class of every AS at every published epoch, folded from the deltas.
class ClassHistory {
 public:
  explicit ClassHistory(const std::vector<api::EpochDelta>& deltas);

  [[nodiscard]] core::UsageClass at(bgp::Asn asn, stream::Epoch epoch) const;

  /// The published classification at `epoch` (none/none omitted).
  [[nodiscard]] ClassMap state_at(stream::Epoch epoch) const;

 private:
  std::unordered_map<bgp::Asn, std::vector<std::pair<stream::Epoch, core::UsageClass>>> by_asn_;
};

/// A run's gate results; each failed gate counts as one failure.
struct Gates {
  std::vector<std::pair<std::string, bool>> results;

  void check(const std::string& name, bool ok) { results.emplace_back(name, ok); }

  [[nodiscard]] std::uint64_t failures() const;

  void print() const;
};

/// The batch classifier's classes over `tuples` (deduplicated first).
[[nodiscard]] ClassMap oracle_classes(core::Dataset tuples);

/// `map` limited to `asns`.
[[nodiscard]] ClassMap restrict_to(const ClassMap& map, const std::vector<bgp::Asn>& asns);

/// What a subscriber with `filter` holds after every delta in `deltas`.
[[nodiscard]] ClassMap fold_filtered(const std::vector<api::EpochDelta>& deltas,
                                     const api::SubscriptionFilter& filter);

/// Checks `log`'s sampled answers against `history` as gates named by `who`.
void check_queries(Gates& gates, const std::string& who, const QueryLog& log,
                   const ClassHistory& history);

}  // namespace e2e

#endif  // BGPCU_E2EBENCH_GATES_H
