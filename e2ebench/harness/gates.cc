#include "gates.h"

#include <algorithm>
#include <cstdio>

namespace e2e {

ClassHistory::ClassHistory(const std::vector<api::EpochDelta>& deltas) {
  for (const auto& delta : deltas) {
    for (const auto& change : delta.changes) {
      by_asn_[change.asn].emplace_back(delta.epoch, change.after);
    }
  }
}

core::UsageClass ClassHistory::at(bgp::Asn asn, stream::Epoch epoch) const {
  const auto it = by_asn_.find(asn);
  core::UsageClass usage;
  if (it == by_asn_.end()) return usage;
  for (const auto& [e, u] : it->second) {
    if (e > epoch) break;
    usage = u;
  }
  return usage;
}

ClassMap ClassHistory::state_at(stream::Epoch epoch) const {
  ClassMap out;
  for (const auto& [asn, points] : by_asn_) {
    const auto usage = at(asn, epoch);
    if (usage != core::UsageClass{}) out[asn] = usage;
  }
  return out;
}

std::uint64_t Gates::failures() const {
  return static_cast<std::uint64_t>(
      std::count_if(results.begin(), results.end(), [](const auto& r) { return !r.second; }));
}

void Gates::print() const {
  for (const auto& [name, ok] : results) {
    std::printf("gate %-44s %s\n", name.c_str(), ok ? "pass" : "FAIL");
  }
}

ClassMap oracle_classes(core::Dataset tuples) {
  core::deduplicate(tuples);
  core::EngineConfig config;
  config.thresholds = thresholds();
  return classes_of(core::ColumnEngine(config).run(tuples));
}

ClassMap restrict_to(const ClassMap& map, const std::vector<bgp::Asn>& asns) {
  ClassMap out;
  for (const auto asn : asns) {
    const auto it = map.find(asn);
    if (it != map.end()) out.insert(*it);
  }
  return out;
}

ClassMap fold_filtered(const std::vector<api::EpochDelta>& deltas,
                       const api::SubscriptionFilter& filter) {
  ClassMap state;
  for (const auto& delta : deltas) {
    for (const auto& change : filter.apply(delta)) {
      if (change.after == core::UsageClass{}) {
        state.erase(change.asn);
      } else {
        state[change.asn] = change.after;
      }
    }
  }
  return state;
}

void check_queries(Gates& gates, const std::string& who, const QueryLog& log,
                   const ClassHistory& history) {
  bool class_ok = true;
  for (const auto& s : log.class_samples) {
    class_ok = class_ok && history.at(s.asn, s.epoch) == s.usage;
  }
  bool snapshot_ok = true;
  for (const auto& s : log.snapshot_samples) {
    snapshot_ok = snapshot_ok && history.state_at(s.epoch) == s.classes;
  }
  gates.check(who + ": class_of == published (" + std::to_string(log.class_samples.size()) +
                  " samples)",
              class_ok);
  gates.check(who + ": snapshot == published (" +
                  std::to_string(log.snapshot_samples.size()) + " samples)",
              snapshot_ok);
  gates.check(who + ": history ascending", log.history_unordered == 0);
}

}  // namespace e2e
