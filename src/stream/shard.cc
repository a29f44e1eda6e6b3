#include "stream/shard.h"

#include <algorithm>
#include <utility>

#include "obs/wellknown.h"

namespace bgpcu::stream {

IngestStats& IngestStats::operator+=(const IngestStats& other) noexcept {
  accepted += other.accepted;
  refreshed += other.refreshed;
  duplicates += other.duplicates;
  rejected += other.rejected;
  return *this;
}

TupleShard::TupleShard(std::uint64_t first_key, std::uint64_t key_stride, bool journal,
                       std::size_t journal_cap)
    : next_key_(first_key), key_stride_(key_stride == 0 ? 1 : key_stride),
      lane_(static_cast<std::size_t>(first_key) % obs::Counter::kLanes),
      journal_enabled_(journal), journal_cap_(journal_cap) {}

IngestOutcome TupleShard::ingest(core::PathCommTuple&& tuple, Epoch epoch) {
  const auto view = core::TupleView::prepare(tuple);
  if (!view) return IngestOutcome::kRejected;

  std::vector<PreparedTuple> batch;
  batch.push_back({std::move(tuple), view->upper_mask});
  IngestStats stats;
  ingest_batch(std::move(batch), epoch, stats);
  if (stats.accepted) return IngestOutcome::kAccepted;
  if (stats.refreshed) return IngestOutcome::kRefreshed;
  return IngestOutcome::kDuplicate;
}

void TupleShard::journal_push(core::IndexDelta&& delta) {
  if (!journal_enabled_ || journal_overflowed_) return;
  if (delta.kind == core::IndexDelta::Kind::kRemove) {
    const auto pending = pending_adds_.find(delta.key);
    if (pending != pending_adds_.end()) {
      // The matching add has not been drained yet: the index would insert
      // the row only to tombstone it in the same patch. Cancel the add in
      // place and swallow this remove.
      cancelled_[pending->second] = true;
      pending_adds_.erase(pending);
      ++cancelled_in_journal_;
      ++journal_dedups_;
      obs::metrics().stream_journal_dedups.add(1, lane_);
      return;
    }
  }
  if (journal_.size() >= journal_cap_) {
    // Stop buffering and drop what we have: the next drain reports the
    // overflow and the engine rebuilds from export_live() instead.
    journal_overflowed_ = true;
    journal_.clear();
    journal_.shrink_to_fit();
    cancelled_.clear();
    cancelled_.shrink_to_fit();
    pending_adds_.clear();
    cancelled_in_journal_ = 0;
    obs::metrics().stream_journal_overflows.add(1, lane_);
    return;
  }
  if (delta.kind == core::IndexDelta::Kind::kAdd) {
    pending_adds_.emplace(delta.key, journal_.size());
  }
  journal_.push_back(std::move(delta));
  cancelled_.push_back(false);
  obs::metrics().stream_journal_deltas.add(1, lane_);
}

void TupleShard::ingest_batch(std::vector<PreparedTuple>&& batch, Epoch epoch,
                              IngestStats& stats) {
  const IngestStats before = stats;
  const std::lock_guard lock(mutex_);
  bool mutated = false;
  for (auto& prepared : batch) {
    const bgp::Asn peer = prepared.tuple.peer();
    auto [it, inserted] = tuples_.try_emplace(std::move(prepared.tuple));
    if (!inserted) {
      if (it->second.last_seen == epoch) {
        ++stats.duplicates;
      } else {
        it->second.last_seen = epoch;
        unlink(*it);
        link(*it);
        ++stats.refreshed;
      }
      continue;
    }
    it->second.upper_mask = prepared.upper_mask;
    it->second.last_seen = epoch;
    it->second.key = next_key_;
    link(*it);
    next_key_ += key_stride_;
    if (journal_enabled_) {
      journal_push({core::IndexDelta::Kind::kAdd, it->second.key, prepared.upper_mask,
                    it->first.path});
    }
    auto& k = live_[peer];
    if ((prepared.upper_mask & 1u) != 0) {
      ++k.t;
    } else {
      ++k.s;
    }
    ++stats.accepted;
    mutated = true;
  }
  if (mutated) ++version_;

  auto& m = obs::metrics();
  m.stream_ingest_batches.add(1, lane_);
  if (const auto n = stats.accepted - before.accepted) m.stream_ingest_accepted.add(n, lane_);
  if (const auto n = stats.refreshed - before.refreshed) m.stream_ingest_refreshed.add(n, lane_);
  if (const auto n = stats.duplicates - before.duplicates) m.stream_ingest_duplicate.add(n, lane_);
}

void TupleShard::link(Node& node) noexcept {
  // Walk back from the newest end to the last node not newer than this one;
  // monotone epochs stop at newest_ without stepping.
  Node* older = newest_;
  while (older != nullptr && older->second.last_seen > node.second.last_seen) {
    older = older->second.older;
  }
  Node* newer = older != nullptr ? older->second.newer : oldest_;
  node.second.older = older;
  node.second.newer = newer;
  (older != nullptr ? older->second.newer : oldest_) = &node;
  (newer != nullptr ? newer->second.older : newest_) = &node;
}

void TupleShard::unlink(Node& node) noexcept {
  auto& meta = node.second;
  (meta.older != nullptr ? meta.older->second.newer : oldest_) = meta.newer;
  (meta.newer != nullptr ? meta.newer->second.older : newest_) = meta.older;
  meta.older = nullptr;
  meta.newer = nullptr;
}

std::size_t TupleShard::evict_older_than(Epoch min_epoch) {
  const std::lock_guard lock(mutex_);
  std::size_t evicted = 0;
  while (oldest_ != nullptr && oldest_->second.last_seen < min_epoch) {
    Node& node = *oldest_;
    unlink(node);
    const auto live_it = live_.find(node.first.peer());
    if (live_it != live_.end()) {
      auto& k = live_it->second;
      if ((node.second.upper_mask & 1u) != 0) {
        --k.t;
      } else {
        --k.s;
      }
      if ((k.t | k.s | k.f | k.c) == 0) live_.erase(live_it);
    }
    if (journal_enabled_) {
      journal_push({core::IndexDelta::Kind::kRemove, node.second.key, 0, {}});
    }
    tuples_.erase(node.first);  // The list holds nodes, not iterators: erase by key.
    ++evicted;
  }
  if (evicted != 0) {
    ++version_;
    obs::metrics().stream_evicted.add(evicted, lane_);
  }
  return evicted;
}

void TupleShard::collect_views(std::vector<core::TupleView>& out) const {
  const std::lock_guard lock(mutex_);
  for (const auto& [tuple, meta] : tuples_) {
    out.push_back(core::TupleView{&tuple.path, meta.upper_mask});
  }
}

bool TupleShard::drain_deltas(std::vector<core::IndexDelta>& out) {
  const std::lock_guard lock(mutex_);
  pending_adds_.clear();
  if (journal_overflowed_) {
    journal_overflowed_ = false;
    journal_.clear();
    cancelled_.clear();
    cancelled_in_journal_ = 0;
    return false;
  }
  if (cancelled_in_journal_ == 0 && out.empty()) {
    out = std::move(journal_);
  } else {
    out.reserve(out.size() + journal_.size() - cancelled_in_journal_);
    for (std::size_t i = 0; i < journal_.size(); ++i) {
      if (!cancelled_[i]) out.push_back(std::move(journal_[i]));
    }
  }
  journal_.clear();
  cancelled_.clear();
  cancelled_in_journal_ = 0;
  return true;
}

void TupleShard::export_live(std::vector<core::IndexDelta>& out) const {
  const std::lock_guard lock(mutex_);
  out.reserve(out.size() + tuples_.size());
  for (const auto& [tuple, meta] : tuples_) {
    out.push_back({core::IndexDelta::Kind::kAdd, meta.key, meta.upper_mask, tuple.path});
  }
}

void TupleShard::export_tuples(std::vector<StoredTuple>& out) const {
  const std::lock_guard lock(mutex_);
  out.reserve(out.size() + tuples_.size());
  for (const Node* node = oldest_; node != nullptr; node = node->second.newer) {
    out.push_back({node->first, node->second.last_seen, node->second.key});
  }
}

std::uint64_t TupleShard::next_key() const {
  const std::lock_guard lock(mutex_);
  return next_key_;
}

void TupleShard::restore_tuples(std::vector<StoredTuple> tuples, std::uint64_t next_key) {
  const auto by_age = [](const StoredTuple& a, const StoredTuple& b) {
    return a.last_seen < b.last_seen;
  };
  if (!std::is_sorted(tuples.begin(), tuples.end(), by_age)) {
    std::sort(tuples.begin(), tuples.end(), by_age);
  }
  const std::lock_guard lock(mutex_);
  tuples_.clear();
  tuples_.reserve(tuples.size());
  oldest_ = nullptr;
  newest_ = nullptr;
  live_.clear();
  journal_.clear();
  cancelled_.clear();
  pending_adds_.clear();
  cancelled_in_journal_ = 0;
  journal_overflowed_ = false;
  next_key_ = next_key;
  for (auto& stored : tuples) {
    const auto view = core::TupleView::prepare(stored.tuple);
    if (!view) continue;  // Corrupt checkpoint row; the caller's live-count
                          // check against the index image catches the drop.
    const bgp::Asn peer = stored.tuple.peer();
    auto [it, inserted] = tuples_.try_emplace(std::move(stored.tuple));
    if (!inserted) continue;
    it->second.upper_mask = view->upper_mask;
    it->second.last_seen = stored.last_seen;
    it->second.key = stored.key;
    link(*it);  // Sorted input: always the O(1) newest-end case.
    auto& k = live_[peer];
    if ((view->upper_mask & 1u) != 0) {
      ++k.t;
    } else {
      ++k.s;
    }
  }
  ++version_;
}

core::UsageCounters TupleShard::live_counters(bgp::Asn asn) const {
  const std::lock_guard lock(mutex_);
  const auto it = live_.find(asn);
  return it == live_.end() ? core::UsageCounters{} : it->second;
}

std::size_t TupleShard::size() const {
  const std::lock_guard lock(mutex_);
  return tuples_.size();
}

std::uint64_t TupleShard::version() const {
  const std::lock_guard lock(mutex_);
  return version_;
}

std::uint64_t TupleShard::journal_dedups() const {
  const std::lock_guard lock(mutex_);
  return journal_dedups_;
}

}  // namespace bgpcu::stream
