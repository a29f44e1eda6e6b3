// Window aging, checked property-style against a brute-force reference
// model. TupleShard keeps its live tuples on an age-ordered list and evicts
// by popping its oldest end; the model here keeps a plain map and evicts by
// scanning every live tuple, which is the aging contract stated in
// stream/shard.h. Randomized seeded scripts of ingest, refresh, duplicate,
// out-of-order epochs, advance and restore run against both; after every
// step the shard must match the model on:
//   - the evicted count,
//   - the live tuple set (tuple, last-seen epoch, key),
//   - live_counters for every peer,
//   - the journaled add/remove key sets.
// Two shards run each script in lockstep: one drains its journal after every
// step, the other only at random steps, so add+remove cancellation inside an
// undrained interval is covered too. Restores come from the shard's own
// age-ordered export and from a shuffled copy of it (the row order of
// checkpoints written before age-ordered export).
//
// The engine half checks StreamEngine::checkpoint_state -> restore_state in
// mid-window: the restored engine must match an engine fed the same batches
// without interruption on evicted_total, live_tuples and snapshot classes at
// every later epoch, for same and changed shard counts, with and without a
// shuffled checkpoint.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <sstream>
#include <unordered_map>

#include "core/engine.h"
#include "stream/engine.h"
#include "topology/rng.h"

namespace bgpcu::stream {
namespace {

constexpr bgp::Asn kAsns = 24;  ///< Path ASNs are drawn from 1..kAsns.

core::PathCommTuple random_tuple(topology::Rng& rng) {
  core::PathCommTuple t;
  const std::size_t len = 1 + rng.below(4);
  while (t.path.size() < len) {
    const bgp::Asn asn = 1 + static_cast<bgp::Asn>(rng.below(kAsns));
    if (std::find(t.path.begin(), t.path.end(), asn) == t.path.end()) t.path.push_back(asn);
  }
  for (const auto asn : t.path) {
    if (rng.chance(0.4)) {
      t.comms.push_back(bgp::CommunityValue::regular(static_cast<std::uint16_t>(asn),
                                                     static_cast<std::uint16_t>(rng.below(3))));
    }
  }
  bgp::normalize(t.comms);
  return t;
}

template <typename T>
void shuffle(std::vector<T>& v, topology::Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[rng.below(i)]);
}

// ----------------------------------------------------------------- shard --

/// Journal state since the last drain, as the shard documents it: an add and
/// a remove of the same key inside one undrained interval cancel.
struct JournalModel {
  std::set<std::uint64_t> adds;
  std::set<std::uint64_t> removes;

  void add(std::uint64_t key) { adds.insert(key); }
  void remove(std::uint64_t key) {
    if (adds.erase(key) == 0) removes.insert(key);
  }
  void clear() {
    adds.clear();
    removes.clear();
  }
};

/// The reference: a map with full-scan eviction.
struct ShardModel {
  struct Meta {
    Epoch last_seen = 0;
    std::uint64_t key = 0;
    std::uint32_t upper_mask = 0;
  };
  std::unordered_map<core::PathCommTuple, Meta> live;
  std::uint64_t next_key = 0;
  std::vector<JournalModel*> journals;

  IngestOutcome ingest(const core::PathCommTuple& tuple, Epoch epoch) {
    const auto view = core::TupleView::prepare(tuple);
    if (!view) return IngestOutcome::kRejected;
    const auto it = live.find(tuple);
    if (it != live.end()) {
      if (it->second.last_seen == epoch) return IngestOutcome::kDuplicate;
      it->second.last_seen = epoch;
      return IngestOutcome::kRefreshed;
    }
    live.emplace(tuple, Meta{epoch, next_key, view->upper_mask});
    for (auto* j : journals) j->add(next_key);
    ++next_key;
    return IngestOutcome::kAccepted;
  }

  std::size_t evict_older_than(Epoch min_epoch) {
    std::size_t evicted = 0;
    for (auto it = live.begin(); it != live.end();) {
      if (it->second.last_seen < min_epoch) {
        for (auto* j : journals) j->remove(it->second.key);
        it = live.erase(it);
        ++evicted;
      } else {
        ++it;
      }
    }
    return evicted;
  }

  [[nodiscard]] core::UsageCounters counters(bgp::Asn asn) const {
    core::UsageCounters k;
    for (const auto& [tuple, meta] : live) {
      if (tuple.peer() != asn) continue;
      if ((meta.upper_mask & 1u) != 0) {
        ++k.t;
      } else {
        ++k.s;
      }
    }
    return k;
  }
};

void expect_state(const TupleShard& shard, const ShardModel& model, const std::string& where) {
  ASSERT_EQ(shard.size(), model.live.size()) << where;
  std::vector<StoredTuple> exported;
  shard.export_tuples(exported);
  ASSERT_EQ(exported.size(), model.live.size()) << where;
  ASSERT_TRUE(std::is_sorted(exported.begin(), exported.end(),
                             [](const StoredTuple& a, const StoredTuple& b) {
                               return a.last_seen < b.last_seen;
                             }))
      << where << ": export is not age-ordered";
  for (const auto& stored : exported) {
    const auto it = model.live.find(stored.tuple);
    ASSERT_NE(it, model.live.end()) << where << ": unexpected live " << stored.tuple.to_string();
    EXPECT_EQ(stored.last_seen, it->second.last_seen) << where << " " << stored.tuple.to_string();
    EXPECT_EQ(stored.key, it->second.key) << where << " " << stored.tuple.to_string();
  }
  EXPECT_EQ(shard.next_key(), model.next_key) << where;
  for (bgp::Asn asn = 1; asn <= kAsns + 1; ++asn) {
    EXPECT_EQ(shard.live_counters(asn), model.counters(asn)) << where << " peer " << asn;
  }
}

void expect_journal(TupleShard& shard, JournalModel& journal, const std::string& where) {
  std::vector<core::IndexDelta> deltas;
  ASSERT_TRUE(shard.drain_deltas(deltas)) << where;
  std::set<std::uint64_t> adds;
  std::set<std::uint64_t> removes;
  for (const auto& d : deltas) {
    auto& keys = d.kind == core::IndexDelta::Kind::kAdd ? adds : removes;
    EXPECT_TRUE(keys.insert(d.key).second) << where << ": key journaled twice " << d.key;
  }
  EXPECT_EQ(adds, journal.adds) << where;
  EXPECT_EQ(removes, journal.removes) << where;
  journal.clear();
}

class EvictionScript : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EvictionScript, ShardMatchesFullScanModelAfterEveryStep) {
  const std::uint64_t seed = GetParam();
  topology::Rng rng(seed * 104729 + 17);
  const Epoch window = 1 + rng.below(5);

  TupleShard eager;  // drained after every step
  TupleShard lazy;   // drained at random steps
  JournalModel eager_journal;
  JournalModel lazy_journal;
  ShardModel model;
  model.journals = {&eager_journal, &lazy_journal};

  std::vector<core::PathCommTuple> seen;  // re-offer pool (live or evicted)
  Epoch epoch = 0;
  std::size_t restores = 0;
  std::size_t out_of_order = 0;

  for (int step = 0; step < 300; ++step) {
    std::ostringstream where;
    where << "seed " << seed << " step " << step << " epoch " << epoch;
    const auto op = rng.below(100);
    if (op < 40) {
      // Fresh tuple: mostly at the current epoch, sometimes older.
      Epoch at = epoch;
      if (rng.chance(0.25) && epoch > 0) {
        at = epoch - rng.below(std::min<Epoch>(epoch, 6) + 1);
        out_of_order += at < epoch ? 1 : 0;
      }
      auto t = random_tuple(rng);
      seen.push_back(t);
      const auto expected = model.ingest(t, at);
      auto copy = t;
      ASSERT_EQ(eager.ingest(std::move(t), at), expected) << where.str();
      ASSERT_EQ(lazy.ingest(std::move(copy), at), expected) << where.str();
    } else if (op < 60 && !seen.empty()) {
      // Refresh or duplicate of an earlier tuple, at any recent epoch
      // (moving last_seen backwards is the documented semantics too).
      const auto& t = seen[rng.below(seen.size())];
      Epoch at = epoch;
      const auto it = model.live.find(t);
      if (it != model.live.end() && rng.chance(0.3)) {
        at = it->second.last_seen;  // duplicate
      } else if (rng.chance(0.3) && epoch > 0) {
        at = epoch - rng.below(std::min<Epoch>(epoch, 4) + 1);
        out_of_order += at < epoch ? 1 : 0;
      }
      const auto expected = model.ingest(t, at);
      ASSERT_EQ(eager.ingest(core::PathCommTuple(t), at), expected) << where.str();
      ASSERT_EQ(lazy.ingest(core::PathCommTuple(t), at), expected) << where.str();
    } else if (op < 70) {
      // A batch at the current epoch mixing fresh, refreshed and duplicate
      // tuples (duplicates inside one batch included).
      std::vector<PreparedTuple> a;
      std::vector<PreparedTuple> b;
      IngestStats expected;
      const auto n = 1 + rng.below(12);
      for (std::uint64_t i = 0; i < n; ++i) {
        auto t = !seen.empty() && rng.chance(0.5) ? seen[rng.below(seen.size())]
                                                  : random_tuple(rng);
        const auto view = core::TupleView::prepare(t);
        if (!view) continue;
        seen.push_back(t);
        switch (model.ingest(t, epoch)) {
          case IngestOutcome::kAccepted: ++expected.accepted; break;
          case IngestOutcome::kRefreshed: ++expected.refreshed; break;
          case IngestOutcome::kDuplicate: ++expected.duplicates; break;
          case IngestOutcome::kRejected: ++expected.rejected; break;
        }
        a.push_back({t, view->upper_mask});
        b.push_back({std::move(t), view->upper_mask});
      }
      IngestStats got_a;
      IngestStats got_b;
      eager.ingest_batch(std::move(a), epoch, got_a);
      lazy.ingest_batch(std::move(b), epoch, got_b);
      ASSERT_EQ(got_a, expected) << where.str();
      ASSERT_EQ(got_b, expected) << where.str();
    } else if (op < 90) {
      // Advance: the engine's window cut, or occasionally an arbitrary one.
      if (rng.chance(0.7)) ++epoch;
      Epoch min_epoch = epoch + 1 >= window ? epoch + 1 - window : 0;
      if (rng.chance(0.15)) min_epoch = rng.below(epoch + 2);
      const auto expected = model.evict_older_than(min_epoch);
      ASSERT_EQ(eager.evict_older_than(min_epoch), expected) << where.str();
      ASSERT_EQ(lazy.evict_older_than(min_epoch), expected) << where.str();
    } else {
      // Restore both shards from a checkpoint of the eager one: its own
      // age-ordered export, or a shuffled copy (pre-ordering checkpoints).
      std::vector<StoredTuple> exported;
      eager.export_tuples(exported);
      if (rng.chance(0.5)) shuffle(exported, rng);
      const auto next_key = eager.next_key();
      auto copy = exported;
      eager.restore_tuples(std::move(exported), next_key);
      lazy.restore_tuples(std::move(copy), next_key);
      eager_journal.clear();
      lazy_journal.clear();
      ++restores;
    }
    expect_state(eager, model, where.str() + " (eager)");
    expect_state(lazy, model, where.str() + " (lazy)");
    expect_journal(eager, eager_journal, where.str() + " (eager journal)");
    if (rng.chance(0.3)) expect_journal(lazy, lazy_journal, where.str() + " (lazy journal)");
    if (HasFatalFailure()) return;
  }
  expect_journal(lazy, lazy_journal, "final (lazy journal)");
  EXPECT_GT(restores, 0u);
  EXPECT_GT(out_of_order, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EvictionScript, ::testing::Range<std::uint64_t>(1, 41));

TEST(EvictionOrder, OutOfOrderIngestIsEvictedByLastSeenNotArrival) {
  TupleShard shard;
  auto t = [](bgp::Asn a, bgp::Asn b) {
    core::PathCommTuple tuple;
    tuple.path = {a, b};
    return tuple;
  };
  (void)shard.ingest(t(1, 2), 5);
  (void)shard.ingest(t(1, 3), 2);  // older than the newest: walks back
  (void)shard.ingest(t(1, 4), 7);
  (void)shard.ingest(t(1, 5), 0);  // becomes the oldest
  (void)shard.ingest(t(1, 2), 1);  // refresh backwards: 5 -> 1
  EXPECT_EQ(shard.evict_older_than(1), 1u);  // (1,5)@0
  EXPECT_EQ(shard.evict_older_than(3), 2u);  // (1,2)@1, (1,3)@2
  EXPECT_EQ(shard.size(), 1u);
  EXPECT_EQ(shard.evict_older_than(8), 1u);  // (1,4)@7
  EXPECT_EQ(shard.size(), 0u);
}

// ---------------------------------------------------------------- engine --

struct RestoreShape {
  std::size_t shards;
  std::size_t restore_shards;  ///< Shard count of the engine restored into.
  std::uint64_t window;
  bool shuffle;  ///< Shuffle each shard's checkpointed tuples before restore.
};

class CheckpointMidWindow
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, RestoreShape>> {};

core::Dataset epoch_batch(topology::Rng& rng, const core::Dataset& pool) {
  core::Dataset batch;
  const auto fresh = 20 + rng.below(30);
  for (std::uint64_t i = 0; i < fresh; ++i) batch.push_back(random_tuple(rng));
  for (const auto& old : pool) {
    if (rng.chance(0.15)) batch.push_back(old);
  }
  return batch;
}

TEST_P(CheckpointMidWindow, RestoredEngineMatchesUninterruptedEngine) {
  const auto [seed, shape] = GetParam();
  topology::Rng rng(seed * 7919 + shape.window);

  StreamConfig config;
  config.shards = shape.shards;
  config.window_epochs = shape.window;
  StreamEngine uninterrupted(config);
  StreamEngine interrupted(config);
  StreamConfig restored_config = config;
  restored_config.shards = shape.restore_shards;
  StreamEngine restored(restored_config);

  constexpr std::size_t kEpochs = 18;
  const std::size_t cut = shape.window + rng.below(kEpochs - shape.window - 4);
  StreamEngine* live = &interrupted;
  core::Dataset pool;
  for (std::size_t e = 0; e < kEpochs; ++e) {
    if (e > 0) {
      (void)uninterrupted.advance_epoch();
      (void)live->advance_epoch();
    }
    auto batch = epoch_batch(rng, pool);
    pool.insert(pool.end(), batch.begin(), batch.end());
    if (pool.size() > 400) pool.erase(pool.begin(), pool.begin() + 200);
    (void)uninterrupted.ingest(batch);
    (void)live->ingest(std::move(batch));

    if (e == cut) {
      auto checkpoint = interrupted.checkpoint_state();
      if (shape.shuffle) {
        for (auto& shard : checkpoint.state.shards) shuffle(shard.tuples, rng);
      }
      restored.restore_state(std::move(checkpoint.state), checkpoint.index_image);
      live = &restored;
    }

    const std::string where = "seed " + std::to_string(seed) + " epoch " + std::to_string(e);
    ASSERT_EQ(live->epoch(), uninterrupted.epoch()) << where;
    ASSERT_EQ(live->evicted_total(), uninterrupted.evicted_total()) << where;
    ASSERT_EQ(live->live_tuples(), uninterrupted.live_tuples()) << where;
    ASSERT_EQ(live->snapshot()->counter_map(), uninterrupted.snapshot()->counter_map()) << where;
  }
  EXPECT_EQ(live, &restored);
  EXPECT_GT(uninterrupted.evicted_total(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, CheckpointMidWindow,
    ::testing::Combine(::testing::Range<std::uint64_t>(1, 6),
                       ::testing::Values(RestoreShape{4, 4, 3, false}, RestoreShape{4, 4, 3, true},
                                         RestoreShape{2, 2, 1, true}, RestoreShape{4, 2, 5, false},
                                         RestoreShape{1, 3, 4, true})));

}  // namespace
}  // namespace bgpcu::stream
