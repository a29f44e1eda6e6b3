// One ASN-hash shard of the stream engine's live tuple store. A shard owns
// every tuple whose collector peer hashes to it, keeps each tuple's
// precomputed TupleView mask and last-seen epoch, and maintains the
// *live* per-AS peer-column counters (t/s evidence at path index 1, where
// Cond1 is vacuous) incrementally on ingest/evict — so real-time queries
// never need a sweep. A shard also journals every accept/evict as a
// core::IndexDelta, which is what lets the engine patch its persistent
// IncrementalIndex under the snapshot lock instead of rebuilding it. Each
// shard carries its own mutex; cross-shard synchronization is the engine's
// job.
//
// Window aging: the live tuples also sit on one intrusive doubly-linked list
// ordered by last-seen epoch (oldest first), threaded through the hash-map
// nodes, whose addresses are stable across rehash. An accept links at the
// newest end and a refresh relinks there, both O(1) for the engine's
// monotone epochs; evict_older_than pops from the oldest end, so an epoch
// advance costs O(tuples evicted), not O(live tuples). The list costs two
// pointers (16 B) per live tuple. Checkpoint export walks the list, so
// checkpoints are written oldest-first and restore relinks them in O(1) each.
#ifndef BGPCU_STREAM_SHARD_H
#define BGPCU_STREAM_SHARD_H

#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/classifier.h"
#include "core/engine.h"
#include "core/incremental.h"
#include "core/types.h"

namespace bgpcu::stream {

/// Monotone ingestion epoch; advanced by the engine, never by shards.
using Epoch = std::uint64_t;

/// What happened to one tuple offered to a shard.
enum class IngestOutcome : std::uint8_t {
  kAccepted,   ///< New unique tuple, now live.
  kRefreshed,  ///< Already live; last-seen epoch bumped.
  kDuplicate,  ///< Already live at this epoch; no state change.
  kRejected,   ///< Empty or overlong path; never stored.
};

/// Per-batch ingestion accounting.
struct IngestStats {
  std::uint64_t accepted = 0;    ///< New unique live tuples.
  std::uint64_t refreshed = 0;   ///< Live tuples re-observed (epoch bumped).
  std::uint64_t duplicates = 0;  ///< Already live at the current epoch.
  std::uint64_t rejected = 0;    ///< Empty/overlong paths, dropped.

  IngestStats& operator+=(const IngestStats& other) noexcept;
  friend bool operator==(const IngestStats&, const IngestStats&) = default;
};

/// A tuple with its ingest-time precomputation done: communities normalized,
/// upper mask derived. Built outside any lock so the critical section is
/// pure hash-table work.
struct PreparedTuple {
  core::PathCommTuple tuple;
  std::uint32_t upper_mask = 0;
};

/// One live tuple as exported for durable checkpoints: the raw tuple plus
/// the shard bookkeeping that must survive a restart (last-seen epoch for
/// window aging, the journal key so index row identities stay stable). The
/// upper mask is derived state and is recomputed on restore.
struct StoredTuple {
  core::PathCommTuple tuple;
  Epoch last_seen = 0;
  std::uint64_t key = 0;
};

/// A mutex-protected slice of the live tuple universe.
class TupleShard {
 public:
  /// Default journal-entry cap: more buffered deltas than this trigger
  /// overflow — journaling stops, the buffered deltas are dropped, and the
  /// next drain_deltas() reports the loss so the engine can rebuild from the
  /// live set instead. Bounds the memory a snapshot-starved engine can sink
  /// into delta buffers.
  static constexpr std::size_t kJournalCap = 1u << 20;

  /// Keys assigned to accepted tuples are `first_key + n * key_stride`: the
  /// engine gives shard i (i, shard_count) so keys are unique engine-wide.
  /// `journal` false (non-incremental engines) skips all delta buffering;
  /// `journal_cap` overrides the overflow threshold (tests shrink it).
  explicit TupleShard(std::uint64_t first_key = 0, std::uint64_t key_stride = 1,
                      bool journal = true, std::size_t journal_cap = kJournalCap);

  /// Offers one tuple (communities must already be normalized). Any epoch is
  /// accepted: one older than the shard's newest is linked at its sorted
  /// place in the age list, walking back from the newest end. Thread-safe.
  IngestOutcome ingest(core::PathCommTuple&& tuple, Epoch epoch);

  /// Offers a pre-partitioned batch under one lock acquisition; outcome
  /// counts accumulate into `stats`. Thread-safe.
  void ingest_batch(std::vector<PreparedTuple>&& batch, Epoch epoch, IngestStats& stats);

  /// Removes tuples last seen before `min_epoch`; returns how many died.
  /// Pops from the oldest end of the age list: O(tuples evicted).
  std::size_t evict_older_than(Epoch min_epoch);

  /// Appends a view per live tuple to `out`. The views borrow the shard's
  /// stored tuples: the caller must hold off mutations (via the engine's
  /// snapshot lock) while using them.
  void collect_views(std::vector<core::TupleView>& out) const;

  /// Moves the journaled add/remove deltas since the last drain into `out`
  /// (in mutation order) and clears the journal. Add+remove pairs for the
  /// same key that both happened since the last drain cancel each other and
  /// are never emitted — the index would only have inserted and immediately
  /// tombstoned the row (keys are never reused, so the cancellation is
  /// exact). Returns false when the journal overflowed since the last drain:
  /// nothing is appended, the overflow state is cleared, and the caller must
  /// rebuild its index from export_live() of every shard. Thread-safe.
  [[nodiscard]] bool drain_deltas(std::vector<core::IndexDelta>& out);

  /// Lifetime count of add+remove pairs cancelled before a drain. Thread-safe.
  [[nodiscard]] std::uint64_t journal_dedups() const;

  /// Appends one add-delta per live tuple (the shard's authoritative state),
  /// keyed identically to the journal's entries. Used to (re)build an index
  /// from scratch after an overflow or apply failure. Thread-safe.
  void export_live(std::vector<core::IndexDelta>& out) const;

  /// Appends one StoredTuple per live tuple (checkpoint export), oldest
  /// last-seen epoch first. Thread-safe.
  void export_tuples(std::vector<StoredTuple>& out) const;

  /// Next key this shard would assign (checkpoint export). Thread-safe.
  [[nodiscard]] std::uint64_t next_key() const;

  /// Replaces the shard's contents with a checkpointed tuple set: masks are
  /// recomputed, live peer-column counters rebuilt, journal state cleared
  /// (recovery rebuilds the index separately). Tuples whose paths no longer
  /// pass preparation (corrupt state) are dropped. Input not ordered by
  /// last-seen epoch (checkpoints written before age-ordered export) is
  /// sorted first; age-ordered input is linked as it is inserted. Thread-safe.
  void restore_tuples(std::vector<StoredTuple> tuples, std::uint64_t next_key);

  /// Live peer-column evidence for `asn` (t/s at path index 1); zero-valued
  /// when no live tuple has `asn` as its collector peer. Thread-safe.
  [[nodiscard]] core::UsageCounters live_counters(bgp::Asn asn) const;

  /// Number of live tuples. Thread-safe.
  [[nodiscard]] std::size_t size() const;

  /// Bumped on every accepting/evicting mutation; lets the engine detect
  /// "nothing changed since the last snapshot" without comparing stores.
  [[nodiscard]] std::uint64_t version() const;

 private:
  struct TupleMeta;
  /// One hash-map node; the age list links these directly.
  using Node = std::pair<const core::PathCommTuple, TupleMeta>;

  struct TupleMeta {
    std::uint32_t upper_mask = 0;
    Epoch last_seen = 0;
    std::uint64_t key = 0;  ///< Stable identity linking journal add/remove.
    Node* older = nullptr;  ///< Age-list neighbours (see header note).
    Node* newer = nullptr;
  };

  /// Appends to the journal unless journaling is off or overflowed; flips
  /// into the overflowed state at the cap. Caller holds mutex_.
  void journal_push(core::IndexDelta&& delta);

  /// Links an unlinked node into the age list at its last_seen position:
  /// O(1) at the newest end, a walk back for an out-of-order epoch. Caller
  /// holds mutex_.
  void link(Node& node) noexcept;

  /// Removes a linked node from the age list. Caller holds mutex_.
  void unlink(Node& node) noexcept;

  mutable std::mutex mutex_;
  std::unordered_map<core::PathCommTuple, TupleMeta> tuples_;
  Node* oldest_ = nullptr;  ///< Age-list ends; null when tuples_ is empty.
  Node* newest_ = nullptr;
  core::CounterMap live_;  ///< Peer-column t/s, one count per live tuple.
  std::uint64_t version_ = 0;
  std::uint64_t next_key_ = 0;
  std::uint64_t key_stride_ = 1;
  std::size_t lane_ = 0;  ///< Counter stripe; derived from first_key.
  bool journal_enabled_ = true;
  std::size_t journal_cap_ = kJournalCap;
  bool journal_overflowed_ = false;
  std::vector<core::IndexDelta> journal_;
  std::vector<bool> cancelled_;  ///< Parallel to journal_; true = skip on drain.
  /// Undrained add entries by key, so a remove can cancel its add in place.
  std::unordered_map<std::uint64_t, std::size_t> pending_adds_;
  std::size_t cancelled_in_journal_ = 0;
  std::uint64_t journal_dedups_ = 0;
};

}  // namespace bgpcu::stream

#endif  // BGPCU_STREAM_SHARD_H
