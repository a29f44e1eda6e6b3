// Seeded inputs for the daemon-loop benchmark. Everything the daemon sees is
// an MRT file in its watched directory: per-day full-collector update dumps
// (backfill), collector RIB dumps (the live workloads' initial state), and
// one small update file per live epoch built by LiveSchedule.
#ifndef BGPCU_E2EBENCH_CORPUS_H
#define BGPCU_E2EBENCH_CORPUS_H

#include <cstdint>
#include <string>
#include <vector>

#include "common.h"
#include "core/types.h"

namespace e2e {

using namespace bgpcu;

/// Encodes `tuples` as one BGP4MP update per tuple (AS path = the tuple's
/// path, peer = its first AS, communities = its set), the image of a
/// collector update dump.
[[nodiscard]] std::vector<std::uint8_t> encode_updates(const core::Dataset& tuples,
                                                       std::uint32_t timestamp);

/// Writes `bytes` to `path` through a temp file and rename.
void write_file_atomic(const std::string& path, const std::vector<std::uint8_t>& bytes);

/// One day of full-collector update dumps per day, for the first project,
/// as bench_store builds them: `updates.DDD.<collector>.mrt` in `dir`.
/// Returns the bytes written.
std::uint64_t write_backfill_days(const bench::World& world, std::uint64_t seed,
                                  std::uint32_t days, const std::string& dir);

/// The first project's RIB dumps, `rib.<collector>.mrt` in `dir`. Returns the
/// bytes written.
std::uint64_t write_rib_dumps(const bench::World& world, std::uint64_t seed,
                              const std::string& dir);

/// The live-tail feed. File k (k >= 1) re-announces slice k mod W of the
/// drained live set, so the window keeps the whole set alive, plus a few
/// paths through one of 2W seeded switcher ASes (collector peers new to the
/// live set) whose tagging and cleaning behaviour alternates between its
/// appearances, so that every file changes a known AS's class.
class LiveSchedule {
 public:
  static constexpr std::size_t kTuplesPerUse = 8;

  LiveSchedule(core::Dataset live, std::uint64_t window, std::uint64_t seed);

  /// The tuples file `k` announces.
  [[nodiscard]] core::Dataset file_tuples(std::uint64_t k) const;

  /// The switcher ASes (a watchlist whose every AS keeps changing class).
  [[nodiscard]] std::vector<bgp::Asn> watchlist() const;

  /// Distinct ASNs of the live set (query targets).
  [[nodiscard]] const std::vector<bgp::Asn>& asns() const noexcept { return asns_; }

  [[nodiscard]] const core::Dataset& live() const noexcept { return live_; }

 private:
  core::Dataset live_;
  std::uint64_t window_;
  std::uint64_t seed_;
  std::vector<std::uint32_t> slice_of_;  ///< Per live tuple: its slice in [0, W).
  std::vector<std::uint32_t> bases_;     ///< Live tuples switcher paths extend.
  std::vector<bgp::Asn> switchers_;
  std::vector<bgp::Asn> asns_;
};

}  // namespace e2e

#endif  // BGPCU_E2EBENCH_CORPUS_H
