// The three workloads. Each runs the daemon loop on inputs made from the
// seed, drives its clients, and fills a RunRecord for the report.
#ifndef BGPCU_E2EBENCH_WORKLOADS_H
#define BGPCU_E2EBENCH_WORKLOADS_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "clients.h"
#include "gates.h"
#include "stats.h"
#include "trace.h"

namespace e2e {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
  std::string workdir = ".bench_run/e2ebench";
  std::string source_id = "unknown";
};

constexpr std::uint64_t kWindow = 50;  ///< --window of the live workloads.

/// Everything a workload measured, for the report, including the clients'
/// and the generator's span buffers.
struct RunRecord {
  std::vector<double> setup_s;
  std::vector<double> freshness_ms;
  std::vector<double> tuples_per_s;  ///< One per backfill drain.
  std::vector<double> recovery_ms;
  std::vector<double> delivery_ms;
  std::vector<double> idle_poll_us;
  std::vector<double> lateness_ms;
  std::uint64_t backlog_max = 0;
  std::uint64_t epochs = 0;
  std::uint64_t expected_events = 0;  ///< Files (live) or drains (backfill).
  std::uint64_t lost_events = 0;
  std::uint64_t empty_epochs = 0;
  std::uint64_t reconnects = 0;
  std::uint64_t gap_resyncs = 0;
  std::uint64_t client_errors = 0;
  double recovery_replayed = 0;
  double cpu_s = 0;  ///< Over the measured loop (backfill: the drains).
  double peak_rss_mb = 0;  ///< Peak RSS of the live run, or of the first backfill drain.
  double loop_busy_s = 0;
  double loop_wall_s = 0;
  std::uint64_t clients = 0;  ///< Threads issuing queries.
  QueryLog queries;           ///< Every client's queries, merged.
  ObsSample obs0, obs1;
  Gates gates;
  std::vector<std::unique_ptr<SpanBuffer>> spans;
};

/// live_tail (`with_queries` false) or query_mix (true).
void run_live(const Options& opt, bool with_queries, RunRecord& rec, SpanBuffer& tr);

void run_backfill(const Options& opt, RunRecord& rec, SpanBuffer& tr);

}  // namespace e2e

#endif  // BGPCU_E2EBENCH_WORKLOADS_H
