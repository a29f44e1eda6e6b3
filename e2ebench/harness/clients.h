// Load generators on the client side of the wire: net::ResilientClient
// subscribers and query clients, each on its own thread, recording
// client-side timings and sampling answers for the correctness gates.
#ifndef BGPCU_E2EBENCH_CLIENTS_H
#define BGPCU_E2EBENCH_CLIENTS_H

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "loop.h"
#include "net/resilient.h"
#include "trace.h"

namespace e2e {

/// Thrown by a client's connector once the run is shutting down, so a
/// ResilientClient blocked on a closed server ends instead of redialling.
struct Stopping : std::exception {
  const char* what() const noexcept override { return "benchmark stopping"; }
};

/// ASN -> class, without ASes classified none/none (ResilientClient's view).
using ClassMap = std::map<bgp::Asn, core::UsageClass>;

[[nodiscard]] ClassMap classes_of(const core::InferenceResult& result);

enum QueryKindIndex : std::size_t { kClassOf, kLiveCounters, kHistory, kSnapshot, kKinds };
inline constexpr std::array<const char*, kKinds> kKindNames = {"class_of", "live_counters",
                                                               "history", "snapshot"};
inline constexpr std::array<api::QueryKind, kKinds> kKindOf = {
    api::QueryKind::kClassOf, api::QueryKind::kLiveCounters, api::QueryKind::kHistory,
    api::QueryKind::kSnapshot};

/// A kClassOf answer given while the engine held epoch `epoch`'s state.
struct ClassSample {
  bgp::Asn asn = 0;
  core::UsageClass usage;
  stream::Epoch epoch = 0;
};

/// A kSnapshot answer given while the engine held epoch `epoch`'s state.
struct SnapshotSample {
  ClassMap classes;
  stream::Epoch epoch = 0;
};

/// One client's queries: round trips per kind and sampled answers.
struct QueryLog {
  std::array<std::vector<double>, kKinds> us;
  std::uint64_t failed = 0;
  std::uint64_t unverifiable = 0;  ///< Samples that overlapped an engine mutation.
  std::uint64_t history_unordered = 0;
  double busy_s = 0;
  std::vector<ClassSample> class_samples;
  std::vector<SnapshotSample> snapshot_samples;

  [[nodiscard]] std::uint64_t completed() const {
    std::uint64_t n = 0;
    for (const auto& v : us) n += v.size();
    return n;
  }
};

/// Adds `from`'s timings and counts (not its samples) to `into`.
void merge_into(QueryLog& into, const QueryLog& from);

/// Issues one query of the 70/20/8/2 class_of/live_counters/history/snapshot
/// mix about a random AS of `asns` and records its client-side round trip.
/// Every 4th kClassOf and the first 12 kSnapshot answers are sampled when
/// `version` shows the engine did not change while the query was in flight.
void run_query(net::ResilientClient& client, std::mt19937_64& rng,
               const std::vector<bgp::Asn>& asns, const EngineVersion& version, QueryLog& log,
               SpanBuffer& tr);

/// A subscriber thread: one ResilientClient with one filter, recording the
/// decode time of every delta. The thread ends when the server goes away
/// during shutdown (the connector then throws Stopping); destruction joins it.
struct Subscriber {
  std::string label;
  api::SubscriptionFilter filter;

  std::vector<std::pair<stream::Epoch, std::int64_t>> events;  ///< (epoch, decode ns)
  std::atomic<std::int64_t> processed{-1};  ///< Newest epoch decoded.
  ClassMap final_state;
  net::ResilientClient::Stats stats;
  std::uint64_t gaps = 0;
  std::string error;
  std::unique_ptr<SpanBuffer> tr;
  std::thread thread;

  Subscriber() = default;
  Subscriber(const Subscriber&) = delete;
  Subscriber& operator=(const Subscriber&) = delete;
  ~Subscriber() { join(); }

  void start(std::uint16_t port, const std::atomic<bool>& stopping, bool trace,
             std::uint64_t id_base);

  /// Waits (bounded) until the subscriber processed `epoch`.
  void await(std::int64_t epoch, std::int64_t deadline_ns) const;

  void join() {
    if (thread.joinable()) thread.join();
  }
};

/// A closed-loop query client thread: one query in flight at a time, issued
/// on a fixed schedule of one per `kQueryPeriod` (catching up after a stall),
/// until `done`. The schedule fixes the work per epoch, so the process's CPU
/// does not follow whatever CPU the host has spare. Destruction joins it.
struct QueryClient {
  static constexpr std::chrono::microseconds kQueryPeriod{500};

  QueryLog log;
  std::unique_ptr<SpanBuffer> tr;
  net::ResilientClient::Stats stats;
  std::string error;
  std::thread thread;

  QueryClient() = default;
  QueryClient(const QueryClient&) = delete;
  QueryClient& operator=(const QueryClient&) = delete;
  ~QueryClient() { join(); }

  void start(std::uint16_t port, const std::atomic<bool>& stopping,
             const std::atomic<bool>& done, const EngineVersion& version,
             const std::vector<bgp::Asn>& asns, bool trace, std::uint64_t id_base,
             std::uint64_t seed);

  void join() {
    if (thread.joinable()) thread.join();
  }
};

}  // namespace e2e

#endif  // BGPCU_E2EBENCH_CLIENTS_H
