#include "clients.h"

#include <chrono>
#include <thread>

#include "net/socket.h"
#include "stats.h"

namespace e2e {

namespace {

using namespace std::chrono_literals;

net::ResilientClient::Connector connector(std::uint16_t port, const std::atomic<bool>& stopping) {
  return [port, &stopping]() -> std::unique_ptr<net::Connection> {
    if (stopping.load()) throw Stopping();
    return net::tcp_connect("127.0.0.1", port, 2000ms);
  };
}

net::ResilientConfig client_config() {
  net::ResilientConfig config;
  config.request_deadline_ms = 5000;
  return config;
}

}  // namespace

ClassMap classes_of(const core::InferenceResult& result) {
  ClassMap out;
  for (const auto& [asn, counters] : result.counter_map()) {
    const auto usage = result.usage(asn);
    if (usage != core::UsageClass{}) out[asn] = usage;
  }
  return out;
}

void merge_into(QueryLog& into, const QueryLog& from) {
  for (std::size_t k = 0; k < kKinds; ++k) {
    into.us[k].insert(into.us[k].end(), from.us[k].begin(), from.us[k].end());
  }
  into.failed += from.failed;
  into.unverifiable += from.unverifiable;
  into.history_unordered += from.history_unordered;
  into.busy_s += from.busy_s;
}

void run_query(net::ResilientClient& client, std::mt19937_64& rng,
               const std::vector<bgp::Asn>& asns, const EngineVersion& version, QueryLog& log,
               SpanBuffer& tr) {
  const auto roll = rng() % 100;
  const std::size_t kind = roll < 70   ? kClassOf
                           : roll < 90 ? kLiveCounters
                           : roll < 98 ? kHistory
                                       : kSnapshot;
  const api::QueryRequest request{.kind = kKindOf[kind], .asn = asns[rng() % asns.size()]};
  const auto seq_before = version.seq.load();
  const auto t0 = now_ns();
  api::QueryResponse response;
  try {
    Span s(tr, "client.query");
    response = client.query(request);
  } catch (const Stopping&) {
    throw;
  } catch (const std::exception&) {
    ++log.failed;
    log.busy_s += ms_between(t0, now_ns()) / 1e3;
    return;
  }
  const auto t1 = now_ns();
  const auto seq_after = version.seq.load();
  log.us[kind].push_back(static_cast<double>(t1 - t0) / 1e3);
  log.busy_s += static_cast<double>(t1 - t0) / 1e9;
  const bool stable = seq_before == seq_after && seq_before % 2 == 0 && seq_before != 0;
  const stream::Epoch epoch = seq_before / 2 - 1;
  if (kind == kClassOf && log.us[kind].size() % 4 == 0) {
    if (!response.asn_class) {
      ++log.failed;
    } else if (!stable) {
      ++log.unverifiable;
    } else {
      log.class_samples.push_back({request.asn, response.asn_class->usage, epoch});
    }
  } else if (kind == kSnapshot && log.snapshot_samples.size() < 12) {
    if (!response.snapshot) {
      ++log.failed;
    } else if (!stable) {
      ++log.unverifiable;
    } else {
      log.snapshot_samples.push_back({classes_of(*response.snapshot), epoch});
    }
  } else if (kind == kHistory && response.history) {
    const auto& points = *response.history;
    for (std::size_t i = 1; i < points.size(); ++i) {
      if (points[i].epoch <= points[i - 1].epoch) ++log.history_unordered;
    }
  }
}

void Subscriber::start(std::uint16_t port, const std::atomic<bool>& stopping, bool trace,
                       std::uint64_t id_base) {
  tr = std::make_unique<SpanBuffer>("sub." + label, trace, id_base);
  events.reserve(4096);
  thread = std::thread([this, port, &stopping] {
    net::ResilientClient client(connector(port, stopping), client_config());
    try {
      client.subscribe(filter, stream::Epoch{0});
      for (;;) {
        const auto event = client.next_event();
        if (!event) break;
        const auto at = now_ns();
        if (event->kind == net::ResilientClient::Event::Kind::kGap) ++gaps;
        if (event->kind != net::ResilientClient::Event::Kind::kDelta) continue;
        const auto epoch = event->delta.epoch;
        events.emplace_back(epoch, at);
        processed.store(static_cast<std::int64_t>(epoch));
      }
    } catch (const Stopping&) {
    } catch (const std::exception& e) {
      error = e.what();
    }
    final_state = client.class_state();
    stats = client.stats();
    client.close();
  });
}

void Subscriber::await(std::int64_t epoch, std::int64_t deadline_ns) const {
  while (processed.load() < epoch && now_ns() < deadline_ns) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

void QueryClient::start(std::uint16_t port, const std::atomic<bool>& stopping,
                        const std::atomic<bool>& done, const EngineVersion& version,
                        const std::vector<bgp::Asn>& asns, bool trace, std::uint64_t id_base,
                        std::uint64_t seed) {
  tr = std::make_unique<SpanBuffer>("query", trace, id_base);
  thread = std::thread([this, port, &stopping, &done, &version, &asns, seed] {
    std::mt19937_64 rng(seed);
    net::ResilientClient client(connector(port, stopping), client_config());
    try {
      auto due = std::chrono::steady_clock::now();
      while (!done.load()) {
        std::this_thread::sleep_until(due);
        run_query(client, rng, asns, version, log, *tr);
        due += kQueryPeriod;
      }
    } catch (const Stopping&) {
    } catch (const std::exception& e) {
      error = e.what();
    }
    stats = client.stats();
    client.close();
  });
}

}  // namespace e2e
