// e2ebench — the bgpcu_serve daemon loop, run in-process and timed from
// outside. Per ingesting poll it does what tools/bgpcu_serve.cc does:
//
//   DirectoryFeed::poll -> Service::advance_epoch -> Store::append_epoch_batch
//   -> Service::ingest -> Service::publish -> Store::append_epoch_delta
//   -> Store::maybe_checkpoint
//
// with a net::Server on 127.0.0.1 and net::ResilientClient subscribers and
// query clients, all on the daemon's default configuration. Workloads:
//
//   backfill    closed loop: a pre-filled directory of per-day collector
//               update dumps is drained as fast as possible, repeatedly.
//   live_tail   open loop: one small update file is renamed into the watched
//               directory every 100 ms; three filtered subscribers.
//   query_mix   the live_tail feed with one subscriber and two closed-loop
//               query clients, each paced at one query per 500 us.
//
// Usage: e2ebench --workload W --seed N --seconds S --trace 0|1
//                 [--workdir DIR] [--source-id ID] [--smoke]
//
// The last line of stdout is one JSON object {correct, attempted, failed,
// metrics}: end-to-end metrics untraced (--trace 0), per-layer metrics with
// spans recorded around every daemon call (--trace 1, spans written next to
// DIR as WORKLOAD.spans.jsonl).
#include <sys/statfs.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "obs/log.h"
#include "workloads.h"

#ifndef E2E_BUILD_TYPE
#define E2E_BUILD_TYPE "unknown"
#endif

namespace e2e {
namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------- report --

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::string note;  ///< Sample count or ratio base, for the human table.
};

std::string fs_type(const std::string& path) {
  struct statfs st{};
  if (::statfs(path.c_str(), &st) != 0) return "unknown";
  switch (static_cast<unsigned long>(st.f_type)) {
    case 0xEF53: return "ext4";
    case 0x58465342: return "xfs";
    case 0x01021994: return "tmpfs";
    case 0x794C7630: return "overlayfs";
    case 0x9123683E: return "btrfs";
    case 0x6969: return "nfs";
    case 0x65735546: return "fuse";
    default: {
      char hex[32];
      std::snprintf(hex, sizeof hex, "0x%lx", static_cast<unsigned long>(st.f_type));
      return hex;
    }
  }
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

std::string host_json(const Options& opt, std::uint64_t window) {
  std::ostringstream o;
  o << "{\"host\":{\"nproc\":" << std::thread::hardware_concurrency() << ",\"cpu\":\""
    << json_escape(cpu_model()) << "\",\"compiler\":\"" << json_escape(__VERSION__)
    << "\",\"build_type\":\"" << E2E_BUILD_TYPE << "\",\"source\":\""
    << json_escape(opt.source_id) << "\",\"fs\":\"" << fs_type(opt.workdir)
    << "\"},\"run\":{\"workload\":\"" << opt.workload << "\",\"seed\":" << opt.seed
    << ",\"seconds\":" << opt.seconds << ",\"trace\":" << (opt.trace ? 1 : 0)
    << ",\"smoke\":" << (opt.smoke ? "true" : "false")
    << ",\"transport\":\"tcp 127.0.0.1\"},\"daemon\":{\"shards\":"
    << api::ServiceConfig{}.stream.shards << ",\"sweep_lanes\":\"auto\",\"io_threads\":"
    << net::ServerConfig{}.io_threads << ",\"workers\":" << net::ServerConfig{}.worker_threads
    << ",\"store_sync\":\"epoch\",\"checkpoint_every\":16,\"window\":" << window
    << ",\"idle_poll_sleep_ms\":1,\"registry\":\"allow_all\"}}";
  return o.str();
}

std::string format_value(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

void print_table(const std::vector<Metric>& metrics) {
  for (const auto& m : metrics) {
    std::printf("  %-34s %14s %-9s %s\n", m.name.c_str(), format_value(m.value).c_str(),
                m.unit.c_str(), m.note.c_str());
  }
}

std::string result_json(bool correct, std::uint64_t attempted, std::uint64_t failed,
                        const std::vector<Metric>& metrics) {
  std::ostringstream o;
  o << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": " << attempted
    << ", \"failed\": " << failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    o << (i ? ", " : "") << "\"" << metrics[i].name << "\": {\"value\": "
      << format_value(metrics[i].value) << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  o << "}}";
  return o.str();
}

std::string n_of(std::size_t n) { return "n=" + std::to_string(n); }

/// The end-to-end metrics BENCHMARK.json bounds on the live workloads. On
/// backfill, which it does not score (README.md), drain throughput takes the
/// place of freshness.
std::vector<Metric> end_to_end(const Options& opt, const RunRecord& rec) {
  const bool backfill = opt.workload == "backfill";
  std::vector<Metric> m = {
      {"setup_s", median(rec.setup_s), "s", n_of(rec.setup_s.size()) + " set-ups, median"}};
  if (backfill) {
    m.push_back({"backfill_tuples_per_s", median(rec.tuples_per_s), "tuples/s",
                 n_of(rec.tuples_per_s.size()) + " drains, median"});
  } else {
    m.push_back({"freshness_p50_ms", percentile(rec.freshness_ms, 50), "ms",
                 n_of(rec.freshness_ms.size())});
  }
  m.push_back({"cpu_ms_per_epoch", rec.epochs ? rec.cpu_s * 1e3 / static_cast<double>(rec.epochs) : 0,
               "ms", "over " + std::to_string(rec.epochs) + " epochs"});
  m.push_back({"peak_rss_mb", rec.peak_rss_mb, "MB",
               backfill ? "VmHWM over the first drain" : "VmHWM over the live run"});
  return m;
}

/// Recovery time, the freshness tail and the query figures. Every run prints
/// them, and the traced run reports them among the per-layer metrics, but
/// they carry no bound: between runs they spread wider than a third of the
/// largest bound allowed (README.md).
std::vector<Metric> unbounded(const RunRecord& rec) {
  std::vector<double> query_us;
  for (const auto& v : rec.queries.us) query_us.insert(query_us.end(), v.begin(), v.end());
  const double busy =
      rec.queries.busy_s / static_cast<double>(std::max<std::uint64_t>(1, rec.clients));
  return {
      {"recovery_ms", median(rec.recovery_ms), "ms", n_of(rec.recovery_ms.size()) + ", median"},
      {"freshness_p95_ms", percentile(rec.freshness_ms, 95), "ms", n_of(rec.freshness_ms.size())},
      {"query_p50_us", percentile(query_us, 50), "us", n_of(query_us.size())},
      {"query_p99_us", percentile(query_us, 99), "us", n_of(query_us.size())},
      {"queries_per_s", busy > 0 ? static_cast<double>(query_us.size()) / busy : 0, "1/s",
       "completed / client-busy s (" + format_value(busy) + " s)"},
  };
}

double share(const std::vector<LayerRow>& rows, const char* name, double busy_ms) {
  for (const auto& row : rows) {
    if (row.name == name) return busy_ms > 0 ? row.self_ms / busy_ms : 0;
  }
  return 0;
}

std::vector<Metric> per_layer(const RunRecord& rec, const SpanBuffer& loop,
                              const std::vector<LayerRow>& rows) {
  const auto& a = rec.obs1;
  const auto& b = rec.obs0;
  const auto ingest_poll = span_ms(loop, "stream.feed_poll");
  // The newest tenth of the idle polls: the scan cost at the run's largest
  // directory.
  const auto& idle = rec.idle_poll_us;
  const auto tail_n = std::min(idle.size(), std::max<std::size_t>(1, idle.size() / 10));
  const std::vector<double> tail(idle.end() - static_cast<std::ptrdiff_t>(tail_n), idle.end());
  const double attempted_tuples = a.delta(b, "stream.accepted") + a.delta(b, "stream.refreshed") +
                                  a.delta(b, "stream.duplicate") + a.delta(b, "stream.rejected");
  const double poll_s = [&] {
    double t = 0;
    for (const auto v : ingest_poll) t += v / 1e3;
    return t;
  }();
  double busy_ms = 0;
  double covered_ms = 0;
  for (const auto& row : rows) {
    if (row.name == "loop.epoch") {
      busy_ms = row.total_ms;
      covered_ms = row.total_ms - row.self_ms;
    }
  }
  const auto p = [](const std::vector<double>& v, double q) { return percentile(v, q); };
  const auto publish = span_ms(loop, "api.publish");
  const auto ingest = span_ms(loop, "api.ingest");
  const auto append_delta = span_ms(loop, "store.append_delta");
  const double sweeps = a.delta(b, "snapshot.sweeps");
  const double hits = a.delta(b, "snapshot.hits");
  const double encodes = a.delta(b, "net.encodes");
  const double reuses = a.delta(b, "net.reuses");
  std::vector<Metric> m = {
      {"feed.poll_ms.p50", p(ingest_poll, 50), "ms", n_of(ingest_poll.size()) + " ingesting polls"},
      {"feed.poll_ms.p99", p(ingest_poll, 99), "ms", n_of(ingest_poll.size())},
      {"feed.mb_per_s", poll_s > 0 ? a.delta(b, "feed.bytes") / 1e6 / poll_s : 0, "MB/s",
       format_value(a.delta(b, "feed.bytes") / 1e6) + " MB / ingesting poll time"},
      {"feed.tuples_extracted", a.delta(b, "feed.tuples"), "count", ""},
      {"feed.decode_errors", a.delta(b, "feed.decode_errors"), "count", ""},
      {"feed.idle_poll_us.p50", p(rec.idle_poll_us, 50), "us", n_of(rec.idle_poll_us.size())},
      {"feed.idle_poll_us.last_tenth_p50", p(tail, 50), "us",
       n_of(tail.size()) + " newest idle polls"},
      {"stream.ingest_ms.p50", p(ingest, 50), "ms", n_of(ingest.size())},
      {"stream.ingest_accepted_ratio",
       attempted_tuples > 0 ? a.delta(b, "stream.accepted") / attempted_tuples : 0, "ratio",
       "of " + format_value(attempted_tuples) + " offered tuples"},
      {"stream.advance_ms.p50", p(span_ms(loop, "api.advance_epoch"), 50), "ms",
       n_of(span_ms(loop, "api.advance_epoch").size())},
      {"stream.evicted", a.delta(b, "stream.evicted"), "count", ""},
      {"snapshot.locked_ms", a.mean(b, "snapshot.locked", 1e6), "ms", "mean per sweep"},
      {"snapshot.drain_ms", a.mean(b, "snapshot.drain", 1e6), "ms", "mean per sweep"},
      {"snapshot.patch_ms", a.mean(b, "snapshot.patch", 1e6), "ms", "mean per sweep"},
      {"snapshot.sweep_ms", a.mean(b, "snapshot.sweep", 1e6), "ms", "mean per sweep"},
      {"snapshot.cache_hit_ratio", sweeps + hits > 0 ? hits / (sweeps + hits) : 0, "ratio",
       "of " + format_value(sweeps + hits) + " snapshot requests"},
      {"snapshot.index_rebuilds", a.delta(b, "index.rebuilds"), "count", ""},
      {"api.publish_ms.p50", p(publish, 50), "ms", n_of(publish.size())},
      {"api.publish_ms.p99", p(publish, 99), "ms", n_of(publish.size())},
      {"api.changes_published", a.delta(b, "api.changes"), "count", ""},
  };
  for (std::size_t k = 0; k < kKinds; ++k) {
    const auto& v = rec.queries.us[k];
    const std::string base = std::string("api.query_us.") + kKindNames[k];
    m.push_back({base + ".p50", p(v, 50), "us", n_of(v.size()) + " client round trips"});
    m.push_back({base + ".p99", p(v, 99), "us", n_of(v.size())});
  }
  const auto append_batch = span_ms(loop, "store.append_batch");
  const std::vector<Metric> rest = {
      {"store.append_batch_ms.p50", p(append_batch, 50), "ms", n_of(append_batch.size())},
      {"store.append_delta_ms.p50", p(append_delta, 50), "ms",
       n_of(append_delta.size()) + " (incl. epoch fsync)"},
      {"store.append_delta_ms.p99", p(append_delta, 99), "ms", n_of(append_delta.size())},
      {"store.wal_bytes_per_epoch",
       rec.epochs ? a.delta(b, "store.wal_bytes") / static_cast<double>(rec.epochs) : 0, "B",
       "over " + std::to_string(rec.epochs) + " epochs"},
      {"store.checkpoint_ms", a.mean(b, "store.checkpoint", 1e6), "ms", "mean"},
      {"store.checkpoints", a.delta(b, "store.checkpoints"), "count", ""},
      {"store.replayed_records", rec.recovery_replayed, "count", "per cold recovery"},
      {"net.delivery_ms.p50", p(rec.delivery_ms, 50), "ms",
       n_of(rec.delivery_ms.size()) + " publish->decode"},
      {"net.delivery_ms.p99", p(rec.delivery_ms, 99), "ms", n_of(rec.delivery_ms.size())},
      {"net.fanout_reuse_ratio", encodes + reuses > 0 ? reuses / (encodes + reuses) : 0, "ratio",
       "of " + format_value(encodes + reuses) + " event payloads"},
      {"net.bytes_out", a.delta(b, "net.bytes_out"), "B", ""},
      {"net.request_decode_us", a.mean(b, "req.decode", 1e3), "us", "mean"},
      {"net.request_dispatch_us", a.mean(b, "req.dispatch", 1e3), "us", "mean"},
      {"net.request_encode_us", a.mean(b, "req.encode", 1e3), "us", "mean"},
      {"net.request_enqueue_us", a.mean(b, "req.enqueue", 1e3), "us", "mean"},
      {"net.slow_disconnects", a.delta(b, "net.slow_disconnects"), "count", ""},
      {"net.requests_shed", a.delta(b, "net.requests_shed"), "count", ""},
      {"client.reconnects", static_cast<double>(rec.reconnects), "count", ""},
      {"client.gap_resyncs", static_cast<double>(rec.gap_resyncs), "count", ""},
      {"gen.lateness_p99_ms", p(rec.lateness_ms, 99), "ms", n_of(rec.lateness_ms.size())},
      {"gen.backlog_max_files", static_cast<double>(rec.backlog_max), "count", ""},
      {"loop.busy_frac", rec.loop_wall_s > 0 ? rec.loop_busy_s / rec.loop_wall_s : 0, "ratio",
       "of " + format_value(rec.loop_wall_s) + " s loop wall"},
      {"loop.uncovered_frac", busy_ms > 0 ? (busy_ms - covered_ms) / busy_ms : 0, "ratio",
       "of " + format_value(busy_ms) + " ms busy loop time"},
      {"loop.share.feed_poll", share(rows, "stream.feed_poll", busy_ms), "ratio",
       "of busy loop time"},
      {"loop.share.advance", share(rows, "api.advance_epoch", busy_ms), "ratio", ""},
      {"loop.share.append_batch", share(rows, "store.append_batch", busy_ms), "ratio", ""},
      {"loop.share.ingest", share(rows, "api.ingest", busy_ms), "ratio", ""},
      {"loop.share.publish", share(rows, "api.publish", busy_ms), "ratio", ""},
      {"loop.share.append_delta", share(rows, "store.append_delta", busy_ms), "ratio", ""},
      {"loop.share.checkpoint", share(rows, "store.maybe_checkpoint", busy_ms), "ratio", ""},
  };
  m.insert(m.end(), rest.begin(), rest.end());
  const auto tails = unbounded(rec);
  m.insert(m.end(), tails.begin(), tails.end());
  return m;
}

int run(const Options& opt) {
  fs::remove_all(opt.workdir);
  fs::create_directories(opt.workdir);
  const std::uint64_t window = opt.workload == "backfill" ? 0 : kWindow;
  const auto host = host_json(opt, window);
  std::printf("host %s\n", host.c_str());

  SpanBuffer loop("loop", opt.trace, 1);
  RunRecord rec;
  if (opt.workload == "backfill") {
    run_backfill(opt, rec, loop);
  } else {
    run_live(opt, opt.workload == "query_mix", rec, loop);
  }

  const auto e2e_metrics = end_to_end(opt, rec);
  const auto& a = rec.obs1;
  const auto& b = rec.obs0;
  const std::uint64_t queries = rec.queries.completed() + rec.queries.failed;
  const std::uint64_t attempted = rec.expected_events + queries + rec.gates.results.size();
  const std::uint64_t failed =
      rec.lost_events + rec.empty_epochs + rec.queries.failed + rec.reconnects + rec.gap_resyncs +
      rec.client_errors + static_cast<std::uint64_t>(a.delta(b, "net.slow_disconnects")) +
      static_cast<std::uint64_t>(a.delta(b, "net.requests_shed")) + rec.gates.failures();
  const bool correct = failed == 0;

  std::printf("end-to-end (%s%s):\n", opt.workload.c_str(), opt.trace ? ", traced" : "");
  print_table(e2e_metrics);
  std::printf("unbounded:\n");
  print_table(unbounded(rec));
  const double error_rate =
      attempted ? static_cast<double>(failed) / static_cast<double>(attempted) : 0;
  std::printf("  %-34s %14s %-9s failed %llu of %llu attempted (events %llu lost %llu, "
              "epochs without changes %llu, queries %llu failed %llu, unverifiable samples %llu)\n",
              "error_rate", format_value(error_rate).c_str(),
              "ratio", static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(rec.expected_events),
              static_cast<unsigned long long>(rec.lost_events),
              static_cast<unsigned long long>(rec.empty_epochs),
              static_cast<unsigned long long>(queries),
              static_cast<unsigned long long>(rec.queries.failed),
              static_cast<unsigned long long>(rec.queries.unverifiable));
  rec.gates.print();

  std::vector<Metric> out = e2e_metrics;
  if (opt.trace) {
    std::vector<const SpanBuffer*> buffers{&loop};
    for (const auto& s : rec.spans) buffers.push_back(s.get());
    const auto rows = layer_table(buffers);
    out = per_layer(rec, loop, rows);
    std::printf("per-layer spans (self time; share of busy loop time for the spans of\n"
                "ingesting iterations, - for idle, generator and client spans):\n");
    double busy_ms = 0;
    for (const auto& row : rows) {
      if (row.name == "loop.epoch") busy_ms = row.total_ms;
    }
    std::printf("  %-27s %8s %12s %12s %8s\n", "span", "count", "total_ms", "self_ms", "share");
    for (const auto& row : rows) {
      const auto& n = row.name;
      const bool in_busy_loop = n.rfind("client.", 0) != 0 && n.rfind("gen.", 0) != 0 &&
                                n != "loop.idle" && !n.ends_with("_idle");
      char share[16] = "-";
      if (in_busy_loop && busy_ms > 0) {
        std::snprintf(share, sizeof share, "%.4f", row.self_ms / busy_ms);
      }
      std::printf("  %-27s %8llu %12.3f %12.3f %8s\n", n.c_str(),
                  static_cast<unsigned long long>(row.count), row.total_ms, row.self_ms, share);
    }
    std::printf("  loop.epoch self time is the busy loop time no layer span covers.\n");
    std::printf("per-layer metrics:\n");
    print_table(out);
    const auto spans_path =
        (fs::path(opt.workdir).parent_path() / (opt.workload + ".spans.jsonl")).string();
    if (!write_spans_jsonl(spans_path, host, buffers)) {
      throw std::runtime_error("cannot write " + spans_path);
    }
    std::printf("spans written to %s\n", spans_path.c_str());
  }
  fs::remove_all(opt.workdir);
  std::fflush(stdout);
  std::printf("%s\n", result_json(correct, attempted, failed, out).c_str());
  return 0;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) {
  e2e::Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
      return argv[++i];
    };
    try {
      if (arg == "--workload") {
        opt.workload = next();
      } else if (arg == "--seed") {
        opt.seed = std::stoull(next());
      } else if (arg == "--seconds") {
        opt.seconds = std::stod(next());
      } else if (arg == "--trace") {
        opt.trace = next() != "0";
      } else if (arg == "--workdir") {
        opt.workdir = next();
      } else if (arg == "--source-id") {
        opt.source_id = next();
      } else if (arg == "--smoke") {
        opt.smoke = true;
      } else {
        throw std::invalid_argument("unknown option " + arg);
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "e2ebench: %s\n", e.what());
      return 2;
    }
  }
  bgpcu::obs::set_log_level(bgpcu::obs::LogLevel::kWarn);
  if (opt.workload != "backfill" && opt.workload != "live_tail" && opt.workload != "query_mix") {
    std::fprintf(stderr, "e2ebench: --workload must be backfill|live_tail|query_mix\n");
    return 2;
  }
  try {
    return e2e::run(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2ebench: error: %s\n", e.what());
    return 1;
  }
}
