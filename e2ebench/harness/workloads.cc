#include "workloads.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "corpus.h"
#include "obs/wellknown.h"

namespace e2e {

namespace fs = std::filesystem;
using namespace std::chrono_literals;

constexpr auto kInterval = 100ms;               ///< Live file drop period.
constexpr auto kIdleSleep = 1ms;                ///< Loop sleep after an empty poll.
constexpr int kSetups = 3;                      ///< Set-ups per run (setup_s is their median).
constexpr std::size_t kBackfillRecoveries = 9;  ///< Cold recoveries after a backfill run.
constexpr std::size_t kLiveRecoveries = 15;     ///< Cold recoveries after a live run.
constexpr double kMaxLatenessMs = 25;           ///< Generator lateness that voids a run.
/// The synthetic Internet is the same for every run (bench_store's world);
/// --seed drives the collector emission, the live schedule and the queries.
constexpr std::uint64_t kWorldSeed = 1;

namespace {

/// Runs `fn` on scope exit, on an exception path too.
template <class F>
struct ScopeExit {
  F fn;
  ~ScopeExit() { fn(); }
};

std::string setup_dir(const Options& opt, int i) {
  return opt.workdir + "/setup" + std::to_string(i);
}

bench::World make_world(const Options& opt) {
  bench::WorldParams params;
  params.num_ases = opt.smoke ? 800 : 4000;
  params.peers = opt.smoke ? 20 : 80;
  params.seed = kWorldSeed;
  return bench::make_world(params);
}

std::uint64_t file_seq(const std::string& path) {
  const auto name = fs::path(path).filename().string();
  if (name.rfind("updates.", 0) != 0) return 0;
  return std::stoull(name.substr(8));
}

struct LiveSetup {
  std::string dir;
  std::unique_ptr<LiveSchedule> schedule;
  std::unique_ptr<Daemon> daemon;
  Daemon::Step first;
};

/// World + RIB dumps + daemon + the initial RIB drain (epoch 0) + the live
/// schedule built from what the drain extracted. Set-up is not traced.
LiveSetup live_setup(const Options& opt, const registry::AllocationRegistry& reg,
                     const std::string& dir) {
  LiveSetup s;
  s.dir = dir;
  fs::create_directories(dir + "/feed");
  fs::create_directories(dir + "/stage");
  {
    const auto world = make_world(opt);
    (void)write_rib_dumps(world, opt.seed, dir + "/feed");
  }
  s.daemon = std::make_unique<Daemon>(dir + "/feed", dir + "/data", kWindow, reg);
  SpanBuffer untraced("setup", false, 0);
  s.first = s.daemon->step(untraced, true);
  if (!s.first.ingested) throw std::runtime_error("initial RIB drain found no files");
  s.schedule = std::make_unique<LiveSchedule>(std::move(s.first.batch), kWindow, opt.seed);
  return s;
}

core::CounterMap counters_of(api::Service& service) {
  return service.query({.kind = api::QueryKind::kSnapshot}).snapshot->counter_map();
}

/// Cold recoveries of `data_dir` into rec, each by a fresh Store into a fresh
/// Service, as a restarted daemon does it, after one untimed warm-up; with the
/// gate that every recovered counter map equals `live`.
void record_recovery(RunRecord& rec, const std::string& data_dir, std::uint64_t window,
                     std::size_t count, const core::CounterMap& live) {
  const auto replayed0 = obs::metrics().store_replayed_records.value();
  bool same = true;
  for (std::size_t i = 0; i <= count; ++i) {
    api::Service service(service_config(window));
    store::Store store(store_config(data_dir));
    const auto t0 = now_ns();
    const auto recovery = store.recover(service);
    const auto ms = ms_between(t0, now_ns());
    if (i > 0) rec.recovery_ms.push_back(ms);
    same = same && recovery.recovered && counters_of(service) == live;
  }
  rec.recovery_replayed =
      static_cast<double>(obs::metrics().store_replayed_records.value() - replayed0) /
      static_cast<double>(count + 1);
  rec.gates.check("recovered counters == live counters (" + std::to_string(count + 1) +
                      " recoveries)",
                  same);
}

}  // namespace

void run_live(const Options& opt, bool with_queries, RunRecord& rec, SpanBuffer& tr) {
  const auto reg = registry::allow_all();
  LiveSetup setup;
  for (int i = 0; i < kSetups; ++i) {
    if (i > 0) {
      setup = LiveSetup{};
      fs::remove_all(setup_dir(opt, i - 1));
    }
    const auto t0 = now_ns();
    setup = live_setup(opt, reg, setup_dir(opt, i));
    rec.setup_s.push_back(ms_between(t0, now_ns()) / 1e3);
  }
  auto& daemon = *setup.daemon;
  const auto& schedule = *setup.schedule;
  const auto feed_dir = setup.dir + "/feed";
  const auto stage_dir = setup.dir + "/stage";

  // Clients. live_tail: three subscribers with distinct filters. query_mix:
  // one subscriber and two paced closed-loop query clients.
  std::atomic<bool> stopping{false};
  std::atomic<bool> queries_done{false};
  const auto watch = schedule.watchlist();
  std::vector<std::unique_ptr<Subscriber>> subs;
  const auto add_sub = [&](std::string label, api::SubscriptionFilter filter) {
    auto sub = std::make_unique<Subscriber>();
    sub->label = std::move(label);
    sub->filter = std::move(filter);
    subs.push_back(std::move(sub));
  };
  add_sub("all", {});
  if (!with_queries) {
    add_sub("to_sc", api::SubscriptionFilter::transition("*->sc"));
    api::SubscriptionFilter watch_filter;
    watch_filter.watch = watch;
    add_sub("watchlist", watch_filter);
  }
  reset_peak_rss();
  for (std::size_t i = 0; i < subs.size(); ++i) {
    subs[i]->start(daemon.port(), stopping, opt.trace, (std::uint64_t{i} + 2) << 40);
  }
  subs[0]->await(0, now_ns() + 10'000'000'000);  // connected, epoch 0 replayed
  std::vector<std::unique_ptr<QueryClient>> query_clients;
  if (with_queries) {
    for (std::size_t i = 0; i < 2; ++i) {
      query_clients.push_back(std::make_unique<QueryClient>());
      query_clients.back()->start(daemon.port(), stopping, queries_done, daemon.version(),
                                  schedule.asns(), opt.trace, (std::uint64_t{i} + 8) << 40,
                                  opt.seed * 77 + i);
    }
  }
  rec.clients = query_clients.size();
  // Declared after the clients so it runs before their destructors join:
  // ends the query loops and wakes blocked subscribers.
  ScopeExit stop_clients{[&] {
    queries_done.store(true);
    stopping.store(true);
    if (setup.daemon) setup.daemon->stop_server();
  }};

  // Open-loop generator: file k is due at t0 + k * interval. It is written
  // to a staging dir ahead of time and renamed in at its due time;
  // freshness counts from the due time, so a stall delays later files too.
  const auto files_total = static_cast<std::uint64_t>(std::max(
      1.0, std::floor(opt.seconds * 1000.0 / static_cast<double>(kInterval.count()))));
  std::vector<std::int64_t> due_ns(files_total + 1, 0);
  std::atomic<std::uint64_t> polled{0};
  std::atomic<bool> gen_failed{false};
  auto gen_tr = std::make_unique<SpanBuffer>("generator", opt.trace, std::uint64_t{1} << 40);
  const auto t0 = now_ns() + 20'000'000;
  for (std::uint64_t k = 1; k <= files_total; ++k) {
    due_ns[k] = t0 + static_cast<std::int64_t>(k) * std::chrono::nanoseconds(kInterval).count();
  }
  rec.obs0 = ObsSample::take();
  const auto cpu0 = cpu_seconds();
  std::jthread generator([&] {
    try {
      for (std::uint64_t k = 1; k <= files_total; ++k) {
        char name[40];
        std::snprintf(name, sizeof name, "updates.%08llu.mrt",
                      static_cast<unsigned long long>(k));
        {
          Span s(*gen_tr, "gen.write");
          write_file_atomic(stage_dir + "/" + name,
                            encode_updates(schedule.file_tuples(k),
                                           1621382400u + static_cast<std::uint32_t>(k)));
        }
        std::this_thread::sleep_until(Clock::time_point(std::chrono::nanoseconds(due_ns[k])));
        {
          Span s(*gen_tr, "gen.rename");
          fs::rename(stage_dir + "/" + name, feed_dir + "/" + name);
        }
        rec.lateness_ms.push_back(ms_between(due_ns[k], now_ns()));
        rec.backlog_max = std::max<std::uint64_t>(rec.backlog_max, k - polled.load());
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "generator failed: %s\n", e.what());
      gen_failed.store(true);
    }
  });

  // The daemon loop, until every generated file is ingested and published.
  std::vector<api::EpochDelta> deltas{setup.first.delta};
  std::vector<std::int64_t> publish_ns{setup.first.publish_end_ns};
  std::vector<stream::Epoch> file_epoch(files_total + 1, 0);
  std::uint64_t tuples = 0;
  const auto loop_start = now_ns();
  while (polled.load() < files_total && !gen_failed.load()) {
    const auto it0 = now_ns();
    auto step = daemon.step(tr);
    const auto it1 = now_ns();
    if (!step.ingested) {
      rec.idle_poll_us.push_back(static_cast<double>(it1 - it0) / 1e3);
      std::this_thread::sleep_for(kIdleSleep);
      continue;
    }
    rec.loop_busy_s += static_cast<double>(it1 - it0) / 1e9;
    tuples += step.tuples;
    for (const auto& path : step.files) {
      const auto k = file_seq(path);
      if (k >= 1 && k <= files_total) file_epoch[k] = step.epoch;
    }
    polled.fetch_add(step.files.size());
    publish_ns.resize(step.epoch + 1, 0);
    publish_ns[step.epoch] = step.publish_end_ns;
    if (step.delta.changes.empty()) ++rec.empty_epochs;
    deltas.push_back(std::move(step.delta));
    ++rec.epochs;
  }
  rec.loop_wall_s = ms_between(loop_start, now_ns()) / 1e3;
  generator.join();
  rec.spans.push_back(std::move(gen_tr));

  // Drain: each subscriber awaits the last epoch its filter passes.
  const auto drain_deadline = now_ns() + 10'000'000'000;
  for (auto& sub : subs) {
    std::int64_t last = -1;
    for (const auto& delta : deltas) {
      if (!sub->filter.apply(delta).empty()) last = static_cast<std::int64_t>(delta.epoch);
    }
    sub->await(last, drain_deadline);
  }
  const auto end_ns = now_ns();
  queries_done.store(true);
  for (auto& q : query_clients) q->join();
  rec.cpu_s = cpu_seconds() - cpu0;
  rec.peak_rss_mb = peak_rss_mb();
  rec.obs1 = ObsSample::take();
  stopping.store(true);
  daemon.stop_server();
  for (auto& sub : subs) sub->join();
  rec.expected_events = files_total;

  // Freshness: file due time -> the match-all subscriber decoded its epoch.
  std::unordered_map<stream::Epoch, std::int64_t> decoded;
  for (const auto& [epoch, at] : subs[0]->events) decoded.emplace(epoch, at);
  for (std::uint64_t k = 1; k <= files_total; ++k) {
    const auto it = decoded.find(file_epoch[k]);
    if (file_epoch[k] == 0 || it == decoded.end()) {
      ++rec.lost_events;
      continue;
    }
    rec.freshness_ms.push_back(ms_between(due_ns[k], it->second));
  }
  for (const auto& sub : subs) {
    for (const auto& [epoch, at] : sub->events) {
      if (epoch > 0 && epoch < publish_ns.size() && publish_ns[epoch] != 0) {
        rec.delivery_ms.push_back(ms_between(publish_ns[epoch], at));
      }
    }
  }
  rec.tuples_per_s.push_back(static_cast<double>(tuples) / (ms_between(t0, end_ns) / 1e3));

  // Gates: the batch classifier over the final window's tuples.
  const auto final_epoch = deltas.back().epoch;
  core::Dataset window_tuples;
  if (final_epoch < kWindow) window_tuples = schedule.live();
  for (std::uint64_t k = 1; k <= files_total; ++k) {
    if (file_epoch[k] != 0 && file_epoch[k] + kWindow > final_epoch) {
      auto t = schedule.file_tuples(k);
      window_tuples.insert(window_tuples.end(), std::make_move_iterator(t.begin()),
                           std::make_move_iterator(t.end()));
    }
  }
  const auto oracle = oracle_classes(std::move(window_tuples));
  const ClassHistory history(deltas);
  rec.gates.check("published classes == ColumnEngine::run(window)",
                  history.state_at(final_epoch) == oracle);
  for (auto& sub : subs) {
    const auto who = "subscriber " + sub->label;
    if (sub->label == "all") {
      rec.gates.check(who + " == ColumnEngine::run(window)", sub->final_state == oracle);
    } else if (sub->label == "watchlist") {
      rec.gates.check(who + " == oracle on its ASes",
                      sub->final_state == restrict_to(oracle, watch));
    } else {
      rec.gates.check(who + " == its filtered feed",
                      sub->final_state == fold_filtered(deltas, sub->filter));
    }
    rec.reconnects += sub->stats.reconnects;
    rec.gap_resyncs += sub->stats.gap_resyncs + sub->gaps;
    if (!sub->error.empty()) {
      ++rec.client_errors;
      std::fprintf(stderr, "%s: %s\n", who.c_str(), sub->error.c_str());
    }
    rec.spans.push_back(std::move(sub->tr));
  }
  for (std::size_t i = 0; i < query_clients.size(); ++i) {
    auto& q = *query_clients[i];
    check_queries(rec.gates, "query client " + std::to_string(i), q.log, history);
    merge_into(rec.queries, q.log);
    rec.reconnects += q.stats.reconnects;
    if (!q.error.empty()) {
      ++rec.client_errors;
      std::fprintf(stderr, "query client: %s\n", q.error.c_str());
    }
    rec.spans.push_back(std::move(q.tr));
  }
  rec.gates.check("generator on schedule (lateness p99 <= 25 ms)",
                  !gen_failed.load() && percentile(rec.lateness_ms, 99) <= kMaxLatenessMs);

  // Restart after a clean shutdown: the final checkpoint, then cold
  // recovery of the data dir.
  const auto live_map = counters_of(daemon.service());
  rec.gates.check("final checkpoint written", daemon.final_checkpoint());
  setup.daemon.reset();
  record_recovery(rec, setup.dir + "/data", kWindow, kLiveRecoveries, live_map);
}

void run_backfill(const Options& opt, RunRecord& rec, SpanBuffer& tr) {
  const auto reg = registry::allow_all();
  const std::uint32_t days = opt.smoke ? 2 : 6;
  for (int i = 0; i < kSetups; ++i) {
    if (i > 0) fs::remove_all(setup_dir(opt, i - 1));
    const auto t0 = now_ns();
    fs::create_directories(setup_dir(opt, i) + "/feed");
    const auto world = make_world(opt);
    (void)write_backfill_days(world, opt.seed, days, setup_dir(opt, i) + "/feed");
    rec.setup_s.push_back(ms_between(t0, now_ns()) / 1e3);
  }
  const auto dir = setup_dir(opt, kSetups - 1);
  const auto feed_dir = dir + "/feed";

  // Closed loop: drain the whole directory into a fresh daemon, as a node
  // catching up after an outage, as often as the run length allows.
  std::vector<ClassMap> final_states;
  std::vector<ClassMap> published;
  std::string last_data_dir;
  core::CounterMap live_map;
  rec.obs0 = ObsSample::take();
  const auto run_start = now_ns();
  for (std::size_t rep = 0;
       rep < 2 || (ms_between(run_start, now_ns()) / 1e3 < opt.seconds && rep < 64); ++rep) {
    const auto data_dir = dir + "/data" + std::to_string(rep);
    // Peak RSS over the first drain only: a fresh daemon in a fresh process,
    // as after a restart. Later drains run in the heap that earlier daemons
    // left behind, so their peak grows with the number of drains.
    if (rep == 0) reset_peak_rss();
    auto daemon = std::make_unique<Daemon>(feed_dir, data_dir, 0, reg);
    std::atomic<bool> stopping{false};
    Subscriber sub;
    sub.label = "all";
    ScopeExit stop_sub{[&] {
      stopping.store(true);
      if (daemon) daemon->stop_server();
    }};
    sub.start(daemon->port(), stopping, opt.trace, (std::uint64_t{rep} + 2) << 40);

    const auto cpu0 = cpu_seconds();
    const auto t0 = now_ns();
    std::vector<api::EpochDelta> deltas;
    std::uint64_t tuples = 0;
    for (;;) {
      const auto it0 = now_ns();
      auto step = daemon->step(tr);
      const auto it1 = now_ns();
      rec.loop_wall_s += static_cast<double>(it1 - it0) / 1e9;
      if (!step.ingested) {
        rec.idle_poll_us.push_back(static_cast<double>(it1 - it0) / 1e3);
        break;
      }
      rec.loop_busy_s += static_cast<double>(it1 - it0) / 1e9;
      tuples += step.tuples;
      if (step.delta.changes.empty()) ++rec.empty_epochs;
      deltas.push_back(std::move(step.delta));
      ++rec.epochs;
    }
    rec.cpu_s += cpu_seconds() - cpu0;
    const auto last = deltas.empty() ? -1 : static_cast<std::int64_t>(deltas.back().epoch);
    sub.await(last, now_ns() + 30'000'000'000);
    if (rep == 0) rec.peak_rss_mb = peak_rss_mb();
    stopping.store(true);
    daemon->stop_server();
    sub.join();
    ++rec.expected_events;
    const auto decoded = std::find_if(sub.events.begin(), sub.events.end(), [&](const auto& e) {
      return static_cast<std::int64_t>(e.first) == last;
    });
    if (decoded == sub.events.end()) {
      ++rec.lost_events;
    } else {
      rec.tuples_per_s.push_back(static_cast<double>(tuples) /
                                 (ms_between(t0, decoded->second) / 1e3));
    }
    const ClassHistory history(deltas);
    published.push_back(
        history.state_at(static_cast<stream::Epoch>(std::max<std::int64_t>(last, 0))));
    final_states.push_back(sub.final_state);
    rec.reconnects += sub.stats.reconnects;
    rec.gap_resyncs += sub.stats.gap_resyncs + sub.gaps;
    if (!sub.error.empty()) {
      ++rec.client_errors;
      std::fprintf(stderr, "subscriber: %s\n", sub.error.c_str());
    }
    rec.spans.push_back(std::move(sub.tr));

    live_map = counters_of(daemon->service());
    daemon.reset();
    // Keep only the newest drain's data dir; it is recovered once the loop ends.
    if (!last_data_dir.empty()) fs::remove_all(last_data_dir);
    last_data_dir = data_dir;
  }
  rec.obs1 = ObsSample::take();

  // Gates: the batch classifier over every tuple in the directory.
  collector::DatasetBuilder builder(reg);
  std::vector<fs::path> files;
  for (const auto& entry : fs::directory_iterator(feed_dir)) files.push_back(entry.path());
  std::sort(files.begin(), files.end());
  for (const auto& path : files) {
    std::ifstream in(path, std::ios::binary);
    const std::vector<std::uint8_t> bytes((std::istreambuf_iterator<char>(in)), {});
    builder.add_dump(bytes);
  }
  const auto oracle = oracle_classes(builder.finish().dataset);
  const auto n = std::to_string(final_states.size());
  rec.gates.check("published classes == ColumnEngine::run (" + n + " drains)",
                  std::all_of(published.begin(), published.end(),
                              [&](const ClassMap& m) { return m == oracle; }));
  rec.gates.check("subscriber all == ColumnEngine::run (" + n + " drains)",
                  std::all_of(final_states.begin(), final_states.end(),
                              [&](const ClassMap& m) { return m == oracle; }));
  record_recovery(rec, last_data_dir, 0, kBackfillRecoveries, live_map);
  rec.backlog_max = files.size();
  rec.lateness_ms.push_back(0);
}

}  // namespace e2e
