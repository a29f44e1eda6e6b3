#include "loop.h"

#include <stdexcept>

namespace e2e {

core::Thresholds thresholds() { return core::Thresholds::uniform(0.99); }

api::ServiceConfig service_config(std::uint64_t window) {
  api::ServiceConfig config;  // 8 shards, auto sweep lanes: the daemon defaults.
  config.stream.window_epochs = window;
  config.stream.engine.thresholds = thresholds();
  return config;
}

store::StoreConfig store_config(const std::string& dir) {
  store::StoreConfig config;
  config.dir = dir;
  config.sync = store::SyncPolicy::kEpoch;
  config.checkpoint_every_epochs = 16;
  return config;
}

Daemon::Daemon(const std::string& feed_dir, const std::string& data_dir, std::uint64_t window,
               const registry::AllocationRegistry& reg)
    : service_(service_config(window)),
      store_(store_config(data_dir)),
      listener_(std::make_shared<net::TcpListener>("127.0.0.1", 0)),
      server_(service_, listener_, net::ServerConfig{}),
      feed_(feed_dir, reg) {
  const auto recovery = store_.recover(service_);
  if (recovery.recovered) throw std::runtime_error("data dir is not empty: " + data_dir);
  service_.set_history_provider([this](bgp::Asn asn) { return store_.history(asn); });
  server_.start();
}

Daemon::Step Daemon::step(SpanBuffer& tr, bool keep_batch) {
  Step out;
  Span root(tr, "loop.epoch");
  auto poll = [&] {
    Span s(tr, "stream.feed_poll", root.id());
    auto result = feed_.poll();
    if (result.empty()) s.rename("stream.feed_poll_idle");
    return result;
  }();
  if (poll.empty()) {
    root.rename("loop.idle");
    Span s(tr, "store.maybe_checkpoint_idle", root.id());
    (void)store_.maybe_checkpoint(service_);
    return out;
  }
  out.ingested = true;
  out.files = std::move(poll.files);
  out.tuples = poll.batch.size();
  if (keep_batch) out.batch = poll.batch;
  version_.seq.store(2 * (ingest_polls_ > 0 ? service_.epoch() + 1 : 0) + 1);
  if (ingest_polls_ > 0) {
    Span s(tr, "api.advance_epoch", root.id());
    (void)service_.advance_epoch();
  }
  ++ingest_polls_;
  out.epoch = service_.epoch();
  root.set_epoch(static_cast<std::int64_t>(out.epoch));
  {
    Span s(tr, "store.append_batch", root.id(), static_cast<std::int64_t>(out.epoch));
    store_.append_epoch_batch(service_.epoch(), poll.batch, feed_.export_marks());
  }
  {
    Span s(tr, "api.ingest", root.id(), static_cast<std::int64_t>(out.epoch));
    (void)service_.ingest(std::move(poll.batch));
  }
  version_.seq.store(2 * out.epoch + 2);
  {
    Span s(tr, "api.publish", root.id(), static_cast<std::int64_t>(out.epoch));
    out.delta = service_.publish();
  }
  out.publish_end_ns = now_ns();
  {
    Span s(tr, "store.append_delta", root.id(), static_cast<std::int64_t>(out.epoch));
    store_.append_epoch_delta(out.delta);
  }
  {
    Span s(tr, "store.maybe_checkpoint", root.id(), static_cast<std::int64_t>(out.epoch));
    (void)store_.maybe_checkpoint(service_);
  }
  return out;
}

}  // namespace e2e
