// The daemon under test: what tools/bgpcu_serve.cc holds and does per poll,
// on its default configuration, with spans recorded around each call.
#ifndef BGPCU_E2EBENCH_LOOP_H
#define BGPCU_E2EBENCH_LOOP_H

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "api/service.h"
#include "net/server.h"
#include "net/socket.h"
#include "registry/registry.h"
#include "store/store.h"
#include "stream/feed.h"
#include "trace.h"

namespace e2e {

using namespace bgpcu;

/// The paper's 0.99 thresholds, as bgpcu_serve sets them.
[[nodiscard]] core::Thresholds thresholds();
/// api::ServiceConfig{} (8 shards, auto sweep lanes) with `window`.
[[nodiscard]] api::ServiceConfig service_config(std::uint64_t window);
/// The daemon's store defaults: fsync per epoch, checkpoint every 16 epochs.
[[nodiscard]] store::StoreConfig store_config(const std::string& dir);

/// Engine-content version for query checks: odd while the loop mutates the
/// engine (advance_epoch .. ingest), even (2 * epoch + 2) once epoch's ingest
/// is done. A query that starts and ends on the same even value saw exactly
/// the engine state the epoch's publish announced.
struct EngineVersion {
  std::atomic<std::uint64_t> seq{0};
};

/// Everything bgpcu_serve holds, on its defaults.
class Daemon {
 public:
  /// Opens a fresh data dir, starts the server on an ephemeral 127.0.0.1
  /// port, and watches `feed_dir`.
  Daemon(const std::string& feed_dir, const std::string& data_dir, std::uint64_t window,
         const registry::AllocationRegistry& reg);
  ~Daemon() { server_.stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  struct Step {
    bool ingested = false;
    std::vector<std::string> files;
    stream::Epoch epoch = 0;
    std::uint64_t tuples = 0;
    std::int64_t publish_end_ns = 0;
    api::EpochDelta delta;
    core::Dataset batch;  ///< A copy of the polled batch, when asked for.
  };

  /// One iteration of bgpcu_serve's loop, without its sleep. Spans go to
  /// `tr`; `keep_batch` copies the polled batch into the result.
  Step step(SpanBuffer& tr, bool keep_batch = false);

  [[nodiscard]] std::uint16_t port() const { return listener_->port(); }
  [[nodiscard]] api::Service& service() { return service_; }
  [[nodiscard]] const EngineVersion& version() const { return version_; }
  void stop_server() { server_.stop(); }

  /// bgpcu_serve's clean shutdown: the final checkpoint, so a restart
  /// replays no WAL.
  bool final_checkpoint() { return store_.checkpoint(service_); }

 private:
  api::Service service_;
  store::Store store_;
  std::shared_ptr<net::TcpListener> listener_;
  net::Server server_;
  stream::DirectoryFeed feed_;
  std::uint64_t ingest_polls_ = 0;
  EngineVersion version_;
};

}  // namespace e2e

#endif  // BGPCU_E2EBENCH_LOOP_H
