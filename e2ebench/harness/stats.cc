#include "stats.h"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <stdexcept>
#include <string>

#include "obs/wellknown.h"

namespace e2e {

using namespace bgpcu;

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double median(const std::vector<double>& v) { return percentile(v, 50); }

double ms_between(std::int64_t a_ns, std::int64_t b_ns) {
  return static_cast<double>(b_ns - a_ns) / 1e6;
}

double cpu_seconds() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) / 1e6;
}

void reset_peak_rss() {
  ::malloc_trim(0);
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
  out.flush();
  if (!out) throw std::runtime_error("cannot reset the peak RSS (/proc/self/clear_refs)");
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

ObsSample ObsSample::take() {
  auto& m = obs::metrics();
  ObsSample s;
  const auto hist = [&](const char* name, const obs::Histogram& h) {
    s.v[std::string(name) + ".sum"] = static_cast<double>(h.sum());
    s.v[std::string(name) + ".count"] = static_cast<double>(h.count());
  };
  s.v["feed.bytes"] = static_cast<double>(m.feed_bytes_read.value());
  s.v["feed.tuples"] = static_cast<double>(m.feed_tuples_extracted.value());
  s.v["feed.decode_errors"] = static_cast<double>(m.feed_decode_errors.value());
  s.v["stream.accepted"] = static_cast<double>(m.stream_ingest_accepted.value());
  s.v["stream.refreshed"] = static_cast<double>(m.stream_ingest_refreshed.value());
  s.v["stream.duplicate"] = static_cast<double>(m.stream_ingest_duplicate.value());
  s.v["stream.rejected"] = static_cast<double>(m.stream_ingest_rejected.value());
  s.v["stream.evicted"] = static_cast<double>(m.stream_evicted.value());
  s.v["snapshot.sweeps"] = static_cast<double>(m.snapshot_sweeps.value());
  s.v["snapshot.hits"] = static_cast<double>(m.snapshot_cache_hits.value());
  s.v["index.rebuilds"] = static_cast<double>(m.index_rebuilds.value());
  hist("snapshot.locked", m.snapshot_locked_ns);
  hist("snapshot.drain", m.snapshot_stage_drain_ns);
  hist("snapshot.patch", m.snapshot_stage_patch_ns);
  hist("snapshot.sweep", m.snapshot_stage_sweep_ns);
  s.v["api.changes"] = static_cast<double>(m.api_changes_published.value());
  s.v["store.wal_bytes"] = static_cast<double>(m.store_wal_bytes.value());
  s.v["store.checkpoints"] = static_cast<double>(m.store_checkpoints.value());
  s.v["store.replayed"] = static_cast<double>(m.store_replayed_records.value());
  hist("store.checkpoint", m.store_checkpoint_ns);
  s.v["net.bytes_out"] = static_cast<double>(m.net_bytes_out.value());
  s.v["net.encodes"] = static_cast<double>(m.net_fanout_encodes.value());
  s.v["net.reuses"] = static_cast<double>(m.net_fanout_buffer_reuses.value());
  s.v["net.slow_disconnects"] = static_cast<double>(m.net_slow_disconnects.value());
  s.v["net.requests_shed"] = static_cast<double>(m.net_requests_shed.value());
  hist("req.decode", m.request_stage_decode_ns);
  hist("req.dispatch", m.request_stage_dispatch_ns);
  hist("req.encode", m.request_stage_encode_ns);
  hist("req.enqueue", m.request_stage_enqueue_ns);
  return s;
}

double ObsSample::delta(const ObsSample& before, const std::string& key) const {
  return v.at(key) - before.v.at(key);
}

double ObsSample::mean(const ObsSample& before, const std::string& name, double scale) const {
  const auto count = delta(before, name + ".count");
  return count > 0 ? delta(before, name + ".sum") / count / scale : 0.0;
}

}  // namespace e2e
