// Span recorder for the traced run: one buffer per thread, spans recorded
// around calls into the library's public functions (never inside src/), kept
// in memory and written out as JSONL when the run ends. The per-layer table
// is computed from the same spans: a span's self time is its duration minus
// the part its children cover.
#ifndef BGPCU_E2EBENCH_TRACE_H
#define BGPCU_E2EBENCH_TRACE_H

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace e2e {

using Clock = std::chrono::steady_clock;

/// Nanoseconds since an arbitrary process-wide origin.
[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

struct SpanRecord {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root.
  std::int64_t epoch = -1;   ///< -1 = not tied to an epoch.
};

/// One thread's span buffer. Disabled buffers record nothing and cost one
/// branch per span.
class SpanBuffer {
 public:
  SpanBuffer(std::string thread, bool enabled, std::uint64_t id_base)
      : thread_(std::move(thread)), enabled_(enabled), next_id_(id_base) {
    if (enabled_) spans_.reserve(1 << 16);
  }

  [[nodiscard]] const std::string& thread() const noexcept { return thread_; }
  [[nodiscard]] const std::vector<SpanRecord>& spans() const noexcept { return spans_; }

  /// Opens a span and returns its index (or -1 when disabled).
  std::int64_t open(const char* name, std::uint64_t parent, std::int64_t epoch) {
    if (!enabled_) return -1;
    spans_.push_back({name, now_ns(), 0, next_id_++, parent, epoch});
    return static_cast<std::int64_t>(spans_.size() - 1);
  }

  void close(std::int64_t index) {
    if (index >= 0) spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
  }

  [[nodiscard]] std::uint64_t id_of(std::int64_t index) const {
    return index >= 0 ? spans_[static_cast<std::size_t>(index)].id : 0;
  }

  /// Re-tags an open span's epoch (known only once the poll returned files).
  void set_epoch(std::int64_t index, std::int64_t epoch) {
    if (index >= 0) spans_[static_cast<std::size_t>(index)].epoch = epoch;
  }

  /// Renames an open span (an iteration turns out to be idle).
  void rename(std::int64_t index, const char* name) {
    if (index >= 0) spans_[static_cast<std::size_t>(index)].name = name;
  }

 private:
  std::string thread_;
  bool enabled_;
  std::uint64_t next_id_;
  std::vector<SpanRecord> spans_;
};

/// RAII span around one call.
class Span {
 public:
  Span(SpanBuffer& buffer, const char* name, std::uint64_t parent = 0,
       std::int64_t epoch = -1)
      : buffer_(buffer), index_(buffer.open(name, parent, epoch)) {}
  ~Span() { buffer_.close(index_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  [[nodiscard]] std::uint64_t id() const { return buffer_.id_of(index_); }
  void set_epoch(std::int64_t epoch) { buffer_.set_epoch(index_, epoch); }
  void rename(const char* name) { buffer_.rename(index_, name); }

 private:
  SpanBuffer& buffer_;
  std::int64_t index_;
};

/// Per-name aggregate of a set of spans.
struct LayerRow {
  std::string name;
  std::uint64_t count = 0;
  double total_ms = 0;
  double self_ms = 0;
};

/// Aggregates spans by name with self times (children subtracted).
[[nodiscard]] std::vector<LayerRow> layer_table(const std::vector<const SpanBuffer*>& buffers);

/// Durations (ms) of the closed spans named `name` in `buffer`.
[[nodiscard]] std::vector<double> span_ms(const SpanBuffer& buffer, const char* name);

/// Writes every span as one JSON object per line after `header_json`.
/// Returns false on an IO error.
bool write_spans_jsonl(const std::string& path, const std::string& header_json,
                       const std::vector<const SpanBuffer*>& buffers);

}  // namespace e2e

#endif  // BGPCU_E2EBENCH_TRACE_H
