#include "trace.h"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <map>
#include <unordered_map>

namespace e2e {

std::vector<LayerRow> layer_table(const std::vector<const SpanBuffer*>& buffers) {
  // Children are recorded on the parent's thread, so self time is computed
  // per buffer: sum each parent's direct children durations.
  std::map<std::string, LayerRow> rows;
  for (const auto* buffer : buffers) {
    std::unordered_map<std::uint64_t, std::int64_t> child_ns;
    for (const auto& span : buffer->spans()) {
      if (span.parent != 0 && span.end_ns != 0) {
        child_ns[span.parent] += span.end_ns - span.start_ns;
      }
    }
    for (const auto& span : buffer->spans()) {
      if (span.end_ns == 0) continue;
      auto& row = rows[span.name];
      row.name = span.name;
      const auto duration = span.end_ns - span.start_ns;
      const auto child = child_ns.find(span.id);
      const auto self = duration - (child == child_ns.end() ? 0 : child->second);
      ++row.count;
      row.total_ms += static_cast<double>(duration) / 1e6;
      row.self_ms += static_cast<double>(self) / 1e6;
    }
  }
  std::vector<LayerRow> out;
  for (auto& [name, row] : rows) out.push_back(std::move(row));
  std::sort(out.begin(), out.end(),
            [](const LayerRow& a, const LayerRow& b) { return a.self_ms > b.self_ms; });
  return out;
}

std::vector<double> span_ms(const SpanBuffer& buffer, const char* name) {
  std::vector<double> out;
  for (const auto& s : buffer.spans()) {
    if (s.end_ns != 0 && std::strcmp(s.name, name) == 0) {
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e6);
    }
  }
  return out;
}

bool write_spans_jsonl(const std::string& path, const std::string& header_json,
                       const std::vector<const SpanBuffer*>& buffers) {
  std::ofstream out(path, std::ios::trunc);
  out << header_json << "\n";
  for (const auto* buffer : buffers) {
    for (const auto& span : buffer->spans()) {
      if (span.end_ns == 0) continue;
      out << "{\"name\":\"" << span.name << "\",\"thread\":\"" << buffer->thread()
          << "\",\"id\":" << span.id << ",\"parent\":" << span.parent
          << ",\"epoch\":" << span.epoch << ",\"start_ns\":" << span.start_ns
          << ",\"end_ns\":" << span.end_ns << "}\n";
    }
  }
  out.flush();
  return static_cast<bool>(out);
}

}  // namespace e2e
