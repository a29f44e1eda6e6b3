// Measurement helpers: percentiles, process CPU and memory, and deltas of
// the daemon's own instruments (obs::metrics(), what /metrics exports).
#ifndef BGPCU_E2EBENCH_STATS_H
#define BGPCU_E2EBENCH_STATS_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace e2e {

/// Nearest-rank percentile `p` (0..100) of `v`; 0 for an empty sample.
[[nodiscard]] double percentile(std::vector<double> v, double p);
[[nodiscard]] double median(const std::vector<double>& v);
[[nodiscard]] double ms_between(std::int64_t a_ns, std::int64_t b_ns);

/// Process user + system CPU seconds (getrusage).
[[nodiscard]] double cpu_seconds();
/// Returns freed heap to the system and resets the process's peak resident
/// set size to its current size (/proc/self/clear_refs), so that
/// peak_rss_mb() covers only what runs after it. Throws when the kernel
/// refuses.
void reset_peak_rss();
/// Process peak resident set size since reset_peak_rss() (VmHWM), in MB.
[[nodiscard]] double peak_rss_mb();

/// Registry values the per-layer table reads, sampled before and after the
/// measured window.
struct ObsSample {
  std::map<std::string, double> v;

  [[nodiscard]] static ObsSample take();

  /// This sample minus `before`, for one value.
  [[nodiscard]] double delta(const ObsSample& before, const std::string& key) const;

  /// Mean of a nanosecond histogram over the window, in `scale` units.
  [[nodiscard]] double mean(const ObsSample& before, const std::string& name,
                            double scale) const;
};

}  // namespace e2e

#endif  // BGPCU_E2EBENCH_STATS_H
