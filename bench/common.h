// Shared scaffolding for the experiment-regeneration binaries: builds the
// synthetic Internet ("world") every bench runs against and provides the
// BGPCU_SCALE environment knob. Each bench binary regenerates one table or
// figure of the paper; absolute magnitudes are scaled down from the real
// Internet, the printed "paper" columns give the original values for shape
// comparison.
#ifndef BGPCU_BENCH_COMMON_H
#define BGPCU_BENCH_COMMON_H

#include <cstdint>
#include <string>

#include "collector/emit.h"
#include "collector/extract.h"
#include "collector/spec.h"
#include "core/engine.h"
#include "sim/scenario.h"
#include "sim/substrate.h"
#include "sim/wild.h"
#include "topology/generator.h"

namespace bgpcu::bench {

/// Size parameters of a bench world, before BGPCU_SCALE is applied.
struct WorldParams {
  std::uint32_t num_ases = 6000;
  std::size_t peers = 100;
  std::uint64_t seed = 1;
  std::uint32_t observations = 3;  ///< Per-path observation draws.
  bool with_pollution = true;      ///< Wild stray/private communities.
};

/// A fully-built synthetic measurement setting.
struct World {
  topology::GeneratedTopology topo;
  std::vector<collector::ProjectSpec> projects;
  sim::PathSubstrate substrate;
  sim::RoleVector roles;      ///< Wild role model.
  core::Dataset dataset;      ///< Wild (path, comm) tuples, deduplicated.

  [[nodiscard]] core::InferenceResult infer(core::Thresholds thresholds = {}) const;
};

/// Reads BGPCU_SCALE (default 1.0); world sizes multiply by it.
[[nodiscard]] double scale_factor();

/// Builds a world; prints a one-line summary of its dimensions to stdout.
[[nodiscard]] World make_world(WorldParams params);

/// Standard header every bench prints: experiment id + reproduction note.
void print_banner(const std::string& experiment, const std::string& paper_ref);

/// The machine a BENCH_*.json line was measured on, as a JSON object:
/// {"nproc":N,"cpu":"...","compiler":"...","build_type":"release|debug"}.
[[nodiscard]] std::string host_json();

}  // namespace bgpcu::bench

#endif  // BGPCU_BENCH_COMMON_H
