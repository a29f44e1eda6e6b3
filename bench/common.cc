#include "common.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <thread>

namespace bgpcu::bench {

core::InferenceResult World::infer(core::Thresholds thresholds) const {
  core::EngineConfig config;
  config.thresholds = thresholds;
  return core::ColumnEngine(config).run(dataset);
}

double scale_factor() {
  const char* env = std::getenv("BGPCU_SCALE");
  if (env == nullptr) return 1.0;
  const double value = std::atof(env);
  return value > 0.0 ? value : 1.0;
}

World make_world(WorldParams params) {
  const double scale = scale_factor();
  params.num_ases = static_cast<std::uint32_t>(static_cast<double>(params.num_ases) * scale);
  params.peers = static_cast<std::size_t>(static_cast<double>(params.peers) * scale);

  World world;
  topology::GeneratorParams gen;
  gen.num_ases = params.num_ases;
  gen.num_tier1 = std::max<std::uint32_t>(6, params.num_ases / 1000);
  gen.seed = params.seed;
  world.topo = topology::generate(gen);

  collector::ProjectLayoutParams layout;
  layout.total_peers = params.peers;
  layout.seed = params.seed;
  world.projects = collector::default_projects(world.topo, layout);
  world.substrate = sim::build_substrate(world.topo, collector::all_peers(world.projects));

  sim::WildParams wild;
  wild.seed = params.seed;
  if (!params.with_pollution) wild.pollution = sim::PollutionConfig{};
  world.roles = sim::assign_wild_roles(world.topo, wild);

  sim::OutputConfig output;
  output.pollution = wild.pollution;
  world.dataset = sim::generate_dataset(world.topo, world.substrate, world.roles, output,
                                        params.seed, params.observations);

  std::printf("world: %u ASes, %zu collector peers, %zu unique paths, %zu unique tuples\n",
              params.num_ases, world.substrate.peers.size(), world.substrate.paths.size(),
              world.dataset.size());
  return world;
}

void print_banner(const std::string& experiment, const std::string& paper_ref) {
  std::printf("================================================================\n");
  std::printf("%s\n", experiment.c_str());
  std::printf("reproduces: %s — Krenc et al., \"AS-Level BGP Community Usage\n", paper_ref.c_str());
  std::printf("Classification\", IMC'21. Substrate: synthetic Internet (see\n");
  std::printf("DESIGN.md); compare shapes, not absolute magnitudes. BGPCU_SCALE=%g\n",
              scale_factor());
  std::printf("================================================================\n");
}

std::string host_json() {
  const auto quoted = [](const std::string& text) {
    std::string out = "\"";
    for (const char c : text) {
      if (c == '"' || c == '\\') out += '\\';
      if (static_cast<unsigned char>(c) >= 0x20) out += c;
    }
    return out + "\"";
  };
  std::string cpu = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) != 0) continue;
    const auto colon = line.find(':');
    if (colon != std::string::npos) cpu = line.substr(colon + 2);
    break;
  }
#if defined(__GNUC__) && !defined(__clang__)
  const std::string compiler = std::string("gcc ") + __VERSION__;
#else
  const std::string compiler = __VERSION__;
#endif
#ifdef NDEBUG
  const std::string build_type = "release";
#else
  const std::string build_type = "debug";
#endif
  return "{\"nproc\":" + std::to_string(std::thread::hardware_concurrency()) +
         ",\"cpu\":" + quoted(cpu) + ",\"compiler\":" + quoted(compiler) +
         ",\"build_type\":" + quoted(build_type) + "}";
}

}  // namespace bgpcu::bench
