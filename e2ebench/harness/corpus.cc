#include "corpus.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "bgp/message.h"
#include "mrt/writer.h"

namespace e2e {

namespace fs = std::filesystem;

namespace {

std::uint64_t mix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

bool is_own(const bgp::CommunityValue& c, bgp::Asn asn) {
  return !c.is_well_known() && c.upper == asn;
}

std::uint64_t write_project_dumps(const bench::World& world,
                                  const collector::PathOutputs& outputs, std::uint64_t seed,
                                  std::uint32_t day, bool ribs, const std::string& dir,
                                  const std::string& prefix) {
  auto project = world.projects.at(0);
  project.emit_ribs = ribs;
  collector::EmissionConfig emission;
  emission.seed = seed * 1000 + 17 + day;
  emission.base_timestamp += day * emission.day_seconds;
  std::uint64_t bytes = 0;
  for (auto& emitted :
       collector::emit_project(world.topo, world.substrate, outputs, project, emission)) {
    const auto& image = ribs ? emitted.rib_dump : emitted.update_dump;
    if (image.empty()) continue;
    write_file_atomic(dir + "/" + prefix + emitted.name + ".mrt", image);
    bytes += image.size();
  }
  return bytes;
}

}  // namespace

std::vector<std::uint8_t> encode_updates(const core::Dataset& tuples, std::uint32_t timestamp) {
  mrt::MrtWriter writer;
  std::uint32_t n = 0;
  for (const auto& tuple : tuples) {
    bgp::UpdateMessage update;
    update.attributes.origin = bgp::Origin::kIgp;
    update.attributes.as_path = bgp::AsPath::from_sequence(tuple.path);
    update.attributes.next_hop = 0xC0A80000u + (tuple.peer() & 0xFFFF);
    for (const auto& c : tuple.comms) {
      (c.kind == bgp::CommunityKind::kRegular ? update.attributes.communities
                                              : update.attributes.large_communities)
          .push_back(c);
    }
    // One /24 per update out of 1.0.0.0/8 onwards; the prefix plays no part
    // in the (path, communities) tuple.
    update.nlri.push_back(bgp::Prefix::ipv4(0x01000000u + ((n++ & 0x3FFFFFu) << 8), 24));
    writer.write_message(timestamp, mrt::Bgp4mpMessage::ipv4_session(
                                        tuple.peer(), 12654, 0xC0A80000u + (tuple.peer() & 0xFFFF),
                                        0xC0A80001u, update.encode(true)));
  }
  return writer.take();
}

void write_file_atomic(const std::string& path, const std::vector<std::uint8_t>& bytes) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    out.flush();
    if (!out) throw std::runtime_error("cannot write " + tmp);
  }
  fs::rename(tmp, path);
}

std::uint64_t write_backfill_days(const bench::World& world, std::uint64_t seed,
                                  std::uint32_t days, const std::string& dir) {
  const collector::PathOutputs outputs(world.dataset);
  std::uint64_t bytes = 0;
  for (std::uint32_t day = 0; day < days; ++day) {
    char prefix[32];
    std::snprintf(prefix, sizeof prefix, "updates.%03u.", day);
    bytes += write_project_dumps(world, outputs, seed, day, false, dir, prefix);
  }
  return bytes;
}

std::uint64_t write_rib_dumps(const bench::World& world, std::uint64_t seed,
                              const std::string& dir) {
  return write_project_dumps(world, collector::PathOutputs(world.dataset), seed, 0, true, dir,
                             "rib.");
}

LiveSchedule::LiveSchedule(core::Dataset live, std::uint64_t window, std::uint64_t seed)
    : live_(std::move(live)), window_(window), seed_(seed) {
  if (live_.empty() || window_ < 2) {
    throw std::runtime_error("live schedule needs tuples and a window >= 2");
  }
  slice_of_.resize(live_.size());
  for (std::uint32_t i = 0; i < live_.size(); ++i) {
    slice_of_[i] = static_cast<std::uint32_t>(mix(seed_ ^ (i * 0x51ull)) % window_);
    // Base paths whose peer tags its own routes: a switcher prepended to
    // them has a downstream tagger right behind it, so its forwarding
    // (keep or strip that tag) is counted too.
    const auto& tuple = live_[i];
    if (std::any_of(tuple.comms.begin(), tuple.comms.end(),
                    [&](const auto& c) { return is_own(c, tuple.peer()); })) {
      bases_.push_back(i);
    }
  }
  if (bases_.size() < 2 * kTuplesPerUse) {
    bases_.resize(live_.size());
    for (std::uint32_t i = 0; i < live_.size(); ++i) bases_[i] = i;
  }
  const auto first = static_cast<bgp::Asn>(3'900'000'000u + mix(seed_) % 1'000'000u);
  for (std::uint64_t j = 0; j < 2 * window_; ++j) {
    switchers_.push_back(first + static_cast<bgp::Asn>(j));
  }
  asns_ = core::distinct_asns(live_);
}

core::Dataset LiveSchedule::file_tuples(std::uint64_t k) const {
  core::Dataset out;
  out.reserve(live_.size() / window_ + kTuplesPerUse + 64);
  const auto slice = static_cast<std::uint32_t>(k % window_);
  for (std::uint32_t i = 0; i < live_.size(); ++i) {
    if (slice_of_[i] == slice) out.push_back(live_[i]);
  }
  // Switcher j = k mod 2W is used once every 2W files: it appears, ages
  // out W epochs later, and reappears with the other behaviour (A: tags its
  // own routes and forwards the downstream tag -> tf; B: silent and strips
  // that tag -> sc). Each file thus changes a known AS's class at ingest and
  // again at eviction, even when several files land in one epoch.
  const auto pool = switchers_.size();
  const auto sw = switchers_[k % pool];
  const bool tagging = (k / pool) % 2 == 0;
  const auto offset = mix(seed_ ^ (k * 0x9Full)) % bases_.size();
  for (std::size_t j = 0; j < kTuplesPerUse; ++j) {
    const auto& base = live_[bases_[(offset + j * 7919) % bases_.size()]];
    core::PathCommTuple tuple;
    tuple.path.reserve(base.path.size() + 1);
    tuple.path.push_back(sw);
    tuple.path.insert(tuple.path.end(), base.path.begin(), base.path.end());
    for (const auto& c : base.comms) {
      const bool downstream = !c.is_well_known() &&
                              std::find(base.path.begin(), base.path.end(), c.upper) !=
                                  base.path.end();
      if (tagging || !downstream) tuple.comms.push_back(c);
    }
    if (tagging) tuple.comms.push_back(bgp::CommunityValue::large(sw, 100, 0));
    std::sort(tuple.comms.begin(), tuple.comms.end());
    out.push_back(std::move(tuple));
  }
  return out;
}

std::vector<bgp::Asn> LiveSchedule::watchlist() const { return switchers_; }

}  // namespace e2e
