// Property tests for the scenario corpus generator (src/sim/corpus.hpp):
// fat-tree/Clos structure, WAN geometry, flash-crowd and failure-storm load
// programs, every library entry pinned by the content hash of its scenario
// JSON and run under the InvariantAuditor, the scenario JSON round-trip
// fixed point over scenarios/*.json and every corpus entry, and the
// auditor's sampled mode / fuzzer large-topology guard that make the big
// entries tractable. DOSC_SOURCE_DIR (a compile definition) locates the
// checked-in scenario files from the build tree.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <ostream>
#include <queue>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "baselines/shortest_path.hpp"
#include "check/auditor.hpp"
#include "check/digest.hpp"
#include "check/fuzzer.hpp"
#include "sim/corpus.hpp"
#include "sim/scenario.hpp"
#include "sim/simulator.hpp"
#include "traffic/trace.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace dosc::sim {
namespace {

using check::AuditorOptions;
using check::EventDigest;
using check::FuzzBounds;
using check::HookChain;
using check::InvariantAuditor;
using check::ScenarioFuzzer;

// --- fat-tree structure -----------------------------------------------------

class FatTreeStructure : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FatTreeStructure, TierSizesDegreesAndConnectivity) {
  const std::size_t k = GetParam();
  util::Rng rng(99);
  FatTreeTiers tiers;
  const net::Network network = make_fat_tree({.k = k}, rng, &tiers);

  // k^3/4 hosts + k^2 pod switches + (k/2)^2 cores.
  EXPECT_EQ(tiers.hosts.size(), k * k * k / 4);
  EXPECT_EQ(tiers.edges.size(), k * k / 2);
  EXPECT_EQ(tiers.aggs.size(), k * k / 2);
  EXPECT_EQ(tiers.cores.size(), (k / 2) * (k / 2));
  EXPECT_EQ(network.num_nodes(),
            tiers.hosts.size() + tiers.edges.size() + tiers.aggs.size() + tiers.cores.size());
  EXPECT_TRUE(network.connected());

  // Hosts hang off exactly one edge switch; every switch has radix k.
  for (const net::NodeId h : tiers.hosts) EXPECT_EQ(network.degree(h), 1u);
  for (const net::NodeId e : tiers.edges) EXPECT_EQ(network.degree(e), k);
  for (const net::NodeId a : tiers.aggs) EXPECT_EQ(network.degree(a), k);
  for (const net::NodeId c : tiers.cores) EXPECT_EQ(network.degree(c), k);
}

TEST_P(FatTreeStructure, EveryEdgeSwitchReachesEveryCoreViaOneAgg) {
  // The Clos property: edge -> agg -> core in exactly two hops, for every
  // (edge switch, core) pair — this is what gives the fabric its path
  // diversity, and it fails if the agg->core group wiring is wrong.
  const std::size_t k = GetParam();
  util::Rng rng(99);
  FatTreeTiers tiers;
  const net::Network network = make_fat_tree({.k = k}, rng, &tiers);
  const std::set<net::NodeId> aggs(tiers.aggs.begin(), tiers.aggs.end());
  for (const net::NodeId e : tiers.edges) {
    for (const net::NodeId c : tiers.cores) {
      bool two_hop = false;
      for (const net::Neighbor& n : network.neighbors(e)) {
        if (aggs.count(n.node) != 0 && network.find_link(n.node, c).has_value()) {
          two_hop = true;
          break;
        }
      }
      EXPECT_TRUE(two_hop) << "edge " << e << " cannot reach core " << c << " via an agg";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Radix, FatTreeStructure, ::testing::Values(4, 6, 8));

TEST(FatTree, DelayJitterStaysWithinBand) {
  util::Rng rng(5);
  FatTreeTiers tiers;
  const FatTreeParams params{.k = 4, .delay_jitter = 0.2};
  const net::Network network = make_fat_tree(params, rng, &tiers);
  const double max_base = std::max(
      {params.host_edge_delay, params.edge_agg_delay, params.agg_core_delay});
  for (const net::Link& link : network.links()) {
    EXPECT_GT(link.delay, 0.0);
    EXPECT_LE(link.delay, max_base * (1.0 + params.delay_jitter) + 1e-12);
    EXPECT_GE(link.delay, params.host_edge_delay * (1.0 - params.delay_jitter) - 1e-12);
  }
}

TEST(FatTree, RejectsOddOrTinyRadix) {
  util::Rng rng(1);
  EXPECT_THROW(make_fat_tree({.k = 3}, rng), std::invalid_argument);
  EXPECT_THROW(make_fat_tree({.k = 0}, rng), std::invalid_argument);
}

// --- WAN geometry -----------------------------------------------------------

TEST(Wan, ConnectedWithDelayBoundsAndCoordinates) {
  util::Rng rng(17);
  const WanParams params{.num_nodes = 120};
  const net::Network network = make_wan(params, rng);
  EXPECT_EQ(network.num_nodes(), params.num_nodes);
  EXPECT_TRUE(network.connected());
  // At least the attachment tree, plus Waxman extras.
  EXPECT_GE(network.num_links(), params.num_nodes - 1);

  const double diagonal = std::sqrt(2.0) * params.extent;
  for (const net::Link& link : network.links()) {
    EXPECT_GE(link.delay, params.min_delay - 1e-12);
    EXPECT_LE(link.delay, params.min_delay + params.delay_per_unit * diagonal + 1e-12);
    // Delay is proportional to the endpoint distance, not an independent draw.
    const net::Node& a = network.node(link.a);
    const net::Node& b = network.node(link.b);
    const double dist = std::hypot(a.x - b.x, a.y - b.y);
    EXPECT_NEAR(link.delay, params.min_delay + params.delay_per_unit * dist, 1e-9);
  }
  for (const net::Node& node : network.nodes()) {
    EXPECT_GE(node.x, 0.0);
    EXPECT_LT(node.x, params.extent);
    EXPECT_GE(node.y, 0.0);
    EXPECT_LT(node.y, params.extent);
  }
}

TEST(Wan, DenserWithHigherAlpha) {
  util::Rng rng_sparse(3), rng_dense(3);
  const std::size_t sparse =
      make_wan({.num_nodes = 150, .waxman_alpha = 0.2}, rng_sparse).num_links();
  const std::size_t dense =
      make_wan({.num_nodes = 150, .waxman_alpha = 0.95}, rng_dense).num_links();
  EXPECT_GT(dense, sparse);
}

// --- load programs ----------------------------------------------------------

TEST(FlashCrowd, SpikesRaiseRateWithinClamp) {
  traffic::FlashCrowdConfig config;
  config.seed = 21;
  const traffic::RateTrace trace = traffic::make_flash_crowd_trace(config);
  EXPECT_DOUBLE_EQ(trace.horizon(), config.horizon);
  ASSERT_FALSE(trace.segments().empty());

  double min_mean = config.base_interarrival;
  std::size_t off_crowd = 0;
  for (const traffic::RateTrace::Segment& segment : trace.segments()) {
    EXPECT_GE(segment.mean_interarrival, config.min_interarrival - 1e-12);
    EXPECT_LE(segment.mean_interarrival, config.base_interarrival + 1e-12);
    min_mean = std::min(min_mean, segment.mean_interarrival);
    if (segment.mean_interarrival >= config.base_interarrival - 1e-9) ++off_crowd;
  }
  // The spike peak divides the inter-arrival by crowd_intensity...
  EXPECT_LT(min_mean, config.base_interarrival / (0.9 * config.crowd_intensity));
  // ...but most of the horizon stays at the base rate (crowds are bursts).
  EXPECT_GT(off_crowd, trace.segments().size() / 2);
}

TEST(FlashCrowd, RejectsNonsenseConfigs) {
  traffic::FlashCrowdConfig config;
  config.crowd_intensity = 0.5;  // a "crowd" that lowers the rate
  EXPECT_THROW(traffic::make_flash_crowd_trace(config), std::invalid_argument);
  config = {};
  config.num_crowds = 50;  // crowds would cover more than half the horizon
  EXPECT_THROW(traffic::make_flash_crowd_trace(config), std::invalid_argument);
}

TEST(FailureStorm, CoLocatedStaggeredAndEgressSafe) {
  util::Rng topo_rng(8);
  FatTreeTiers tiers;
  const net::Network network = make_fat_tree({.k = 6}, topo_rng, &tiers);
  const net::NodeId egress = tiers.hosts.back();
  const FailureStormParams params;
  const double end_time = 5000.0;
  util::Rng rng(77);
  const std::vector<FailureEvent> storm =
      make_failure_storm(network, params, egress, end_time, rng);
  ASSERT_EQ(storm.size(), params.num_node_failures + params.num_link_failures);

  // Collect the failed elements and check the correlation property: all of
  // them live inside one connected neighbourhood (the BFS cluster), rather
  // than being independent uniform draws over the whole fabric.
  std::set<net::NodeId> touched;
  std::size_t node_failures = 0;
  for (const FailureEvent& failure : storm) {
    EXPECT_GE(failure.start, params.start_frac * end_time - 1e-9);
    EXPECT_LT(failure.start, end_time);
    EXPECT_GT(failure.duration, 0.0);
    if (failure.kind == FailureEvent::Kind::kNode) {
      ++node_failures;
      EXPECT_NE(failure.id, egress);
      touched.insert(failure.id);
    } else {
      ASSERT_LT(failure.id, network.num_links());
      touched.insert(network.link(failure.id).a);
      touched.insert(network.link(failure.id).b);
    }
  }
  EXPECT_EQ(node_failures, params.num_node_failures);

  // Connectivity of the touched set within the substrate graph.
  std::set<net::NodeId> reached;
  std::queue<net::NodeId> frontier;
  frontier.push(*touched.begin());
  reached.insert(*touched.begin());
  while (!frontier.empty()) {
    const net::NodeId v = frontier.front();
    frontier.pop();
    for (const net::Neighbor& n : network.neighbors(v)) {
      // Walk only within a 2-hop halo of the touched set so this checks
      // co-location, not global connectivity.
      bool near = touched.count(n.node) != 0;
      if (!near) {
        for (const net::Neighbor& m : network.neighbors(n.node)) {
          if (touched.count(m.node) != 0) {
            near = true;
            break;
          }
        }
      }
      if (near && reached.insert(n.node).second) frontier.push(n.node);
    }
  }
  for (const net::NodeId v : touched) {
    EXPECT_TRUE(reached.count(v) != 0) << "failure at node " << v << " is isolated";
  }
}

// --- catalogs ---------------------------------------------------------------

TEST(Catalogs, LongChainVisitsDistinctComponents) {
  util::Rng rng(31);
  const ServiceCatalog catalog = make_long_chain_catalog(8, rng);
  EXPECT_EQ(catalog.num_components(), 8u);
  ASSERT_EQ(catalog.num_services(), 1u);
  const Service& service = catalog.service(0);
  EXPECT_EQ(service.chain.size(), 8u);
  const std::set<ComponentId> distinct(service.chain.begin(), service.chain.end());
  EXPECT_EQ(distinct.size(), service.chain.size());
  EXPECT_EQ(catalog.max_chain_length(), 8u);
}

TEST(Catalogs, MultiTenantSharesThePool) {
  util::Rng rng(32);
  const ServiceCatalog catalog = make_multi_tenant_catalog(6, 10, rng);
  EXPECT_EQ(catalog.num_components(), 10u);
  EXPECT_EQ(catalog.num_services(), 6u);
  for (ServiceId s = 0; s < catalog.num_services(); ++s) {
    const Service& service = catalog.service(s);
    EXPECT_GE(service.chain.size(), 2u);
    EXPECT_LE(service.chain.size(), 5u);
    for (const ComponentId c : service.chain) EXPECT_LT(c, 10u);
  }
}

// --- corpus library ---------------------------------------------------------

/// FNV-1a 64 over raw bytes.
std::uint64_t fnv1a64(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// The library's manifest. `fnv1a` is the FNV-1a 64 of the entry's
/// `to_json().dump(2) + "\n"`: the exact bytes of the scenario file the
/// entry was once checked in as, so a generator change that alters any
/// emitted byte trips the pin.
struct CorpusPin {
  const char* name;
  std::uint64_t fnv1a;
  std::size_t nodes;
};

void PrintTo(const CorpusPin& pin, std::ostream* os) { *os << pin.name; }

constexpr CorpusPin kCorpusPins[] = {
    {"ft_k4_steady", 0x7ef75da172bccd2bULL, 36},
    {"ft_k4_diurnal", 0x28f343a71eb30284ULL, 36},
    {"ft_k4_chain8", 0xe8bc5d1b278b2c48ULL, 36},
    {"ft_k6_flash", 0x0f1cb4613de09755ULL, 99},
    {"ft_k8_steady", 0x3e9bc65d3338479aULL, 208},
    {"ft_k8_storm", 0x9ebbcdf9449b910dULL, 208},
    {"wan_100_steady", 0x1dcb52fae043201dULL, 100},
    {"wan_100_chain10", 0x9c5a9fdd5d81f1ffULL, 100},
    {"wan_250_diurnal", 0x0800e7fc3be0a5dfULL, 250},
    {"wan_250_tenants", 0xb91a85c6f9805e61ULL, 250},
    {"wan_500_flash", 0xe46f8f1bb9932902ULL, 500},
    {"wan_500_storm", 0xaba7482b11a59b6eULL, 500},
};

TEST(CorpusLibrary, CoversFamiliesLoadsAndScales) {
  const std::vector<CorpusEntryInfo>& library = CorpusGenerator::library();
  EXPECT_GE(library.size(), 12u);
  std::set<std::string> families, loads, names;
  std::set<std::uint64_t> seeds;
  for (const CorpusEntryInfo& info : library) {
    EXPECT_TRUE(names.insert(info.name).second) << "duplicate name " << info.name;
    EXPECT_TRUE(seeds.insert(info.seed).second) << "duplicate seed " << info.seed;
    families.insert(info.family);
    loads.insert(info.load);
  }
  EXPECT_TRUE(families.count("fat_tree"));
  EXPECT_TRUE(families.count("wan"));
  for (const char* load : {"steady", "diurnal", "flash", "storm"}) {
    EXPECT_TRUE(loads.count(load)) << load;
  }
  // Every entry is pinned, and the pinned sizes span the scale range
  // (CorpusEntry checks each generated entry against its pin).
  std::set<std::string> pinned;
  std::size_t smallest = SIZE_MAX, largest = 0;
  for (const CorpusPin& pin : kCorpusPins) {
    pinned.insert(pin.name);
    smallest = std::min(smallest, pin.nodes);
    largest = std::max(largest, pin.nodes);
  }
  EXPECT_EQ(pinned, names);
  EXPECT_LE(smallest, 100u);
  EXPECT_GE(largest, 500u);
}

class CorpusEntry : public ::testing::TestWithParam<CorpusPin> {};

TEST_P(CorpusEntry, MatchesItsPinRoundTripsAndPassesTheAuditor) {
  // One generation per entry serves the pin, the round trip and the audit:
  // under ASan, building the 500-node entries dominates this suite.
  const CorpusPin& pin = GetParam();
  const Scenario scenario = load_scenario(std::string("corpus:") + pin.name);
  EXPECT_TRUE(scenario.network().connected());
  EXPECT_EQ(scenario.network().num_nodes(), pin.nodes);

  const std::string text = scenario.to_json().dump(2) + "\n";
  EXPECT_EQ(fnv1a64(text), pin.fnv1a)
      << "the generator's output for " << pin.name << " changed; after an intended change, "
      << "re-pin it to 0x" << std::hex << fnv1a64(text);

  // serialize -> parse -> serialize is the identity on the serialized form,
  // and keeps the embedded network and catalog.
  const Scenario reparsed = Scenario::from_json(util::Json::parse(text));
  EXPECT_EQ(reparsed.to_json().dump(2) + "\n", text);

  // The audited replay: shortest-path decisions, seed 424242, the first
  // min(end_time, 1000) ms, every event invariant-checked.
  const Scenario eval = scenario.with_end_time(std::min(scenario.config().end_time, 1000.0));
  Simulator sim(eval, 424242);
  InvariantAuditor auditor;
  auditor.attach(sim);
  baselines::ShortestPathCoordinator coordinator;
  const SimMetrics metrics = sim.run(coordinator, &auditor);
  EXPECT_TRUE(auditor.ok()) << auditor.report();
  EXPECT_GT(metrics.generated, 0u);
}

INSTANTIATE_TEST_SUITE_P(Library, CorpusEntry, ::testing::ValuesIn(kCorpusPins),
                         [](const ::testing::TestParamInfo<CorpusPin>& info) {
                           return std::string(info.param.name);
                         });

TEST(CorpusLibrary, UnknownNameThrowsNamingIt) {
  EXPECT_THROW(CorpusGenerator::make("ft_k13_lucky"), std::invalid_argument);
  try {
    load_scenario("corpus:ft_k13_lucky");
    ADD_FAILURE() << "an unknown corpus entry loaded";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("'ft_k13_lucky'"), std::string::npos) << e.what();
  }
}

// --- JSON round-trip fixed point --------------------------------------------

TEST(ScenarioRoundTrip, FixedPointOnAllCheckedInScenarios) {
  // serialize -> parse -> serialize must be the identity on the serialized
  // form (the fixed point is reached after one round). CorpusEntry checks
  // the same on every generated corpus entry.
  const std::filesystem::path dir = std::filesystem::path(DOSC_SOURCE_DIR) / "scenarios";
  ASSERT_TRUE(std::filesystem::exists(dir)) << dir;
  std::size_t seen = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() != ".json") continue;
    ++seen;
    const std::string once = load_scenario(entry.path().string()).to_json().dump(2);
    const Scenario reparsed = Scenario::from_json(util::Json::parse(once));
    EXPECT_EQ(reparsed.to_json().dump(2), once) << entry.path().filename();
  }
  EXPECT_GE(seen, 3u);
}

TEST(ScenarioRoundTrip, CorpusEntriesSurviveWithFullFidelity) {
  // from_json(to_json(s)) must preserve the embedded network and catalog,
  // not fall back to the named-topology defaults.
  const Scenario scenario = load_scenario("corpus:wan_100_chain10");
  const Scenario reparsed = Scenario::from_json(scenario.to_json());
  EXPECT_EQ(reparsed.network().num_nodes(), scenario.network().num_nodes());
  EXPECT_EQ(reparsed.network().num_links(), scenario.network().num_links());
  EXPECT_EQ(reparsed.catalog().num_components(), scenario.catalog().num_components());
  EXPECT_EQ(reparsed.catalog().max_chain_length(), scenario.catalog().max_chain_length());
  EXPECT_EQ(reparsed.config().ingress, scenario.config().ingress);
}

TEST(ScenarioRoundTrip, BareConfigFilesStillLoadWithDefaults) {
  const std::filesystem::path path =
      std::filesystem::path(DOSC_SOURCE_DIR) / "scenarios" / "base_poisson_2in.json";
  ASSERT_TRUE(std::filesystem::exists(path));
  const util::Json doc = util::Json::load_file(path.string());
  ASSERT_TRUE(doc.as_object().count("network") == 0);  // bare config on disk
  const Scenario scenario = load_scenario(path.string());
  EXPECT_GT(scenario.network().num_nodes(), 0u);
  EXPECT_GT(scenario.catalog().num_services(), 0u);
}

// --- scale guards: fuzzer O(n^2) limit and auditor sampled mode -------------

TEST(ScaleGuards, FuzzerHandlesLargeNodeBoundsSparsely) {
  FuzzBounds bounds;
  bounds.min_nodes = 400;
  bounds.max_nodes = 400;
  const ScenarioFuzzer fuzzer(bounds);
  const Scenario scenario = fuzzer.make(1);
  const std::size_t n = scenario.network().num_nodes();
  EXPECT_EQ(n, 400u);
  EXPECT_TRUE(scenario.network().connected());
  // Sparse: spanning tree + ~extra_edge_prob * n extras, not ~n^2/2.
  EXPECT_LT(scenario.network().num_links(),
            (n - 1) + static_cast<std::size_t>(bounds.extra_edge_prob * n) + 1);
}

TEST(ScaleGuards, FuzzerBelowLimitUnchanged) {
  // Seeds at or below the pairwise limit must keep their historical
  // byte-identical scenarios (golden digests depend on this).
  const ScenarioFuzzer fuzzer;
  const std::string a = fuzzer.make(3).to_json().dump(2);
  const std::string b = ScenarioFuzzer(FuzzBounds{}).make(3).to_json().dump(2);
  EXPECT_EQ(a, b);
}

TEST(ScaleGuards, AuditorEntersSampledModeAndStaysClean) {
  const Scenario scenario = load_scenario("corpus:ft_k4_steady").with_end_time(600.0);
  AuditorOptions options;
  options.full_sweep_cells = 8;  // force sampled mode on a small fabric
  options.sample_stride = 16;
  Simulator sim(scenario, 7);
  InvariantAuditor auditor(options);
  auditor.attach(sim);
  baselines::ShortestPathCoordinator coordinator;
  sim.run(coordinator, &auditor);
  EXPECT_TRUE(auditor.sampled_mode());
  EXPECT_TRUE(auditor.ok()) << auditor.report();
  EXPECT_NE(auditor.report().find("sampled"), std::string::npos);
}

TEST(ScaleGuards, AuditorFullModeOnSmallScenarios) {
  const Scenario scenario = load_scenario("corpus:ft_k4_steady").with_end_time(300.0);
  Simulator sim(scenario, 7);
  InvariantAuditor auditor;
  auditor.attach(sim);
  baselines::ShortestPathCoordinator coordinator;
  sim.run(coordinator, &auditor);
  EXPECT_FALSE(auditor.sampled_mode());
  EXPECT_TRUE(auditor.ok()) << auditor.report();
}

TEST(ScaleGuards, SampledAndFullModeAgreeOnTheEventStream) {
  // Sampling changes which invariants are swept, never the simulation
  // itself: the event digest must be identical either way.
  const Scenario scenario = load_scenario("corpus:ft_k4_steady").with_end_time(400.0);
  std::uint64_t digests[2] = {0, 0};
  for (int mode = 0; mode < 2; ++mode) {
    AuditorOptions options;
    if (mode == 1) options.full_sweep_cells = 8;
    Simulator sim(scenario, 7);
    InvariantAuditor auditor(options);
    EventDigest digest;
    HookChain hooks{&auditor, &digest};
    sim.set_audit_hook(&hooks);
    baselines::ShortestPathCoordinator coordinator;
    sim.run(coordinator, &auditor);
    EXPECT_TRUE(auditor.ok()) << auditor.report();
    digests[mode] = digest.digest();
  }
  EXPECT_EQ(digests[0], digests[1]);
}

}  // namespace
}  // namespace dosc::sim
