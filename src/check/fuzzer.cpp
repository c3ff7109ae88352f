#include "check/fuzzer.hpp"

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "net/network.hpp"
#include "traffic/spec.hpp"
#include "util/rng.hpp"

namespace dosc::check {

namespace {

// Topology.
constexpr std::int64_t kMinNodes = 4;
constexpr std::int64_t kMaxNodes = 12;
constexpr double kExtraEdgeProb = 0.25;  ///< per node pair beyond the spanning tree
constexpr double kLinkDelayLo = 1.0;
constexpr double kLinkDelayHi = 7.0;
// Component catalog.
constexpr std::int64_t kMinComponents = 1;
constexpr std::int64_t kMaxComponents = 4;
constexpr double kProcDelayLo = 1.0;
constexpr double kProcDelayHi = 8.0;
constexpr double kStartupProb = 0.4;  ///< chance a component has a startup delay
constexpr double kStartupDelayHi = 5.0;
constexpr double kIdleTimeoutLo = 10.0;
constexpr double kIdleTimeoutHi = 80.0;
// Services.
constexpr std::int64_t kMaxServices = 2;
constexpr std::int64_t kMaxChainLength = 4;
// Scenario / traffic.
constexpr std::size_t kMaxIngress = 3;
constexpr double kMeanInterarrivalLo = 2.0;
constexpr double kMeanInterarrivalHi = 12.0;
constexpr double kDeadlineLo = 40.0;
constexpr double kDeadlineHi = 120.0;
constexpr double kNodeCapHiLo = 1.0;
constexpr double kNodeCapHiHi = 4.0;
constexpr double kLinkCapHiLo = 2.0;
constexpr double kLinkCapHiHi = 6.0;
constexpr double kEndTimeLo = 200.0;
constexpr double kEndTimeHi = 500.0;
constexpr double kFailureProb = 0.3;  ///< chance the scenario injects one failure

net::Network fuzz_network(util::Rng& rng, std::uint64_t seed) {
  const auto n = static_cast<std::size_t>(rng.uniform_int(kMinNodes, kMaxNodes));
  net::NetworkBuilder builder("fuzz-" + std::to_string(seed));
  for (std::size_t v = 0; v < n; ++v) {
    builder.add_node("v" + std::to_string(v + 1));
  }
  // Random spanning tree keeps the graph connected; extra edges add the
  // routing choice the coordinators are supposed to exercise.
  for (net::NodeId v = 1; v < n; ++v) {
    const net::NodeId parent =
        static_cast<net::NodeId>(rng.uniform_int(0, static_cast<std::int64_t>(v) - 1));
    builder.add_link(parent, v, rng.uniform(kLinkDelayLo, kLinkDelayHi), 0.0);
  }
  for (net::NodeId a = 0; a < n; ++a) {
    for (net::NodeId c = a + 1; c < n; ++c) {
      if (!builder.has_link(a, c) && rng.bernoulli(kExtraEdgeProb)) {
        builder.add_link(a, c, rng.uniform(kLinkDelayLo, kLinkDelayHi), 0.0);
      }
    }
  }
  return std::move(builder).build();
}

sim::ServiceCatalog fuzz_catalog(util::Rng& rng) {
  sim::ServiceCatalog catalog;
  const auto num_components =
      static_cast<std::size_t>(rng.uniform_int(kMinComponents, kMaxComponents));
  for (std::size_t c = 0; c < num_components; ++c) {
    sim::Component component;
    component.name = "c" + std::to_string(c);
    component.processing_delay = rng.uniform(kProcDelayLo, kProcDelayHi);
    component.resource_per_rate = rng.uniform(0.5, 1.5);
    component.resource_fixed = rng.bernoulli(0.25) ? rng.uniform(0.0, 0.3) : 0.0;
    component.startup_delay =
        rng.bernoulli(kStartupProb) ? rng.uniform(0.5, kStartupDelayHi) : 0.0;
    component.idle_timeout = rng.uniform(kIdleTimeoutLo, kIdleTimeoutHi);
    catalog.add_component(std::move(component));
  }
  const auto num_services = static_cast<std::size_t>(rng.uniform_int(1, kMaxServices));
  for (std::size_t s = 0; s < num_services; ++s) {
    sim::Service service;
    service.name = "s" + std::to_string(s);
    const auto length = static_cast<std::size_t>(rng.uniform_int(1, kMaxChainLength));
    for (std::size_t i = 0; i < length; ++i) {
      service.chain.push_back(static_cast<sim::ComponentId>(
          rng.uniform_int(0, static_cast<std::int64_t>(num_components) - 1)));
    }
    catalog.add_service(std::move(service));
  }
  return catalog;
}

}  // namespace

sim::Scenario ScenarioFuzzer::make(std::uint64_t seed) const {
  // Decorrelate consecutive fuzz seeds before seeding the engine.
  util::Rng rng(util::mix64(seed + 0x5CE4A1105EEDULL));
  net::Network network = fuzz_network(rng, seed);
  sim::ServiceCatalog catalog = fuzz_catalog(rng);
  const std::size_t n = network.num_nodes();

  sim::ScenarioConfig config;
  config.name = "fuzz-" + std::to_string(seed);
  config.egress = static_cast<net::NodeId>(rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
  // Distinct ingress nodes, none of them the egress.
  std::vector<net::NodeId> candidates;
  for (net::NodeId v = 0; v < n; ++v) {
    if (v != config.egress) candidates.push_back(v);
  }
  const std::size_t num_ingress = static_cast<std::size_t>(rng.uniform_int(
      1, static_cast<std::int64_t>(std::min(kMaxIngress, candidates.size()))));
  config.ingress.clear();
  for (std::size_t i = 0; i < num_ingress; ++i) {
    const std::size_t pick = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(candidates.size()) - 1));
    config.ingress.push_back(candidates[pick]);
    candidates.erase(candidates.begin() + static_cast<std::ptrdiff_t>(pick));
  }

  const double mean = rng.uniform(kMeanInterarrivalLo, kMeanInterarrivalHi);
  switch (rng.uniform_int(0, 2)) {
    case 0:
      config.traffic = traffic::TrafficSpec::fixed(mean);
      break;
    case 1:
      config.traffic = traffic::TrafficSpec::poisson(mean);
      break;
    default:
      config.traffic = traffic::TrafficSpec::mmpp(mean * 1.2, mean * 0.8,
                                                  /*period=*/100.0, /*prob=*/0.1);
      break;
  }

  config.flows.clear();
  const std::size_t num_templates = static_cast<std::size_t>(rng.uniform_int(1, 2));
  for (std::size_t t = 0; t < num_templates; ++t) {
    sim::FlowTemplate tmpl;
    tmpl.service = static_cast<sim::ServiceId>(
        rng.uniform_int(0, static_cast<std::int64_t>(catalog.num_services()) - 1));
    tmpl.rate = rng.uniform(0.5, 2.0);
    tmpl.duration = rng.uniform(0.5, 2.0);
    tmpl.deadline = rng.uniform(kDeadlineLo, kDeadlineHi);
    tmpl.weight = rng.uniform(0.5, 2.0);
    config.flows.push_back(tmpl);
  }

  config.node_cap_lo = 0.0;
  config.node_cap_hi = rng.uniform(kNodeCapHiLo, kNodeCapHiHi);
  config.link_cap_lo = 1.0;
  config.link_cap_hi = rng.uniform(kLinkCapHiLo, kLinkCapHiHi);
  config.end_time = rng.uniform(kEndTimeLo, kEndTimeHi);

  if (rng.bernoulli(kFailureProb)) {
    sim::FailureEvent failure;
    const bool node_failure = rng.bernoulli(0.5);
    failure.kind =
        node_failure ? sim::FailureEvent::Kind::kNode : sim::FailureEvent::Kind::kLink;
    const std::size_t num_targets = node_failure ? n : network.num_links();
    failure.id = static_cast<std::uint32_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(num_targets) - 1));
    failure.start = rng.uniform(0.2, 0.6) * config.end_time;
    // Mostly transient failures; occasionally permanent (duration <= 0).
    failure.duration = rng.bernoulli(0.8) ? rng.uniform(20.0, 100.0) : 0.0;
    config.failures.push_back(failure);
  }

  return sim::Scenario(std::move(config), std::move(catalog), std::move(network));
}

}  // namespace dosc::check
