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

net::Network fuzz_network(util::Rng& rng, const FuzzBounds& b, std::uint64_t seed) {
  const std::size_t n = static_cast<std::size_t>(
      rng.uniform_int(static_cast<std::int64_t>(b.min_nodes),
                      static_cast<std::int64_t>(b.max_nodes)));
  net::NetworkBuilder builder("fuzz-" + std::to_string(seed));
  for (std::size_t v = 0; v < n; ++v) {
    builder.add_node("v" + std::to_string(v + 1));
  }
  // Random spanning tree keeps the graph connected; extra edges add the
  // routing choice the coordinators are supposed to exercise.
  for (net::NodeId v = 1; v < n; ++v) {
    const net::NodeId parent =
        static_cast<net::NodeId>(rng.uniform_int(0, static_cast<std::int64_t>(v) - 1));
    builder.add_link(parent, v, rng.uniform(b.link_delay_lo, b.link_delay_hi), 0.0);
  }
  if (n <= FuzzBounds::kPairwiseNodeLimit) {
    for (net::NodeId a = 0; a < n; ++a) {
      for (net::NodeId c = a + 1; c < n; ++c) {
        if (!builder.has_link(a, c) && rng.bernoulli(b.extra_edge_prob)) {
          builder.add_link(a, c, rng.uniform(b.link_delay_lo, b.link_delay_hi), 0.0);
        }
      }
    }
  } else {
    // Beyond the pairwise limit the per-pair Bernoulli sweep is O(n^2);
    // draw the expected number of extra edges directly instead (sparse
    // target: ~extra_edge_prob * n extras, matching the spanning tree's
    // O(n) edge count rather than a dense n^2/2 blow-up).
    const std::size_t extras =
        static_cast<std::size_t>(b.extra_edge_prob * static_cast<double>(n));
    std::size_t added = 0;
    for (std::size_t attempt = 0; attempt < 4 * extras && added < extras; ++attempt) {
      const auto a = static_cast<net::NodeId>(
          rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
      const auto c = static_cast<net::NodeId>(
          rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
      if (a == c || builder.has_link(a, c)) continue;
      builder.add_link(std::min(a, c), std::max(a, c),
                       rng.uniform(b.link_delay_lo, b.link_delay_hi), 0.0);
      ++added;
    }
  }
  return std::move(builder).build();
}

sim::ServiceCatalog fuzz_catalog(util::Rng& rng, const FuzzBounds& b) {
  sim::ServiceCatalog catalog;
  const std::size_t num_components = static_cast<std::size_t>(
      rng.uniform_int(static_cast<std::int64_t>(b.min_components),
                      static_cast<std::int64_t>(b.max_components)));
  for (std::size_t c = 0; c < num_components; ++c) {
    sim::Component component;
    component.name = "c" + std::to_string(c);
    component.processing_delay = rng.uniform(b.proc_delay_lo, b.proc_delay_hi);
    component.resource_per_rate = rng.uniform(0.5, 1.5);
    component.resource_fixed = rng.bernoulli(0.25) ? rng.uniform(0.0, 0.3) : 0.0;
    component.startup_delay = rng.bernoulli(b.startup_prob)
                                  ? rng.uniform(0.5, b.startup_delay_hi)
                                  : 0.0;
    component.idle_timeout = rng.uniform(b.idle_timeout_lo, b.idle_timeout_hi);
    catalog.add_component(std::move(component));
  }
  const std::size_t num_services =
      static_cast<std::size_t>(rng.uniform_int(1, static_cast<std::int64_t>(b.max_services)));
  for (std::size_t s = 0; s < num_services; ++s) {
    sim::Service service;
    service.name = "s" + std::to_string(s);
    const std::size_t length = static_cast<std::size_t>(
        rng.uniform_int(1, static_cast<std::int64_t>(b.max_chain_length)));
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
  const FuzzBounds& b = bounds_;

  net::Network network = fuzz_network(rng, b, seed);
  sim::ServiceCatalog catalog = fuzz_catalog(rng, b);
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
      1, static_cast<std::int64_t>(std::min(b.max_ingress, candidates.size()))));
  config.ingress.clear();
  for (std::size_t i = 0; i < num_ingress; ++i) {
    const std::size_t pick = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(candidates.size()) - 1));
    config.ingress.push_back(candidates[pick]);
    candidates.erase(candidates.begin() + static_cast<std::ptrdiff_t>(pick));
  }

  const double mean = rng.uniform(b.mean_interarrival_lo, b.mean_interarrival_hi);
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
    tmpl.deadline = rng.uniform(b.deadline_lo, b.deadline_hi);
    tmpl.weight = rng.uniform(0.5, 2.0);
    config.flows.push_back(tmpl);
  }

  config.node_cap_lo = 0.0;
  config.node_cap_hi = rng.uniform(b.node_cap_hi_lo, b.node_cap_hi_hi);
  config.link_cap_lo = 1.0;
  config.link_cap_hi = rng.uniform(b.link_cap_hi_lo, b.link_cap_hi_hi);
  config.end_time = rng.uniform(b.end_time_lo, b.end_time_hi);

  if (rng.bernoulli(b.failure_prob)) {
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
