#include "sim/corpus.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <queue>
#include <stdexcept>
#include <utility>

#include "traffic/spec.hpp"
#include "traffic/trace.hpp"

namespace dosc::sim {

namespace {

/// base delay with one seeded relative jitter draw.
double jittered(double base, double jitter, util::Rng& rng) {
  return base * (1.0 + rng.uniform(-jitter, jitter));
}

}  // namespace

net::Network make_fat_tree(const FatTreeParams& params, util::Rng& rng, FatTreeTiers* tiers) {
  const std::size_t k = params.k;
  if (k < 2 || k % 2 != 0) throw std::invalid_argument("make_fat_tree: k must be even >= 2");
  const std::size_t half = k / 2;
  FatTreeTiers local;
  FatTreeTiers& t = tiers != nullptr ? *tiers : local;
  t = FatTreeTiers{};

  net::NetworkBuilder builder("ft-k" + std::to_string(k));
  // Cores first, then per pod aggregation + edge switches, hosts last, so
  // tier membership is recoverable from the id ranges alone.
  for (std::size_t c = 0; c < half * half; ++c) {
    t.cores.push_back(builder.add_node("core" + std::to_string(c)));
  }
  for (std::size_t p = 0; p < k; ++p) {
    for (std::size_t j = 0; j < half; ++j) {
      t.aggs.push_back(builder.add_node("agg" + std::to_string(p) + "_" + std::to_string(j)));
    }
    for (std::size_t j = 0; j < half; ++j) {
      t.edges.push_back(builder.add_node("edge" + std::to_string(p) + "_" + std::to_string(j)));
    }
  }
  for (std::size_t p = 0; p < k; ++p) {
    for (std::size_t j = 0; j < half; ++j) {
      for (std::size_t h = 0; h < half; ++h) {
        t.hosts.push_back(builder.add_node("host" + std::to_string(p) + "_" +
                                           std::to_string(j) + "_" + std::to_string(h)));
      }
    }
  }

  // Aggregation switch j of every pod uplinks to core group j (cores
  // [j*half, (j+1)*half)); edge and aggregation switches form a complete
  // bipartite graph within each pod; every edge switch serves half hosts.
  for (std::size_t p = 0; p < k; ++p) {
    for (std::size_t j = 0; j < half; ++j) {
      const net::NodeId agg = t.aggs[p * half + j];
      for (std::size_t c = 0; c < half; ++c) {
        builder.add_link(agg, t.cores[j * half + c],
                         jittered(params.agg_core_delay, params.delay_jitter, rng), 0.0);
      }
      for (std::size_t e = 0; e < half; ++e) {
        builder.add_link(agg, t.edges[p * half + e],
                         jittered(params.edge_agg_delay, params.delay_jitter, rng), 0.0);
      }
    }
    for (std::size_t j = 0; j < half; ++j) {
      const net::NodeId edge = t.edges[p * half + j];
      for (std::size_t h = 0; h < half; ++h) {
        builder.add_link(edge, t.hosts[(p * half + j) * half + h],
                         jittered(params.host_edge_delay, params.delay_jitter, rng), 0.0);
      }
    }
  }
  return std::move(builder).build();
}

net::Network make_wan(const WanParams& params, util::Rng& rng) {
  const std::size_t n = params.num_nodes;
  if (n < 2) throw std::invalid_argument("make_wan: need at least 2 nodes");
  net::NetworkBuilder builder("wan-" + std::to_string(n));
  std::vector<double> xs(n), ys(n);
  for (std::size_t v = 0; v < n; ++v) {
    xs[v] = rng.uniform(0.0, params.extent);
    ys[v] = rng.uniform(0.0, params.extent);
    builder.add_node("city" + std::to_string(v), 0.0, xs[v], ys[v]);
  }
  const auto dist = [&](std::size_t a, std::size_t b) {
    const double dx = xs[a] - xs[b];
    const double dy = ys[a] - ys[b];
    return std::sqrt(dx * dx + dy * dy);
  };
  const auto link_delay = [&](std::size_t a, std::size_t b) {
    return params.min_delay + params.delay_per_unit * dist(a, b);
  };
  // Nearest-neighbour attachment keeps the graph connected with short,
  // geometry-respecting backbone links (ties break to the lower id).
  std::vector<std::size_t> attached_to(n, 0);
  for (std::size_t v = 1; v < n; ++v) {
    std::size_t best = 0;
    double best_d = dist(v, 0);
    for (std::size_t u = 1; u < v; ++u) {
      const double d = dist(v, u);
      if (d < best_d) {
        best_d = d;
        best = u;
      }
    }
    attached_to[v] = best;
    builder.add_link(static_cast<net::NodeId>(best), static_cast<net::NodeId>(v),
                     link_delay(best, v), 0.0);
  }
  // Waxman-style geometric extras: short links are exponentially more
  // likely than long ones, so the mesh stays city-local. Each pair a < b is
  // visited once, so the only link it can already have is b's attachment
  // (an O(1) test; NetworkBuilder::has_link scans every link, which made
  // this pass quadratic in the link count on the 500-node WANs).
  const double scale = params.waxman_beta * std::sqrt(2.0) * params.extent;
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = a + 1; b < n; ++b) {
      if (attached_to[b] == a) continue;
      const double p = params.waxman_alpha * std::exp(-dist(a, b) / scale);
      if (rng.bernoulli(std::min(p, 1.0))) {
        builder.add_link(static_cast<net::NodeId>(a), static_cast<net::NodeId>(b),
                         link_delay(a, b), 0.0);
      }
    }
  }
  return std::move(builder).build();
}

std::vector<FailureEvent> make_failure_storm(const net::Network& network,
                                             const FailureStormParams& params,
                                             net::NodeId egress, double end_time,
                                             util::Rng& rng) {
  const std::size_t n = network.num_nodes();
  if (n == 0) return {};
  net::NodeId epicenter =
      static_cast<net::NodeId>(rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
  if (epicenter == egress) epicenter = (epicenter + 1) % static_cast<net::NodeId>(n);

  // BFS cluster around the epicenter: the storm's casualties are the
  // nearest nodes (never the egress) and the links internal to that
  // neighbourhood — co-located by construction.
  std::vector<bool> visited(n, false);
  std::vector<net::NodeId> cluster;
  std::queue<net::NodeId> frontier;
  frontier.push(epicenter);
  visited[epicenter] = true;
  const std::size_t cluster_target =
      std::min(n, 2 * (params.num_node_failures + params.num_link_failures));
  while (!frontier.empty() && cluster.size() < cluster_target) {
    const net::NodeId v = frontier.front();
    frontier.pop();
    cluster.push_back(v);
    for (const net::Neighbor& nb : network.neighbors(v)) {
      if (!visited[nb.node]) {
        visited[nb.node] = true;
        frontier.push(nb.node);
      }
    }
  }

  std::vector<net::NodeId> node_casualties;
  for (const net::NodeId v : cluster) {
    if (v == egress) continue;
    node_casualties.push_back(v);
    if (node_casualties.size() >= params.num_node_failures) break;
  }
  std::vector<net::LinkId> link_casualties;
  std::vector<bool> in_cluster(n, false);
  for (const net::NodeId v : cluster) in_cluster[v] = true;
  for (net::LinkId l = 0; l < network.num_links() &&
                          link_casualties.size() < params.num_link_failures;
       ++l) {
    const net::Link& link = network.link(l);
    if (in_cluster[link.a] && in_cluster[link.b]) link_casualties.push_back(l);
  }

  // Staggered onsets inside [start_frac, 0.85] * end_time, jittered
  // per-casualty outage lengths: the storm rolls through the cluster.
  const double onset = params.start_frac * end_time;
  const std::size_t count = node_casualties.size() + link_casualties.size();
  const double span = std::max(0.0, 0.85 * end_time - onset);
  const double stagger =
      std::min(params.stagger_ms, count > 1 ? span / static_cast<double>(count - 1) : span);
  std::vector<FailureEvent> failures;
  std::size_t idx = 0;
  const auto push = [&](FailureEvent::Kind kind, std::uint32_t id) {
    FailureEvent f;
    f.kind = kind;
    f.id = id;
    f.start = onset + static_cast<double>(idx) * stagger * rng.uniform(0.5, 1.5);
    f.duration = params.outage_ms * rng.uniform(0.5, 1.5);
    failures.push_back(f);
    ++idx;
  };
  for (const net::NodeId v : node_casualties) push(FailureEvent::Kind::kNode, v);
  for (const net::LinkId l : link_casualties) push(FailureEvent::Kind::kLink, l);
  return failures;
}

ServiceCatalog make_long_chain_catalog(std::size_t length, util::Rng& rng) {
  if (length == 0) throw std::invalid_argument("make_long_chain_catalog: empty chain");
  ServiceCatalog catalog;
  Service service;
  service.name = "chain" + std::to_string(length);
  for (std::size_t i = 0; i < length; ++i) {
    Component component;
    component.name = "c" + std::to_string(i);
    component.processing_delay = rng.uniform(2.0, 6.0);
    component.resource_per_rate = rng.uniform(0.5, 1.2);
    component.resource_fixed = 0.0;
    component.startup_delay = rng.bernoulli(0.3) ? rng.uniform(0.5, 3.0) : 0.0;
    component.idle_timeout = rng.uniform(20.0, 80.0);
    service.chain.push_back(catalog.add_component(std::move(component)));
  }
  catalog.add_service(std::move(service));
  return catalog;
}

ServiceCatalog make_multi_tenant_catalog(std::size_t num_services, std::size_t num_components,
                                         util::Rng& rng) {
  if (num_services == 0 || num_components == 0) {
    throw std::invalid_argument("make_multi_tenant_catalog: empty catalog");
  }
  ServiceCatalog catalog;
  for (std::size_t c = 0; c < num_components; ++c) {
    Component component;
    component.name = "shared" + std::to_string(c);
    component.processing_delay = rng.uniform(2.0, 7.0);
    component.resource_per_rate = rng.uniform(0.4, 1.3);
    component.resource_fixed = rng.bernoulli(0.2) ? rng.uniform(0.0, 0.2) : 0.0;
    component.startup_delay = rng.bernoulli(0.4) ? rng.uniform(0.5, 4.0) : 0.0;
    component.idle_timeout = rng.uniform(20.0, 80.0);
    catalog.add_component(std::move(component));
  }
  for (std::size_t s = 0; s < num_services; ++s) {
    Service service;
    service.name = "tenant" + std::to_string(s);
    const std::size_t length = static_cast<std::size_t>(rng.uniform_int(2, 5));
    for (std::size_t i = 0; i < length; ++i) {
      service.chain.push_back(static_cast<ComponentId>(
          rng.uniform_int(0, static_cast<std::int64_t>(num_components) - 1)));
    }
    catalog.add_service(std::move(service));
  }
  return catalog;
}

namespace {

/// Parameters shared by every library entry builder.
struct BuildContext {
  util::Rng rng;
  double end_time = 8000.0;
};

/// Distinct random ingress nodes, never the egress.
std::vector<net::NodeId> pick_ingress(std::size_t count, std::size_t num_nodes,
                                      net::NodeId egress, util::Rng& rng) {
  std::vector<net::NodeId> candidates;
  for (net::NodeId v = 0; v < num_nodes; ++v) {
    if (v != egress) candidates.push_back(v);
  }
  count = std::min(count, candidates.size());
  std::vector<net::NodeId> ingress;
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t pick = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(candidates.size()) - 1));
    ingress.push_back(candidates[pick]);
    candidates.erase(candidates.begin() + static_cast<std::ptrdiff_t>(pick));
  }
  return ingress;
}

traffic::TrafficSpec make_load(const std::string& load, double mean, double end_time,
                               std::uint64_t seed) {
  if (load == "diurnal") return traffic::TrafficSpec::diurnal_trace(seed, end_time, mean);
  if (load == "flash") {
    traffic::FlashCrowdConfig config;
    config.horizon = end_time;
    config.base_interarrival = mean;
    config.num_crowds = 3;
    config.crowd_duration = end_time / 12.0;
    config.crowd_intensity = 6.0;
    config.seed = seed;
    return traffic::TrafficSpec::flash_crowd(config);
  }
  // "steady" and "storm" both run stationary Poisson arrivals; a storm
  // stresses the substrate, not the arrival process.
  return traffic::TrafficSpec::poisson(mean);
}

Scenario assemble(const CorpusEntryInfo& info, net::Network network, ServiceCatalog catalog,
                  std::vector<net::NodeId> ingress, net::NodeId egress,
                  double mean_interarrival, double deadline, BuildContext& ctx) {
  ScenarioConfig config;
  config.name = info.name;
  config.topology = network.name();
  config.node_cap_lo = 1.0;
  config.node_cap_hi = 3.0;
  config.link_cap_lo = 4.0;
  config.link_cap_hi = 10.0;
  config.ingress = std::move(ingress);
  config.egress = egress;
  config.traffic = make_load(info.load, mean_interarrival, ctx.end_time, info.seed);
  config.flows.clear();
  const std::size_t num_services = catalog.num_services();
  for (std::size_t s = 0; s < num_services; ++s) {
    FlowTemplate tmpl;
    tmpl.service = static_cast<ServiceId>(s);
    tmpl.rate = 1.0;
    tmpl.duration = 1.0;
    tmpl.deadline = deadline;
    tmpl.weight = 1.0;
    config.flows.push_back(tmpl);
  }
  config.end_time = ctx.end_time;
  if (info.load == "storm") {
    FailureStormParams storm;
    storm.num_node_failures = std::max<std::size_t>(4, network.num_nodes() / 40);
    storm.num_link_failures = std::max<std::size_t>(3, network.num_links() / 60);
    config.failures = make_failure_storm(network, storm, egress, ctx.end_time, ctx.rng);
  }
  return Scenario(std::move(config), std::move(catalog), std::move(network));
}

Scenario build_fat_tree_entry(const CorpusEntryInfo& info, std::size_t k,
                              std::size_t chain_length, BuildContext& ctx) {
  FatTreeParams params;
  params.k = k;
  FatTreeTiers tiers;
  net::Network network = make_fat_tree(params, ctx.rng, &tiers);
  ServiceCatalog catalog = chain_length > 0 ? make_long_chain_catalog(chain_length, ctx.rng)
                                           : make_video_streaming_catalog();
  // One ingress host per pod; the egress is the last host of the last pod
  // (cross-pod traffic by construction, so flows traverse the full Clos).
  const std::size_t hosts_per_pod = tiers.hosts.size() / k;
  std::vector<net::NodeId> ingress;
  for (std::size_t p = 0; p + 1 < k; ++p) ingress.push_back(tiers.hosts[p * hosts_per_pod]);
  const net::NodeId egress = tiers.hosts.back();
  const double deadline = chain_length > 0 ? 250.0 : 100.0;
  return assemble(info, std::move(network), std::move(catalog), std::move(ingress), egress,
                  /*mean_interarrival=*/10.0, deadline, ctx);
}

Scenario build_wan_entry(const CorpusEntryInfo& info, std::size_t num_nodes,
                         std::size_t chain_length, std::size_t tenants, BuildContext& ctx) {
  WanParams params;
  params.num_nodes = num_nodes;
  net::Network network = make_wan(params, ctx.rng);
  ServiceCatalog catalog;
  if (tenants > 0) {
    catalog = make_multi_tenant_catalog(tenants, /*num_components=*/6, ctx.rng);
  } else if (chain_length > 0) {
    catalog = make_long_chain_catalog(chain_length, ctx.rng);
  } else {
    catalog = make_video_streaming_catalog();
  }
  const net::NodeId egress = static_cast<net::NodeId>(
      ctx.rng.uniform_int(0, static_cast<std::int64_t>(num_nodes) - 1));
  const std::size_t num_ingress = std::max<std::size_t>(4, num_nodes / 25);
  std::vector<net::NodeId> ingress = pick_ingress(num_ingress, num_nodes, egress, ctx.rng);
  // Bigger ingress sets keep per-node arrival rates moderate.
  const double mean = 8.0 + static_cast<double>(num_ingress);
  const double deadline = chain_length > 0 ? 250.0 : 150.0;
  return assemble(info, std::move(network), std::move(catalog), std::move(ingress), egress,
                  mean, deadline, ctx);
}

struct LibraryEntry {
  CorpusEntryInfo info;
  Scenario (*build)(const CorpusEntryInfo&, BuildContext&);
};

const std::vector<LibraryEntry>& library_entries() {
  static const std::vector<LibraryEntry> entries = {
      {{"ft_k4_steady", 101, "fat_tree", "steady"},
       [](const CorpusEntryInfo& i, BuildContext& c) { return build_fat_tree_entry(i, 4, 0, c); }},
      {{"ft_k4_diurnal", 102, "fat_tree", "diurnal"},
       [](const CorpusEntryInfo& i, BuildContext& c) { return build_fat_tree_entry(i, 4, 0, c); }},
      {{"ft_k4_chain8", 103, "fat_tree", "steady"},
       [](const CorpusEntryInfo& i, BuildContext& c) { return build_fat_tree_entry(i, 4, 8, c); }},
      {{"ft_k6_flash", 104, "fat_tree", "flash"},
       [](const CorpusEntryInfo& i, BuildContext& c) { return build_fat_tree_entry(i, 6, 0, c); }},
      {{"ft_k8_steady", 105, "fat_tree", "steady"},
       [](const CorpusEntryInfo& i, BuildContext& c) { return build_fat_tree_entry(i, 8, 0, c); }},
      {{"ft_k8_storm", 106, "fat_tree", "storm"},
       [](const CorpusEntryInfo& i, BuildContext& c) { return build_fat_tree_entry(i, 8, 0, c); }},
      {{"wan_100_steady", 201, "wan", "steady"},
       [](const CorpusEntryInfo& i, BuildContext& c) { return build_wan_entry(i, 100, 0, 0, c); }},
      {{"wan_100_chain10", 202, "wan", "steady"},
       [](const CorpusEntryInfo& i, BuildContext& c) { return build_wan_entry(i, 100, 10, 0, c); }},
      {{"wan_250_diurnal", 203, "wan", "diurnal"},
       [](const CorpusEntryInfo& i, BuildContext& c) { return build_wan_entry(i, 250, 0, 0, c); }},
      {{"wan_250_tenants", 204, "wan", "steady"},
       [](const CorpusEntryInfo& i, BuildContext& c) { return build_wan_entry(i, 250, 0, 4, c); }},
      {{"wan_500_flash", 205, "wan", "flash"},
       [](const CorpusEntryInfo& i, BuildContext& c) { return build_wan_entry(i, 500, 0, 0, c); }},
      {{"wan_500_storm", 206, "wan", "storm"},
       [](const CorpusEntryInfo& i, BuildContext& c) { return build_wan_entry(i, 500, 0, 0, c); }},
  };
  return entries;
}

}  // namespace

const std::vector<CorpusEntryInfo>& CorpusGenerator::library() {
  static const std::vector<CorpusEntryInfo> infos = [] {
    std::vector<CorpusEntryInfo> out;
    for (const LibraryEntry& e : library_entries()) out.push_back(e.info);
    return out;
  }();
  return infos;
}

Scenario CorpusGenerator::make(const std::string& name) {
  for (const LibraryEntry& entry : library_entries()) {
    if (entry.info.name != name) continue;
    // Every draw of the entry — topology jitter, catalog parameters,
    // ingress placement, storm schedule — comes from this one stream, so
    // the emitted scenario JSON is byte-identical across regenerations.
    BuildContext ctx{util::Rng(util::mix64(entry.info.seed * 0xC02905EEDULL))};
    return entry.build(entry.info, ctx);
  }
  throw std::invalid_argument("CorpusGenerator: unknown corpus entry '" + name + "'");
}

}  // namespace dosc::sim
