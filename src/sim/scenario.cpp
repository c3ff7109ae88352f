#include "sim/scenario.hpp"

#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <string_view>

#include "net/topology_io.hpp"
#include "net/topology_zoo.hpp"
#include "sim/corpus.hpp"

namespace dosc::sim {

util::Json ScenarioConfig::to_json() const {
  util::Json::Object o;
  o["name"] = util::Json(name);
  o["topology"] = util::Json(topology);
  o["node_cap_lo"] = util::Json(node_cap_lo);
  o["node_cap_hi"] = util::Json(node_cap_hi);
  o["link_cap_lo"] = util::Json(link_cap_lo);
  o["link_cap_hi"] = util::Json(link_cap_hi);
  o["randomize_capacities"] = util::Json(randomize_capacities);
  util::Json::Array in;
  for (const net::NodeId v : ingress) in.emplace_back(static_cast<double>(v));
  o["ingress"] = util::Json(std::move(in));
  o["egress"] = util::Json(static_cast<double>(egress));
  o["traffic"] = traffic.to_json();
  util::Json::Array fs;
  for (const FlowTemplate& f : flows) {
    util::Json::Object fo;
    fo["service"] = util::Json(static_cast<double>(f.service));
    fo["rate"] = util::Json(f.rate);
    fo["duration"] = util::Json(f.duration);
    fo["deadline"] = util::Json(f.deadline);
    fo["weight"] = util::Json(f.weight);
    fs.emplace_back(std::move(fo));
  }
  o["flows"] = util::Json(std::move(fs));
  o["end_time"] = util::Json(end_time);
  o["park_step"] = util::Json(park_step);
  if (!failures.empty()) {
    util::Json::Array fails;
    for (const FailureEvent& f : failures) {
      util::Json::Object fo;
      fo["kind"] = util::Json(std::string(f.kind == FailureEvent::Kind::kNode ? "node" : "link"));
      fo["id"] = util::Json(static_cast<double>(f.id));
      fo["start"] = util::Json(f.start);
      fo["duration"] = util::Json(f.duration);
      fails.emplace_back(std::move(fo));
    }
    o["failures"] = util::Json(std::move(fails));
  }
  return util::Json(std::move(o));
}

ScenarioConfig ScenarioConfig::from_json(const util::Json& json) {
  ScenarioConfig c;
  c.name = json.string_or("name", c.name);
  c.topology = json.string_or("topology", c.topology);
  c.node_cap_lo = json.number_or("node_cap_lo", c.node_cap_lo);
  c.node_cap_hi = json.number_or("node_cap_hi", c.node_cap_hi);
  c.link_cap_lo = json.number_or("link_cap_lo", c.link_cap_lo);
  c.link_cap_hi = json.number_or("link_cap_hi", c.link_cap_hi);
  c.randomize_capacities = json.bool_or("randomize_capacities", c.randomize_capacities);
  constexpr std::uint64_t kMaxId = std::numeric_limits<std::uint32_t>::max();
  if (json.contains("ingress")) {
    c.ingress.clear();
    const util::Json::Array& ingress = json.at("ingress").as_array();
    for (std::size_t i = 0; i < ingress.size(); ++i) {
      c.ingress.push_back(static_cast<net::NodeId>(
          ingress[i].as_uint("ingress[" + std::to_string(i) + "]", 0, kMaxId)));
    }
  }
  if (json.contains("egress")) {
    c.egress = static_cast<net::NodeId>(json.at("egress").as_uint("egress", 0, kMaxId));
  }
  if (json.contains("traffic")) c.traffic = traffic::TrafficSpec::from_json(json.at("traffic"));
  if (json.contains("flows")) {
    c.flows.clear();
    const util::Json::Array& flows = json.at("flows").as_array();
    for (std::size_t i = 0; i < flows.size(); ++i) {
      const util::Json& f = flows[i];
      FlowTemplate t;
      if (f.contains("service")) {
        t.service = static_cast<ServiceId>(
            f.at("service").as_uint("flows[" + std::to_string(i) + "].service", 0, kMaxId));
      }
      t.rate = f.number_or("rate", t.rate);
      t.duration = f.number_or("duration", t.duration);
      t.deadline = f.number_or("deadline", t.deadline);
      t.weight = f.number_or("weight", t.weight);
      c.flows.push_back(t);
    }
  }
  c.end_time = json.number_or("end_time", c.end_time);
  c.park_step = json.number_or("park_step", c.park_step);
  if (json.contains("failures")) {
    const util::Json::Array& failures = json.at("failures").as_array();
    for (std::size_t i = 0; i < failures.size(); ++i) {
      const util::Json& f = failures[i];
      FailureEvent event;
      event.kind = (f.string_or("kind", "node") == "link") ? FailureEvent::Kind::kLink
                                                           : FailureEvent::Kind::kNode;
      if (f.contains("id")) {
        event.id = static_cast<std::uint32_t>(
            f.at("id").as_uint("failures[" + std::to_string(i) + "].id", 0, kMaxId));
      }
      event.start = f.number_or("start", 0.0);
      event.duration = f.number_or("duration", 0.0);
      c.failures.push_back(event);
    }
  }
  return c;
}

Scenario::Scenario(ScenarioConfig config, ServiceCatalog catalog)
    : config_(std::move(config)),
      catalog_(std::move(catalog)),
      network_(std::make_unique<net::Network>(net::by_name(config_.topology))),
      shortest_paths_(std::make_unique<net::ShortestPaths>(*network_)) {
  validate();
}

Scenario::Scenario(ScenarioConfig config, ServiceCatalog catalog, net::Network network)
    : config_(std::move(config)),
      catalog_(std::move(catalog)),
      network_(std::make_unique<net::Network>(std::move(network))),
      shortest_paths_(std::make_unique<net::ShortestPaths>(*network_)) {
  validate();
}

util::Json Scenario::to_json() const {
  util::Json doc = config_.to_json();
  util::Json::Object& o = doc.as_object();
  o["network"] = net::to_json(*network_);
  o["catalog"] = catalog_.to_json();
  return doc;
}

Scenario Scenario::from_json(const util::Json& json) {
  ScenarioConfig config = ScenarioConfig::from_json(json);
  ServiceCatalog catalog = json.contains("catalog")
                               ? ServiceCatalog::from_json(json.at("catalog"))
                               : make_video_streaming_catalog();
  if (json.contains("network")) {
    return Scenario(std::move(config), std::move(catalog),
                    net::network_from_json(json.at("network")));
  }
  return Scenario(std::move(config), std::move(catalog));
}

void Scenario::save(const std::string& path) const { to_json().save_file(path); }

Scenario load_scenario(const std::string& path) {
  constexpr std::string_view kCorpusPrefix = "corpus:";
  if (path.starts_with(kCorpusPrefix)) {
    return CorpusGenerator::make(path.substr(kCorpusPrefix.size()));
  }
  return Scenario::from_json(util::Json::load_file(path));
}

Scenario Scenario::with_end_time(double end_time) const {
  ScenarioConfig config = config_;
  config.end_time = end_time;
  return Scenario(std::move(config), catalog_, net::Network(*network_));
}

void Scenario::validate() const {
  if (config_.ingress.empty()) throw std::invalid_argument("Scenario: no ingress nodes");
  for (const net::NodeId v : config_.ingress) {
    if (v >= network_->num_nodes()) throw std::invalid_argument("Scenario: ingress out of range");
  }
  if (config_.egress >= network_->num_nodes()) {
    throw std::invalid_argument("Scenario: egress out of range");
  }
  if (config_.flows.empty()) throw std::invalid_argument("Scenario: no flow templates");
  for (const FlowTemplate& f : config_.flows) {
    if (f.service >= catalog_.num_services()) {
      throw std::invalid_argument("Scenario: flow template references unknown service");
    }
    if (f.rate <= 0.0 || f.duration < 0.0 || f.deadline <= 0.0 || f.weight <= 0.0) {
      throw std::invalid_argument("Scenario: invalid flow template parameters");
    }
  }
  // NaN fails `x > 0`; an infinite horizon would never stop traffic.
  const auto positive_finite = [](double x) { return x > 0.0 && std::isfinite(x); };
  if (!positive_finite(config_.end_time) || !positive_finite(config_.park_step)) {
    throw std::invalid_argument("Scenario: invalid end_time/park_step");
  }
  if (config_.node_cap_hi < config_.node_cap_lo || config_.link_cap_hi < config_.link_cap_lo) {
    throw std::invalid_argument("Scenario: invalid capacity ranges");
  }
  for (const FailureEvent& f : config_.failures) {
    const std::size_t limit = (f.kind == FailureEvent::Kind::kNode) ? network_->num_nodes()
                                                                    : network_->num_links();
    if (f.id >= limit) throw std::invalid_argument("Scenario: failure id out of range");
    if (f.start < 0.0) throw std::invalid_argument("Scenario: negative failure start");
  }
}

Scenario make_base_scenario(std::size_t num_ingress, traffic::TrafficSpec traffic,
                            double deadline, const std::string& topology, double end_time) {
  ScenarioConfig config;
  config.name = "base";
  config.topology = topology;
  config.traffic = std::move(traffic);
  config.end_time = end_time;
  config.ingress.clear();
  for (std::size_t i = 0; i < num_ingress; ++i) {
    config.ingress.push_back(static_cast<net::NodeId>(i));
  }
  config.egress = 7;
  config.flows = {FlowTemplate{.service = 0,
                               .rate = 1.0,
                               .duration = 1.0,
                               .deadline = deadline,
                               .weight = 1.0}};
  return Scenario(std::move(config), make_video_streaming_catalog(), net::by_name(topology));
}

}  // namespace dosc::sim
