#include "sim/service.hpp"

#include <algorithm>
#include <limits>
#include <string>

namespace dosc::sim {

ComponentId ServiceCatalog::add_component(Component component) {
  if (component.processing_delay < 0.0 || component.startup_delay < 0.0 ||
      component.idle_timeout < 0.0) {
    throw std::invalid_argument("Component: negative delay");
  }
  components_.push_back(std::move(component));
  return static_cast<ComponentId>(components_.size() - 1);
}

ServiceId ServiceCatalog::add_service(Service service) {
  for (const ComponentId c : service.chain) {
    if (c >= components_.size()) {
      throw std::invalid_argument("Service: unknown component in chain");
    }
  }
  services_.push_back(std::move(service));
  return static_cast<ServiceId>(services_.size() - 1);
}

std::size_t ServiceCatalog::max_chain_length() const noexcept {
  std::size_t longest = 0;
  for (const Service& s : services_) longest = std::max(longest, s.length());
  return longest;
}

util::Json ServiceCatalog::to_json() const {
  util::Json::Array components;
  for (const Component& c : components_) {
    util::Json::Object o;
    o["name"] = util::Json(c.name);
    o["processing_delay"] = util::Json(c.processing_delay);
    o["resource_per_rate"] = util::Json(c.resource_per_rate);
    o["resource_fixed"] = util::Json(c.resource_fixed);
    o["startup_delay"] = util::Json(c.startup_delay);
    o["idle_timeout"] = util::Json(c.idle_timeout);
    components.emplace_back(std::move(o));
  }
  util::Json::Array services;
  for (const Service& s : services_) {
    util::Json::Object o;
    o["name"] = util::Json(s.name);
    util::Json::Array chain;
    for (const ComponentId c : s.chain) chain.emplace_back(static_cast<double>(c));
    o["chain"] = util::Json(std::move(chain));
    services.emplace_back(std::move(o));
  }
  util::Json::Object root;
  root["components"] = util::Json(std::move(components));
  root["services"] = util::Json(std::move(services));
  return util::Json(std::move(root));
}

ServiceCatalog ServiceCatalog::from_json(const util::Json& json) {
  ServiceCatalog catalog;
  for (const util::Json& c : json.at("components").as_array()) {
    Component component;
    component.name = c.string_or("name", "");
    component.processing_delay = c.number_or("processing_delay", component.processing_delay);
    component.resource_per_rate = c.number_or("resource_per_rate", component.resource_per_rate);
    component.resource_fixed = c.number_or("resource_fixed", component.resource_fixed);
    component.startup_delay = c.number_or("startup_delay", component.startup_delay);
    component.idle_timeout = c.number_or("idle_timeout", component.idle_timeout);
    catalog.add_component(std::move(component));
  }
  const util::Json::Array& services = json.at("services").as_array();
  for (std::size_t si = 0; si < services.size(); ++si) {
    const util::Json& s = services[si];
    Service service;
    service.name = s.string_or("name", "");
    const util::Json::Array& chain = s.at("chain").as_array();
    for (std::size_t ci = 0; ci < chain.size(); ++ci) {
      service.chain.push_back(static_cast<ComponentId>(chain[ci].as_uint(
          "services[" + std::to_string(si) + "].chain[" + std::to_string(ci) + "]", 0,
          std::numeric_limits<ComponentId>::max())));
    }
    catalog.add_service(std::move(service));
  }
  return catalog;
}

ServiceCatalog make_video_streaming_catalog(double processing_delay, double startup_delay,
                                            double idle_timeout) {
  ServiceCatalog catalog;
  Service video{"video_streaming", {}};
  for (const char* name : {"c_FW", "c_IDS", "c_video"}) {
    video.chain.push_back(catalog.add_component({.name = name,
                                                 .processing_delay = processing_delay,
                                                 .resource_per_rate = 1.0,
                                                 .resource_fixed = 0.0,
                                                 .startup_delay = startup_delay,
                                                 .idle_timeout = idle_timeout}));
  }
  catalog.add_service(std::move(video));
  return catalog;
}

}  // namespace dosc::sim
