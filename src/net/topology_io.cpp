#include "net/topology_io.hpp"

#include <limits>
#include <string>

namespace dosc::net {

util::Json to_json(const Network& network) {
  util::Json::Array nodes;
  for (const Node& n : network.nodes()) {
    util::Json::Object o;
    o["name"] = util::Json(n.name);
    o["capacity"] = util::Json(n.capacity);
    o["x"] = util::Json(n.x);
    o["y"] = util::Json(n.y);
    nodes.emplace_back(std::move(o));
  }
  util::Json::Array links;
  for (const Link& l : network.links()) {
    util::Json::Object o;
    o["a"] = util::Json(static_cast<double>(l.a));
    o["b"] = util::Json(static_cast<double>(l.b));
    o["delay"] = util::Json(l.delay);
    o["capacity"] = util::Json(l.capacity);
    links.emplace_back(std::move(o));
  }
  util::Json::Object root;
  root["name"] = util::Json(network.name());
  root["nodes"] = util::Json(std::move(nodes));
  root["links"] = util::Json(std::move(links));
  return util::Json(std::move(root));
}

Network network_from_json(const util::Json& json) {
  std::vector<Node> nodes;
  for (const util::Json& n : json.at("nodes").as_array()) {
    nodes.push_back({n.string_or("name", ""), n.number_or("capacity", 0.0),
                     n.number_or("x", 0.0), n.number_or("y", 0.0)});
  }
  std::vector<Link> links;
  const util::Json::Array& link_array = json.at("links").as_array();
  for (std::size_t i = 0; i < link_array.size(); ++i) {
    const util::Json& l = link_array[i];
    const auto endpoint = [&](const char* key) {
      return static_cast<NodeId>(l.at(key).as_uint(
          "links[" + std::to_string(i) + "]." + key, 0, std::numeric_limits<NodeId>::max()));
    };
    links.push_back({endpoint("a"), endpoint("b"), l.at("delay").as_number(),
                     l.number_or("capacity", 0.0)});
  }
  return Network(json.string_or("name", "unnamed"), std::move(nodes), std::move(links));
}

void save_network(const Network& network, const std::string& path) {
  to_json(network).save_file(path);
}

Network load_network(const std::string& path) {
  return network_from_json(util::Json::load_file(path));
}

}  // namespace dosc::net
