#include "core/policy_io.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <limits>
#include <stdexcept>

namespace dosc::core {

std::uint64_t policy_checksum(const std::vector<double>& parameters) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ull;  // FNV-1a offset basis
  for (const double p : parameters) {
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(p));
    std::memcpy(&bits, &p, sizeof(bits));
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (bits >> (8 * byte)) & 0xffu;
      h *= 0x100000001b3ull;  // FNV prime
    }
  }
  return h;
}

std::size_t expected_parameter_count(const rl::ActorCriticConfig& config) noexcept {
  // Dense layers in -> hidden... -> out, weights [in x out] plus bias [out],
  // once for the actor head (num_actions) and once for the critic head (1).
  // Every step is overflow-checked: a wrapped count could match a crafted
  // payload and pass validation.
  bool overflow = false;
  const auto add = [&](std::size_t& total, std::size_t in, std::size_t out) {
    std::size_t layer = 0;
    overflow |= __builtin_mul_overflow(in, out, &layer);
    overflow |= __builtin_add_overflow(layer, out, &layer);
    overflow |= __builtin_add_overflow(total, layer, &total);
  };
  std::size_t n = 0;
  for (const std::size_t out_dim : {config.num_actions, std::size_t{1}}) {
    std::size_t prev = config.obs_dim;
    for (const std::size_t h : config.hidden) {
      add(n, prev, h);
      prev = h;
    }
    add(n, prev, out_dim);
  }
  return overflow ? std::numeric_limits<std::size_t>::max() : n;
}

void validate_policy(const TrainedPolicy& policy) {
  const rl::ActorCriticConfig& c = policy.net_config;
  if (c.obs_dim == 0 || c.num_actions == 0) {
    throw std::runtime_error("policy snapshot invalid: zero obs_dim or num_actions");
  }
  if (std::find(c.hidden.begin(), c.hidden.end(), std::size_t{0}) != c.hidden.end()) {
    throw std::runtime_error("policy snapshot invalid: zero hidden layer width");
  }
  if (policy.max_degree == 0) {
    throw std::runtime_error("policy snapshot invalid: max_degree is 0");
  }
  const std::size_t expected = expected_parameter_count(c);
  if (expected == std::numeric_limits<std::size_t>::max()) {
    throw std::runtime_error(
        "policy snapshot invalid: the declared network shape's parameter count overflows");
  }
  if (policy.parameters.size() != expected) {
    throw std::runtime_error("policy snapshot invalid: parameter count " +
                             std::to_string(policy.parameters.size()) + " does not match " +
                             std::to_string(expected) +
                             " for the declared network shape (truncated file?)");
  }
}

namespace {

std::string checksum_hex(std::uint64_t checksum) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(checksum));
  return buf;
}

/// An integer field of a snapshot, through util::Json's checked reader: a
/// fractional, negative or out-of-range value is a named error, never a
/// rounded or wrapped one.
std::uint64_t integer_field(const util::Json& value, const std::string& name, std::uint64_t lo,
                            std::uint64_t hi) {
  try {
    return value.as_uint(name, lo, hi);
  } catch (const util::JsonError& e) {
    throw std::runtime_error(std::string("policy snapshot invalid: ") + e.what());
  }
}

/// A shape field (obs_dim, num_actions, a hidden width, max_degree): an
/// integer in [1, 2^53], the range where doubles hold every integer.
std::size_t shape_field(const util::Json& value, const std::string& name) {
  return integer_field(value, name, 1, std::uint64_t{1} << 53);
}

}  // namespace

util::Json to_json(const TrainedPolicy& policy) {
  util::Json::Object o;
  o["format_version"] = util::Json(static_cast<int>(kPolicyFormatVersion));
  o["obs_dim"] = util::Json(policy.net_config.obs_dim);
  o["num_actions"] = util::Json(policy.net_config.num_actions);
  util::Json::Array hidden;
  for (const std::size_t h : policy.net_config.hidden) hidden.emplace_back(h);
  o["hidden"] = util::Json(std::move(hidden));
  o["net_seed"] = util::Json(static_cast<double>(policy.net_config.seed));
  o["max_degree"] = util::Json(policy.max_degree);
  o["eval_success_ratio"] = util::Json(policy.eval_success_ratio);
  o["eval_reward"] = util::Json(policy.eval_reward);
  o["param_checksum"] = util::Json(checksum_hex(policy_checksum(policy.parameters)));
  util::Json::Array params;
  params.reserve(policy.parameters.size());
  for (const double p : policy.parameters) params.emplace_back(p);
  o["parameters"] = util::Json(std::move(params));
  util::Json::Array seeds;
  for (const double s : policy.per_seed_success) seeds.emplace_back(s);
  o["per_seed_success"] = util::Json(std::move(seeds));
  return util::Json(std::move(o));
}

TrainedPolicy policy_from_json(const util::Json& json) {
  if (json.contains("format_version")) {
    const std::uint64_t version = integer_field(json.at("format_version"), "format_version", 1,
                                                std::numeric_limits<std::uint64_t>::max());
    if (version > static_cast<std::uint64_t>(kPolicyFormatVersion)) {
      throw std::runtime_error("policy snapshot has unsupported format_version " +
                               std::to_string(version) + " (this build reads <= " +
                               std::to_string(kPolicyFormatVersion) + ")");
    }
  }
  TrainedPolicy policy;
  policy.net_config.obs_dim = shape_field(json.at("obs_dim"), "obs_dim");
  policy.net_config.num_actions = shape_field(json.at("num_actions"), "num_actions");
  policy.net_config.hidden.clear();
  for (const util::Json& h : json.at("hidden").as_array()) {
    policy.net_config.hidden.push_back(shape_field(h, "hidden width"));
  }
  if (json.contains("net_seed")) {
    policy.net_config.seed = integer_field(json.at("net_seed"), "net_seed", 0,
                                           std::numeric_limits<std::uint64_t>::max());
  }
  policy.max_degree = shape_field(json.at("max_degree"), "max_degree");
  policy.eval_success_ratio = json.number_or("eval_success_ratio", 0.0);
  policy.eval_reward = json.number_or("eval_reward", 0.0);
  const util::Json::Array& params = json.at("parameters").as_array();
  policy.parameters.reserve(params.size());
  for (const util::Json& p : params) {
    policy.parameters.push_back(p.as_number());
  }
  if (json.contains("per_seed_success")) {
    for (const util::Json& s : json.at("per_seed_success").as_array()) {
      policy.per_seed_success.push_back(s.as_number());
    }
  }
  if (json.contains("param_checksum")) {
    const std::string stored = json.at("param_checksum").as_string();
    const std::string computed = checksum_hex(policy_checksum(policy.parameters));
    if (stored != computed) {
      throw std::runtime_error("policy snapshot corrupt: parameter checksum mismatch (stored " +
                               stored + ", computed " + computed + ")");
    }
  }
  validate_policy(policy);
  return policy;
}

void save_policy(const TrainedPolicy& policy, const std::string& path) {
  to_json(policy).save_file(path, /*indent=*/-1);
}

TrainedPolicy load_policy(const std::string& path) {
  return policy_from_json(util::Json::load_file(path));
}

}  // namespace dosc::core
