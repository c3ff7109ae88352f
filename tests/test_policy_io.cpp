// Policy snapshot format: version field, parameter checksum, and the
// rejection paths for corrupt / truncated / future-version files. A bad
// snapshot must fail loudly at load time — it is what the serving daemon
// hot-swaps into production.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "core/policy_io.hpp"
#include "serve/daemon.hpp"
#include "sim/scenario.hpp"
#include "util/json.hpp"

using namespace dosc;

namespace {

core::TrainedPolicy tiny_policy() {
  core::TrainedPolicy policy;
  policy.net_config.obs_dim = 8;
  policy.net_config.num_actions = 3;
  policy.net_config.hidden = {4};
  policy.net_config.seed = 99;
  policy.max_degree = 2;
  policy.eval_success_ratio = 0.5;
  policy.parameters = rl::ActorCritic(policy.net_config).get_parameters();
  return policy;
}

std::string temp_path(const char* name) {
  return std::string(::testing::TempDir()) + name;
}

}  // namespace

TEST(PolicyIo, ChecksumIsOrderSensitiveAndStable) {
  const std::vector<double> a{1.0, 2.0, 3.0};
  const std::vector<double> b{3.0, 2.0, 1.0};
  EXPECT_EQ(core::policy_checksum(a), core::policy_checksum(a));
  EXPECT_NE(core::policy_checksum(a), core::policy_checksum(b));
  EXPECT_NE(core::policy_checksum(a), core::policy_checksum({}));
  // 0.0 and -0.0 have different bit patterns; the checksum must see bits,
  // not values.
  EXPECT_NE(core::policy_checksum({0.0}), core::policy_checksum({-0.0}));
}

TEST(PolicyIo, ExpectedParameterCountMatchesInstantiatedNet) {
  const core::TrainedPolicy policy = tiny_policy();
  EXPECT_EQ(core::expected_parameter_count(policy.net_config), policy.parameters.size());
}

TEST(PolicyIo, SaveLoadRoundTripPreservesEverything) {
  const core::TrainedPolicy policy = tiny_policy();
  const std::string path = temp_path("roundtrip_policy.json");
  core::save_policy(policy, path);

  const core::TrainedPolicy loaded = core::load_policy(path);
  EXPECT_EQ(loaded.net_config.obs_dim, policy.net_config.obs_dim);
  EXPECT_EQ(loaded.net_config.num_actions, policy.net_config.num_actions);
  EXPECT_EQ(loaded.net_config.hidden, policy.net_config.hidden);
  EXPECT_EQ(loaded.max_degree, policy.max_degree);
  // %.17g round-trips doubles exactly, so the checksum verification inside
  // load_policy already proved bit-identity; double-check anyway.
  EXPECT_EQ(loaded.parameters, policy.parameters);
  EXPECT_EQ(core::policy_checksum(loaded.parameters), core::policy_checksum(policy.parameters));
  std::remove(path.c_str());
}

TEST(PolicyIo, SnapshotCarriesVersionAndChecksum) {
  const util::Json json = core::to_json(tiny_policy());
  EXPECT_EQ(json.at("format_version").as_int(), core::kPolicyFormatVersion);
  EXPECT_EQ(json.at("param_checksum").as_string().size(), 16u);
}

TEST(PolicyIo, CorruptedParameterIsRejectedWithChecksumError) {
  util::Json json = core::to_json(tiny_policy());
  util::Json::Object o = json.as_object();
  util::Json::Array params = o.at("parameters").as_array();
  params[params.size() / 2] = util::Json(params[params.size() / 2].as_number() + 1e-9);
  o["parameters"] = util::Json(std::move(params));
  try {
    core::policy_from_json(util::Json(std::move(o)));
    FAIL() << "corrupt parameters were accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("checksum"), std::string::npos) << e.what();
  }
}

TEST(PolicyIo, TruncatedParametersAreRejectedWithCountError) {
  util::Json json = core::to_json(tiny_policy());
  util::Json::Object o = json.as_object();
  util::Json::Array params = o.at("parameters").as_array();
  params.pop_back();  // simulate a truncated write
  o["parameters"] = util::Json(std::move(params));
  o.erase("param_checksum");  // isolate the structural check
  try {
    core::policy_from_json(util::Json(std::move(o)));
    FAIL() << "truncated parameters were accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("parameter count"), std::string::npos) << e.what();
  }
}

TEST(PolicyIo, FutureFormatVersionIsRejected) {
  util::Json json = core::to_json(tiny_policy());
  util::Json::Object o = json.as_object();
  o["format_version"] = util::Json(static_cast<int>(core::kPolicyFormatVersion + 1));
  try {
    core::policy_from_json(util::Json(std::move(o)));
    FAIL() << "future format version was accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("format_version"), std::string::npos) << e.what();
  }
}

TEST(PolicyIo, LegacyFileWithoutVersionOrChecksumStillLoads) {
  // Pre-v2 snapshots had neither field; they must keep loading (with the
  // structural validation still applied).
  util::Json json = core::to_json(tiny_policy());
  util::Json::Object o = json.as_object();
  o.erase("format_version");
  o.erase("param_checksum");
  const core::TrainedPolicy loaded = core::policy_from_json(util::Json(std::move(o)));
  EXPECT_EQ(loaded.parameters.size(),
            core::expected_parameter_count(loaded.net_config));
}

TEST(PolicyIo, ValidatePolicyRejectsZeroShapes) {
  core::TrainedPolicy policy = tiny_policy();
  policy.net_config.obs_dim = 0;
  EXPECT_THROW(core::validate_policy(policy), std::runtime_error);
  policy = tiny_policy();
  policy.max_degree = 0;
  EXPECT_THROW(core::validate_policy(policy), std::runtime_error);
  // obs_dim 2^61 over hidden [8]: 2^61 * 8 wraps to 0, so an unchecked
  // count is 61, and 61 parameters would pass for a 2^61-row weight matrix.
  policy = tiny_policy();
  policy.net_config.obs_dim = std::size_t{1} << 61;
  policy.net_config.num_actions = 4;
  policy.net_config.hidden = {8};
  policy.parameters.assign(61, 0.0);
  try {
    core::validate_policy(policy);
    FAIL() << "an overflowing shape was accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("overflows"), std::string::npos) << e.what();
  }
}

/// A snapshot without checksum whose shape fields are overridden, with
/// `parameters` zero parameters.
util::Json crafted_snapshot(const util::Json::Object& shape, std::size_t parameters) {
  util::Json::Object o = core::to_json(tiny_policy()).as_object();
  o.erase("param_checksum");
  for (const auto& [key, value] : shape) o[key] = value;
  o["parameters"] = util::Json(util::Json::Array(parameters, util::Json(0.0)));
  return util::Json(std::move(o));
}

TEST(PolicyIo, ShapeFieldsMustBePositiveIntegers) {
  // Each snapshot's parameter count matches what an unchecked reader makes
  // of its shape, so only the shape check stands between it and eval.
  const util::Json hidden8(util::Json::Array{util::Json(8)});
  const struct {
    const char* what;
    util::Json snapshot;
  } cases[] = {
      // -1 wraps to 2^64 - 1; (2^64 - 1) * 8 + 8 wraps to 0: 45 = 9 * 4 + 9.
      {"negative obs_dim",
       crafted_snapshot({{"obs_dim", util::Json(-1)}, {"hidden", hidden8},
                         {"num_actions", util::Json(4)}},
                        45)},
      // 16.5 would round to 17: 17 * 8 + 8 + 8 * 4 + 4 + 17 * 8 + 8 + 9 = 333.
      {"fractional obs_dim",
       crafted_snapshot({{"obs_dim", util::Json(16.5)}, {"hidden", hidden8},
                         {"num_actions", util::Json(4)}},
                        333)},
      {"negative max_degree",
       crafted_snapshot({{"max_degree", util::Json(-1)}},
                        core::expected_parameter_count(tiny_policy().net_config))},
  };
  for (const auto& c : cases) {
    try {
      core::policy_from_json(c.snapshot);
      ADD_FAILURE() << c.what << " was accepted";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("policy snapshot invalid"), std::string::npos)
          << c.what << ": " << e.what();
    }
  }
}

TEST(PolicyIo, UntrainedServingPolicyRoundTripsThroughDisk) {
  // The CI smoke path: init-policy writes an untrained snapshot, the
  // daemon loads and validates it against the scenario.
  const sim::Scenario scenario = sim::make_base_scenario();
  const core::TrainedPolicy policy = serve::make_untrained_policy(scenario, 16, 5);
  const std::string path = temp_path("untrained_policy.json");
  core::save_policy(policy, path);
  const core::TrainedPolicy loaded = core::load_policy(path);
  EXPECT_NO_THROW(
      serve::make_serve_policy(loaded, scenario.network().max_degree(), /*version=*/1));
  std::remove(path.c_str());
}
