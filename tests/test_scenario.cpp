#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "baselines/shortest_path.hpp"
#include "core/trainer.hpp"
#include "sim/scenario.hpp"
#include "test_helpers.hpp"
#include "util/json.hpp"

namespace dosc::sim {
namespace {

TEST(ServiceCatalog, BuildAndValidate) {
  ServiceCatalog catalog;
  const ComponentId c0 = catalog.add_component({.name = "a"});
  EXPECT_EQ(catalog.num_components(), 1u);
  EXPECT_THROW(catalog.add_component({.name = "bad", .processing_delay = -1.0}),
               std::invalid_argument);
  EXPECT_THROW(catalog.add_service({"svc", {c0, 5}}), std::invalid_argument);
  const ServiceId s = catalog.add_service({"svc", {c0, c0}});
  EXPECT_EQ(catalog.service(s).length(), 2u);
}

TEST(ServiceCatalog, VideoStreamingMatchesPaper) {
  const ServiceCatalog catalog = make_video_streaming_catalog();
  ASSERT_EQ(catalog.num_services(), 1u);
  const Service& s = catalog.service(0);
  ASSERT_EQ(s.length(), 3u);  // <c_FW, c_IDS, c_video>
  EXPECT_EQ(catalog.component(s.chain[0]).name, "c_FW");
  EXPECT_EQ(catalog.component(s.chain[1]).name, "c_IDS");
  EXPECT_EQ(catalog.component(s.chain[2]).name, "c_video");
  for (const ComponentId c : s.chain) {
    EXPECT_DOUBLE_EQ(catalog.component(c).processing_delay, 5.0);  // d_c = 5 ms
    EXPECT_DOUBLE_EQ(catalog.component(c).resource(2.5), 2.5);     // linear in load
  }
}

TEST(Component, ResourceFunction) {
  const Component c{.name = "x", .resource_per_rate = 2.0, .resource_fixed = 0.5};
  EXPECT_DOUBLE_EQ(c.resource(0.0), 0.5);
  EXPECT_DOUBLE_EQ(c.resource(3.0), 6.5);
}

TEST(Scenario, BaseScenarioMatchesPaperSetup) {
  const Scenario scenario = make_base_scenario(5);
  EXPECT_EQ(scenario.network().name(), "Abilene");
  ASSERT_EQ(scenario.config().ingress.size(), 5u);
  for (net::NodeId i = 0; i < 5; ++i) EXPECT_EQ(scenario.config().ingress[i], i);
  EXPECT_EQ(scenario.config().egress, 7u);  // v8
  EXPECT_DOUBLE_EQ(scenario.config().node_cap_lo, 0.0);
  EXPECT_DOUBLE_EQ(scenario.config().node_cap_hi, 2.0);
  EXPECT_DOUBLE_EQ(scenario.config().link_cap_lo, 1.0);
  EXPECT_DOUBLE_EQ(scenario.config().link_cap_hi, 5.0);
  ASSERT_EQ(scenario.config().flows.size(), 1u);
  EXPECT_DOUBLE_EQ(scenario.config().flows[0].rate, 1.0);
  EXPECT_DOUBLE_EQ(scenario.config().flows[0].duration, 1.0);
  EXPECT_DOUBLE_EQ(scenario.config().flows[0].deadline, 100.0);
  EXPECT_DOUBLE_EQ(scenario.config().end_time, 20000.0);
  EXPECT_EQ(scenario.num_actions(), 4u);  // Delta_G + 1 on Abilene
}

TEST(Scenario, ValidationErrors) {
  const ServiceCatalog catalog = make_video_streaming_catalog();

  ScenarioConfig no_ingress;
  no_ingress.ingress.clear();
  EXPECT_THROW(Scenario(no_ingress, catalog, test::line3()), std::invalid_argument);

  ScenarioConfig bad_egress;
  bad_egress.ingress = {0};
  bad_egress.egress = 99;
  EXPECT_THROW(Scenario(bad_egress, catalog, test::line3()), std::invalid_argument);

  ScenarioConfig bad_service;
  bad_service.ingress = {0};
  bad_service.egress = 2;
  bad_service.flows = {FlowTemplate{.service = 9}};
  EXPECT_THROW(Scenario(bad_service, catalog, test::line3()), std::invalid_argument);

  ScenarioConfig bad_rate;
  bad_rate.ingress = {0};
  bad_rate.egress = 2;
  bad_rate.flows = {FlowTemplate{.rate = 0.0}};
  EXPECT_THROW(Scenario(bad_rate, catalog, test::line3()), std::invalid_argument);

  ScenarioConfig bad_caps;
  bad_caps.ingress = {0};
  bad_caps.egress = 2;
  bad_caps.node_cap_hi = -1.0;
  EXPECT_THROW(Scenario(bad_caps, catalog, test::line3()), std::invalid_argument);

  // A NaN horizon passes `end_time <= 0` and +inf never stops traffic;
  // both, and -inf, must be rejected, as must a non-finite park step.
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
    ScenarioConfig bad_end;
    bad_end.ingress = {0};
    bad_end.egress = 2;
    bad_end.end_time = bad;
    EXPECT_THROW(Scenario(bad_end, catalog, test::line3()), std::invalid_argument) << bad;
    ScenarioConfig bad_park;
    bad_park.ingress = {0};
    bad_park.egress = 2;
    bad_park.park_step = bad;
    EXPECT_THROW(Scenario(bad_park, catalog, test::line3()), std::invalid_argument) << bad;
  }
}

TEST(Scenario, JsonRoundTrip) {
  ScenarioConfig config;
  config.name = "roundtrip";
  config.topology = "abilene";
  config.ingress = {0, 1, 4};
  config.egress = 7;
  config.traffic = traffic::TrafficSpec::mmpp();
  config.flows = {FlowTemplate{.service = 0, .rate = 2.0, .duration = 1.5, .deadline = 40.0,
                               .weight = 2.0}};
  config.end_time = 1234.0;
  const ScenarioConfig back = ScenarioConfig::from_json(config.to_json());
  EXPECT_EQ(back.name, "roundtrip");
  ASSERT_EQ(back.ingress.size(), 3u);
  EXPECT_EQ(back.ingress[2], 4u);
  EXPECT_EQ(back.egress, 7u);
  EXPECT_EQ(back.traffic.kind, traffic::ArrivalKind::kMmpp);
  EXPECT_DOUBLE_EQ(back.flows[0].deadline, 40.0);
  EXPECT_DOUBLE_EQ(back.flows[0].duration, 1.5);
  EXPECT_DOUBLE_EQ(back.end_time, 1234.0);
  // Round-tripped config must build a working scenario.
  const Scenario scenario(back, make_video_streaming_catalog());
  EXPECT_EQ(scenario.network().name(), "Abilene");
}

TEST(Scenario, HostileIntegerFieldsFailAtLoadNamingTheField) {
  // A valid scenario document (network and catalog inline) with one integer
  // field made hostile per case. A plain cast used to wrap such a value
  // modulo 2^32 (egress 4294967303 ran as egress 7), truncate it (4.7 ran
  // as 4) or convert it with undefined behaviour (negative or beyond the
  // target type); loading must instead fail with an error naming the field.
  constexpr double k2p32 = 4294967296.0;
  const util::Json base = make_base_scenario().to_json();
  ASSERT_TRUE(base.contains("network") && base.contains("catalog"));
  using Edit = void (*)(util::Json::Object&);
  const struct {
    const char* field;
    Edit edit;
  } cases[] = {
      {"'egress'", [](util::Json::Object& o) { o["egress"] = util::Json(k2p32 + 7.0); }},
      {"'egress'", [](util::Json::Object& o) { o["egress"] = util::Json(4.7); }},
      {"'egress'", [](util::Json::Object& o) { o["egress"] = util::Json(1e300); }},
      {"'ingress[0]'",
       [](util::Json::Object& o) {
         o["ingress"] = util::Json(util::Json::Array{util::Json(k2p32), util::Json(1)});
       }},
      {"'flows[0].service'",
       [](util::Json::Object& o) {
         o["flows"].as_array()[0].as_object()["service"] = util::Json(k2p32);
       }},
      {"'failures[0].id'",
       [](util::Json::Object& o) {
         o["failures"] = util::Json(util::Json::Array{util::Json(util::Json::Object{
             {"kind", util::Json("node")},
             {"id", util::Json(k2p32 + 5.0)},
             {"start", util::Json(100.0)},
             {"duration", util::Json(50.0)}})});
       }},
      {"'trace_seed'",
       [](util::Json::Object& o) {
         o["traffic"].as_object()["trace_seed"] = util::Json(-1.0);
       }},
      {"'trace_seed'",
       [](util::Json::Object& o) {
         o["traffic"].as_object()["trace_seed"] = util::Json(42.5);
       }},
      {"'services[0].chain[0]'",
       [](util::Json::Object& o) {
         util::Json::Object& service =
             o["catalog"].as_object()["services"].as_array()[0].as_object();
         util::Json& first = service["chain"].as_array()[0];
         first = util::Json(first.as_number() + k2p32);
       }},
      {"'links[0].a'",
       [](util::Json::Object& o) {
         util::Json& a = o["network"].as_object()["links"].as_array()[0].as_object()["a"];
         a = util::Json(a.as_number() + k2p32);
       }},
      {"'links[0].b'",
       [](util::Json::Object& o) {
         util::Json& b = o["network"].as_object()["links"].as_array()[0].as_object()["b"];
         b = util::Json(b.as_number() + k2p32);
       }},
      // Not an integer, but a count in disguise: a generated diurnal trace
      // holds one segment per 500 ms of horizon, so this one asked for
      // ~4.9e11 segments (~7.8 TB) when the Simulator was built.
      {"'trace_horizon'",
       [](util::Json::Object& o) {
         util::Json::Object& traffic = o["traffic"].as_object();
         traffic["kind"] = util::Json("trace");
         traffic["trace_horizon"] = util::Json(242949672960000.0);
       }},
  };
  for (const auto& c : cases) {
    util::Json doc = base;
    c.edit(doc.as_object());
    try {
      Scenario::from_json(doc);
      ADD_FAILURE() << c.field << " was accepted";
    } catch (const util::JsonError& e) {
      EXPECT_NE(std::string(e.what()).find(c.field), std::string::npos)
          << c.field << ": " << e.what();
    }
  }
}

TEST(Scenario, NamedTopologyConstructor) {
  ScenarioConfig config;
  config.topology = "bt_europe";
  config.ingress = {0, 1};
  config.egress = 7;
  const Scenario scenario(config, make_video_streaming_catalog());
  EXPECT_EQ(scenario.network().num_nodes(), 24u);
  EXPECT_EQ(scenario.num_actions(), 14u);  // degree 13 + local
}

TEST(Scenario, WithEndTimePreservesEverythingElse) {
  const Scenario base = make_base_scenario(2);
  const Scenario shorter = base.with_end_time(500.0);
  EXPECT_DOUBLE_EQ(shorter.config().end_time, 500.0);
  EXPECT_EQ(shorter.config().ingress.size(), base.config().ingress.size());
  EXPECT_EQ(shorter.config().egress, base.config().egress);
  EXPECT_EQ(shorter.network().num_nodes(), base.network().num_nodes());
  EXPECT_EQ(shorter.catalog().num_services(), base.catalog().num_services());
  EXPECT_EQ(shorter.num_actions(), base.num_actions());
  EXPECT_DOUBLE_EQ(shorter.shortest_paths().delay(0, 7), base.shortest_paths().delay(0, 7));
  // The original is untouched and a re-extension restores the horizon.
  EXPECT_DOUBLE_EQ(base.config().end_time, 20000.0);
  EXPECT_DOUBLE_EQ(shorter.with_end_time(base.config().end_time).config().end_time, 20000.0);
  // Fixed-seed episodes on the copy reproduce the base scenario's episodes
  // up to the shorter horizon: same capacities drawn, same traffic stream.
  // Simulator keeps a reference to its Scenario, so the copies must outlive
  // the runs.
  const Scenario copy_a = base.with_end_time(300.0);
  const Scenario copy_b = base.with_end_time(300.0);
  sim::Simulator a(copy_a, 7);
  sim::Simulator b(copy_b, 7);
  baselines::ShortestPathCoordinator sp_a;
  baselines::ShortestPathCoordinator sp_b;
  const SimMetrics ma = a.run(sp_a);
  const SimMetrics mb = b.run(sp_b);
  EXPECT_EQ(ma.generated, mb.generated);
  EXPECT_EQ(ma.succeeded, mb.succeeded);
}

TEST(Scenario, WithEndTimeSharesTheTopology) {
  // The copy shares the immutable network and its all-pairs shortest paths
  // instead of rebuilding them, and still validates its new horizon.
  const Scenario base = make_base_scenario(2);
  const Scenario shorter = base.with_end_time(500.0);
  EXPECT_EQ(&shorter.network(), &base.network());
  EXPECT_EQ(&shorter.shortest_paths(), &base.shortest_paths());
  EXPECT_THROW(base.with_end_time(std::numeric_limits<double>::quiet_NaN()),
               std::invalid_argument);
  EXPECT_THROW(base.with_end_time(std::numeric_limits<double>::infinity()),
               std::invalid_argument);
}

TEST(Scenario, MultiServiceTemplatesAreSampled) {
  // Two templates with very different deadlines; both must occur.
  ServiceCatalog catalog = make_video_streaming_catalog();
  ScenarioConfig config;
  config.ingress = {0};
  config.egress = 2;
  config.end_time = 2000.0;
  config.traffic = traffic::TrafficSpec::fixed(10.0);
  config.node_cap_lo = config.node_cap_hi = 10.0;
  config.link_cap_lo = config.link_cap_hi = 10.0;
  config.flows = {FlowTemplate{.deadline = 30.0, .weight = 1.0},
                  FlowTemplate{.deadline = 70.0, .weight = 1.0}};
  const Scenario scenario(config, std::move(catalog), test::line3());

  std::size_t short_dl = 0;
  std::size_t long_dl = 0;
  test::LambdaCoordinator coordinator(
      [&](const Simulator&, const Flow& flow, net::NodeId) -> int {
        if (flow.chain_pos == 0 && flow.current_node == flow.ingress) {
          (flow.deadline < 50.0 ? short_dl : long_dl) += 1;
        }
        return 0;
      });
  Simulator sim(scenario, 5);
  sim.run(coordinator);
  EXPECT_GT(short_dl, 20u);
  EXPECT_GT(long_dl, 20u);
}

}  // namespace
}  // namespace dosc::sim
