// Policy hot-swap safety at the server level: a serving UdpServer mid-load
// must swap policies with zero dropped requests, and an incompatible
// snapshot must be rejected without disturbing the serving one. The
// underlying util::EpochPublished mechanism is covered by
// test_epoch_published.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "serve/daemon.hpp"
#include "serve/loadgen.hpp"
#include "serve/server.hpp"
#include "sim/scenario.hpp"

using namespace dosc;

TEST(ServeHotswap, ServerSwapsMidLoadWithZeroDroppedRequests) {
  const sim::Scenario scenario = sim::make_base_scenario();
  const core::TrainedPolicy policy = serve::make_untrained_policy(scenario, 16, 5);

  serve::ServerConfig config;
  config.threads = 2;
  serve::UdpServer server(scenario, policy, config);
  server.start();

  // Publisher: hot-swap as fast as the store allows while the load runs.
  std::atomic<bool> stop_swapping{false};
  std::thread swapper([&] {
    std::uint64_t swaps = 0;
    while (!stop_swapping.load(std::memory_order_acquire)) {
      server.publish(serve::make_untrained_policy(scenario, 16, 100 + swaps));
      ++swaps;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });

  serve::LoadConfig load;
  load.port = server.port();
  load.rate = 20000.0;
  load.seed = 3;
  load.drain_timeout_ms = 2000;
  const std::vector<serve::wire::Request> requests =
      serve::make_request_mix(scenario, 30000, load.seed);
  const serve::LoadReport report = serve::run_load(requests, load);

  stop_swapping.store(true, std::memory_order_release);
  swapper.join();
  server.stop();

  EXPECT_EQ(report.sent, requests.size());
  // Zero dropped: every request got a reply even though the policy was
  // being swapped throughout the run.
  EXPECT_EQ(report.received, report.sent);
  EXPECT_EQ(report.server_errors, 0u);
  // The run actually spanned a swap (many, at ~2 ms cadence over >1 s).
  EXPECT_GT(report.policy_versions.size(), 1u);

  const serve::ServerStats stats = server.stats();
  EXPECT_EQ(stats.protocol_errors, 0u);
  EXPECT_EQ(stats.requests, stats.responses);
  EXPECT_GT(stats.hot_swaps, 0u);
}

TEST(ServeHotswap, PublishRejectsIncompatibleLayoutAndKeepsServing) {
  const sim::Scenario scenario = sim::make_base_scenario();
  const core::TrainedPolicy policy = serve::make_untrained_policy(scenario, 16, 5);
  serve::UdpServer server(scenario, policy, {});

  core::TrainedPolicy wrong = policy;
  wrong.max_degree += 1;  // different padded layout than the serving one
  EXPECT_THROW(server.publish(wrong), std::runtime_error);
  EXPECT_EQ(server.stats().policy_version, 1u);
  EXPECT_EQ(server.stats().hot_swaps, 0u);

  // A compatible snapshot still goes through afterwards.
  server.publish(serve::make_untrained_policy(scenario, 16, 6));
  EXPECT_EQ(server.stats().policy_version, 2u);
}
