// Decision daemon: GEMM/GEMV decision equivalence, snapshot validation,
// and the UDP server's behaviour on valid, invalid, and hostile datagrams.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <limits>
#include <random>
#include <thread>
#include <vector>

#include "serve/daemon.hpp"
#include "serve/engine.hpp"
#include "serve/loadgen.hpp"
#include "serve/policy_store.hpp"
#include "serve/server.hpp"
#include "sim/scenario.hpp"
#include "sim/simulator.hpp"

using namespace dosc;

namespace {

/// Blocking client socket connected to 127.0.0.1:port.
class TestClient {
 public:
  explicit TestClient(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_DGRAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    ::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
  }
  ~TestClient() { ::close(fd_); }

  void send(const void* data, std::size_t len) { ::send(fd_, data, len, 0); }

  /// Receive one datagram with a timeout; returns bytes received, -1 on
  /// timeout.
  ssize_t recv(void* buf, std::size_t cap, int timeout_ms = 2000) {
    pollfd pfd{fd_, POLLIN, 0};
    if (::poll(&pfd, 1, timeout_ms) <= 0) return -1;
    return ::recv(fd_, buf, cap, 0);
  }

 private:
  int fd_ = -1;
};

serve::wire::Request valid_request(const sim::Scenario& scenario, std::uint64_t id) {
  serve::wire::Request r;
  r.request_id = id;
  r.cookie = id * 31;
  r.node = 0;
  r.egress = static_cast<std::uint16_t>(scenario.config().egress);
  r.service = 0;
  r.chain_pos = 0;
  return r;
}

}  // namespace

// ----------------------------------------------------------------- engine

TEST(ServeEngine, DecideAtEveryBatchSizeEqualsPerRowGreedyAction) {
  // One engine, every batch size one socket drain can return: each row's
  // action must be ActorCritic::greedy_action on that row's observation,
  // whichever kernel predict_batch ran the block on (GEMV for one row, GEMM
  // for more).
  const sim::Scenario scenario = sim::make_base_scenario();
  const sim::Simulator oracle(scenario, 424242);
  const std::size_t degree = scenario.network().max_degree();

  const core::TrainedPolicy policy = serve::make_untrained_policy(scenario, 24, 11);
  const auto snapshot = serve::make_serve_policy(policy, degree, 1);

  constexpr std::size_t kMaxBatch = serve::ServerConfig::max_batch;
  serve::DecisionEngine engine(oracle, degree, kMaxBatch);
  const std::vector<serve::wire::Request> requests =
      serve::make_request_mix(scenario, kMaxBatch * (kMaxBatch + 1) / 2, 77);
  std::vector<int> actions;
  std::size_t next = 0;
  for (std::size_t batch = 1; batch <= kMaxBatch; ++batch) {
    for (std::size_t r = 0; r < batch; ++r) ASSERT_TRUE(engine.bind(requests[next + r], r));
    const std::size_t gemv_rows = engine.decide(snapshot->net, batch, actions);
    EXPECT_EQ(gemv_rows, batch == 1 ? 1u : 0u) << "batch " << batch;
    ASSERT_EQ(actions.size(), batch);
    for (std::size_t r = 0; r < batch; ++r) {
      EXPECT_EQ(actions[r], snapshot->net.greedy_action(engine.observation(r)))
          << "batch " << batch << " request " << next + r;
    }
    next += batch;
  }
}

TEST(ServeEngine, RejectsOutOfScenarioRequests) {
  const sim::Scenario scenario = sim::make_base_scenario();
  const sim::Simulator oracle(scenario, 424242);
  serve::DecisionEngine engine(oracle, scenario.network().max_degree(), 4);

  serve::wire::Request r = valid_request(scenario, 1);
  EXPECT_TRUE(engine.bind(r, 0));

  r = valid_request(scenario, 2);
  r.node = 9999;
  EXPECT_FALSE(engine.bind(r, 0));
  r = valid_request(scenario, 3);
  r.service = 42;
  EXPECT_FALSE(engine.bind(r, 0));
  r = valid_request(scenario, 4);
  r.chain_pos = 200;
  EXPECT_FALSE(engine.bind(r, 0));
  r = valid_request(scenario, 5);
  r.rate = -1.0f;
  EXPECT_FALSE(engine.bind(r, 0));
  r = valid_request(scenario, 6);
  r.deadline = std::numeric_limits<float>::quiet_NaN();
  EXPECT_FALSE(engine.bind(r, 0));
  r = valid_request(scenario, 7);
  r.elapsed = -0.5f;
  EXPECT_FALSE(engine.bind(r, 0));
}

TEST(ServePolicyStore, MakeServePolicyValidatesLayout) {
  const sim::Scenario scenario = sim::make_base_scenario();
  const std::size_t degree = scenario.network().max_degree();
  core::TrainedPolicy policy = serve::make_untrained_policy(scenario, 16, 3);

  EXPECT_NO_THROW(serve::make_serve_policy(policy, degree, 1));
  // Degree-too-small policy cannot observe all neighbours of this network.
  EXPECT_THROW(serve::make_serve_policy(policy, degree + 1, 1), std::runtime_error);
  // Inconsistent obs layout.
  policy.net_config.obs_dim += 1;
  policy.parameters = rl::ActorCritic(policy.net_config).get_parameters();
  EXPECT_THROW(serve::make_serve_policy(policy, degree, 1), std::runtime_error);
}

// ----------------------------------------------------------------- server

class ServeServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    scenario_ = std::make_unique<sim::Scenario>(sim::make_base_scenario());
    policy_ = serve::make_untrained_policy(*scenario_, 16, 5);
    serve::ServerConfig config;
    config.threads = 1;
    server_ = std::make_unique<serve::UdpServer>(*scenario_, policy_, config);
    server_->start();
  }
  void TearDown() override { server_->stop(); }

  std::unique_ptr<sim::Scenario> scenario_;
  core::TrainedPolicy policy_;
  std::unique_ptr<serve::UdpServer> server_;
};

TEST_F(ServeServerTest, ValidRequestGetsAnOkDecision) {
  TestClient client(server_->port());
  const serve::wire::Request request = valid_request(*scenario_, 99);
  std::uint8_t buf[serve::wire::kMaxDatagram];
  serve::wire::encode_request(request, buf);
  client.send(buf, serve::wire::kRequestSize);

  const ssize_t got = client.recv(buf, sizeof(buf));
  ASSERT_EQ(got, static_cast<ssize_t>(serve::wire::kResponseSize));
  serve::wire::Response response;
  ASSERT_EQ(serve::wire::decode_response(buf, static_cast<std::size_t>(got), response),
            serve::wire::DecodeError::kOk);
  EXPECT_EQ(response.request_id, request.request_id);
  EXPECT_EQ(response.cookie, request.cookie);
  EXPECT_EQ(response.status, serve::wire::Status::kOk);
  EXPECT_LE(response.action, scenario_->network().max_degree());
  EXPECT_EQ(response.policy_version, 1u);
  EXPECT_GE(response.batch_size, 1u);
}

TEST_F(ServeServerTest, InvalidRequestGetsAnErrorReplyNotSilence) {
  TestClient client(server_->port());
  serve::wire::Request request = valid_request(*scenario_, 7);
  request.service = 200;  // decodable, semantically invalid
  std::uint8_t buf[serve::wire::kMaxDatagram];
  serve::wire::encode_request(request, buf);
  client.send(buf, serve::wire::kRequestSize);

  const ssize_t got = client.recv(buf, sizeof(buf));
  ASSERT_EQ(got, static_cast<ssize_t>(serve::wire::kResponseSize));
  serve::wire::Response response;
  ASSERT_EQ(serve::wire::decode_response(buf, static_cast<std::size_t>(got), response),
            serve::wire::DecodeError::kOk);
  EXPECT_EQ(response.status, serve::wire::Status::kInvalidRequest);
  EXPECT_EQ(response.request_id, 7u);
  // The worker sends the reply before bumping its counters, so the stats
  // update can land just after the client's recv — wait it out (sanitized
  // single-core runs widen that window enough to flake a bare read).
  std::uint64_t invalid = 0;
  for (int i = 0; i < 200 && invalid == 0; ++i) {
    invalid = server_->stats().invalid_requests;
    if (invalid == 0) std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(invalid, 1u);
}

TEST_F(ServeServerTest, GarbageDatagramsAreCountedAndNeverAnsweredOrFatal) {
  TestClient client(server_->port());
  std::uint8_t buf[serve::wire::kMaxDatagram];

  // A mix of hostile shapes: empty, short, oversized, bad magic, bad
  // version — none may crash the daemon, none may produce a reply.
  std::mt19937_64 rng(42);
  std::size_t sent = 0;
  const auto send_garbage = [&](std::size_t len) {
    for (std::size_t i = 0; i < len; ++i) buf[i] = static_cast<std::uint8_t>(rng());
    client.send(buf, len);
    ++sent;
  };
  send_garbage(0);
  send_garbage(1);
  send_garbage(serve::wire::kRequestSize - 1);
  send_garbage(serve::wire::kRequestSize);  // random bytes: bad magic
  send_garbage(serve::wire::kRequestSize + 1);
  send_garbage(serve::wire::kMaxDatagram);
  serve::wire::encode_request(valid_request(*scenario_, 1), buf);
  buf[4] = 77;  // bad version on an otherwise perfect frame
  client.send(buf, serve::wire::kRequestSize);
  ++sent;

  // Wait until the server has consumed them all.
  for (int spin = 0; spin < 200 && server_->stats().protocol_errors < sent; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(server_->stats().protocol_errors, sent);
  EXPECT_EQ(server_->stats().responses, 0u);

  // No reply must have been sent for any of them.
  EXPECT_EQ(client.recv(buf, sizeof(buf), 100), -1);

  // And the daemon still serves: a valid request after the barrage works.
  serve::wire::encode_request(valid_request(*scenario_, 123), buf);
  client.send(buf, serve::wire::kRequestSize);
  const ssize_t got = client.recv(buf, sizeof(buf));
  ASSERT_EQ(got, static_cast<ssize_t>(serve::wire::kResponseSize));
  serve::wire::Response response;
  ASSERT_EQ(serve::wire::decode_response(buf, static_cast<std::size_t>(got), response),
            serve::wire::DecodeError::kOk);
  EXPECT_EQ(response.request_id, 123u);
  EXPECT_EQ(response.status, serve::wire::Status::kOk);
}

TEST_F(ServeServerTest, StatsAndHistogramsTrackTheLoad) {
  serve::LoadConfig load;
  load.port = server_->port();
  load.rate = 5000.0;
  load.seed = 9;
  const std::vector<serve::wire::Request> requests =
      serve::make_request_mix(*scenario_, 2000, load.seed);
  const serve::LoadReport report = serve::run_load(requests, load);

  EXPECT_EQ(report.sent, 2000u);
  EXPECT_EQ(report.received, 2000u);
  EXPECT_GT(report.e2e_us.count(), 0u);
  EXPECT_GT(report.e2e_us.percentile(99), 0.0);

  // Counters are bumped after the reply hits the wire and worker-local
  // histograms merge in periodically; both are exact only once the
  // workers have exited.
  server_->stop();
  const serve::ServerStats stats = server_->stats();
  EXPECT_EQ(stats.requests, 2000u);
  EXPECT_EQ(stats.responses, 2000u);
  EXPECT_EQ(stats.protocol_errors, 0u);
  EXPECT_GT(stats.batches, 0u);
  EXPECT_EQ(server_->batch_size_histogram().count(), stats.batches);
  EXPECT_EQ(server_->request_decide_us_histogram().count(), stats.requests);
}

TEST(ServeServer, ServedActionsEqualLocalBatchOneDecisions) {
  // End to end: every action the server sends back must equal the serving
  // pipeline run locally on that request alone (a batch-1 decide against
  // the same oracle seed), however the server coalesced it. The load
  // generator sends in sendmmsg bursts, so one socket drain often returns
  // several requests and many are decided inside multi-row GEMM blocks.
  const sim::Scenario scenario = sim::make_base_scenario();
  const core::TrainedPolicy policy = serve::make_untrained_policy(scenario, 16, 5);
  const std::vector<serve::wire::Request> requests =
      serve::make_request_mix(scenario, 5000, 13);

  serve::ServerConfig config;
  serve::UdpServer server(scenario, policy, config);
  server.start();
  serve::LoadConfig load;
  load.port = server.port();
  load.rate = 20000.0;
  load.seed = 13;
  load.record_actions = true;
  const serve::LoadReport report = serve::run_load(requests, load);
  server.stop();
  ASSERT_EQ(report.received, requests.size());
  ASSERT_EQ(report.actions.size(), requests.size());
  const serve::ServerStats stats = server.stats();
  EXPECT_GT(stats.gemm_batches, 0u);
  EXPECT_LT(stats.gemv_decides, requests.size());
  // A batch is one drain: never wider than the recvmmsg it came from.
  EXPECT_GT(report.max_batch_seen, 1u);
  EXPECT_LE(report.max_batch_seen, serve::ServerConfig::max_batch);

  const rl::ActorCritic net = policy.instantiate();
  const sim::Simulator oracle(scenario, config.oracle_seed);
  serve::DecisionEngine engine(oracle, policy.max_degree, 1);
  std::vector<int> expected;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    ASSERT_TRUE(engine.bind(requests[i], 0));
    engine.decide(net, 1, expected);
    EXPECT_EQ(report.actions[requests[i].request_id], expected[0]) << "request " << i;
  }
}
