// dosc_serve: the UDP decision daemon.
//
// A small number of worker threads share one datagram socket. Each worker
// drains up to max_batch requests per pass (recvmmsg), tops the batch up
// within the AdaptiveBatcher's load-dependent wait budget, runs the
// per-decision pipeline over the batch (DecisionEngine: validate -> bound
// observation build -> one Mlp::predict_batch forward -> greedy action),
// and replies with one response datagram per request (sendmmsg). Policy
// snapshots are hot-swapped through the epoch-published PolicyStore:
// publish() installs a new snapshot without ever blocking a decide —
// in-flight batches finish on the snapshot they pinned, the next batch
// picks up the new one.
//
// Malformed datagrams are counted (serve.protocol_errors) and dropped
// without reply; decodable requests with out-of-scenario fields get a
// kInvalidRequest reply. Neither can crash the daemon.
//
// Telemetry (mirrored into the global registry on stop() when enabled):
//   counters   serve.requests, serve.responses, serve.protocol_errors,
//              serve.invalid_requests, serve.batches, serve.gemm_batches,
//              serve.gemv_decides, serve.hot_swaps
//   gauge      serve.policy_version
//   histograms serve.batch_size, serve.decide_us (per-batch pipeline time),
//              serve.request_decide_us (per-request share)
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/batcher.hpp"
#include "serve/engine.hpp"
#include "serve/policy_store.hpp"
#include "sim/scenario.hpp"
#include "sim/simulator.hpp"
#include "telemetry/histogram.hpp"

namespace dosc::serve {

struct ServerConfig {
  std::string bind_address = "127.0.0.1";
  std::uint16_t port = 0;  ///< 0 = ephemeral; read back via port()
  std::size_t threads = 1;
  BatcherConfig batcher;
  /// Capacity seed of the state oracle (the serving-time network snapshot).
  static constexpr std::uint64_t oracle_seed = 424242;
};

struct ServerStats {
  std::uint64_t requests = 0;         ///< decodable requests received
  std::uint64_t responses = 0;        ///< replies sent
  std::uint64_t protocol_errors = 0;  ///< undecodable datagrams dropped
  std::uint64_t invalid_requests = 0; ///< decodable but out-of-scenario
  std::uint64_t batches = 0;          ///< decide passes
  std::uint64_t gemm_batches = 0;     ///< decide passes predict_batch ran as GEMM
  std::uint64_t gemv_decides = 0;     ///< requests predict_batch served by GEMV
  std::uint64_t hot_swaps = 0;        ///< publishes after the initial policy
  std::uint32_t policy_version = 0;   ///< currently published snapshot
};

class UdpServer {
 public:
  /// `scenario` must outlive the server. The initial policy is validated
  /// against it and published as version 1.
  UdpServer(const sim::Scenario& scenario, const core::TrainedPolicy& policy,
            ServerConfig config);
  ~UdpServer();

  UdpServer(const UdpServer&) = delete;
  UdpServer& operator=(const UdpServer&) = delete;

  /// Bind the socket and launch the worker threads. Throws on socket errors.
  void start();
  /// Stop workers, close the socket, flush telemetry. Idempotent.
  void stop();
  bool running() const noexcept { return running_; }

  /// Bound UDP port (valid after start()).
  std::uint16_t port() const noexcept { return port_; }

  /// Hot-swap the served policy; never blocks in-flight decides. Throws if
  /// the snapshot does not fit the serving scenario (the old policy stays).
  void publish(const core::TrainedPolicy& policy);

  ServerStats stats() const;

  /// Merged per-batch size / latency histograms (for reports and benches).
  /// Workers merge their local histograms in periodically; counts are
  /// exact only after stop().
  telemetry::Histogram batch_size_histogram() const;
  telemetry::Histogram decide_us_histogram() const;
  telemetry::Histogram request_decide_us_histogram() const;

 private:
  struct Worker;
  void worker_loop(Worker& worker);
  void flush_telemetry();

  const sim::Scenario& scenario_;
  ServerConfig config_;
  sim::Simulator oracle_;  ///< never run; shared read-only state snapshot
  PolicyStore store_;
  std::atomic<std::uint32_t> next_version_{1};

  int fd_ = -1;
  std::uint16_t port_ = 0;
  std::atomic<bool> stop_{false};
  bool running_ = false;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<std::thread> threads_;

  // Cross-worker counters (relaxed adds on the hot path).
  std::atomic<std::uint64_t> requests_{0}, responses_{0}, protocol_errors_{0},
      invalid_requests_{0}, batches_{0}, gemm_batches_{0}, gemv_decides_{0}, hot_swaps_{0};

  mutable std::mutex hist_mu_;  ///< guards the merged histograms below
  telemetry::Histogram batch_size_hist_;
  telemetry::Histogram decide_us_hist_;
  telemetry::Histogram request_decide_us_hist_;
};

}  // namespace dosc::serve
