#include "serve/server.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>

#include "telemetry/registry.hpp"
#include "util/logging.hpp"

namespace dosc::serve {

namespace {

using Clock = std::chrono::steady_clock;

/// Kernel socket buffer request (bursts at 100k+ req/s overflow the
/// defaults long before the workers are saturated). Applied with the
/// privileged *FORCE options when possible, so it may exceed rmem_max.
constexpr int kSocketBufferBytes = 1 << 24;

double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

[[noreturn]] void throw_errno(const std::string& what) {
  throw std::runtime_error("serve: " + what + ": " + std::strerror(errno));
}

}  // namespace

/// Per-thread serving state: the decision pipeline plus preallocated
/// recvmmsg/sendmmsg scatter-gather arrays and local histograms (merged
/// into the server under a mutex every kFlushBatches passes, so the hot
/// loop never takes a lock it can contend on).
struct UdpServer::Worker {
  static constexpr std::uint64_t kFlushBatches = 256;

  Worker(const sim::Simulator& oracle, std::size_t max_degree, const BatcherConfig& batcher_config)
      : engine(oracle, max_degree, batcher_config.max_batch),
        batcher(batcher_config),
        max_batch(batcher_config.max_batch) {
    recv_bufs.resize(max_batch);
    recv_addrs.resize(max_batch);
    recv_iov.resize(max_batch);
    recv_msgs.resize(max_batch);
    send_bufs.resize(max_batch);
    send_msgs.resize(max_batch);
    send_iov.resize(max_batch);
    requests.resize(max_batch);
    row_of.resize(max_batch);
    for (std::size_t i = 0; i < max_batch; ++i) {
      recv_iov[i].iov_base = recv_bufs[i].data();
      recv_iov[i].iov_len = recv_bufs[i].size();
      std::memset(&recv_msgs[i], 0, sizeof(recv_msgs[i]));
      recv_msgs[i].msg_hdr.msg_iov = &recv_iov[i];
      recv_msgs[i].msg_hdr.msg_iovlen = 1;
      send_iov[i].iov_base = send_bufs[i].data();
      send_iov[i].iov_len = wire::kResponseSize;
      std::memset(&send_msgs[i], 0, sizeof(send_msgs[i]));
      send_msgs[i].msg_hdr.msg_iov = &send_iov[i];
      send_msgs[i].msg_hdr.msg_iovlen = 1;
    }
  }

  DecisionEngine engine;
  AdaptiveBatcher batcher;
  std::size_t max_batch;

  std::vector<std::array<std::uint8_t, wire::kMaxDatagram>> recv_bufs;
  std::vector<sockaddr_in> recv_addrs;
  std::vector<iovec> recv_iov;
  std::vector<mmsghdr> recv_msgs;
  std::vector<std::array<std::uint8_t, wire::kResponseSize>> send_bufs;
  std::vector<iovec> send_iov;
  std::vector<mmsghdr> send_msgs;

  std::vector<wire::Request> requests;
  std::vector<int> row_of;  ///< row slot per datagram; -1 invalid, -2 protocol error
  std::vector<int> actions;

  telemetry::Histogram batch_size_hist;
  telemetry::Histogram decide_us_hist;
  telemetry::Histogram request_decide_us_hist;
  std::uint64_t batches_since_flush = 0;
};

UdpServer::UdpServer(const sim::Scenario& scenario, const core::TrainedPolicy& policy,
                     ServerConfig config)
    : scenario_(scenario),
      config_(std::move(config)),
      oracle_(scenario_, ServerConfig::oracle_seed) {
  if (config_.threads == 0) config_.threads = 1;
  if (config_.batcher.max_batch == 0) config_.batcher.max_batch = 1;
  store_.publish(make_serve_policy(policy, scenario_.network().max_degree(),
                                   next_version_.fetch_add(1)));
  // The observation layout (padded degree) is frozen at construction; every
  // later publish must match it — see publish().
}

UdpServer::~UdpServer() { stop(); }

void UdpServer::start() {
  if (running_) return;
  stop_.store(false, std::memory_order_relaxed);

  fd_ = ::socket(AF_INET, SOCK_DGRAM, 0);
  if (fd_ < 0) throw_errno("socket");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(config_.port);
  if (::inet_pton(AF_INET, config_.bind_address.c_str(), &addr.sin_addr) != 1) {
    ::close(fd_);
    fd_ = -1;
    throw std::runtime_error("serve: invalid bind address " + config_.bind_address);
  }
  if (::bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    const int saved = errno;
    ::close(fd_);
    fd_ = -1;
    errno = saved;
    throw_errno("bind " + config_.bind_address + ":" + std::to_string(config_.port));
  }
  socklen_t len = sizeof(addr);
  ::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);
  // FORCE variants bypass the rmem_max/wmem_max caps when privileged; a
  // deep receive queue is what rides out scheduling stalls at 100k+ req/s.
  // Unprivileged processes fall back to the capped request.
  if (::setsockopt(fd_, SOL_SOCKET, SO_RCVBUFFORCE, &kSocketBufferBytes,
                   sizeof(kSocketBufferBytes)) != 0) {
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &kSocketBufferBytes, sizeof(kSocketBufferBytes));
  }
  if (::setsockopt(fd_, SOL_SOCKET, SO_SNDBUFFORCE, &kSocketBufferBytes,
                   sizeof(kSocketBufferBytes)) != 0) {
    ::setsockopt(fd_, SOL_SOCKET, SO_SNDBUF, &kSocketBufferBytes, sizeof(kSocketBufferBytes));
  }
  const int flags = ::fcntl(fd_, F_GETFL, 0);
  ::fcntl(fd_, F_SETFL, flags | O_NONBLOCK);

  const std::size_t degree = store_.acquire()->max_degree;
  workers_.clear();
  threads_.clear();
  for (std::size_t t = 0; t < config_.threads; ++t) {
    workers_.push_back(std::make_unique<Worker>(oracle_, degree, config_.batcher));
  }
  running_ = true;
  for (std::size_t t = 0; t < config_.threads; ++t) {
    threads_.emplace_back([this, t] { worker_loop(*workers_[t]); });
  }
  util::Log(util::LogLevel::kInfo, "serve")
      << "listening on " << config_.bind_address << ":" << port_ << " (" << config_.threads
      << " threads, max batch " << config_.batcher.max_batch << ")";
}

void UdpServer::stop() {
  if (!running_) return;
  stop_.store(true, std::memory_order_release);
  for (std::thread& t : threads_) t.join();
  threads_.clear();
  ::close(fd_);
  fd_ = -1;
  running_ = false;
  flush_telemetry();
}

void UdpServer::publish(const core::TrainedPolicy& policy) {
  const std::size_t degree = store_.acquire()->max_degree;
  if (policy.max_degree != degree) {
    throw std::runtime_error(
        "serve: hot-swap policy padded degree does not match the serving layout (" +
        std::to_string(policy.max_degree) + " vs " + std::to_string(degree) + ")");
  }
  store_.publish(make_serve_policy(policy, scenario_.network().max_degree(),
                                   next_version_.fetch_add(1)));
  hot_swaps_.fetch_add(1, std::memory_order_relaxed);
}

ServerStats UdpServer::stats() const {
  ServerStats s;
  s.requests = requests_.load(std::memory_order_relaxed);
  s.responses = responses_.load(std::memory_order_relaxed);
  s.protocol_errors = protocol_errors_.load(std::memory_order_relaxed);
  s.invalid_requests = invalid_requests_.load(std::memory_order_relaxed);
  s.batches = batches_.load(std::memory_order_relaxed);
  s.gemm_batches = gemm_batches_.load(std::memory_order_relaxed);
  s.gemv_decides = gemv_decides_.load(std::memory_order_relaxed);
  s.hot_swaps = hot_swaps_.load(std::memory_order_relaxed);
  s.policy_version = store_.acquire()->version;
  return s;
}

telemetry::Histogram UdpServer::batch_size_histogram() const {
  std::lock_guard<std::mutex> lock(hist_mu_);
  return batch_size_hist_;
}
telemetry::Histogram UdpServer::decide_us_histogram() const {
  std::lock_guard<std::mutex> lock(hist_mu_);
  return decide_us_hist_;
}
telemetry::Histogram UdpServer::request_decide_us_histogram() const {
  std::lock_guard<std::mutex> lock(hist_mu_);
  return request_decide_us_hist_;
}

void UdpServer::worker_loop(Worker& worker) {
  const std::size_t max_batch = worker.max_batch;
  const auto flush_hists = [&] {
    std::lock_guard<std::mutex> lock(hist_mu_);
    batch_size_hist_.merge(worker.batch_size_hist);
    decide_us_hist_.merge(worker.decide_us_hist);
    request_decide_us_hist_.merge(worker.request_decide_us_hist);
    worker.batch_size_hist.reset();
    worker.decide_us_hist.reset();
    worker.request_decide_us_hist.reset();
  };

  while (!stop_.load(std::memory_order_acquire)) {
    // recvmmsg overwrites msg_namelen; it must be re-armed every pass.
    for (std::size_t i = 0; i < max_batch; ++i) {
      worker.recv_msgs[i].msg_hdr.msg_name = &worker.recv_addrs[i];
      worker.recv_msgs[i].msg_hdr.msg_namelen = sizeof(sockaddr_in);
    }
    int n = ::recvmmsg(fd_, worker.recv_msgs.data(), static_cast<unsigned>(max_batch),
                       MSG_DONTWAIT, nullptr);
    if (n <= 0) {
      if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
        if (stop_.load(std::memory_order_acquire)) break;
        util::Log(util::LogLevel::kWarn, "serve") << "recvmmsg: " << std::strerror(errno);
      }
      pollfd pfd{fd_, POLLIN, 0};
      ::poll(&pfd, 1, /*timeout_ms=*/50);
      continue;
    }

    // Top the batch up within the adaptive wait budget: only worthwhile in
    // the loaded regime, where the next requests are microseconds away.
    const std::uint64_t budget_us = worker.batcher.wait_budget_us();
    if (static_cast<std::size_t>(n) < max_batch && budget_us > 0) {
      const Clock::time_point deadline = Clock::now() + std::chrono::microseconds(budget_us);
      while (static_cast<std::size_t>(n) < max_batch && Clock::now() < deadline &&
             !stop_.load(std::memory_order_relaxed)) {
        for (std::size_t i = n; i < max_batch; ++i) {
          worker.recv_msgs[i].msg_hdr.msg_name = &worker.recv_addrs[i];
          worker.recv_msgs[i].msg_hdr.msg_namelen = sizeof(sockaddr_in);
        }
        const int more = ::recvmmsg(fd_, worker.recv_msgs.data() + n,
                                    static_cast<unsigned>(max_batch - n), MSG_DONTWAIT, nullptr);
        if (more > 0) n += more;
      }
    }

    // Decode + bind. row_of maps datagram -> observation row (or error).
    std::size_t rows = 0;
    std::uint64_t proto_errors = 0, invalid = 0;
    for (int i = 0; i < n; ++i) {
      const wire::DecodeError err = wire::decode_request(
          worker.recv_bufs[i].data(), worker.recv_msgs[i].msg_len, worker.requests[i]);
      if (err != wire::DecodeError::kOk) {
        worker.row_of[i] = -2;
        ++proto_errors;
        continue;
      }
      if (worker.engine.bind(worker.requests[i], rows)) {
        worker.row_of[i] = static_cast<int>(rows++);
      } else {
        worker.row_of[i] = -1;
        ++invalid;
      }
    }

    // Decide the batch on one pinned snapshot. In-flight publishes never
    // block this; the handle keeps the snapshot's slot alive until release.
    std::uint32_t version = 0;
    if (rows > 0 || invalid > 0) {
      PolicyStore::Handle policy = store_.acquire();
      version = policy->version;
      if (rows > 0) {
        const Clock::time_point t0 = Clock::now();
        const std::size_t gemv_rows = worker.engine.decide(policy->net, rows, worker.actions);
        const Clock::time_point t1 = Clock::now();
        const double decide_us = us_between(t0, t1);
        worker.decide_us_hist.add(decide_us);
        worker.request_decide_us_hist.add(decide_us / static_cast<double>(rows),
                                          static_cast<std::uint64_t>(rows));
        worker.batch_size_hist.add(static_cast<double>(rows));
        batches_.fetch_add(1, std::memory_order_relaxed);
        if (gemv_rows < rows) gemm_batches_.fetch_add(1, std::memory_order_relaxed);
        gemv_decides_.fetch_add(gemv_rows, std::memory_order_relaxed);
      }
    }

    // Build one reply per decodable request, addressed to its sender.
    std::size_t replies = 0;
    for (int i = 0; i < n; ++i) {
      if (worker.row_of[i] == -2) continue;
      wire::Response response;
      response.request_id = worker.requests[i].request_id;
      response.cookie = worker.requests[i].cookie;
      response.policy_version = version;
      if (worker.row_of[i] < 0) {
        response.status = wire::Status::kInvalidRequest;
      } else {
        response.status = wire::Status::kOk;
        response.action = static_cast<std::uint16_t>(worker.actions[worker.row_of[i]]);
        response.batch_size = static_cast<std::uint16_t>(rows);
      }
      wire::encode_response(response, worker.send_bufs[replies].data());
      worker.send_msgs[replies].msg_hdr.msg_name = worker.recv_msgs[i].msg_hdr.msg_name;
      worker.send_msgs[replies].msg_hdr.msg_namelen = worker.recv_msgs[i].msg_hdr.msg_namelen;
      ++replies;
    }

    std::size_t sent = 0;
    while (sent < replies && !stop_.load(std::memory_order_relaxed)) {
      const int out = ::sendmmsg(fd_, worker.send_msgs.data() + sent,
                                 static_cast<unsigned>(replies - sent), MSG_DONTWAIT);
      if (out > 0) {
        sent += static_cast<std::size_t>(out);
      } else if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) {
        pollfd pfd{fd_, POLLOUT, 0};
        ::poll(&pfd, 1, /*timeout_ms=*/10);
      } else {
        util::Log(util::LogLevel::kWarn, "serve") << "sendmmsg: " << std::strerror(errno);
        break;  // drop the rest of this batch's replies, keep serving
      }
    }

    requests_.fetch_add(static_cast<std::uint64_t>(n) - proto_errors,
                        std::memory_order_relaxed);
    responses_.fetch_add(sent, std::memory_order_relaxed);
    if (proto_errors != 0) protocol_errors_.fetch_add(proto_errors, std::memory_order_relaxed);
    if (invalid != 0) invalid_requests_.fetch_add(invalid, std::memory_order_relaxed);
    worker.batcher.on_batch(rows);
    if (++worker.batches_since_flush >= Worker::kFlushBatches) {
      worker.batches_since_flush = 0;
      flush_hists();
    }
  }
  flush_hists();
}

void UdpServer::flush_telemetry() {
  if (!telemetry::enabled()) return;
  telemetry::MetricsRegistry& registry = telemetry::MetricsRegistry::global();
  const ServerStats s = stats();
  registry.counter("serve.requests").add(s.requests);
  registry.counter("serve.responses").add(s.responses);
  registry.counter("serve.protocol_errors").add(s.protocol_errors);
  registry.counter("serve.invalid_requests").add(s.invalid_requests);
  registry.counter("serve.batches").add(s.batches);
  registry.counter("serve.gemm_batches").add(s.gemm_batches);
  registry.counter("serve.gemv_decides").add(s.gemv_decides);
  registry.counter("serve.hot_swaps").add(s.hot_swaps);
  registry.gauge("serve.policy_version").set(static_cast<double>(s.policy_version));
  std::lock_guard<std::mutex> lock(hist_mu_);
  registry.merge_histogram("serve.batch_size", batch_size_hist_);
  registry.merge_histogram("serve.decide_us", decide_us_hist_);
  registry.merge_histogram("serve.request_decide_us", request_decide_us_hist_);
}

}  // namespace dosc::serve
