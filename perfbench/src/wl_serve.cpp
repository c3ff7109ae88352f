// serve: an in-process serve::UdpServer (1 worker, default batcher) serving
// the 2x256 net on the base scenario over loopback. The only workload that
// runs the wire, the batcher and the socket loop.
//
// Two phases per repetition, each against a fresh server whose worker is
// pinned to the repetition's CPU (the generator runs on the other CPUs);
// each statistic keeps its best repetition:
//  * latency: an open-loop Poisson schedule at 10k req/s. Every request's
//    cookie carries its *scheduled* send instant, so e2e latency includes
//    any wait a stalled sender imposes (no coordinated omission), and the
//    sender's own lateness is reported separately;
//  * capacity: a closed loop keeping kWindow requests in flight, which
//    saturates the worker; its completion rate is the throughput.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sched.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>
#include <x86intrin.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cerrno>
#include <cstring>
#include <exception>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>

#include "harness.hpp"
#include "serve/daemon.hpp"
#include "serve/engine.hpp"
#include "serve/loadgen.hpp"
#include "serve/server.hpp"
#include "serve/wire.hpp"
#include "sim/scenario.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

namespace wire = dosc::serve::wire;

constexpr double kRate = 10000.0;          ///< offered load, requests per second
constexpr std::size_t kHidden = 256;
constexpr std::uint64_t kPolicySeed = 7;
constexpr std::size_t kDistinctRequests = 20000;  ///< request mix, cycled
constexpr std::size_t kWindow = 64;        ///< capacity phase requests in flight
/// Requests per second of --seconds, per repetition.
constexpr double kLatencyRequestsPerSecond = 750.0;
constexpr double kCapacityRequestsPerSecond = 2000.0;
constexpr int kDrainMs = 300;
/// Requests per timed chunk: the latency schedule and the capacity stream
/// are split into chunks of this many requests (tens of ms of load), and
/// each chunk keeps its fastest repetition.
constexpr std::size_t kLatencyChunk = 500;
constexpr std::size_t kCapacityChunk = 2000;

std::uint64_t now_ns(Clock::time_point origin) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin).count());
}

/// A connected non-blocking UDP socket to the server.
class Socket {
 public:
  explicit Socket(std::uint16_t port) : fd_(::socket(AF_INET, SOCK_DGRAM, 0)) {
    if (fd_ < 0) throw std::runtime_error(std::string("socket: ") + std::strerror(errno));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) < 0) {
      ::close(fd_);
      throw std::runtime_error(std::string("connect: ") + std::strerror(errno));
    }
    const int bytes = 1 << 22;
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &bytes, sizeof(bytes));
    ::setsockopt(fd_, SOL_SOCKET, SO_SNDBUF, &bytes, sizeof(bytes));
  }
  ~Socket() { ::close(fd_); }
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;
  int fd() const noexcept { return fd_; }

 private:
  int fd_;
};

/// Per-request outcome of one phase, indexed by request_id.
struct Replies {
  explicit Replies(std::size_t n) : e2e_us(n, -1.0), recv_ns(n, 0), action(n, -1), status(n, -1) {}
  std::vector<double> e2e_us;  ///< reply instant minus scheduled send instant
  std::vector<std::uint64_t> recv_ns;  ///< reply instant after the phase origin
  std::vector<int> action;
  std::vector<int> status;
  std::uint64_t received = 0;
  std::uint64_t undecodable = 0;
};

/// Receiver loop: runs until `expected` replies arrived, or the sender is
/// done and no reply came for kDrainMs.
void receive(int fd, Clock::time_point origin, std::size_t expected,
             const std::atomic<bool>& sender_done, std::atomic<std::uint64_t>& received,
             Replies& out) {
  ::prctl(PR_SET_TIMERSLACK, 1000UL);
  constexpr std::size_t kBatch = 64;
  std::array<std::array<std::uint8_t, wire::kMaxDatagram>, kBatch> bufs;
  std::array<iovec, kBatch> iov;
  std::array<mmsghdr, kBatch> msgs;
  for (std::size_t i = 0; i < kBatch; ++i) {
    iov[i] = {bufs[i].data(), bufs[i].size()};
    std::memset(&msgs[i], 0, sizeof(msgs[i]));
    msgs[i].msg_hdr.msg_iov = &iov[i];
    msgs[i].msg_hdr.msg_iovlen = 1;
  }
  Clock::time_point last_progress = Clock::now();
  while (out.received < expected) {
    const int got = ::recvmmsg(fd, msgs.data(), kBatch, MSG_DONTWAIT, nullptr);
    if (got > 0) {
      const std::uint64_t now = now_ns(origin);
      last_progress = Clock::now();
      for (int i = 0; i < got; ++i) {
        wire::Response r;
        if (wire::decode_response(bufs[i].data(), msgs[i].msg_len, r) != wire::DecodeError::kOk ||
            r.request_id >= out.e2e_us.size() || out.status[r.request_id] >= 0) {
          ++out.undecodable;
          continue;
        }
        out.e2e_us[r.request_id] = static_cast<double>(now - r.cookie) / 1e3;
        out.recv_ns[r.request_id] = now;
        out.status[r.request_id] = static_cast<int>(r.status);
        out.action[r.request_id] = r.action;
        ++out.received;
      }
      received.store(out.received, std::memory_order_release);
      continue;
    }
    if (sender_done.load(std::memory_order_acquire) &&
        Clock::now() - last_progress > std::chrono::milliseconds(kDrainMs)) {
      break;
    }
    // Spin: a receiver asleep on an idle vCPU adds its wake-up latency
    // (tens of us under KVM) to every measured reply.
    _mm_pause();
  }
}

/// Sends requests[0..count) (request i carries mix[i % mix.size()]). With a
/// schedule, request i is due at schedule[i] ns after origin (open loop);
/// without one, at most `window` requests are kept in flight (closed loop).
/// Returns the sender's lateness per request (us) in the open-loop case.
std::vector<double> send_all(int fd, Clock::time_point origin,
                             const std::vector<wire::Request>& mix, std::size_t count,
                             const std::vector<std::uint64_t>* schedule, std::size_t window,
                             const std::atomic<std::uint64_t>& received) {
  ::prctl(PR_SET_TIMERSLACK, 1000UL);
  constexpr std::size_t kBatch = 64;
  std::array<std::array<std::uint8_t, wire::kRequestSize>, kBatch> bufs;
  std::array<iovec, kBatch> iov;
  std::array<mmsghdr, kBatch> msgs;
  for (std::size_t i = 0; i < kBatch; ++i) {
    iov[i] = {bufs[i].data(), wire::kRequestSize};
    std::memset(&msgs[i], 0, sizeof(msgs[i]));
    msgs[i].msg_hdr.msg_iov = &iov[i];
    msgs[i].msg_hdr.msg_iovlen = 1;
  }
  std::vector<double> lateness_us;
  if (schedule != nullptr) lateness_us.reserve(count);
  std::size_t next = 0;
  Clock::time_point last_progress = Clock::now();
  std::uint64_t last_received = 0;
  while (next < count) {
    std::size_t due = 0;
    const std::uint64_t now = now_ns(origin);
    if (schedule != nullptr) {
      if ((*schedule)[next] > now) {
        // Spin: a sender asleep on a halted vCPU wakes tens of us to ms late
        // under KVM, and that lateness would be charged to the server.
        _mm_pause();
        continue;
      }
      while (due < kBatch && next + due < count && (*schedule)[next + due] <= now) ++due;
    } else {
      const std::uint64_t done = received.load(std::memory_order_acquire);
      if (done != last_received) {
        last_received = done;
        last_progress = Clock::now();
      } else if (Clock::now() - last_progress > std::chrono::milliseconds(kDrainMs)) {
        break;  // replies lost: the window can no longer refill
      }
      const std::size_t in_flight = next - static_cast<std::size_t>(done);
      if (in_flight >= window) {
        _mm_pause();
        continue;
      }
      due = std::min({kBatch, window - in_flight, count - next});
    }
    for (std::size_t i = 0; i < due; ++i) {
      wire::Request r = mix[(next + i) % mix.size()];
      r.request_id = next + i;
      r.cookie = schedule != nullptr ? (*schedule)[next + i] : now;
      wire::encode_request(r, bufs[i].data());
    }
    std::size_t fired = 0;
    while (fired < due) {
      const int out = ::sendmmsg(fd, msgs.data() + fired, static_cast<unsigned>(due - fired), 0);
      if (out > 0) {
        fired += static_cast<std::size_t>(out);
      } else if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR || errno == ENOBUFS) {
        pollfd pfd{fd, POLLOUT, 0};
        ::poll(&pfd, 1, 1);
      } else {
        throw std::runtime_error(std::string("sendmmsg: ") + std::strerror(errno));
      }
    }
    if (schedule != nullptr) {
      const std::uint64_t sent_at = now_ns(origin);
      for (std::size_t i = 0; i < due; ++i) {
        lateness_us.push_back(static_cast<double>(sent_at - (*schedule)[next + i]) / 1e3);
      }
    }
    next += due;
  }
  return lateness_us;
}

struct Phase {
  Replies replies;
  std::vector<double> lateness_us;
  explicit Phase(std::size_t n) : replies(n) {}
};

/// Keeps a CPU from halting while the server worker on it waits for the next
/// request: a SCHED_IDLE thread spins there, and the worker preempts it the
/// moment it wakes. Otherwise every open-loop request finds the worker's
/// vCPU halted, and its reply waits until KVM runs that vCPU again (tens of
/// us to ms, with the host's load): the host's latency, not the server's.
/// The thread inherits the affinity of the thread that constructs this.
class IdleKeeper {
 public:
  IdleKeeper() : thread_([this] { spin(); }) {}
  ~IdleKeeper() {
    stop_.store(true, std::memory_order_relaxed);
    thread_.join();
  }
  IdleKeeper(const IdleKeeper&) = delete;
  IdleKeeper& operator=(const IdleKeeper&) = delete;

 private:
  void spin() {
    const sched_param param{};
    // At normal priority the spinner would take turns with the worker.
    if (::sched_setscheduler(0, SCHED_IDLE, &param) != 0) return;
    while (!stop_.load(std::memory_order_relaxed)) _mm_pause();
  }

  std::atomic<bool> stop_{false};
  std::thread thread_;
};

/// The CPU `k` places after `cpu` in the allowed set.
int cpu_after(int cpu, std::size_t k) {
  const std::vector<int>& cpus = allowed_cpus();
  const std::size_t at = std::find(cpus.begin(), cpus.end(), cpu) - cpus.begin();
  return cpus[(at + k) % cpus.size()];
}

/// Sender on this thread and receiver on its own, each pinned to a CPU of
/// its own next to the server worker's when the allowed set has room.
Phase run_phase(std::uint16_t port, int worker_cpu, const std::vector<wire::Request>& mix,
                std::size_t count, const std::vector<std::uint64_t>* schedule) {
  Phase phase(count);
  const Socket socket(port);
  std::atomic<bool> sender_done{false};
  std::atomic<std::uint64_t> received{0};
  const bool room = allowed_cpus().size() >= 3;
  if (room) pin_to(cpu_after(worker_cpu, 1));
  const Clock::time_point origin = Clock::now();
  std::exception_ptr receiver_error;
  std::thread receiver([&] {
    try {
      if (room) pin_to(cpu_after(worker_cpu, 2));
      receive(socket.fd(), origin, count, sender_done, received, phase.replies);
    } catch (...) {
      receiver_error = std::current_exception();
    }
  });
  std::exception_ptr sender_error;
  try {
    phase.lateness_us = send_all(socket.fd(), origin, mix, count, schedule, kWindow, received);
  } catch (...) {
    sender_error = std::current_exception();
  }
  sender_done.store(true, std::memory_order_release);
  receiver.join();
  if (sender_error) std::rethrow_exception(sender_error);
  if (receiver_error) std::rethrow_exception(receiver_error);
  return phase;
}

/// One repetition: both phases with the server worker pinned to `cpu`.
struct Rep {
  double setup_s = 0.0, build_s = 0.0;
  double latency_phase_s = 0.0, capacity_phase_s = 0.0, stop_s = 0.0;
  double e2e_p50 = 0.0, e2e_p99 = 0.0;
  double lateness_p50 = 0.0, lateness_p99 = 0.0;
  std::vector<double> e2e_us;            ///< per request; -1 without an OK reply
  std::vector<double> capacity_chunk_s;  ///< per kCapacityChunk replies
  std::uint64_t ok = 0, invalid = 0, server_errors = 0, lost = 0, mismatched = 0, undecodable = 0;
  dosc::serve::ServerStats stats;
  dosc::telemetry::Histogram batch_rows, batch_decide_us, request_decide_us;
};

/// Counts a phase's replies against the locally decided actions.
void tally(Rep& rep, const Phase& phase, const std::vector<int>& expected) {
  const Replies& r = phase.replies;
  for (std::size_t id = 0; id < r.status.size(); ++id) {
    if (r.status[id] < 0) {
      ++rep.lost;
    } else if (r.status[id] == static_cast<int>(wire::Status::kInvalidRequest)) {
      ++rep.invalid;
    } else if (r.status[id] != static_cast<int>(wire::Status::kOk)) {
      ++rep.server_errors;
    } else {
      ++rep.ok;
      if (r.action[id] != expected[id % expected.size()]) ++rep.mismatched;
    }
  }
  rep.undecodable += r.undecodable;
}

struct Inputs {
  std::vector<wire::Request> mix;
  std::vector<int> expected;              ///< local DecisionEngine action per mix entry
  std::vector<std::uint64_t> schedule;    ///< open-loop send instants (ns)
  std::size_t latency_requests = 0, capacity_requests = 0;
};

Rep run_rep(int cpu, const Inputs& in) {
  Rep rep;
  pin_to(cpu);  // the server worker inherits this thread's affinity
  const Clock::time_point t0 = Clock::now();
  const dosc::sim::Scenario scenario = dosc::sim::make_base_scenario();
  rep.build_s = seconds_between(t0, Clock::now());
  const dosc::core::TrainedPolicy policy =
      dosc::serve::make_untrained_policy(scenario, kHidden, kPolicySeed);
  auto server = std::make_unique<dosc::serve::UdpServer>(scenario, policy,
                                                         dosc::serve::ServerConfig{});
  server->start();
  rep.setup_s = seconds_between(t0, Clock::now());
  auto keeper = std::make_unique<IdleKeeper>();  // on the worker's CPU
  pin_to_all_except(cpu);  // generator threads inherit the other CPUs

  const Clock::time_point l0 = Clock::now();
  const Phase latency =
      run_phase(server->port(), cpu, in.mix, in.latency_requests, &in.schedule);
  rep.latency_phase_s = seconds_between(l0, Clock::now());
  keeper.reset();
  const Clock::time_point s0 = Clock::now();
  server->stop();  // counters and histograms are exact after stop()
  rep.stop_s = seconds_between(s0, Clock::now());
  rep.stats = server->stats();
  rep.batch_rows = server->batch_size_histogram();
  rep.batch_decide_us = server->decide_us_histogram();
  rep.request_decide_us = server->request_decide_us_histogram();
  server.reset();

  std::vector<double> e2e;
  e2e.reserve(latency.replies.e2e_us.size());
  rep.e2e_us = latency.replies.e2e_us;
  for (std::size_t id = 0; id < rep.e2e_us.size(); ++id) {
    if (latency.replies.status[id] == static_cast<int>(wire::Status::kOk)) {
      e2e.push_back(rep.e2e_us[id]);
    } else {
      rep.e2e_us[id] = -1.0;
    }
  }
  rep.e2e_p50 = percentile(e2e, 50.0);
  rep.e2e_p99 = percentile(e2e, 99.0);
  rep.lateness_p50 = percentile(latency.lateness_us, 50.0);
  rep.lateness_p99 = percentile(latency.lateness_us, 99.0);
  tally(rep, latency, in.expected);

  pin_to(cpu);
  const Clock::time_point c0 = Clock::now();
  dosc::serve::UdpServer capacity_server(scenario, policy, dosc::serve::ServerConfig{});
  capacity_server.start();
  pin_to_all_except(cpu);
  const Phase capacity =
      run_phase(capacity_server.port(), cpu, in.mix, in.capacity_requests, nullptr);
  capacity_server.stop();
  rep.capacity_phase_s = seconds_between(c0, Clock::now());
  // Chunk k ends when the last reply of requests [k*C, (k+1)*C) arrived.
  std::uint64_t chunk_start = 0;
  for (std::size_t first = 0; first < in.capacity_requests; first += kCapacityChunk) {
    const std::size_t last = std::min(first + kCapacityChunk, in.capacity_requests);
    const std::uint64_t end = *std::max_element(capacity.replies.recv_ns.begin() + first,
                                                capacity.replies.recv_ns.begin() + last);
    rep.capacity_chunk_s.push_back(static_cast<double>(end - std::min(end, chunk_start)) / 1e9);
    chunk_start = std::max(chunk_start, end);
  }
  tally(rep, capacity, in.expected);
  unpin();
  return rep;
}

struct Pass {
  std::vector<Rep> reps;
  double wall_s = 0.0;

  /// Each latency chunk keeps the repetition with its lowest median; the
  /// percentiles are taken over the pooled samples of those repetitions.
  std::vector<double> best_e2e_us() const {
    std::vector<double> pooled, chunk;
    const std::size_t n = reps[0].e2e_us.size();
    for (std::size_t first = 0; first < n; first += kLatencyChunk) {
      const std::size_t last = std::min(first + kLatencyChunk, n);
      std::vector<double> best;
      double best_p50 = 0.0;
      for (const Rep& r : reps) {
        chunk.clear();
        for (std::size_t id = first; id < last; ++id) {
          if (r.e2e_us[id] >= 0.0) chunk.push_back(r.e2e_us[id]);
        }
        const double p50 = percentile(chunk, 50.0);
        if (best.empty() || p50 < best_p50) {
          best = chunk;
          best_p50 = p50;
        }
      }
      pooled.insert(pooled.end(), best.begin(), best.end());
    }
    return pooled;
  }
  /// Replies per second over the fastest repetition of every capacity chunk.
  double capacity_per_s(std::size_t requests) const {
    double total = 0.0;
    for (std::size_t k = 0; k < reps[0].capacity_chunk_s.size(); ++k) {
      double b = reps[0].capacity_chunk_s[k];
      for (const Rep& r : reps) b = std::min(b, r.capacity_chunk_s[k]);
      total += b;
    }
    return static_cast<double>(requests) / total;
  }
};

Pass run_pass(Result& result, const Inputs& in) {
  Pass pass;
  const Clock::time_point t0 = Clock::now();
  for (std::size_t rep = 0; rep < kReps; ++rep) {
    pass.reps.push_back(run_rep(cpu_for_rep(rep), in));
    const Rep& r = pass.reps.back();
    result.attempted += in.latency_requests + in.capacity_requests;
    result.check(r.lost == 0, "serve: requests without a reply", r.lost);
    result.check(r.invalid + r.server_errors == 0, "serve: invalid or server-error replies",
                 r.invalid + r.server_errors);
    result.check(r.mismatched == 0, "serve: served action differs from the local engine",
                 r.mismatched);
    result.check(r.stats.protocol_errors == 0 && r.undecodable == 0, "serve: protocol errors");
  }
  pass.wall_s = seconds_between(t0, Clock::now());
  return pass;
}

Inputs make_inputs(const Args& args, double scale) {
  Inputs in;
  const dosc::sim::Scenario scenario = dosc::sim::make_base_scenario();
  in.mix = dosc::serve::make_request_mix(scenario, kDistinctRequests,
                                         derive_seed(args.seed, 1));
  in.latency_requests = static_cast<std::size_t>(args.seconds * kLatencyRequestsPerSecond * scale);
  in.capacity_requests =
      static_cast<std::size_t>(args.seconds * kCapacityRequestsPerSecond * scale);
  dosc::util::Rng rng(derive_seed(args.seed, 2));
  const double mean_gap_ns = 1e9 / kRate;
  double t = 1e6;  // first request 1 ms after the phase starts
  for (std::size_t i = 0; i < in.latency_requests; ++i) {
    t += rng.exponential(mean_gap_ns);
    in.schedule.push_back(static_cast<std::uint64_t>(t));
  }
  // Reference decisions: the serving pipeline run locally, one request at
  // a time on the GEMV path, against the same oracle seed.
  const dosc::core::TrainedPolicy policy =
      dosc::serve::make_untrained_policy(scenario, kHidden, kPolicySeed);
  const dosc::rl::ActorCritic net = policy.instantiate();
  const dosc::sim::Simulator oracle(scenario, dosc::serve::ServerConfig{}.oracle_seed);
  dosc::serve::DecisionEngine engine(oracle, policy.max_degree, 1);
  std::vector<int> action;
  for (const wire::Request& r : in.mix) {
    if (!engine.bind(r, 0)) throw std::runtime_error("serve: request mix holds an invalid request");
    engine.decide(net, 1, action);
    in.expected.push_back(action[0]);
  }
  return in;
}

}  // namespace

Result run_serve(const Args& args) {
  Result result;
  const Inputs in = make_inputs(args, args.trace ? 0.5 : 1.0);
  const Pass pass = run_pass(result, in);
  Rep total;
  for (const Rep& r : pass.reps) {
    total.ok += r.ok;
    total.invalid += r.invalid;
    total.server_errors += r.server_errors;
    total.lost += r.lost;
  }
  result.counts = {{"latency_requests_per_rep", in.latency_requests},
                   {"capacity_requests_per_rep", in.capacity_requests},
                   {"sent", (in.latency_requests + in.capacity_requests) * pass.reps.size()},
                   {"ok", total.ok},
                   {"invalid", total.invalid},
                   {"server_error", total.server_errors},
                   {"lost", total.lost}};
  std::vector<double> setup;
  for (const Rep& r : pass.reps) setup.push_back(r.setup_s);
  const std::vector<double> e2e = pass.best_e2e_us();
  const double p50 = percentile(e2e, 50.0);
  if (!args.trace) {
    add_end_to_end(result, pass.capacity_per_s(in.capacity_requests), p50, median(setup));
    return result;
  }

  // Traced pass: the same protocol again. The serving layers are timed by
  // the server's own always-on histograms, so the two passes run the same
  // code and trace_overhead reads their difference.
  const Pass traced = run_pass(result, in);
  const Rep* best = &traced.reps[0];
  for (const Rep& r : traced.reps) {
    if (r.e2e_p50 < best->e2e_p50) best = &r;
  }
  double setup_ms = 0.0, latency_ms = 0.0, capacity_ms = 0.0, stop_ms = 0.0;
  for (const Rep& r : traced.reps) {
    setup_ms += r.setup_s * 1e3;
    latency_ms += r.latency_phase_s * 1e3;
    capacity_ms += r.capacity_phase_s * 1e3;
    stop_ms += r.stop_s * 1e3;
  }
  const double wall_ms = traced.wall_s * 1e3;
  const double residual_ms = wall_ms - setup_ms - latency_ms - capacity_ms - stop_ms;
  result.wall_ms = wall_ms;
  result.layer_ms = {{"setup (scenario, policy, server)", setup_ms},
                     {"open-loop latency phase", latency_ms},
                     {"closed-loop capacity phase", capacity_ms},
                     {"server stop", stop_ms},
                     {"residual", residual_ms}};
  const double batch_decide_p50 = best->batch_decide_us.percentile(50.0);
  std::fprintf(stderr,
               "serve best rep: e2e p50 %.1f us = lateness %.1f + batch decide %.1f + "
               "kernel/socket residual %.1f\n",
               best->e2e_p50, best->lateness_p50, batch_decide_p50,
               best->e2e_p50 - batch_decide_p50 - best->lateness_p50);

  LayerReport layers;
  layers.set("net.scenario_build_ms", best->build_s * 1e3);
  layers.set("serve.gen_lateness_p50_us", best->lateness_p50);
  layers.set("serve.gen_lateness_p99_us", best->lateness_p99);
  layers.set("serve.batch_rows_p50", best->batch_rows.percentile(50.0));
  layers.set("serve.batch_rows_p90", best->batch_rows.percentile(90.0));
  layers.set("serve.gemm_batch_share", best->stats.batches > 0
                                           ? static_cast<double>(best->stats.gemm_batches) /
                                                 best->stats.batches
                                           : 0.0);
  layers.set("serve.batch_decide_p50_us", batch_decide_p50);
  layers.set("serve.request_decide_p50_us", best->request_decide_us.percentile(50.0));
  layers.set("serve.kernel_residual_p50_us",
             best->e2e_p50 - batch_decide_p50 - best->lateness_p50);
  layers.set("serve.e2e_p90_us", percentile(e2e, 90.0));
  layers.set("serve.e2e_p99_us", best->e2e_p99);
  layers.set("residual_share", residual_ms / wall_ms);
  layers.set("trace_overhead", percentile(traced.best_e2e_us(), 50.0) / p50 - 1.0);
  layers.emit(result);
  return result;
}

}  // namespace perfbench
