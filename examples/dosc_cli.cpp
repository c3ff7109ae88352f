// dosc command-line tool: drive the library from scenario JSON files
// without writing C++. Subcommands:
//
//   dosc_cli topology <name>                     print stats + JSON export
//   dosc_cli train <scenario.json> <policy.json> [--iterations N] [--seeds K]
//   dosc_cli eval  <scenario.json> <algo> [--policy policy.json]
//                  [--episodes N] [--time MS] [--episodes-parallel W]
//                  [--audit] [--stats]
//                  algo: dist|gcasp|sp  (--stats prints event-engine
//                  counters per episode: queue peak, pool sizes, recycling;
//                  --episodes-parallel runs W independent episodes
//                  concurrently, 0 = hardware threads, output unchanged)
//   dosc_cli fuzz  [--seeds N] [--time MS]       differential fuzzing
//   dosc_cli gen-corpus [<dir>] [--verify] [--audit] [--entry NAME]
//                  regenerate the seeded scenario corpus library into <dir>
//                  (default scenarios/corpus). --verify writes nothing and
//                  fails on byte drift vs the checked-in files; --audit
//                  additionally runs every entry under the InvariantAuditor
//   dosc_cli trace <out.json> [--seed S] [--horizon MS]
//   dosc_cli serve <scenario.json> <policy.json> [...]   run the decision
//                  daemon in-process (same flags as the dosc_serve binary)
//   dosc_cli load  <scenario.json> --port P [--rate R] [--requests N]
//                  open-loop Poisson load against a running daemon; prints
//                  achieved rate and e2e latency percentiles
//   dosc_cli init-policy <scenario.json> <policy.json> [--hidden N] [--seed S]
//                  write an untrained policy snapshot (smoke tests, CI)
//
// Unknown subcommands, unknown per-subcommand flags and bad flag values
// (cli_flags.hpp: numbers must parse whole and be finite, counts must be
// in range, and --episodes/--iterations/--seeds/--requests must be >= 1)
// exit 2 with this usage text.
//
// Global flags (any subcommand, default off):
//   --log-level <trace|debug|info|warn|error|off>
//   --telemetry-out <path>   write a metrics snapshot (dosc.telemetry.v1)
//   --trace-out <path>       write a chrome://tracing trace-event JSON
//
// Scenario files use sim::ScenarioConfig::to_json()'s schema; see
// scenarios/ for ready-made examples.
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "baselines/gcasp.hpp"
#include "baselines/shortest_path.hpp"
#include "check/auditor.hpp"
#include "check/corpus.hpp"
#include "check/differential.hpp"
#include "check/digest.hpp"
#include "check/fuzzer.hpp"
#include "cli_flags.hpp"
#include "core/policy_io.hpp"
#include "core/trainer.hpp"
#include "net/topology_io.hpp"
#include "net/topology_zoo.hpp"
#include "nn/gemm.hpp"
#include "serve/daemon.hpp"
#include "serve/loadgen.hpp"
#include "sim/scenario.hpp"
#include "sim/simulator.hpp"
#include "telemetry/telemetry.hpp"
#include "traffic/trace.hpp"
#include "util/logging.hpp"

using namespace dosc;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  dosc_cli topology <abilene|bt_europe|china_telecom|interroute>\n"
               "  dosc_cli train <scenario.json> <policy.json> [--iterations N] [--seeds K]\n"
               "  dosc_cli eval <scenario.json> <dist|gcasp|sp> [--policy p.json]\n"
               "                [--episodes N] [--time MS] [--episodes-parallel W]\n"
               "                [--audit] [--stats]\n"
               "  dosc_cli fuzz [--seeds N] [--time MS]\n"
               "  dosc_cli gen-corpus [<dir>] [--verify] [--audit] [--entry NAME]\n"
               "  dosc_cli trace <out.json> [--seed S] [--horizon MS]\n"
               "  dosc_cli serve <scenario.json> <policy.json> [--port P] [--threads N]\n"
               "                [--max-batch B] [--wait-us U] [--gemm-threshold X]\n"
               "                [--force-gemv] [--reload-ms MS] [--duration S]\n"
               "  dosc_cli load <scenario.json> --port P [--address A] [--rate R]\n"
               "                [--requests N] [--seed S] [--drain-ms MS]\n"
               "  dosc_cli init-policy <scenario.json> <policy.json> [--hidden N] [--seed S]\n"
               "global flags (default off):\n"
               "  --log-level <trace|debug|info|warn|error|off>\n"
               "  --telemetry-out <file>   metrics snapshot JSON (dosc.telemetry.v1)\n"
               "  --trace-out <file>       chrome://tracing trace-event JSON\n");
  return 2;
}

/// Global observability options, stripped from argv before dispatch.
struct GlobalOptions {
  std::string telemetry_out;
  std::string trace_out;
  bool ok = true;
};

/// Consumes --log-level/--telemetry-out/--trace-out (and their values)
/// from argv so subcommand parsing only sees its own flags.
GlobalOptions strip_global_flags(int& argc, char** argv) {
  GlobalOptions options;
  std::vector<char*> kept;
  kept.reserve(static_cast<std::size_t>(argc));
  for (int i = 0; i < argc; ++i) {
    const bool has_value = i + 1 < argc;
    if (std::strcmp(argv[i], "--log-level") == 0 && has_value) {
      util::set_log_level(util::parse_log_level(argv[++i]));
    } else if (std::strcmp(argv[i], "--telemetry-out") == 0 && has_value) {
      options.telemetry_out = argv[++i];
    } else if (std::strcmp(argv[i], "--trace-out") == 0 && has_value) {
      options.trace_out = argv[++i];
    } else if (std::strcmp(argv[i], "--log-level") == 0 ||
               std::strcmp(argv[i], "--telemetry-out") == 0 ||
               std::strcmp(argv[i], "--trace-out") == 0) {
      std::fprintf(stderr, "missing value for %s\n", argv[i]);
      options.ok = false;
    } else {
      kept.push_back(argv[i]);
    }
  }
  argc = static_cast<int>(kept.size());
  for (int i = 0; i < argc; ++i) argv[i] = kept[static_cast<std::size_t>(i)];
  return options;
}

const char* flag_str(int argc, char** argv, const char* name, const char* fallback) {
  for (int i = 0; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) return argv[i + 1];
  }
  return fallback;
}

/// Finite real value of "--flag" in argv, or fallback (cli::parse_real).
double real_flag(int argc, char** argv, const char* name, double fallback) {
  const char* token = flag_str(argc, argv, name, nullptr);
  return token == nullptr ? fallback : cli::parse_real(name, token);
}

/// Integer value of "--flag" in argv, at least `min`, or fallback
/// (cli::parse_count).
template <typename T>
T count_flag(int argc, char** argv, const char* name, T fallback, T min = 0) {
  const char* token = flag_str(argc, argv, name, nullptr);
  return token == nullptr ? fallback : cli::parse_count<T>(name, token, min);
}

bool has_flag(int argc, char** argv, const char* name) {
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) return true;
  }
  return false;
}

/// Strict flag validation: every "--" token after the subcommand must be a
/// known flag of that subcommand. `value_flags` consume the next token;
/// `bool_flags` stand alone. Unknown flags print an error and fail the
/// command (non-zero exit with usage).
bool check_flags(int argc, char** argv, std::initializer_list<const char*> value_flags,
                 std::initializer_list<const char*> bool_flags = {}) {
  const auto in = [](std::initializer_list<const char*> set, const char* token) {
    for (const char* f : set) {
      if (std::strcmp(f, token) == 0) return true;
    }
    return false;
  };
  for (int i = 2; i < argc; ++i) {
    if (argv[i][0] != '-' || argv[i][1] != '-') continue;
    if (in(value_flags, argv[i])) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", argv[i]);
        return false;
      }
      ++i;
    } else if (!in(bool_flags, argv[i])) {
      std::fprintf(stderr, "unknown flag for '%s': %s\n", argv[1], argv[i]);
      return false;
    }
  }
  return true;
}

sim::Scenario load_scenario(const std::string& path) { return sim::load_scenario(path); }

int cmd_topology(int argc, char** argv) {
  if (argc < 3 || !check_flags(argc, argv, {})) return usage();
  const net::Network network = net::by_name(argv[2]);
  const net::TopologyStats s = net::stats(network);
  std::printf("%s: %zu nodes, %zu edges, degree %zu/%zu/%.2f, connected: %s\n",
              network.name().c_str(), s.nodes, s.edges, s.min_degree, s.max_degree,
              s.avg_degree, network.connected() ? "yes" : "no");
  const std::string out = std::string(argv[2]) + "_topology.json";
  net::save_network(network, out);
  std::printf("exported to %s\n", out.c_str());
  return 0;
}

int cmd_train(int argc, char** argv) {
  if (argc < 4 || !check_flags(argc, argv, {"--iterations", "--seeds"})) return usage();
  core::TrainingConfig config;
  config.iterations = count_flag<std::size_t>(argc, argv, "--iterations", 150, 1);
  config.num_seeds = count_flag<std::size_t>(argc, argv, "--seeds", 1, 1);
  config.updater.lr_decay_updates = config.iterations;
  const sim::Scenario scenario = load_scenario(argv[2]);
  // The GEMM tier sets the speed of the update, not its result: printed so
  // a training time can be traced to the kernels that produced it.
  std::printf("training on '%s' (%zu seeds x %zu iterations, gemm %s)...\n",
              scenario.config().name.c_str(), config.num_seeds, config.iterations,
              nn::gemm::tile_name());
  const core::TrainedPolicy policy = core::train_distributed_policy(
      scenario, config, [](const core::TrainingProgress& p) {
        if (p.iteration % 25 == 0) {
          std::printf("  seed %zu iter %3zu reward %9.1f\n", p.seed_index, p.iteration,
                      p.mean_episode_reward);
        }
      });
  core::save_policy(policy, argv[3]);
  std::printf("saved %s (eval success %.3f)\n", argv[3], policy.eval_success_ratio);
  return 0;
}

int cmd_eval(int argc, char** argv) {
  if (argc < 4 ||
      !check_flags(argc, argv, {"--policy", "--episodes", "--time", "--episodes-parallel"},
                   {"--audit", "--stats"})) {
    return usage();
  }
  const std::string algo = argv[3];
  const std::size_t episodes = count_flag<std::size_t>(argc, argv, "--episodes", 5, 1);
  const double time = real_flag(argc, argv, "--time", 5000.0);
  const bool audit = has_flag(argc, argv, "--audit");
  const bool stats = has_flag(argc, argv, "--stats");
  // Concurrent independent episodes (0 = one per hardware thread). Episode
  // seeds are fixed (424242 + e) and results are collected per episode and
  // merged/printed in episode order, so the output is identical to the
  // sequential run at any parallelism level.
  std::size_t parallel = count_flag<std::size_t>(argc, argv, "--episodes-parallel", 1);
  if (parallel == 0) parallel = std::thread::hardware_concurrency();
  if (algo != "dist" && algo != "gcasp" && algo != "sp") return usage();
  const sim::Scenario scenario = load_scenario(argv[2]);
  const sim::Scenario eval = scenario.with_end_time(time);

  const rl::ActorCritic* net = nullptr;
  static std::optional<rl::ActorCritic> net_storage;
  if (algo == "dist") {
    const char* policy_path = flag_str(argc, argv, "--policy", nullptr);
    if (policy_path == nullptr) {
      std::fprintf(stderr, "eval dist requires --policy <file>\n");
      return 2;
    }
    net_storage = core::load_policy(policy_path).instantiate();
    net = &*net_storage;
  }

  struct EpisodeOut {
    double success = 0.0;
    double delay = 0.0;
    bool has_delay = false;
    std::uint64_t digest = 0;
    std::string audit_report;
    std::uint64_t violations = 0;
    sim::Simulator::EngineStats engine{};
  };
  std::vector<EpisodeOut> results(episodes);
  const auto run_episode = [&](std::size_t e) {
    sim::Simulator sim(eval, 424242 + e);
    // With telemetry on, time every decision so the snapshot's
    // sim.decision_us histogram is populated.
    sim.enable_decision_timing(telemetry::enabled());
    // Under --audit, every event is invariant-checked and the episode is
    // pinned to its golden event-stream digest.
    check::InvariantAuditor auditor;
    check::EventDigest digest;
    check::HookChain hooks{&auditor, &digest};
    if (audit) sim.set_audit_hook(&hooks);
    sim::FlowObserver* observer = audit ? &auditor : nullptr;
    sim::SimMetrics m;
    if (algo == "dist") {
      core::DistributedDrlCoordinator c(*net, scenario.network().max_degree());
      m = sim.run(c, observer);
    } else if (algo == "gcasp") {
      baselines::GcaspCoordinator c;
      m = sim.run(c, observer);
    } else {
      baselines::ShortestPathCoordinator c;
      m = sim.run(c, observer);
    }
    EpisodeOut& out = results[e];
    out.success = m.success_ratio();
    out.has_delay = m.e2e_delay.count() > 0;
    if (out.has_delay) out.delay = m.e2e_delay.mean();
    if (audit) {
      out.digest = digest.digest();
      out.audit_report = auditor.report();
      out.violations = auditor.total_violations();
    }
    if (stats) out.engine = sim.engine_stats();
  };

  const std::size_t workers = std::max<std::size_t>(1, std::min(parallel, episodes));
  if (workers <= 1) {
    for (std::size_t e = 0; e < episodes; ++e) run_episode(e);
  } else {
    std::atomic<std::size_t> next{0};
    std::exception_ptr first_error;
    std::mutex error_mu;
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (std::size_t w = 0; w < workers; ++w) {
      pool.emplace_back([&] {
        for (std::size_t e = next.fetch_add(1); e < episodes; e = next.fetch_add(1)) {
          try {
            run_episode(e);
          } catch (...) {
            std::lock_guard<std::mutex> lock(error_mu);
            if (!first_error) first_error = std::current_exception();
          }
        }
      });
    }
    for (std::thread& t : pool) t.join();
    if (first_error) std::rethrow_exception(first_error);
  }

  util::RunningStats success;
  util::RunningStats delay;
  std::uint64_t audit_violations = 0;
  for (std::size_t e = 0; e < episodes; ++e) {
    const EpisodeOut& out = results[e];
    success.add(out.success);
    if (out.has_delay) delay.add(out.delay);
    if (audit) {
      std::printf("  episode %zu: digest %016llx, %s\n", e,
                  static_cast<unsigned long long>(out.digest), out.audit_report.c_str());
      audit_violations += out.violations;
    }
    if (stats) {
      const sim::Simulator::EngineStats& s = out.engine;
      std::printf("  episode %zu engine: queue_peak=%zu live_peak=%zu flow_slots=%zu "
                  "hold_slots=%zu flows_recycled=%llu holds_recycled=%llu "
                  "events_skipped=%llu compactions=%llu\n",
                  e, s.peak_event_heap, s.peak_live_flows, s.flow_slots, s.hold_slots,
                  static_cast<unsigned long long>(s.flows_recycled),
                  static_cast<unsigned long long>(s.holds_recycled),
                  static_cast<unsigned long long>(s.events_skipped),
                  static_cast<unsigned long long>(s.heap_compactions));
    }
  }
  std::printf("%s on '%s': success %.3f +- %.3f, avg e2e %.1f ms (%zu episodes x %.0f ms)\n",
              algo.c_str(), scenario.config().name.c_str(), success.mean(), success.stddev(),
              delay.mean(), episodes, time);
  if (audit_violations != 0) {
    std::fprintf(stderr, "audit FAILED: %llu invariant violation(s)\n",
                 static_cast<unsigned long long>(audit_violations));
    return 1;
  }
  return 0;
}

int cmd_fuzz(int argc, char** argv) {
  if (!check_flags(argc, argv, {"--seeds", "--time"})) return usage();
  std::size_t seeds = count_flag<std::size_t>(argc, argv, "--seeds", 25, 1);
  if (const char* env = std::getenv("DOSC_FUZZ_SEEDS")) {
    seeds = cli::parse_count<std::size_t>("DOSC_FUZZ_SEEDS", env, 1);
  }
  const double time = real_flag(argc, argv, "--time", 0.0);  // 0 = fuzzer's choice

  const check::ScenarioFuzzer fuzzer;
  std::size_t failed = 0;
  for (std::size_t seed = 0; seed < seeds; ++seed) {
    sim::Scenario scenario = fuzzer.make(seed);
    if (time > 0.0) scenario = scenario.with_end_time(time);
    const check::DifferentialResult result = check::run_differential(scenario);
    if (result.ok()) {
      std::printf("seed %zu ok (%s, %zu nodes)\n", seed, scenario.config().name.c_str(),
                  scenario.network().num_nodes());
    } else {
      ++failed;
      std::printf("seed %zu FAILED:\n%s", seed, result.report().c_str());
    }
  }
  std::printf("fuzz: %zu/%zu seeds clean\n", seeds - failed, seeds);
  return failed == 0 ? 0 : 1;
}

int cmd_gen_corpus(int argc, char** argv) {
  if (!check_flags(argc, argv, {"--entry", "--time"}, {"--verify", "--audit"})) {
    return usage();
  }
  std::string dir = "scenarios/corpus";
  if (argc >= 3 && argv[2][0] != '-') dir = argv[2];
  const bool verify = has_flag(argc, argv, "--verify");
  const bool audit = has_flag(argc, argv, "--audit");
  const char* only = flag_str(argc, argv, "--entry", nullptr);
  // Audited replays are capped so `--audit` stays CI-sized even for the
  // wan-500 entries; the cap only shortens the episode, never lengthens it.
  const double audit_time = real_flag(argc, argv, "--time", 2000.0);

  if (!verify) std::filesystem::create_directories(dir);
  std::size_t drifted = 0;
  std::size_t audit_failures = 0;
  std::size_t entries = 0;
  for (const check::CorpusEntryInfo& info : check::CorpusGenerator::library()) {
    if (only != nullptr && info.name != only) continue;
    ++entries;
    const sim::Scenario scenario = check::CorpusGenerator::make(info.name);
    const std::string path = dir + "/" + info.name + ".json";
    const std::string payload = scenario.to_json().dump(2) + "\n";
    if (verify) {
      std::ifstream in(path, std::ios::binary);
      std::ostringstream buffer;
      if (in) buffer << in.rdbuf();
      if (!in || buffer.str() != payload) {
        ++drifted;
        std::printf("%-18s DRIFT: %s %s\n", info.name.c_str(), path.c_str(),
                    in ? "differs from generator output" : "missing");
      } else {
        std::printf("%-18s ok (%zu nodes, %zu links)\n", info.name.c_str(),
                    scenario.network().num_nodes(), scenario.network().num_links());
      }
    } else {
      std::ofstream out(path, std::ios::binary);
      if (!out) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        return 1;
      }
      out << payload;
      std::printf("%-18s wrote %s (%zu nodes, %zu links, seed %llu)\n", info.name.c_str(),
                  path.c_str(), scenario.network().num_nodes(),
                  scenario.network().num_links(),
                  static_cast<unsigned long long>(info.seed));
    }
    if (audit) {
      const sim::Scenario eval =
          scenario.with_end_time(std::min(scenario.config().end_time, audit_time));
      sim::Simulator sim(eval, 424242);
      check::InvariantAuditor auditor;
      check::EventDigest digest;
      check::HookChain hooks{&auditor, &digest};
      sim.set_audit_hook(&hooks);
      baselines::ShortestPathCoordinator coordinator;
      const sim::SimMetrics m = sim.run(coordinator, &auditor);
      std::printf("%-18s audit: digest %016llx success %.3f events %llu %s\n",
                  info.name.c_str(), static_cast<unsigned long long>(digest.digest()),
                  m.success_ratio(),
                  static_cast<unsigned long long>(auditor.events_audited()),
                  auditor.report().c_str());
      if (!auditor.ok()) ++audit_failures;
    }
  }
  if (entries == 0) {
    std::fprintf(stderr, "gen-corpus: no corpus entry named '%s'\n", only ? only : "");
    return 2;
  }
  if (drifted != 0) {
    std::fprintf(stderr,
                 "gen-corpus: %zu entr%s drifted; regenerate with "
                 "`dosc_cli gen-corpus %s` and commit the result\n",
                 drifted, drifted == 1 ? "y" : "ies", dir.c_str());
    return 1;
  }
  if (audit_failures != 0) {
    std::fprintf(stderr, "gen-corpus: %zu entr%s failed the invariant audit\n",
                 audit_failures, audit_failures == 1 ? "y" : "ies");
    return 1;
  }
  return 0;
}

int cmd_trace(int argc, char** argv) {
  if (argc < 3 || !check_flags(argc, argv, {"--seed", "--horizon"})) return usage();
  traffic::DiurnalTraceConfig config;
  config.seed = count_flag<std::uint64_t>(argc, argv, "--seed", 42);
  config.horizon = real_flag(argc, argv, "--horizon", 20000.0);
  const traffic::RateTrace trace = traffic::make_diurnal_trace(config);
  trace.save(argv[2]);
  std::printf("wrote %zu-segment diurnal trace (horizon %.0f ms) to %s\n",
              trace.segments().size(), trace.horizon(), argv[2]);
  return 0;
}

int cmd_serve(int argc, char** argv) {
  return serve::run_daemon(cli::parse_daemon_args(argc, argv, 2));
}

int cmd_load(int argc, char** argv) {
  if (argc < 3 ||
      !check_flags(argc, argv,
                   {"--port", "--address", "--rate", "--requests", "--seed", "--drain-ms"})) {
    return usage();
  }
  serve::LoadConfig config;
  config.port = count_flag<std::uint16_t>(argc, argv, "--port", 0);
  if (config.port == 0) {
    std::fprintf(stderr, "load requires --port <server port>\n");
    return 2;
  }
  config.address = flag_str(argc, argv, "--address", "127.0.0.1");
  config.rate = real_flag(argc, argv, "--rate", 50000.0);
  config.seed = count_flag<std::uint64_t>(argc, argv, "--seed", 1);
  config.drain_timeout_ms = count_flag<int>(argc, argv, "--drain-ms", 500);
  const std::size_t count = count_flag<std::size_t>(argc, argv, "--requests", 100000, 1);
  const sim::Scenario scenario = load_scenario(argv[2]);

  const std::vector<serve::wire::Request> requests =
      serve::make_request_mix(scenario, count, config.seed);
  const serve::LoadReport report = serve::run_load(requests, config);
  std::printf("load: sent %llu in %.2fs (offered %.0f req/s, achieved %.0f req/s)\n",
              static_cast<unsigned long long>(report.sent), report.elapsed_s,
              report.offered_rate, report.achieved_rate);
  std::printf("      received %llu (%llu ok, %llu invalid, %llu server errors), "
              "max batch seen %u\n",
              static_cast<unsigned long long>(report.received),
              static_cast<unsigned long long>(report.ok),
              static_cast<unsigned long long>(report.invalid),
              static_cast<unsigned long long>(report.server_errors), report.max_batch_seen);
  if (report.e2e_us.count() > 0) {
    std::printf("      e2e latency us: p50 %.1f p90 %.1f p99 %.1f max %.1f\n",
                report.e2e_us.percentile(50), report.e2e_us.percentile(90),
                report.e2e_us.percentile(99), report.e2e_us.max());
  }
  std::printf("      policy versions seen:");
  for (const std::uint32_t v : report.policy_versions) std::printf(" %u", v);
  std::printf("\n");
  return report.received > 0 ? 0 : 1;
}

int cmd_init_policy(int argc, char** argv) {
  if (argc < 4 || !check_flags(argc, argv, {"--hidden", "--seed"})) return usage();
  const std::size_t hidden = count_flag<std::size_t>(argc, argv, "--hidden", 64);
  const std::uint64_t seed = count_flag<std::uint64_t>(argc, argv, "--seed", 7);
  const sim::Scenario scenario = load_scenario(argv[2]);
  const core::TrainedPolicy policy = serve::make_untrained_policy(scenario, hidden, seed);
  core::save_policy(policy, argv[3]);
  std::printf("wrote untrained policy for '%s' (%zu params, degree %zu) to %s\n",
              scenario.config().name.c_str(), policy.parameters.size(), policy.max_degree,
              argv[3]);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const GlobalOptions options = strip_global_flags(argc, argv);
  if (!options.ok) return usage();
  if (!options.telemetry_out.empty()) telemetry::set_enabled(true);
  if (!options.trace_out.empty()) telemetry::Tracer::global().set_enabled(true);

  if (argc < 2) return usage();
  const std::string command = argv[1];
  int result = 2;
  try {
    if (command == "topology") {
      result = cmd_topology(argc, argv);
    } else if (command == "train") {
      result = cmd_train(argc, argv);
    } else if (command == "eval") {
      result = cmd_eval(argc, argv);
    } else if (command == "fuzz") {
      result = cmd_fuzz(argc, argv);
    } else if (command == "gen-corpus") {
      result = cmd_gen_corpus(argc, argv);
    } else if (command == "trace") {
      result = cmd_trace(argc, argv);
    } else if (command == "serve") {
      result = cmd_serve(argc, argv);
    } else if (command == "load") {
      result = cmd_load(argc, argv);
    } else if (command == "init-policy") {
      result = cmd_init_policy(argc, argv);
    } else {
      return usage();
    }
  } catch (const cli::FlagError& e) {
    std::fprintf(stderr, "dosc_cli %s: %s\n", command.c_str(), e.what());
    return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }

  try {
    if (!options.telemetry_out.empty()) {
      telemetry::write_snapshot(telemetry::MetricsRegistry::global(), options.telemetry_out,
                                {{"command", util::Json(command)}});
      std::printf("telemetry snapshot: %s\n", options.telemetry_out.c_str());
    }
    if (!options.trace_out.empty()) {
      telemetry::Tracer::global().save_chrome_json(options.trace_out);
      std::printf("trace: %s (%zu events)\n", options.trace_out.c_str(),
                  telemetry::Tracer::global().events().size());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error writing telemetry output: %s\n", e.what());
    return 1;
  }
  return result;
}
