// Time to a trained policy: the trainer's two schedules, strict (Alg. 1:
// rollout, then update) and overlapped (TrainingConfig::async: iteration
// i+1 rolls out on a helper thread during update i).
//
// Two sections, both landing in BENCH_train_async.json ("dosc.bench.v1"):
//
//  1. Time to a trained policy at the `dosc_cli train` defaults: scenario
//     scenarios/base_poisson_2in.json (Abilene, 2 ingress), 2x64 nets,
//     1 seed, learning rate decayed over the iteration budget. Each point
//     runs train_distributed_policy end to end, greedy evaluation
//     included (as the CLI does), at budgets of 80 and 150 iterations and
//     seed bases 1-5, and reports wall s, greedy success and the selected
//     policy's policy_checksum. Per (schedule, seed base), the first
//     budget whose greedy success reaches 0.8 gives the time to success
//     0.8; a schedule that never reaches it reports null.
//  2. paper_scale() (2x256, 5000 ms episodes, l = 4): ms per training
//     iteration over 20 iterations, 1 seed, timed up to the last update
//     (evaluation excluded).
//
// The points of a seed base alternate which schedule runs first, so a
// drifting host does not favour one. Both schedules are bit-reproducible
// (Trainer.* in test_batched_rollout pins them), so every checksum is a
// pure function of (schedule, budget, seed base).
//
// DOSC_BENCH_SMOKE=1 (CI, sanitizer builds included) shrinks section 1 to
// one seed base x 10 iterations and skips section 2: in a TSan Debug build
// one 2x256 iteration took ~85 s on a 4-vCPU x86-64 guest, and section 1
// already crosses every code path of both schedules.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "core/policy_io.hpp"
#include "core/trainer.hpp"
#include "sim/scenario.hpp"
#include "util/json.hpp"
#include "util/timer.hpp"

using namespace dosc;

namespace {

bool smoke() {
  static const bool on = [] {
    const char* env = std::getenv("DOSC_BENCH_SMOKE");
    return env != nullptr && std::string_view(env) != "0";
  }();
  return on;
}

constexpr double kTargetSuccess = 0.8;

const char* mode_name(bool async) { return async ? "async" : "sync"; }

std::string checksum_hex(std::uint64_t checksum) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(checksum));
  return buf;
}

struct PolicyPoint {
  bool async = false;
  std::size_t iterations = 0;
  std::uint64_t seed_base = 0;
  double wall_s = 0.0;
  core::TrainedPolicy policy;
};

/// One `dosc_cli train` run with the CLI's defaults, timed end to end.
PolicyPoint train_cli_default(const sim::Scenario& scenario, bool async,
                              std::size_t iterations, std::uint64_t seed_base) {
  core::TrainingConfig config;
  config.iterations = iterations;
  config.num_seeds = 1;
  config.updater.lr_decay_updates = iterations;
  config.seed_base = seed_base;
  config.async = async;
  const util::Timer timer;
  core::TrainedPolicy policy = core::train_distributed_policy(scenario, config);
  return {async, iterations, seed_base, timer.elapsed_seconds(), std::move(policy)};
}

/// paper_scale() training, ms per iteration up to the last update.
double paper_scale_ms_per_iteration(const sim::Scenario& scenario, bool async,
                                    std::size_t iterations) {
  core::TrainingConfig config = core::TrainingConfig::paper_scale();
  config.iterations = iterations;
  config.num_seeds = 1;
  config.eval_episodes = 1;  // outside the timed span; keep it short
  config.eval_episode_time = 100.0;
  config.async = async;
  const auto start = std::chrono::steady_clock::now();
  std::chrono::steady_clock::time_point last_update = start;
  core::train_distributed_policy(scenario, config, [&](const core::TrainingProgress&) {
    last_update = std::chrono::steady_clock::now();
  });
  const double ms = std::chrono::duration<double, std::milli>(last_update - start).count();
  return ms / static_cast<double>(iterations);
}

}  // namespace

int main() {
  const unsigned hw = std::thread::hardware_concurrency();
  std::printf("bench_train_async (%s, %u hardware threads)\n", smoke() ? "smoke" : "full", hw);
  const sim::Scenario scenario =
      sim::load_scenario(DOSC_SOURCE_DIR "/scenarios/base_poisson_2in.json");
  const std::vector<std::size_t> budgets =
      smoke() ? std::vector<std::size_t>{10} : std::vector<std::size_t>{80, 150};
  const std::vector<std::uint64_t> seed_bases =
      smoke() ? std::vector<std::uint64_t>{1} : std::vector<std::uint64_t>{1, 2, 3, 4, 5};
  util::Json::Array entries;

  // ---- Section 1: time to a trained policy, CLI defaults ------------------
  std::printf("%-6s %5s %5s %8s %8s %17s\n", "mode", "base", "iters", "wall_s", "success",
              "policy_checksum");
  for (const std::uint64_t base : seed_bases) {
    std::vector<PolicyPoint> points;
    const bool async_first = base % 2 == 0;
    for (const std::size_t budget : budgets) {
      for (const bool async : {async_first, !async_first}) {
        points.push_back(train_cli_default(scenario, async, budget, base));
      }
    }
    for (const PolicyPoint& p : points) {
      const std::string checksum = checksum_hex(core::policy_checksum(p.policy.parameters));
      std::printf("%-6s %5llu %5zu %8.2f %8.3f %17s\n", mode_name(p.async),
                  static_cast<unsigned long long>(p.seed_base), p.iterations, p.wall_s,
                  p.policy.eval_success_ratio, checksum.c_str());
      entries.push_back(util::Json(util::Json::Object{
          {"kind", util::Json(std::string("time_to_policy"))},
          {"mode", util::Json(std::string(mode_name(p.async)))},
          {"seed_base", util::Json(static_cast<std::size_t>(p.seed_base))},
          {"iterations", util::Json(p.iterations)},
          {"hardware_threads", util::Json(static_cast<std::size_t>(hw))},
          {"wall_s", util::Json(p.wall_s)},
          {"success", util::Json(p.policy.eval_success_ratio)},
          {"reward", util::Json(p.policy.eval_reward)},
          {"policy_checksum", util::Json(checksum)},
      }));
    }
    for (const bool async : {false, true}) {
      // Budgets run in ascending order, so the first hit is the earliest.
      std::optional<PolicyPoint> hit;
      for (const PolicyPoint& p : points) {
        if (p.async == async && !hit && p.policy.eval_success_ratio >= kTargetSuccess) hit = p;
      }
      if (hit) {
        std::printf("  %-6s base %llu: success %.1f at %zu iterations, %.2f s\n",
                    mode_name(async), static_cast<unsigned long long>(base), kTargetSuccess,
                    hit->iterations, hit->wall_s);
      } else {
        std::printf("  %-6s base %llu: success %.1f at no budget\n", mode_name(async),
                    static_cast<unsigned long long>(base), kTargetSuccess);
      }
      entries.push_back(util::Json(util::Json::Object{
          {"kind", util::Json(std::string("time_to_success"))},
          {"mode", util::Json(std::string(mode_name(async)))},
          {"seed_base", util::Json(static_cast<std::size_t>(base))},
          {"target_success", util::Json(kTargetSuccess)},
          {"iterations", hit ? util::Json(hit->iterations) : util::Json()},
          {"wall_s", hit ? util::Json(hit->wall_s) : util::Json()},
      }));
    }
  }

  // ---- Section 2: paper_scale() ms per iteration (full runs only) --------
  constexpr std::size_t kPaperIterations = 20;
  for (const bool async : {false, true}) {
    if (smoke()) break;
    const double ms = paper_scale_ms_per_iteration(scenario, async, kPaperIterations);
    std::printf("paper_scale %-6s %zu iterations: %.1f ms/iteration\n", mode_name(async),
                kPaperIterations, ms);
    entries.push_back(util::Json(util::Json::Object{
        {"kind", util::Json(std::string("paper_scale"))},
        {"mode", util::Json(std::string(mode_name(async)))},
        {"iterations", util::Json(kPaperIterations)},
        {"hardware_threads", util::Json(static_cast<std::size_t>(hw))},
        {"ms_per_iteration", util::Json(ms)},
    }));
  }

  const util::Json doc(util::Json::Object{
      {"schema", util::Json("dosc.bench.v1")},
      {"benchmark", util::Json("train_async")},
      {"smoke", util::Json(smoke())},
      {"hardware_threads", util::Json(static_cast<std::size_t>(hw))},
      {"results", util::Json(std::move(entries))},
  });
  const std::string path = "BENCH_train_async.json";
  doc.save_file(path, 2);
  std::printf("wrote %s\n", path.c_str());
  return 0;
}
