#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/logging.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/string_util.hpp"
#include "util/timer.hpp"
#include "util/workers.hpp"

namespace dosc::util {
namespace {

TEST(Rng, SameSeedSameStream) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform(0.0, 1.0), b.uniform(0.0, 1.0));
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.uniform(0.0, 1.0) == b.uniform(0.0, 1.0)) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(Rng, UniformRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform(2.0, 5.0);
    EXPECT_GE(x, 2.0);
    EXPECT_LT(x, 5.0);
  }
}

TEST(Rng, UniformIntInclusive) {
  Rng rng(7);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto x = rng.uniform_int(0, 3);
    EXPECT_GE(x, 0);
    EXPECT_LE(x, 3);
    saw_lo |= (x == 0);
    saw_hi |= (x == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, ExponentialMean) {
  Rng rng(11);
  double sum = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(10.0);
  EXPECT_NEAR(sum / n, 10.0, 0.2);
}

TEST(Rng, ForkDecorrelated) {
  Rng parent(3);
  Rng a = parent.fork(1);
  Rng b = parent.fork(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.uniform(0.0, 1.0) == b.uniform(0.0, 1.0)) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(Rng, CategoricalRespectsWeights) {
  Rng rng(5);
  const std::vector<double> weights{1.0, 0.0, 3.0};
  std::vector<int> counts(3, 0);
  const int n = 40000;
  for (int i = 0; i < n; ++i) ++counts[rng.categorical(weights)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[0]) / n, 0.25, 0.02);
  EXPECT_NEAR(static_cast<double>(counts[2]) / n, 0.75, 0.02);
}

TEST(Rng, CategoricalDegenerate) {
  Rng rng(5);
  EXPECT_EQ(rng.categorical({}), 0u);
  EXPECT_EQ(rng.categorical({0.0, 0.0}), 1u);
}

TEST(Rng, BernoulliProbability) {
  Rng rng(9);
  int heads = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) heads += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(heads) / n, 0.3, 0.02);
}

TEST(RunningStats, MeanVarianceMinMax) {
  RunningStats s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

TEST(RunningStats, MergeMatchesSequential) {
  RunningStats all;
  RunningStats a;
  RunningStats b;
  Rng rng(13);
  for (int i = 0; i < 500; ++i) {
    const double x = rng.normal(3.0, 2.0);
    all.add(x);
    (i % 2 == 0 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStats, MergeWithEmpty) {
  RunningStats a;
  a.add(1.0);
  a.add(3.0);
  RunningStats empty;
  a.merge(empty);
  EXPECT_EQ(a.count(), 2u);
  empty.merge(a);
  EXPECT_EQ(empty.count(), 2u);
  EXPECT_DOUBLE_EQ(empty.mean(), 2.0);
}

TEST(RunningStats, MergeWithEmptyKeepsMinMax) {
  // min/max must survive merging an empty accumulator in either direction,
  // even when the real extrema straddle the empty accumulator's 0 defaults.
  RunningStats a;
  a.add(-2.0);
  a.add(4.0);
  RunningStats empty;
  a.merge(empty);
  EXPECT_DOUBLE_EQ(a.min(), -2.0);
  EXPECT_DOUBLE_EQ(a.max(), 4.0);
  RunningStats target;
  target.merge(a);
  EXPECT_DOUBLE_EQ(target.min(), -2.0);
  EXPECT_DOUBLE_EQ(target.max(), 4.0);
}

TEST(RunningStats, MergeBothEmptyStaysEmpty) {
  RunningStats a;
  RunningStats b;
  a.merge(b);
  EXPECT_EQ(a.count(), 0u);
  EXPECT_DOUBLE_EQ(a.mean(), 0.0);
  EXPECT_DOUBLE_EQ(a.variance(), 0.0);
  EXPECT_DOUBLE_EQ(a.min(), 0.0);
  EXPECT_DOUBLE_EQ(a.max(), 0.0);
}

TEST(RunningStats, MergePropagatesMinMaxAcrossParts) {
  RunningStats a;
  RunningStats b;
  a.add(10.0);
  b.add(-10.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.mean(), 0.0);
  EXPECT_DOUBLE_EQ(a.min(), -10.0);
  EXPECT_DOUBLE_EQ(a.max(), 10.0);
  EXPECT_NEAR(a.variance(), 200.0, 1e-9);
}

TEST(BatchStats, MeanStddevPercentile) {
  const std::vector<double> xs{1.0, 2.0, 3.0, 4.0, 5.0};
  EXPECT_DOUBLE_EQ(mean(xs), 3.0);
  EXPECT_NEAR(stddev(xs), std::sqrt(2.5), 1e-12);
  EXPECT_DOUBLE_EQ(percentile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 50.0), 3.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100.0), 5.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 25.0), 2.0);
  EXPECT_DOUBLE_EQ(percentile({}, 50.0), 0.0);
}

TEST(StringUtil, SplitAndTrim) {
  const auto parts = split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(trim("  hi \t\n"), "hi");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
}

TEST(StringUtil, FormatAndPad) {
  EXPECT_EQ(format_double(3.14159, 2), "3.14");
  EXPECT_EQ(pad_left("ab", 5), "   ab");
  EXPECT_EQ(pad_right("ab", 5), "ab   ");
  EXPECT_EQ(pad_left("abcdef", 3), "abcdef");
  EXPECT_TRUE(starts_with("abilene", "abi"));
  EXPECT_FALSE(starts_with("ab", "abc"));
}

TEST(Timer, Monotonic) {
  Timer t;
  const double first = t.elapsed_seconds();
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  EXPECT_GE(t.elapsed_seconds(), first);
  EXPECT_GT(t.elapsed_millis(), 0.0);
}

TEST(Logging, LevelsParseAndFilter) {
  EXPECT_EQ(parse_log_level("debug"), LogLevel::kDebug);
  EXPECT_EQ(parse_log_level("nonsense"), LogLevel::kInfo);
  const LogLevel before = log_level();
  set_log_level(LogLevel::kOff);
  Log(LogLevel::kError, "test") << "this must not crash and is suppressed";
  set_log_level(before);
}

TEST(RunWorkers, RethrowsOnlyAfterEveryWorkerJoined) {
  // One worker throws at once while the others are still busy: the
  // exception must surface only after all of them have returned, whether
  // the thrower is the calling thread (0) or a started one.
  constexpr std::size_t kWorkers = 4;
  for (const std::size_t thrower : {std::size_t{0}, std::size_t{2}}) {
    std::atomic<std::size_t> finished{0};
    try {
      run_workers(kWorkers, [&](std::size_t w) {
        if (w == thrower) throw std::runtime_error("worker failed");
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        finished.fetch_add(1);
      });
      ADD_FAILURE() << "no exception from thrower " << thrower;
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "worker failed");
      EXPECT_EQ(finished.load(), kWorkers - 1) << "thrower " << thrower;
    }
  }
}

TEST(RunWorkers, CallingThreadIsWorkerZero) {
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::thread::id> ids(3);
  run_workers(ids.size(), [&](std::size_t w) { ids[w] = std::this_thread::get_id(); });
  EXPECT_EQ(ids[0], caller);
  EXPECT_NE(ids[1], caller);
  EXPECT_NE(ids[2], caller);
  EXPECT_NE(ids[1], ids[2]);
  // n = 1 runs inline: the one worker is the calling thread.
  std::size_t calls = 0;
  run_workers(1, [&](std::size_t w) {
    EXPECT_EQ(w, 0u);
    EXPECT_EQ(std::this_thread::get_id(), caller);
    ++calls;
  });
  EXPECT_EQ(calls, 1u);
}

}  // namespace
}  // namespace dosc::util
