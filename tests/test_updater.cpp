// The A2C/ACKTR update must (a) make rewarded actions more likely, (b) fit
// the critic to returns, (c) respect the entropy term, for every optimizer
// backend (RMSprop A2C, Adam, SGD, and the paper's ACKTR).
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "rl/updater.hpp"

namespace dosc::rl {
namespace {

ActorCritic make_net(std::uint64_t seed = 1) {
  ActorCriticConfig config;
  config.obs_dim = 4;
  config.num_actions = 3;
  config.hidden = {16};
  config.seed = seed;
  return ActorCritic(config);
}

/// Contextual bandit: in context A action 0 pays +1, in context B action 2
/// pays +1, everything else pays -1. Returns the greedy accuracy after
/// training.
double train_bandit(OptimizerKind kind, std::size_t rounds) {
  ActorCritic net = make_net(3);
  UpdaterConfig config;
  config.optimizer = kind;
  config.learning_rate = (kind == OptimizerKind::kAcktr) ? 0.25 : 0.01;
  config.kl_clip = 0.01;
  config.entropy_coef = 0.001;
  Updater updater(config);

  const std::vector<double> ctx_a{1.0, 0.0, 0.5, -0.5};
  const std::vector<double> ctx_b{-1.0, 1.0, -0.5, 0.5};
  util::Rng rng(4);
  for (std::size_t round = 0; round < rounds; ++round) {
    const std::size_t batch_size = 32;
    Batch batch;
    batch.obs = nn::Matrix(batch_size, 4);
    for (std::size_t i = 0; i < batch_size; ++i) {
      const bool is_a = rng.bernoulli(0.5);
      const auto& ctx = is_a ? ctx_a : ctx_b;
      std::copy(ctx.begin(), ctx.end(), batch.obs.data() + i * 4);
      const int action = net.sample_action(ctx, rng);
      batch.actions.push_back(action);
      const bool good = (is_a && action == 0) || (!is_a && action == 2);
      batch.returns.push_back(good ? 1.0 : -1.0);
    }
    updater.update(net, batch);
  }
  double correct = 0.0;
  if (net.greedy_action(ctx_a) == 0) correct += 0.5;
  if (net.greedy_action(ctx_b) == 2) correct += 0.5;
  return correct;
}

class BanditTest : public ::testing::TestWithParam<OptimizerKind> {};

TEST_P(BanditTest, LearnsContextualBandit) {
  EXPECT_DOUBLE_EQ(train_bandit(GetParam(), 150), 1.0);
}

INSTANTIATE_TEST_SUITE_P(Optimizers, BanditTest,
                         ::testing::Values(OptimizerKind::kRmsProp, OptimizerKind::kAdam,
                                           OptimizerKind::kSgd, OptimizerKind::kAcktr),
                         [](const auto& info) {
                           return std::string(optimizer_kind_name(info.param));
                         });

TEST(Updater, EmptyBatchIsNoOp) {
  ActorCritic net = make_net();
  const std::vector<double> before = net.get_parameters();
  Updater updater(UpdaterConfig{});
  Batch batch;
  batch.obs = nn::Matrix(0, 4);
  const UpdateStats stats = updater.update(net, batch);
  EXPECT_EQ(stats.batch_size, 0u);
  const std::vector<double> after = net.get_parameters();
  for (std::size_t i = 0; i < before.size(); ++i) EXPECT_DOUBLE_EQ(before[i], after[i]);
}

TEST(Updater, CriticFitsReturns) {
  ActorCritic net = make_net(5);
  UpdaterConfig config;
  config.optimizer = OptimizerKind::kAdam;
  config.learning_rate = 0.01;
  config.value_coef = 1.0;
  config.normalize_advantage = false;
  config.entropy_coef = 0.0;
  Updater updater(config);

  const std::vector<double> obs{0.5, -0.5, 0.2, 0.8};
  for (int i = 0; i < 400; ++i) {
    Batch batch;
    batch.obs = nn::Matrix(8, 4);
    for (std::size_t r = 0; r < 8; ++r) {
      std::copy(obs.begin(), obs.end(), batch.obs.data() + r * 4);
      batch.actions.push_back(static_cast<int>(r % 3));
      batch.returns.push_back(7.0);
    }
    updater.update(net, batch);
  }
  EXPECT_NEAR(net.value(obs), 7.0, 0.5);
}

TEST(Updater, HighEntropyCoefKeepsPolicyNearUniform) {
  // With a dominant entropy bonus, training on a biased reward must still
  // leave the policy spread out.
  ActorCritic net = make_net(6);
  UpdaterConfig config;
  config.optimizer = OptimizerKind::kAdam;
  config.learning_rate = 0.01;
  config.entropy_coef = 10.0;
  Updater updater(config);

  const std::vector<double> obs{1.0, 0.0, 0.0, 0.0};
  util::Rng rng(7);
  for (int i = 0; i < 200; ++i) {
    Batch batch;
    batch.obs = nn::Matrix(16, 4);
    for (std::size_t r = 0; r < 16; ++r) {
      std::copy(obs.begin(), obs.end(), batch.obs.data() + r * 4);
      const int a = net.sample_action(obs, rng);
      batch.actions.push_back(a);
      batch.returns.push_back(a == 0 ? 1.0 : -1.0);
    }
    updater.update(net, batch);
  }
  const double entropy = softmax_entropy(std::vector<double>{
      std::log(net.action_probs(obs)[0] + 1e-12), std::log(net.action_probs(obs)[1] + 1e-12),
      std::log(net.action_probs(obs)[2] + 1e-12)});
  EXPECT_GT(entropy, 0.9);  // near log(3) ~ 1.099
}

TEST(Updater, StatsArePopulated) {
  ActorCritic net = make_net(8);
  Updater updater(UpdaterConfig{});
  Batch batch;
  batch.obs = nn::Matrix(4, 4, 0.1);
  batch.actions = {0, 1, 2, 0};
  batch.returns = {1.0, -1.0, 0.5, 2.0};
  const UpdateStats stats = updater.update(net, batch);
  EXPECT_EQ(stats.batch_size, 4u);
  EXPECT_GT(stats.entropy, 0.0);
  EXPECT_TRUE(std::isfinite(stats.policy_loss));
  EXPECT_TRUE(std::isfinite(stats.value_loss));
  EXPECT_EQ(updater.updates_done(), 1u);
}

TEST(Updater, LearningRateDecaysLinearly) {
  UpdaterConfig config;
  config.optimizer = OptimizerKind::kSgd;
  config.learning_rate = 0.1;
  config.lr_decay_updates = 10;
  Updater updater(config);
  ActorCritic net = make_net(9);
  Batch batch;
  batch.obs = nn::Matrix(2, 4, 0.1);
  batch.actions = {0, 1};
  batch.returns = {1.0, 1.0};
  // Drive several updates; parameters must keep changing but by less.
  std::vector<double> prev = net.get_parameters();
  double first_step = -1.0;
  double last_step = -1.0;
  for (int i = 0; i < 8; ++i) {
    updater.update(net, batch);
    const std::vector<double> cur = net.get_parameters();
    double step = 0.0;
    for (std::size_t k = 0; k < cur.size(); ++k) step += std::abs(cur[k] - prev[k]);
    if (first_step < 0.0) first_step = step;
    last_step = step;
    prev = cur;
  }
  EXPECT_GT(first_step, 0.0);
  EXPECT_LT(last_step, first_step);
}

TEST(Updater, ClippedIsWeightMatchesHandComputedValues) {
  // rho = min(clip, exp(logp_current - logp_behavior)).
  const double log_half = std::log(0.5);
  const double log_quarter = std::log(0.25);
  // ratio 0.5/0.25 = 2, truncated at 1.
  EXPECT_DOUBLE_EQ(clipped_is_weight(log_half, log_quarter, 1.0), 1.0);
  // ratio 2 with a looser clip of 1.5 truncates to 1.5.
  EXPECT_DOUBLE_EQ(clipped_is_weight(log_half, log_quarter, 1.5), 1.5);
  // ratio 0.25/0.5 = 0.5, under the clip: passes through untruncated.
  EXPECT_NEAR(clipped_is_weight(log_quarter, log_half, 1.0), 0.5, 1e-15);
  // clip <= 0 disables truncation: raw importance ratio.
  EXPECT_NEAR(clipped_is_weight(log_half, log_quarter, 0.0), 2.0, 1e-15);
  EXPECT_NEAR(clipped_is_weight(log_half, log_quarter, -1.0), 2.0, 1e-15);
  // Equal log-probs give weight exactly 1 (exp(0.0) is exact).
  EXPECT_EQ(clipped_is_weight(log_half, log_half, 1.0), 1.0);
}

TEST(Updater, NanBehaviorRowsAreBitIdenticalToOnPolicyBatch) {
  // A batch whose behavior_logp rows are all NaN (the on-policy row
  // marker) must produce exactly the same update as the same batch without
  // behavior_logp.
  ActorCritic net_a = make_net(11);
  ActorCritic net_b = make_net(11);
  UpdaterConfig config;
  config.is_clip = 1.0;
  Updater updater_a(config);
  Updater updater_b(config);

  Batch on_policy;
  on_policy.obs = nn::Matrix(4, 4, 0.3);
  on_policy.actions = {0, 1, 2, 1};
  on_policy.returns = {1.0, -1.0, 0.5, 2.0};
  Batch marked = on_policy;
  marked.behavior_logp.assign(4, std::numeric_limits<double>::quiet_NaN());

  const UpdateStats stats_a = updater_a.update(net_a, on_policy);
  const UpdateStats stats_b = updater_b.update(net_b, marked);
  EXPECT_DOUBLE_EQ(stats_a.policy_loss, stats_b.policy_loss);
  EXPECT_DOUBLE_EQ(stats_b.mean_is_weight, 1.0);
  const std::vector<double> params_a = net_a.get_parameters();
  const std::vector<double> params_b = net_b.get_parameters();
  ASSERT_EQ(params_a.size(), params_b.size());
  for (std::size_t i = 0; i < params_a.size(); ++i) {
    ASSERT_DOUBLE_EQ(params_a[i], params_b[i]) << "parameter " << i;
  }
}

TEST(Updater, ClippedWeightScalesActorGradientExactly) {
  // Every row maximally stale with is_clip = 2: each rho truncates to
  // exactly 2.0, so the actor gradient — linear in the per-row weight —
  // doubles, while the critic (no IS on the value fit) is untouched. SGD
  // from a fresh state applies the gradient linearly, so the actor
  // parameter deltas double too (up to rounding) and the critic deltas
  // match bit for bit.
  ActorCritic net_a = make_net(12);
  ActorCritic net_b = make_net(12);
  UpdaterConfig config;
  config.optimizer = OptimizerKind::kSgd;
  config.learning_rate = 0.01;
  config.entropy_coef = 0.0;
  config.max_grad_norm = 1e9;  // keep clipping out of the comparison
  config.normalize_advantage = false;
  config.is_clip = 2.0;
  Updater updater_a(config);
  Updater updater_b(config);

  Batch fresh;
  fresh.obs = nn::Matrix(4, 4, 0.2);
  fresh.actions = {0, 1, 2, 0};
  fresh.returns = {1.0, 0.5, -0.5, 2.0};
  Batch stale = fresh;
  // Behavior log-prob far below anything the policy assigns: the raw ratio
  // explodes and the clip pins every rho to exactly 2.0.
  stale.behavior_logp.assign(4, -100.0);

  const std::vector<double> before = net_a.get_parameters();
  updater_a.update(net_a, fresh);
  const UpdateStats stats_b = updater_b.update(net_b, stale);
  EXPECT_DOUBLE_EQ(stats_b.mean_is_weight, 2.0);

  const std::vector<double> after_a = net_a.get_parameters();
  const std::vector<double> after_b = net_b.get_parameters();
  const std::size_t actor_params = net_a.actor().num_parameters();
  for (std::size_t i = 0; i < before.size(); ++i) {
    const double delta_a = after_a[i] - before[i];
    const double delta_b = after_b[i] - before[i];
    if (i < actor_params) {
      if (std::abs(delta_a) > 1e-12) {
        EXPECT_NEAR(delta_b / delta_a, 2.0, 1e-6) << "actor parameter " << i;
      }
    } else {
      ASSERT_DOUBLE_EQ(delta_a, delta_b) << "critic parameter " << i;
    }
  }
}

TEST(Updater, PaperHyperparametersAreDefaults) {
  const UpdaterConfig config;
  EXPECT_EQ(config.optimizer, OptimizerKind::kAcktr);
  EXPECT_DOUBLE_EQ(config.learning_rate, 0.25);
  EXPECT_DOUBLE_EQ(config.entropy_coef, 0.01);
  EXPECT_DOUBLE_EQ(config.value_coef, 0.25);
  EXPECT_DOUBLE_EQ(config.max_grad_norm, 0.5);
  EXPECT_DOUBLE_EQ(config.kl_clip, 0.001);
  EXPECT_DOUBLE_EQ(nn::KfacConfig::fisher_coef, 1.0);
}

}  // namespace
}  // namespace dosc::rl
