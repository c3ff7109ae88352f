#include "rl/updater.hpp"

#include <cmath>
#include <stdexcept>

#include "telemetry/telemetry.hpp"
#include "util/timer.hpp"

namespace dosc::rl {

const char* optimizer_kind_name(OptimizerKind kind) noexcept {
  switch (kind) {
    case OptimizerKind::kRmsProp: return "rmsprop";
    case OptimizerKind::kAdam: return "adam";
    case OptimizerKind::kSgd: return "sgd";
    case OptimizerKind::kAcktr: return "acktr";
  }
  return "?";
}

namespace {

/// opt.step(net). Under ACKTR that is the K-FAC natural-gradient step (the
/// damped Cholesky solves), traced as `span` and timed into
/// train.kfac_step_ms, apart from train.kfac_ms's factor refresh.
void optimizer_step(nn::Optimizer& opt, nn::Mlp& net, bool kfac, const char* span) {
  if (!kfac) {
    opt.step(net);
    return;
  }
  DOSC_TRACE_SCOPE("train", span);
  const util::Timer step_timer;
  opt.step(net);
  if (telemetry::enabled()) {
    telemetry::MetricsRegistry::global().observe("train.kfac_step_ms",
                                                 step_timer.elapsed_millis());
  }
}

}  // namespace

Updater::Updater(const UpdaterConfig& config) : config_(config) {
  actor_opt_ = make_optimizer(/*is_critic=*/false);
  critic_opt_ = make_optimizer(/*is_critic=*/true);
  if (config_.optimizer == OptimizerKind::kAcktr) {
    actor_kfac_ = dynamic_cast<nn::Kfac*>(actor_opt_.get());
    critic_kfac_ = dynamic_cast<nn::Kfac*>(critic_opt_.get());
  }
}

std::unique_ptr<nn::Optimizer> Updater::make_optimizer(bool is_critic) const {
  switch (config_.optimizer) {
    case OptimizerKind::kRmsProp:
      return std::make_unique<nn::RmsProp>(config_.learning_rate);
    case OptimizerKind::kAdam:
      return std::make_unique<nn::Adam>(config_.learning_rate);
    case OptimizerKind::kSgd:
      return std::make_unique<nn::Sgd>(config_.learning_rate, 0.9);
    case OptimizerKind::kAcktr: {
      nn::KfacConfig kfac;
      kfac.learning_rate = config_.learning_rate;
      kfac.kl_clip = config_.kl_clip;
      // The critic's trust region is on value change, conventionally wider.
      if (is_critic) kfac.kl_clip = config_.kl_clip * 10.0;
      return std::make_unique<nn::Kfac>(kfac);
    }
  }
  throw std::logic_error("Updater: invalid optimizer kind");
}

double Updater::current_learning_rate() const noexcept {
  if (config_.lr_decay_updates == 0) return config_.learning_rate;
  const double frac = 1.0 - std::min(1.0, static_cast<double>(updates_) /
                                              static_cast<double>(config_.lr_decay_updates));
  return config_.learning_rate * std::max(0.05, frac);
}

UpdateStats Updater::update(ActorCritic& net, const Batch& batch) {
  UpdateStats stats;
  stats.batch_size = batch.size();
  if (batch.size() == 0) return stats;
  const std::size_t n = batch.size();
  const double inv_n = 1.0 / static_cast<double>(n);

  const double lr = current_learning_rate();
  actor_opt_->set_learning_rate(lr);
  critic_opt_->set_learning_rate(lr);

  // ---- critic: V(o) vs discounted return ----
  nn::Mlp& critic = net.critic();
  critic.zero_grad();
  const nn::Matrix& values = critic.forward(batch.obs);  // [N x 1]
  advantages_.resize(n);
  grad_v_.ensure_shape(n, 1);
  for (std::size_t i = 0; i < n; ++i) {
    const double v = values(i, 0);
    const double err = v - batch.returns[i];
    advantages_[i] = batch.returns[i] - v;
    stats.value_loss += 0.5 * err * err * inv_n;
    grad_v_(i, 0) = config_.value_coef * err * inv_n;
  }
  critic.backward(grad_v_);
  critic.clip_grad_norm(config_.max_grad_norm);
  if (critic_kfac_ != nullptr) {
    DOSC_TRACE_SCOPE("train", "kfac_critic");
    const util::Timer kfac_timer;
    critic_kfac_->update_factors(critic);
    if (telemetry::enabled()) {
      telemetry::MetricsRegistry::global().observe("train.kfac_ms",
                                                   kfac_timer.elapsed_millis());
    }
  }
  optimizer_step(*critic_opt_, critic, critic_kfac_ != nullptr, "kfac_step_critic");

  // ---- advantage normalisation ----
  double adv_mean = 0.0;
  for (const double a : advantages_) adv_mean += a * inv_n;
  stats.mean_advantage = adv_mean;
  if (config_.normalize_advantage && n > 1) {
    double var = 0.0;
    for (const double a : advantages_) var += (a - adv_mean) * (a - adv_mean);
    const double stddev = std::sqrt(var / static_cast<double>(n - 1)) + 1e-8;
    for (double& a : advantages_) a = (a - adv_mean) / stddev;
  }

  // ---- actor: policy gradient + entropy bonus ----
  nn::Mlp& actor = net.actor();
  actor.zero_grad();
  const nn::Matrix& logits = actor.forward(batch.obs);  // [N x A]
  const std::size_t num_actions = logits.cols();
  grad_logits_.ensure_shape(n, num_actions);
  for (std::size_t i = 0; i < n; ++i) {
    const auto row = logits.row(i);
    softmax_into(row, probs_);
    const double logp = log_softmax_at(row, static_cast<std::size_t>(batch.actions[i]));
    double entropy = 0.0;
    for (const double p : probs_) {
      if (p > 0.0) entropy -= p * std::log(p);
    }
    const double adv = advantages_[i];
    stats.policy_loss += -logp * adv * inv_n;
    stats.entropy += entropy * inv_n;
    double* grow = grad_logits_.data() + i * num_actions;
    for (std::size_t j = 0; j < num_actions; ++j) {
      const double onehot = (static_cast<int>(j) == batch.actions[i]) ? 1.0 : 0.0;
      // d(-logp*adv)/dz + entropy_coef * d(-H)/dz
      const double pg = adv * (probs_[j] - onehot);
      const double ent =
          config_.entropy_coef * probs_[j] * (std::log(std::max(probs_[j], 1e-12)) + entropy);
      grow[j] = (pg + ent) * inv_n;
    }
  }
  actor.backward(grad_logits_);
  actor.clip_grad_norm(config_.max_grad_norm);
  if (actor_kfac_ != nullptr) {
    DOSC_TRACE_SCOPE("train", "kfac_actor");
    const util::Timer kfac_timer;
    actor_kfac_->update_factors(actor);
    if (telemetry::enabled()) {
      telemetry::MetricsRegistry::global().observe("train.kfac_ms",
                                                   kfac_timer.elapsed_millis());
    }
  }
  optimizer_step(*actor_opt_, actor, actor_kfac_ != nullptr, "kfac_step_actor");

  ++updates_;
  return stats;
}

}  // namespace dosc::rl
