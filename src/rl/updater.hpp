// The A2C / ACKTR parameter update (Alg. 1, lines 10-12).
//
// Given a drained batch of (observation, action, return) triples, computes
// the advantage with the critic, then applies
//   actor loss  = -E[ log pi(a|o) * advantage ] - entropy_coef * E[H(pi(.|o))]
//   critic loss = value_coef * 0.5 * E[ (V(o) - return)^2 ]
// with gradient clipping. The optimizer is pluggable: RMSprop gives plain
// A2C; the KFAC natural-gradient optimizer gives ACKTR (the paper's
// algorithm), where the Kronecker factors are refreshed from the batch
// before each step and a KL trust region bounds the update.
#pragma once

#include <memory>

#include "nn/kfac.hpp"
#include "nn/optimizer.hpp"
#include "rl/actor_critic.hpp"
#include "rl/rollout.hpp"

namespace dosc::rl {

enum class OptimizerKind { kRmsProp, kAdam, kSgd, kAcktr };

const char* optimizer_kind_name(OptimizerKind kind) noexcept;

struct UpdaterConfig {
  OptimizerKind optimizer = OptimizerKind::kAcktr;
  double learning_rate = 0.25;   ///< paper: initial learning rate 0.25
  double entropy_coef = 0.01;    ///< paper: entropy loss 0.01
  double value_coef = 0.25;      ///< paper: loss on V_phi 0.25
  double max_grad_norm = 0.5;    ///< paper: max gradient 0.5
  double kl_clip = 0.001;        ///< paper: KL clipping (ACKTR only)
  bool normalize_advantage = true;
  /// Linear learning-rate decay towards 0 over this many updates (0 = off).
  std::size_t lr_decay_updates = 0;
  /// Clipped-IS staleness correction (overlapped training, whose windows
  /// after the first are one update stale): when a batch carries
  /// behavior_logp, each row's policy-gradient term is scaled by
  /// rho = min(is_clip, pi_cur(a|o) / pi_b(a|o)) — V-trace's truncated
  /// importance weight with rho-bar = is_clip. Rows marked NaN (on-policy
  /// data) keep weight exactly 1; <= 0 disables the clip (raw IS).
  double is_clip = 1.0;
};

struct UpdateStats {
  double policy_loss = 0.0;
  double value_loss = 0.0;
  double entropy = 0.0;
  double mean_advantage = 0.0;
  double mean_is_weight = 1.0;  ///< mean clipped rho (1.0 for on-policy batches)
  std::size_t batch_size = 0;
};

/// The truncated importance weight rho = min(clip, exp(logp_current -
/// logp_behavior)); clip <= 0 means no truncation. Exposed so tests can pin
/// the correction against hand-computed values.
double clipped_is_weight(double logp_current, double logp_behavior, double clip) noexcept;

class Updater {
 public:
  explicit Updater(const UpdaterConfig& config);

  /// One gradient update on both networks from the batch. No-op on an
  /// empty batch.
  UpdateStats update(ActorCritic& net, const Batch& batch);

  const UpdaterConfig& config() const noexcept { return config_; }
  std::size_t updates_done() const noexcept { return updates_; }

 private:
  std::unique_ptr<nn::Optimizer> make_optimizer(bool is_critic) const;
  double current_learning_rate() const noexcept;

  UpdaterConfig config_;
  std::unique_ptr<nn::Optimizer> actor_opt_;
  std::unique_ptr<nn::Optimizer> critic_opt_;
  nn::Kfac* actor_kfac_ = nullptr;   ///< non-owning views when ACKTR
  nn::Kfac* critic_kfac_ = nullptr;
  std::size_t updates_ = 0;

  // Workspaces reused across update() calls: at a steady batch shape the
  // whole update performs no per-step heap allocation in the gradient path.
  nn::Matrix grad_v_;
  nn::Matrix grad_logits_;
  std::vector<double> advantages_;
  std::vector<double> probs_;
};

}  // namespace dosc::rl
