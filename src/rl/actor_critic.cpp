#include "rl/actor_critic.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace dosc::rl {

std::vector<double> softmax(std::span<const double> logits) {
  std::vector<double> probs;
  softmax_into(logits, probs);
  return probs;
}

void softmax_into(std::span<const double> logits, std::vector<double>& probs) {
  probs.resize(logits.size());
  const double max_logit = *std::max_element(logits.begin(), logits.end());
  double sum = 0.0;
  for (std::size_t i = 0; i < logits.size(); ++i) {
    probs[i] = std::exp(logits[i] - max_logit);
    sum += probs[i];
  }
  for (double& p : probs) p /= sum;
}

double log_softmax_at(std::span<const double> logits, std::size_t index) {
  const double max_logit = *std::max_element(logits.begin(), logits.end());
  double sum = 0.0;
  for (const double z : logits) sum += std::exp(z - max_logit);
  return logits[index] - max_logit - std::log(sum);
}

double softmax_entropy(std::span<const double> logits) {
  thread_local std::vector<double> probs;  // scratch: no steady-state allocation
  softmax_into(logits, probs);
  double h = 0.0;
  for (const double p : probs) {
    if (p > 0.0) h -= p * std::log(p);
  }
  return h;
}

namespace {
std::vector<std::size_t> layer_sizes(std::size_t in, const std::vector<std::size_t>& hidden,
                                     std::size_t out) {
  std::vector<std::size_t> sizes;
  sizes.push_back(in);
  sizes.insert(sizes.end(), hidden.begin(), hidden.end());
  sizes.push_back(out);
  return sizes;
}
}  // namespace

ActorCritic::ActorCritic(const ActorCriticConfig& config)
    : config_(config),
      actor_(layer_sizes(config.obs_dim, config.hidden, config.num_actions),
             nn::Activation::kTanh, nn::Activation::kLinear, config.seed * 2 + 1),
      critic_(layer_sizes(config.obs_dim, config.hidden, 1), nn::Activation::kTanh,
              nn::Activation::kLinear, config.seed * 2 + 2, /*head_stddev=*/1.0) {
  if (config.obs_dim == 0 || config.num_actions == 0) {
    throw std::invalid_argument("ActorCritic: obs_dim and num_actions must be > 0");
  }
}

namespace {
// Per-thread scratch for the allocation-free inference fast path; safe for
// concurrent use of one shared const ActorCritic across worker threads.
thread_local nn::Mlp::Scratch t_scratch;
thread_local std::vector<double> t_logits;
thread_local std::vector<double> t_probs;
}  // namespace

const std::vector<double>& ActorCritic::action_probs(std::span<const double> obs) const {
  actor_.predict_row(obs, t_logits, t_scratch);
  softmax_into(t_logits, t_probs);
  return t_probs;
}

int ActorCritic::sample_action(std::span<const double> obs, util::Rng& rng) const {
  return sample_action(obs, rng, nullptr);
}

int ActorCritic::sample_action(std::span<const double> obs, util::Rng& rng,
                               double* logp) const {
  actor_.predict_row(obs, t_logits, t_scratch);
  return sample_action_from_logits(t_logits, rng, logp);
}

int ActorCritic::sample_action_from_logits(std::span<const double> logits,
                                           util::Rng& rng, double* logp) {
  softmax_into(logits, t_probs);
  // Inline CDF walk over the softmax scratch, replicating
  // util::Rng::categorical step for step (total in index order, the
  // degenerate-weights guard before any draw, one uniform(0, total) sample,
  // subtraction walk): the engine consumption — and with it every
  // downstream random stream — stays bit-identical to the vector version.
  double total = 0.0;
  for (const double p : t_probs) total += p;
  int action;
  if (total <= 0.0 || t_probs.empty()) {
    action = t_probs.empty() ? 0 : static_cast<int>(t_probs.size()) - 1;
  } else {
    action = static_cast<int>(t_probs.size()) - 1;
    double u = rng.uniform(0.0, total);
    for (std::size_t i = 0; i < t_probs.size(); ++i) {
      u -= t_probs[i];
      if (u <= 0.0) {
        action = static_cast<int>(i);
        break;
      }
    }
  }
  if (logp != nullptr) {
    const double p = t_probs.empty() ? 1.0 : t_probs[static_cast<std::size_t>(action)];
    *logp = std::log(std::max(p, 1e-300));
  }
  return action;
}

int ActorCritic::greedy_action(std::span<const double> obs) const {
  actor_.predict_row(obs, t_logits, t_scratch);
  return greedy_action_from_logits(t_logits);
}

int ActorCritic::greedy_action_from_logits(std::span<const double> logits) {
  return static_cast<int>(std::max_element(logits.begin(), logits.end()) -
                          logits.begin());
}

double ActorCritic::value(std::span<const double> obs) const {
  critic_.predict_row(obs, t_logits, t_scratch);
  return t_logits[0];
}

std::vector<double> ActorCritic::get_parameters() const {
  std::vector<double> flat = actor_.get_parameters();
  const std::vector<double> critic_params = critic_.get_parameters();
  flat.insert(flat.end(), critic_params.begin(), critic_params.end());
  return flat;
}

void ActorCritic::set_parameters(const std::vector<double>& flat) {
  const std::size_t actor_n = actor_.num_parameters();
  if (flat.size() != actor_n + critic_.num_parameters()) {
    throw std::invalid_argument("ActorCritic::set_parameters: size mismatch");
  }
  actor_.set_parameters({flat.begin(), flat.begin() + actor_n});
  critic_.set_parameters({flat.begin() + actor_n, flat.end()});
}

}  // namespace dosc::rl
