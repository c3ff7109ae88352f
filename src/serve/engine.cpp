#include "serve/engine.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

namespace dosc::serve {

DecisionEngine::DecisionEngine(const sim::Simulator& oracle, std::size_t max_degree,
                               std::size_t max_batch)
    : oracle_(oracle), obs_(max_degree), max_batch_(std::max<std::size_t>(1, max_batch)) {
  obs_.bind(oracle_);
  rows_.resize(max_batch_ * obs_.dim());
}

bool DecisionEngine::bind(const wire::Request& request, std::size_t row) {
  const std::size_t num_nodes = oracle_.network().num_nodes();
  if (request.node >= num_nodes || request.egress >= num_nodes) return false;
  if (request.service >= oracle_.catalog().num_services()) return false;
  const sim::Service& service = oracle_.catalog().service(request.service);
  if (request.chain_pos > service.length()) return false;
  const auto positive_finite = [](float v) { return std::isfinite(v) && v > 0.0f; };
  if (!positive_finite(request.rate) || !positive_finite(request.duration) ||
      !positive_finite(request.deadline)) {
    return false;
  }
  if (!std::isfinite(request.elapsed) || request.elapsed < 0.0f) return false;

  // The request *is* a flow mid-lifecycle; rebuild the simulator's view of
  // it. The oracle clock sits at 0, so an arrival_time of -elapsed makes
  // remaining_deadline() count down exactly as in an episode.
  sim::Flow flow;
  flow.id = request.request_id;
  flow.service = request.service;
  flow.chain_pos = request.chain_pos;
  flow.ingress = request.node;
  flow.egress = request.egress;
  flow.current_node = request.node;
  flow.rate = static_cast<double>(request.rate);
  flow.duration = static_cast<double>(request.duration);
  flow.deadline = static_cast<double>(request.deadline);
  flow.arrival_time = -static_cast<double>(request.elapsed);

  const std::vector<double>& built = obs_.build(oracle_, flow, request.node);
  std::memcpy(rows_.data() + row * obs_.dim(), built.data(), obs_.dim() * sizeof(double));
  return true;
}

std::size_t DecisionEngine::decide(const rl::ActorCritic& net, std::size_t batch,
                                   std::vector<int>& actions) {
  actions.resize(batch);
  const std::size_t gemv_rows = net.actor().predict_batch(rows_.data(), batch, logits_, scratch_);
  const std::size_t num_actions = net.actor().output_size();
  for (std::size_t r = 0; r < batch; ++r) {
    actions[r] = rl::ActorCritic::greedy_action_from_logits(
        {logits_.data() + r * num_actions, num_actions});
  }
  return gemv_rows;
}

}  // namespace dosc::serve
