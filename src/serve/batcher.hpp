// Adaptive request batcher policy for the decision daemon.
//
// The serving trade-off: batching concurrent requests into one small-batch
// GEMM amortises weight traffic (PR 2's tiled kernels), but *waiting* to
// fill a batch adds latency that is pure loss when the daemon is idle. The
// batcher resolves this with a load-adaptive wait budget:
//
//   * it tracks an EWMA of recent batch sizes (a cheap arrival-rate proxy
//     measured at the only place it matters — the socket drain);
//   * while the EWMA says batches are filling (>= gemm_threshold), a batch
//     that drains short may wait up to wait_budget_us for stragglers;
//   * when the EWMA decays toward 1 (idle), the budget drops to zero and a
//     lone request goes straight through the packed batch-1 GEMV path
//     (PR 5) with no added latency.
//
// The class is a pure state machine — the server loop owns the socket and
// the clock — so the adaptation logic is unit-testable without I/O.
#pragma once

#include <cstddef>
#include <cstdint>

namespace dosc::serve {

struct BatcherConfig {
  /// Requests coalesced into one forward pass at most (rows of the GEMM).
  std::size_t max_batch = 32;
  /// Extra time a short batch may wait for stragglers when loaded (µs).
  std::uint64_t wait_budget_us = 50;
  /// EWMA batch size at/above which waiting is considered worthwhile.
  double gemm_threshold = 2.0;
};

class AdaptiveBatcher {
 public:
  explicit AdaptiveBatcher(const BatcherConfig& config) : config_(config) {}

  const BatcherConfig& config() const noexcept { return config_; }

  /// Budget (µs) the current short batch may spend waiting for stragglers:
  /// config().wait_budget_us in the loaded regime, 0 when idle.
  std::uint64_t wait_budget_us() const noexcept {
    return ewma_ >= config_.gemm_threshold ? config_.wait_budget_us : 0;
  }

  /// Record a completed batch and update the load estimate.
  void on_batch(std::size_t size) noexcept {
    if (size == 0) return;
    ewma_ += kSmoothing * (static_cast<double>(size) - ewma_);
    ++batches_;
  }

  double ewma() const noexcept { return ewma_; }
  std::uint64_t batches() const noexcept { return batches_; }

 private:
  static constexpr double kSmoothing = 0.2;  ///< EWMA factor per observed batch

  BatcherConfig config_;
  double ewma_ = 1.0;  ///< start in the idle regime: first requests never wait
  std::uint64_t batches_ = 0;
};

}  // namespace dosc::serve
