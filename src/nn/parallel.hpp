// The compute-thread budget: how many training seeds core::train_best_seed
// runs at once, and how many episode workers core::evaluate_policy and
// `dosc_cli eval` start when asked for 0. The NN kernels themselves always
// run on the calling thread, so no result depends on the budget; it only
// changes wall clock.
#pragma once

#include <cstddef>

namespace dosc::nn {

/// Set the compute-thread budget. `n == 0` restores the default: the value
/// of the DOSC_THREADS environment variable if set, else the number of
/// online processors. Clamped to [1, 256]. Thread-safe.
void set_compute_threads(std::size_t n);

/// Current compute-thread budget (>= 1).
std::size_t compute_threads() noexcept;

/// RAII budget override; restores the previous value on destruction. Tests
/// use it to pin thread counts.
class ComputeThreadsGuard {
 public:
  explicit ComputeThreadsGuard(std::size_t n) : previous_(compute_threads()) {
    set_compute_threads(n);
  }
  ~ComputeThreadsGuard() { set_compute_threads(previous_); }
  ComputeThreadsGuard(const ComputeThreadsGuard&) = delete;
  ComputeThreadsGuard& operator=(const ComputeThreadsGuard&) = delete;

 private:
  std::size_t previous_;
};

}  // namespace dosc::nn
