// Fork/join over a fixed number of workers: the trainer's seed workers
// (core::train_best_seed) and the episode workers of evaluation
// (core::evaluate_policy, `dosc_cli eval`). Callers keep their own work
// split (a shared claim counter, or one item per worker); this only owns
// the threads and the error path.
#pragma once

#include <cstddef>
#include <functional>

namespace dosc::util {

/// Runs body(w) for w = 0 .. n-1 concurrently: w = 0 on the calling thread,
/// the others on n-1 new threads. Returns once every worker has joined and
/// then rethrows the first exception a worker threw, if any. At n <= 1,
/// body(0) runs inline and no thread starts.
void run_workers(std::size_t n, const std::function<void(std::size_t)>& body);

}  // namespace dosc::util
