#include "util/workers.hpp"

#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace dosc::util {

void run_workers(std::size_t n, const std::function<void(std::size_t)>& body) {
  if (n <= 1) {
    body(0);
    return;
  }
  std::exception_ptr first_error;
  std::mutex error_mu;
  const auto guarded = [&](std::size_t w) {
    try {
      body(w);
    } catch (...) {
      const std::lock_guard<std::mutex> lock(error_mu);
      if (!first_error) first_error = std::current_exception();
    }
  };
  std::vector<std::thread> threads;
  threads.reserve(n - 1);
  try {
    for (std::size_t w = 1; w < n; ++w) threads.emplace_back(guarded, w);
  } catch (...) {
    // A thread failed to start: its worker would never run, so join the
    // started ones and report the failure instead.
    for (std::thread& t : threads) t.join();
    throw;
  }
  guarded(0);
  for (std::thread& t : threads) t.join();
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace dosc::util
