#include "nn/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>

#include <unistd.h>

namespace dosc::nn {

namespace {

constexpr std::size_t kMaxComputeThreads = 256;

std::size_t default_threads() {
  if (const char* env = std::getenv("DOSC_THREADS")) {
    char* end = nullptr;
    const long parsed = std::strtol(env, &end, 10);
    if (end != env && parsed > 0) {
      return std::min<std::size_t>(static_cast<std::size_t>(parsed), kMaxComputeThreads);
    }
  }
  // The online processors: the hardware concurrency std::thread reports on glibc.
  const long online = sysconf(_SC_NPROCESSORS_ONLN);
  return online <= 0 ? 1
                     : std::min<std::size_t>(static_cast<std::size_t>(online), kMaxComputeThreads);
}

std::atomic<std::size_t>& thread_budget() {
  static std::atomic<std::size_t> budget{default_threads()};
  return budget;
}

}  // namespace

void set_compute_threads(std::size_t n) {
  if (n == 0) n = default_threads();
  thread_budget().store(std::clamp<std::size_t>(n, 1, kMaxComputeThreads),
                        std::memory_order_relaxed);
}

std::size_t compute_threads() noexcept {
  return thread_budget().load(std::memory_order_relaxed);
}

}  // namespace dosc::nn
