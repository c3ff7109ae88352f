#include "nn/parallel.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

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
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : std::min<std::size_t>(hw, kMaxComputeThreads);
}

std::atomic<std::size_t>& thread_budget() {
  static std::atomic<std::size_t> budget{default_threads()};
  return budget;
}

/// Set on pool workers for their lifetime and on a submitting thread while
/// it drains its own job: parallel regions opened from there run inline.
thread_local bool t_in_region = false;

using ScratchSet = std::array<std::vector<double>, detail::kScratchSlots>;

/// Largest size any thread has asked thread_scratch for, per slot.
std::array<std::atomic<std::size_t>, detail::kScratchSlots> g_scratch_high_water{};

/// Pool workers point this at their pool-owned set; other threads use
/// t_own_scratch.
thread_local ScratchSet* t_scratch = nullptr;
thread_local ScratchSet t_own_scratch;

ScratchSet& current_scratch() noexcept {
  return t_scratch != nullptr ? *t_scratch : t_own_scratch;
}

void grow_to_high_water(ScratchSet& set) {
  for (std::size_t slot = 0; slot < set.size(); ++slot) {
    const std::size_t need = g_scratch_high_water[slot].load(std::memory_order_relaxed);
    if (set[slot].size() < need) set[slot].resize(need);
  }
}

/// Persistent fork/join pool. Workers sleep between jobs; one job (a set of
/// chunks) runs at a time, serialised by `caller_mutex_`. Chunks are claimed
/// with an atomic ticket so load-imbalance self-levels; results cannot depend
/// on the claim order because callers only submit chunk-independent work,
/// and neither can allocations: every participant's scratch is grown to the
/// high water mark before the job starts.
class Pool {
 public:
  ~Pool() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    work_cv_.notify_all();
    for (std::thread& t : workers_) t.join();
  }

  /// Try to run the job on the pool; returns false if the pool is busy (the
  /// caller should then run the chunks inline).
  bool try_run(std::size_t num_chunks, detail::ChunkFn fn, void* ctx, std::size_t budget) {
    std::unique_lock<std::mutex> caller_lock(caller_mutex_, std::try_to_lock);
    if (!caller_lock.owns_lock()) return false;

    const std::size_t helpers =
        std::min(budget > 0 ? budget - 1 : 0, num_chunks > 0 ? num_chunks - 1 : 0);
    ensure_workers(helpers);
    // No worker is inside drain() here (the previous job waited for all of
    // them to leave), so their scratch can be grown from this thread; the
    // job publication below orders it before their next use. Which workers
    // join is a race, so every worker is grown.
    grow_to_high_water(current_scratch());
    for (const std::unique_ptr<ScratchSet>& set : worker_scratch_) grow_to_high_water(*set);

    {
      std::lock_guard<std::mutex> lock(mutex_);
      fn_ = fn;
      ctx_ = ctx;
      total_chunks_ = num_chunks;
      next_chunk_.store(0, std::memory_order_relaxed);
      pending_.store(num_chunks, std::memory_order_relaxed);
      active_helpers_ = std::min(helpers, workers_.size());
      idle_helpers_ = active_helpers_;
      ++generation_;
    }
    work_cv_.notify_all();

    t_in_region = true;
    drain();  // the caller is always one of the executing threads
    t_in_region = false;

    // Wait until every chunk has *completed* and every admitted worker has
    // left drain(). The second condition stops a slow worker from claiming a
    // chunk ticket of the next job while still holding this job's fn/ctx.
    std::unique_lock<std::mutex> lock(mutex_);
    done_cv_.wait(lock, [&] {
      return pending_.load(std::memory_order_acquire) == 0 && running_helpers_ == 0;
    });
    return true;
  }

 private:
  void ensure_workers(std::size_t count) {
    std::lock_guard<std::mutex> lock(mutex_);
    while (workers_.size() < count) {
      worker_scratch_.push_back(std::make_unique<ScratchSet>());
      ScratchSet* scratch = worker_scratch_.back().get();
      workers_.emplace_back([this, scratch] {
        t_scratch = scratch;
        worker_loop();
      });
    }
  }

  void drain() {
    while (true) {
      const std::size_t i = next_chunk_.fetch_add(1, std::memory_order_relaxed);
      if (i >= total_chunks_) break;
      fn_(ctx_, i);
      if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) done_cv_.notify_all();
    }
  }

  void worker_loop() {
    t_in_region = true;
    std::uint64_t seen_generation = 0;
    while (true) {
      {
        std::unique_lock<std::mutex> lock(mutex_);
        work_cv_.wait(lock, [&] { return stop_ || generation_ != seen_generation; });
        if (stop_) return;
        seen_generation = generation_;
        if (idle_helpers_ == 0) continue;  // late to a fully staffed job
        --idle_helpers_;
        ++running_helpers_;
      }
      drain();
      {
        std::lock_guard<std::mutex> lock(mutex_);
        --running_helpers_;
      }
      done_cv_.notify_all();
    }
  }

  std::mutex caller_mutex_;  ///< one job at a time; busy callers inline

  std::mutex mutex_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  std::vector<std::thread> workers_;
  /// One per worker, same index; grown only between jobs (try_run).
  std::vector<std::unique_ptr<ScratchSet>> worker_scratch_;
  detail::ChunkFn fn_ = nullptr;
  void* ctx_ = nullptr;
  std::size_t total_chunks_ = 0;
  std::atomic<std::size_t> next_chunk_{0};
  std::atomic<std::size_t> pending_{0};
  std::size_t active_helpers_ = 0;
  std::size_t idle_helpers_ = 0;
  std::size_t running_helpers_ = 0;
  std::uint64_t generation_ = 0;
  bool stop_ = false;
};

Pool& pool() {
  static Pool p;
  return p;
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

namespace detail {

bool in_parallel_region() noexcept { return t_in_region; }

double* thread_scratch(std::size_t slot, std::size_t size) {
  std::vector<double>& buf = current_scratch()[slot];
  if (buf.size() < size) {
    buf.resize(size);
    std::atomic<std::size_t>& high = g_scratch_high_water[slot];
    std::size_t seen = high.load(std::memory_order_relaxed);
    while (seen < size &&
           !high.compare_exchange_weak(seen, size, std::memory_order_relaxed)) {
    }
  }
  return buf.data();
}

void run_chunks(std::size_t num_chunks, ChunkFn fn, void* ctx) {
  if (num_chunks == 0) return;
  const std::size_t budget = compute_threads();
  if (num_chunks == 1 || budget <= 1 || t_in_region ||
      !pool().try_run(num_chunks, fn, ctx, budget)) {
    for (std::size_t i = 0; i < num_chunks; ++i) fn(ctx, i);
  }
}

}  // namespace detail

}  // namespace dosc::nn
