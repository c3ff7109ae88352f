// Compute-thread budget and the row-partitioned fork/join helper behind the
// GEMM kernels and KFAC's per-layer factor updates.
//
// Determinism contract: the work inside each chunk never depends on which
// thread runs it or in what order chunks complete, and the GEMM kernels
// never split a reduction across chunks, so every result is bit-identical
// for any thread count (set_compute_threads(1) vs (N)). Threading only
// changes wall clock, never output.
//
// The pool is a lazily started set of persistent workers shared process-wide.
// A caller that cannot take the pool (it is busy with another caller, or the
// caller is already inside a parallel region — a pool worker, or the
// submitting thread running its share of chunks, e.g. a threaded KFAC layer
// update invoking a GEMM) runs its chunks inline on its own thread; nesting
// therefore cannot deadlock and concurrent callers (shared const
// Mlp::predict) stay safe.
//
// Kernel scratch (detail::thread_scratch) is sized independently of which
// thread claims which chunk: the pool owns its workers' buffers, and a job's
// submitting thread grows them — and its own — to the largest size any
// thread has asked for before it wakes the workers. Once every shape of a
// workload has run once, no thread allocates again, whatever the claim
// order.
#pragma once

#include <algorithm>
#include <cstddef>
#include <utility>

namespace dosc::nn {

/// Set the compute-thread budget for the GEMM kernels. `n == 0` restores the
/// default: the value of the DOSC_THREADS environment variable if set, else
/// std::thread::hardware_concurrency(). Clamped to [1, 256]. Thread-safe.
void set_compute_threads(std::size_t n);

/// Current compute-thread budget (>= 1).
std::size_t compute_threads() noexcept;

/// RAII budget override; restores the previous value on destruction. The
/// overlapped trainer holds one at compute_threads() - 1 (floor 1) while its
/// helper thread rolls out, so the rollout and the update's GEMMs share the
/// machine instead of oversubscribing it; benchmarks and tests use it to
/// pin thread counts.
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

namespace detail {

using ChunkFn = void (*)(void* ctx, std::size_t chunk_index);

/// Run fn(ctx, i) for i in [0, num_chunks) across the pool (caller
/// participates) and block until all chunks finish. Falls back to an inline
/// serial loop when the pool is unavailable. Never allocates after the pool
/// has warmed up.
void run_chunks(std::size_t num_chunks, ChunkFn fn, void* ctx);

/// True inside a parallel region: on a pool worker, or on a submitting
/// thread while it runs its job's chunks. Nested regions then run inline.
bool in_parallel_region() noexcept;

/// Number of per-thread scratch buffers thread_scratch serves.
inline constexpr std::size_t kScratchSlots = 3;

/// The calling thread's scratch buffer `slot` (< kScratchSlots), grown to
/// at least `size` doubles. Growing raises the slot's process-wide high
/// water mark, to which every participant's buffer is grown when a pool job
/// starts. Fetch it inside a chunk body (or outside any region) and do not
/// hold it across opening a parallel region: the submitting thread's own
/// buffers may grow then.
double* thread_scratch(std::size_t slot, std::size_t size);

}  // namespace detail

/// Invoke fn(chunk_index) for every chunk in [0, num_chunks), possibly in
/// parallel. fn must not touch state shared across chunks without its own
/// synchronisation.
template <typename Fn>
void parallel_chunks(std::size_t num_chunks, Fn&& fn) {
  if (num_chunks <= 1 || compute_threads() <= 1 || detail::in_parallel_region()) {
    for (std::size_t i = 0; i < num_chunks; ++i) fn(i);
    return;
  }
  auto thunk = [](void* ctx, std::size_t i) { (*static_cast<Fn*>(ctx))(i); };
  detail::run_chunks(num_chunks, thunk, &fn);
}

/// Fixed partition of [0, rows) into up to compute_threads() contiguous
/// chunks, each a multiple of `align` rows (except the last); fn(row_begin,
/// row_end) per chunk. The partition depends only on (rows, align,
/// compute_threads()), never on runtime scheduling.
template <typename Fn>
void parallel_for_rows(std::size_t rows, std::size_t min_rows_per_chunk, std::size_t align,
                       Fn&& fn) {
  if (rows == 0) return;
  std::size_t chunks = compute_threads();
  if (min_rows_per_chunk > 0) {
    chunks = std::min(chunks, (rows + min_rows_per_chunk - 1) / min_rows_per_chunk);
  }
  if (chunks <= 1) {
    fn(std::size_t{0}, rows);
    return;
  }
  std::size_t per_chunk = (rows + chunks - 1) / chunks;
  if (align > 1) per_chunk = ((per_chunk + align - 1) / align) * align;
  const std::size_t actual_chunks = (rows + per_chunk - 1) / per_chunk;
  parallel_chunks(actual_chunks, [&](std::size_t i) {
    const std::size_t begin = i * per_chunk;
    const std::size_t end = std::min(rows, begin + per_chunk);
    if (begin < end) fn(begin, end);
  });
}

}  // namespace dosc::nn
