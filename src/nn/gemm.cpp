#include "nn/gemm.hpp"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "nn/parallel.hpp"
#include "telemetry/registry.hpp"

// Kernel bodies are included once per tier. The baseline instantiation uses
// whatever the project-wide flags allow; the AVX2+FMA (4x8 tile) and AVX-512
// (4x16 tile) instantiations are compiled with function-level target
// overrides and selected at runtime via cpuid, so the shipped binary stays
// portable while hot loops use FMA at the widest vector the CPU has.
#define DOSC_GEMM_NAMESPACE gemm_baseline
#include "nn/gemm_kernels.inc"
#undef DOSC_GEMM_NAMESPACE

#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__)
#define DOSC_GEMM_HAVE_X86_TIERS 1
#define DOSC_GEMM_FMA 1
#pragma GCC push_options
#pragma GCC target("avx2,fma")
#define DOSC_GEMM_NAMESPACE gemm_avx2
#include "nn/gemm_kernels.inc"
#undef DOSC_GEMM_NAMESPACE
#pragma GCC pop_options
#pragma GCC push_options
#pragma GCC target("avx512f,avx2,fma,prefer-vector-width=512")
#define DOSC_GEMM_NAMESPACE gemm_avx512
#define DOSC_GEMM_TILE_PANELS 2
#include "nn/gemm_kernels.inc"
#undef DOSC_GEMM_TILE_PANELS
#undef DOSC_GEMM_NAMESPACE
#pragma GCC pop_options
#undef DOSC_GEMM_FMA
#endif

namespace dosc::nn::gemm {

// packed_b_size() and the per-thread panel buffers quote the baseline panel
// width, tile height and k-panel depth for every tier; a tier's tile spans at
// most kMaxTilePanels packed panels.
constexpr std::size_t kMaxTilePanels = 2;
static_assert(gemm_baseline::kPanels <= kMaxTilePanels);
#ifdef DOSC_GEMM_HAVE_X86_TIERS
static_assert(gemm_avx2::kNr == gemm_baseline::kNr);
static_assert(gemm_avx2::kMr == gemm_baseline::kMr);
static_assert(gemm_avx2::kKc == gemm_baseline::kKc);
static_assert(gemm_avx512::kNr == gemm_baseline::kNr);
static_assert(gemm_avx512::kMr == gemm_baseline::kMr);
static_assert(gemm_avx512::kKc == gemm_baseline::kKc);
static_assert(gemm_avx512::kPanels <= kMaxTilePanels);
#endif

namespace {

using RowsFn = void (*)(std::size_t row0, std::size_t row1, std::size_t n, std::size_t k,
                        const double* a, std::size_t a_rs, std::size_t a_ks, const double* b,
                        std::size_t ldb, double* c, std::size_t ldc, bool accumulate,
                        bool upper_only, double* panel, double* a_panel, double* acc);
using RefFn = void (*)(std::size_t m, std::size_t n, std::size_t kc, const double* a,
                       std::size_t lda, const double* b, std::size_t ldb, double* c,
                       std::size_t ldc, bool accumulate);
using PackedRowsFn = void (*)(std::size_t row0, std::size_t row1, std::size_t n,
                              std::size_t k, const double* a, std::size_t a_rs,
                              std::size_t a_ks, const double* bp_all, double* c,
                              std::size_t ldc, bool accumulate, double* a_panel,
                              double* acc);
using PackBFn = void (*)(std::size_t kc, std::size_t n, const double* b, std::size_t ldb,
                         double* bp);

using detail::Tier;

struct KernelSet {
  RowsFn rows;
  PackedRowsFn rows_packed;
  PackBFn pack_b;
  RefFn ref_nn;
  RefFn ref_tn;
  RefFn ref_nt;
  Tier tier;
  const char* isa;   ///< rounding family, see isa_name()
  const char* tile;  ///< see tile_name()
};

/// The kernels of `tier`, or null when this build lacks the tier or this CPU
/// cannot run it. Each check covers every feature the tier's
/// #pragma GCC target enables.
const KernelSet* tier_kernels(Tier tier) noexcept {
  static constexpr KernelSet baseline{
      &gemm_baseline::gemm_rows, &gemm_baseline::gemm_rows_packed,
      &gemm_baseline::pack_b_slab, &gemm_baseline::ref_nn, &gemm_baseline::ref_tn,
      &gemm_baseline::ref_nt, Tier::kBaseline, "baseline", "4x8 baseline"};
  if (tier == Tier::kBaseline) return &baseline;
#ifdef DOSC_GEMM_HAVE_X86_TIERS
  static constexpr KernelSet avx2{
      &gemm_avx2::gemm_rows, &gemm_avx2::gemm_rows_packed, &gemm_avx2::pack_b_slab,
      &gemm_avx2::ref_nn, &gemm_avx2::ref_tn, &gemm_avx2::ref_nt, Tier::kAvx2,
      "avx2+fma", "4x8 avx2+fma"};
  static constexpr KernelSet avx512{
      &gemm_avx512::gemm_rows, &gemm_avx512::gemm_rows_packed, &gemm_avx512::pack_b_slab,
      &gemm_avx512::ref_nn, &gemm_avx512::ref_tn, &gemm_avx512::ref_nt, Tier::kAvx512,
      "avx2+fma", "4x16 avx512"};
  const bool fma = __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
  if (tier == Tier::kAvx2 && fma) return &avx2;
  if (tier == Tier::kAvx512 && fma && __builtin_cpu_supports("avx512f")) return &avx512;
#endif
  return nullptr;
}

/// The dispatched kernels: the widest tier the CPU runs, unless a
/// detail::TierGuard overrides it.
std::atomic<const KernelSet*>& active_kernels() {
  static std::atomic<const KernelSet*> active{[] {
    for (const Tier tier : {Tier::kAvx512, Tier::kAvx2}) {
      if (const KernelSet* set = tier_kernels(tier)) return set;
    }
    return tier_kernels(Tier::kBaseline);
  }()};
  return active;
}

const KernelSet& kernels() { return *active_kernels().load(std::memory_order_relaxed); }

std::atomic<std::uint64_t> g_flops{0};
std::atomic<std::uint64_t> g_calls{0};

void record(std::size_t m, std::size_t n, std::size_t k) {
  const std::uint64_t flops = 2ULL * m * n * k;
  g_flops.fetch_add(flops, std::memory_order_relaxed);
  g_calls.fetch_add(1, std::memory_order_relaxed);
  if (telemetry::enabled()) {
    static telemetry::Counter& flop_counter =
        telemetry::MetricsRegistry::global().counter("nn.gemm.flops");
    static telemetry::Counter& call_counter =
        telemetry::MetricsRegistry::global().counter("nn.gemm.calls");
    flop_counter.add(flops);
    call_counter.add(1);
  }
}

/// nt's materialised B^T. Filled by the calling thread before the tiled
/// product opens its parallel region, so its size follows that thread's own
/// calls only.
std::vector<double>& transpose_buffer() {
  thread_local std::vector<double> buf;
  return buf;
}

/// nn::detail::thread_scratch slots of the tiled driver, fetched inside chunk
/// bodies only. Every pool participant's buffers are grown to each slot's
/// high water mark before a job starts, so a thread meeting a shape for the
/// first time (row chunks and K-FAC layer tasks are claimed off an atomic
/// ticket) finds its buffers already sized.
enum ScratchSlot : std::size_t { kBPanel, kAPanel, kAccumulate };
static_assert(kAccumulate < nn::detail::kScratchSlots);

/// The calling thread's packed-panel buffer, grown to one k-panel of the
/// widest tile's panels and aligned to a cache line, so each packed row (one
/// ZMM or two YMM loads) sits on one line.
double* b_panel_scratch(std::size_t k) {
  constexpr std::size_t kLine = 64 / sizeof(double);
  const std::size_t need =
      kMaxTilePanels * std::min(k, gemm_baseline::kKc) * gemm_baseline::kNr + kLine - 1;
  double* buf = nn::detail::thread_scratch(kBPanel, need);
  const std::size_t misalign = reinterpret_cast<std::uintptr_t>(buf) % 64 / sizeof(double);
  return buf + (kLine - misalign) % kLine;
}

/// The calling thread's buffer for one k-panel of `rows` rows of A, needed
/// only when the reduction spans more than one panel (gemm_blocked).
double* a_panel_scratch(std::size_t rows, std::size_t k) {
  if (k <= gemm_baseline::kKc) return nullptr;
  const std::size_t tiles = (rows + gemm_baseline::kMr - 1) / gemm_baseline::kMr;
  return nn::detail::thread_scratch(kAPanel, tiles * gemm_baseline::kMr * gemm_baseline::kKc);
}

/// The calling thread's accumulate buffer for rows x n of C, needed only
/// when a product adds into C over more than one k-panel (gemm_blocked).
double* accumulate_scratch(std::size_t rows, std::size_t n, std::size_t k, bool accumulate) {
  if (!accumulate || k <= gemm_baseline::kKc) return nullptr;
  return nn::detail::thread_scratch(kAccumulate, rows * n);
}

/// Chunks are sized so each holds at least ~256k multiply-adds: smaller
/// products are not worth a fork/join and run on the calling thread.
constexpr std::size_t kMinMacsPerChunk = 256 * 1024;

void run_tiled(std::size_t m, std::size_t n, std::size_t k, const double* a, std::size_t a_rs,
               std::size_t a_ks, const double* b, std::size_t ldb, double* c, std::size_t ldc,
               bool accumulate, bool upper_only = false) {
  if (m == 0 || n == 0) return;
  const KernelSet& ks = kernels();
  const std::size_t per_row_macs = std::max<std::size_t>(1, n * k);
  const std::size_t min_rows = (kMinMacsPerChunk + per_row_macs - 1) / per_row_macs;
  constexpr std::size_t kMr = gemm_baseline::kMr;
  parallel_for_rows(m, std::max(min_rows, kMr), kMr,
                    [&](std::size_t row0, std::size_t row1) {
                      ks.rows(row0, row1, n, k, a, a_rs, a_ks, b, ldb, c, ldc, accumulate,
                              upper_only, b_panel_scratch(k), a_panel_scratch(row1 - row0, k),
                              accumulate_scratch(row1 - row0, n, k, accumulate));
                    });
}

}  // namespace

void nn(std::size_t m, std::size_t n, std::size_t k, const double* a, std::size_t lda,
        const double* b, std::size_t ldb, double* c, std::size_t ldc, bool accumulate) {
  record(m, n, k);
  run_tiled(m, n, k, a, lda, 1, b, ldb, c, ldc, accumulate);
}

std::size_t packed_b_size(std::size_t k, std::size_t n) noexcept {
  // Every tier packs panels kNr wide (static_asserted above), so the slab
  // size is dispatch-independent.
  return ((n + gemm_baseline::kNr - 1) / gemm_baseline::kNr) * k * gemm_baseline::kNr;
}

void pack_b(std::size_t k, std::size_t n, const double* b, std::size_t ldb, double* bp) {
  kernels().pack_b(k, n, b, ldb, bp);
}

void nn_packed(std::size_t m, std::size_t n, std::size_t k, const double* a,
               std::size_t lda, const double* bp, double* c, std::size_t ldc,
               bool accumulate) {
  record(m, n, k);
  if (m == 0 || n == 0) return;
  const KernelSet& ks = kernels();
  const std::size_t per_row_macs = std::max<std::size_t>(1, n * k);
  const std::size_t min_rows = (kMinMacsPerChunk + per_row_macs - 1) / per_row_macs;
  constexpr std::size_t kMr = gemm_baseline::kMr;
  parallel_for_rows(m, std::max(min_rows, kMr), kMr,
                    [&](std::size_t row0, std::size_t row1) {
                      ks.rows_packed(row0, row1, n, k, a, lda, 1, bp, c, ldc, accumulate,
                                     a_panel_scratch(row1 - row0, k),
                                     accumulate_scratch(row1 - row0, n, k, accumulate));
                    });
}

void tn(std::size_t m, std::size_t n, std::size_t k, const double* a, std::size_t lda,
        const double* b, std::size_t ldb, double* c, std::size_t ldc, bool accumulate) {
  record(m, n, k);
  run_tiled(m, n, k, a, 1, lda, b, ldb, c, ldc, accumulate);
}

void nt(std::size_t m, std::size_t n, std::size_t k, const double* a, std::size_t lda,
        const double* b, std::size_t ldb, double* c, std::size_t ldc, bool accumulate) {
  record(m, n, k);
  if (m == 0 || n == 0) return;
  // B^T is materialised once into per-thread scratch (O(n*k), negligible next
  // to the O(m*n*k) product), then the row-tiled NN path runs over it. The
  // per-element reduction order is unchanged: ascending k, one accumulator.
  std::vector<double>& bt = transpose_buffer();
  if (bt.size() < n * k) bt.resize(n * k);
  for (std::size_t j = 0; j < n; ++j) {
    const double* brow = b + j * ldb;
    for (std::size_t p = 0; p < k; ++p) bt[p * n + j] = brow[p];
  }
  run_tiled(m, n, k, a, lda, 1, bt.data(), n, c, ldc, accumulate);
}

void gram(std::size_t m, std::size_t k, const double* a, std::size_t lda, double* c,
          std::size_t ldc) {
  // The flop count records the algorithmic 2*m*m*k even though symmetry
  // halves the arithmetic actually executed (standard SYRK accounting).
  record(m, m, k);
  run_tiled(m, m, k, a, 1, lda, a, lda, c, ldc, /*accumulate=*/false, /*upper_only=*/true);
  // Mirror the strictly-lower triangle. x*y == y*x exactly in IEEE
  // arithmetic, so the copied element is bit-identical to what a full
  // product would have computed there.
  for (std::size_t i = 1; i < m; ++i) {
    for (std::size_t j = 0; j < i; ++j) c[i * ldc + j] = c[j * ldc + i];
  }
}

void nn_reference(std::size_t m, std::size_t n, std::size_t k, const double* a,
                  std::size_t lda, const double* b, std::size_t ldb, double* c,
                  std::size_t ldc) {
  record(m, n, k);
  kernels().ref_nn(m, n, k, a, lda, b, ldb, c, ldc, false);
}

void tn_reference(std::size_t m, std::size_t n, std::size_t k, const double* a,
                  std::size_t lda, const double* b, std::size_t ldb, double* c,
                  std::size_t ldc) {
  record(m, n, k);
  kernels().ref_tn(m, n, k, a, lda, b, ldb, c, ldc, false);
}

void nt_reference(std::size_t m, std::size_t n, std::size_t k, const double* a,
                  std::size_t lda, const double* b, std::size_t ldb, double* c,
                  std::size_t ldc) {
  record(m, n, k);
  kernels().ref_nt(m, n, k, a, lda, b, ldb, c, ldc, false);
}

const char* isa_name() noexcept { return kernels().isa; }

const char* tile_name() noexcept { return kernels().tile; }

namespace detail {

bool tier_supported(Tier tier) noexcept { return tier_kernels(tier) != nullptr; }

Tier active_tier() noexcept { return kernels().tier; }

TierGuard::TierGuard(Tier tier) : previous_(active_tier()) {
  const KernelSet* set = tier_kernels(tier);
  if (set == nullptr) throw std::invalid_argument("gemm: this CPU cannot run the requested tier");
  active_kernels().store(set, std::memory_order_relaxed);
}

TierGuard::~TierGuard() {
  active_kernels().store(tier_kernels(previous_), std::memory_order_relaxed);
}

}  // namespace detail

std::uint64_t flop_count() noexcept { return g_flops.load(std::memory_order_relaxed); }
std::uint64_t call_count() noexcept { return g_calls.load(std::memory_order_relaxed); }

}  // namespace dosc::nn::gemm
