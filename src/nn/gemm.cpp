#include "nn/gemm.hpp"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <vector>

#include "nn/tier.hpp"
#include "telemetry/registry.hpp"

// Kernel bodies are included once per tier. The baseline instantiation uses
// whatever the project-wide flags allow; the AVX2+FMA (4x8 tile) and AVX-512
// (4x16 tile) instantiations are compiled with function-level target
// overrides. The one tier choice of nn/tier.hpp, which gemv, tanh and the
// Cholesky follow too, picks among them at run time, so the shipped binary
// stays portable while hot loops use FMA at the widest vector the CPU has.
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

struct KernelSet {
  RowsFn rows;
  PackedRowsFn rows_packed;
  PackBFn pack_b;
  RefFn ref_nn;
  RefFn ref_tn;
  RefFn ref_nt;
  const char* isa;   ///< rounding family, see isa_name()
  const char* tile;  ///< see tile_name()
};

constexpr KernelSet kBaselineSet{
    &gemm_baseline::gemm_rows, &gemm_baseline::gemm_rows_packed, &gemm_baseline::pack_b_slab,
    &gemm_baseline::ref_nn, &gemm_baseline::ref_tn, &gemm_baseline::ref_nt, "baseline",
    "4x8 baseline"};

/// Indexed by detail::Tier. A build without the x86 tiers never dispatches
/// to them (tier_supported() rejects them), so their slots repeat the
/// baseline.
constexpr KernelSet kTierSets[detail::kTierCount] = {
    kBaselineSet,
#ifdef DOSC_GEMM_HAVE_X86_TIERS
    {&gemm_avx2::gemm_rows, &gemm_avx2::gemm_rows_packed, &gemm_avx2::pack_b_slab,
     &gemm_avx2::ref_nn, &gemm_avx2::ref_tn, &gemm_avx2::ref_nt, "avx2+fma", "4x8 avx2+fma"},
    {&gemm_avx512::gemm_rows, &gemm_avx512::gemm_rows_packed, &gemm_avx512::pack_b_slab,
     &gemm_avx512::ref_nn, &gemm_avx512::ref_tn, &gemm_avx512::ref_nt, "avx2+fma",
     "4x16 avx512"},
#else
    kBaselineSet,
    kBaselineSet,
#endif
};

/// The kernels of the tier every NN kernel family runs (nn/tier.hpp).
const KernelSet& kernels() noexcept {
  return kTierSets[static_cast<int>(detail::active_tier())];
}

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

/// Grows `buf` to at least `size` doubles and returns its storage.
double* grown(std::vector<double>& buf, std::size_t size) {
  if (buf.size() < size) buf.resize(size);
  return buf.data();
}

/// The calling thread's tiled-driver scratch, grown on demand and reused.
/// Each buffer is reached only when a product needs it.
struct Scratch {
  std::vector<double> b_panel;     ///< packed B panels, one k-panel deep
  std::vector<double> a_panel;     ///< packed A rows, one k-panel deep
  std::vector<double> accumulate;  ///< rows x n of C under `accumulate`
};

Scratch& scratch() {
  thread_local Scratch buffers;
  return buffers;
}

/// The calling thread's packed-panel buffer, grown to one k-panel of the
/// widest tile's panels and aligned to a cache line, so each packed row (one
/// ZMM or two YMM loads) sits on one line.
double* b_panel_scratch(std::size_t k) {
  constexpr std::size_t kLine = 64 / sizeof(double);
  const std::size_t need =
      kMaxTilePanels * std::min(k, gemm_baseline::kKc) * gemm_baseline::kNr + kLine - 1;
  double* data = grown(scratch().b_panel, need);
  const std::size_t misalign = reinterpret_cast<std::uintptr_t>(data) % 64 / sizeof(double);
  return data + (kLine - misalign) % kLine;
}

/// The calling thread's buffer for one k-panel of `rows` rows of A, needed
/// only when the reduction spans more than one panel (gemm_blocked).
double* a_panel_scratch(std::size_t rows, std::size_t k) {
  if (k <= gemm_baseline::kKc) return nullptr;
  const std::size_t tiles = (rows + gemm_baseline::kMr - 1) / gemm_baseline::kMr;
  return grown(scratch().a_panel, tiles * gemm_baseline::kMr * gemm_baseline::kKc);
}

/// The calling thread's accumulate buffer for rows x n of C, needed only
/// when a product adds into C over more than one k-panel (gemm_blocked).
double* accumulate_scratch(std::size_t rows, std::size_t n, std::size_t k, bool accumulate) {
  if (!accumulate || k <= gemm_baseline::kKc) return nullptr;
  return grown(scratch().accumulate, rows * n);
}

void run_tiled(std::size_t m, std::size_t n, std::size_t k, const double* a, std::size_t a_rs,
               std::size_t a_ks, const double* b, std::size_t ldb, double* c, std::size_t ldc,
               bool accumulate, bool upper_only = false) {
  if (m == 0 || n == 0) return;
  kernels().rows(0, m, n, k, a, a_rs, a_ks, b, ldb, c, ldc, accumulate, upper_only,
                 b_panel_scratch(k), a_panel_scratch(m, k),
                 accumulate_scratch(m, n, k, accumulate));
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
  kernels().rows_packed(0, m, n, k, a, lda, 1, bp, c, ldc, accumulate, a_panel_scratch(m, k),
                        accumulate_scratch(m, n, k, accumulate));
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
  thread_local std::vector<double> transpose;
  double* bt = grown(transpose, n * k);
  for (std::size_t j = 0; j < n; ++j) {
    const double* brow = b + j * ldb;
    for (std::size_t p = 0; p < k; ++p) bt[p * n + j] = brow[p];
  }
  run_tiled(m, n, k, a, lda, 1, bt, n, c, ldc, accumulate);
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

std::uint64_t flop_count() noexcept { return g_flops.load(std::memory_order_relaxed); }
std::uint64_t call_count() noexcept { return g_calls.load(std::memory_order_relaxed); }

}  // namespace dosc::nn::gemm
