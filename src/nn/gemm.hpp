// Low-level dense double-precision GEMM kernels behind the Matrix API.
//
// All operands are row-major with explicit leading dimensions, so callers
// (e.g. KFAC) can compute directly into a sub-block of a larger matrix
// without materialising intermediates. Kernels are register-tiled over B
// packed into 8-column panels, blocked over k in fixed panels of 256, run
// at the one kernel tier that gemv, tanh and the Cholesky run at too
// (nn/tier.hpp: AVX-512 with a 4x16 tile of C, AVX2+FMA with 4x8, or the
// portable baseline with 4x8), on the calling thread.
//
// Determinism contract: each output element is reduced over k in ascending
// order by a single accumulator, and the reduction is never split across
// tiles. Results are therefore bit-identical across tile shapes and vector
// widths, so the AVX-512 and AVX2+FMA tiers agree bit for bit. `accumulate == true` adds the fully reduced product to
// C with one final addition per element (C += A*B), so it equals computing
// the product separately and adding it.
//
// k-panel carry: a reduction longer than one panel (k > 256, in practice
// the batch dimension of the training products tn and gram) runs its panels
// in ascending k and carries each element's accumulator through C between
// them. A stored and reloaded double is unchanged, so the chain of
// multiply-adds is exactly the unblocked one. Each such panel also packs
// its A rows into per-thread scratch, so tn's and gram's column-strided A
// is read once per panel instead of once per column panel of B. Under
// `accumulate` the panels reduce into per-thread scratch instead (reused
// across calls), which is then added to C once. Products with k <= 256 run
// one panel, read A in place and write C once.
//
// The *_reference kernels are the seed's naive loops (minus the
// data-dependent zero-skip branches), compiled at the same ISA level as the
// tiled kernels so FP contraction matches: tests may require exact equality
// between tiled and reference results.
#pragma once

#include <cstddef>
#include <cstdint>

namespace dosc::nn::gemm {

/// C[m x n] (+)= A[m x k] * B[k x n].
void nn(std::size_t m, std::size_t n, std::size_t k, const double* a, std::size_t lda,
        const double* b, std::size_t ldb, double* c, std::size_t ldc, bool accumulate);

/// Pre-packed B for repeated nn() products against one unchanging B (batched
/// MLP inference reuses each layer's weight matrix every forward): pack once
/// with pack_b into a caller-owned slab of packed_b_size doubles, then
/// nn_packed streams the slab. The packed panels are byte-identical to the
/// ones nn() packs per call, so nn_packed is bit-identical to nn() — only
/// the per-call O(k*n) pack is elided.
std::size_t packed_b_size(std::size_t k, std::size_t n) noexcept;
void pack_b(std::size_t k, std::size_t n, const double* b, std::size_t ldb, double* bp);
void nn_packed(std::size_t m, std::size_t n, std::size_t k, const double* a,
               std::size_t lda, const double* bp, double* c, std::size_t ldc,
               bool accumulate);

/// C[m x n] (+)= A^T * B with A stored [k x m].
void tn(std::size_t m, std::size_t n, std::size_t k, const double* a, std::size_t lda,
        const double* b, std::size_t ldb, double* c, std::size_t ldc, bool accumulate);

/// C[m x n] (+)= A * B^T with B stored [n x k].
void nt(std::size_t m, std::size_t n, std::size_t k, const double* a, std::size_t lda,
        const double* b, std::size_t ldb, double* c, std::size_t ldc, bool accumulate);

/// C[m x m] = A^T * A with A stored [k x m] (the Gram matrix): only the
/// upper triangle is computed, the lower is mirrored. Bit-identical to
/// tn(m, m, k, a, lda, a, lda, ...) at roughly half the arithmetic; used for
/// the KFAC covariance factors.
void gram(std::size_t m, std::size_t k, const double* a, std::size_t lda, double* c,
          std::size_t ldc);

/// Naive single-threaded oracles (overwrite only), same ISA/contraction as
/// the tiled kernels.
void nn_reference(std::size_t m, std::size_t n, std::size_t k, const double* a,
                  std::size_t lda, const double* b, std::size_t ldb, double* c,
                  std::size_t ldc);
void tn_reference(std::size_t m, std::size_t n, std::size_t k, const double* a,
                  std::size_t lda, const double* b, std::size_t ldb, double* c,
                  std::size_t ldc);
void nt_reference(std::size_t m, std::size_t n, std::size_t k, const double* a,
                  std::size_t lda, const double* b, std::size_t ldb, double* c,
                  std::size_t ldc);

/// The rounding contract of the dispatched kernels, which is what the NN
/// pins (golden digests, benchmark checksums) are valid for: "avx2+fma" for
/// the AVX2+FMA and AVX-512 tiers, whose results are bit-identical (one fused
/// multiply-add per k step in both), "baseline" for the portable tier
/// (multiply, then add). It does not name the tier; tile_name() does.
const char* isa_name() noexcept;

/// The dispatched tier's register tile and instruction set ("4x16 avx512",
/// "4x8 avx2+fma" or "4x8 baseline"): provenance for timings, which differ
/// between tiers whose results do not.
const char* tile_name() noexcept;

/// Cumulative 2*m*n*k over all kernel calls in this process (tiled and
/// reference), and the number of calls. Always on (two relaxed atomic adds
/// per call); also mirrored into the telemetry registry counters
/// `nn.gemm.flops` / `nn.gemm.calls` when telemetry is enabled.
std::uint64_t flop_count() noexcept;
std::uint64_t call_count() noexcept;

}  // namespace dosc::nn::gemm
