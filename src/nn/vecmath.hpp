// Runtime-dispatched vector math for activation functions.
//
// tanh_inplace applies the project's own vectorizable tanh (tanh_kernels.inc)
// over a contiguous array, selecting the AVX2+FMA instantiation via cpuid
// exactly like gemm/gemv do. tanh1 evaluates the identical kernel for a
// single element — same dispatch, same arithmetic, same bits — so fused
// per-element call sites (the gemv activation epilogue) and bulk array sites
// (the batch forward) agree bitwise on any given machine.
//
// This replaced std::tanh as the Mlp activation: libm's scalar tanh cost
// ~12ns/element and could not vectorize, which left batched forwards
// activation-bound (DESIGN.md section 13.4). Results differ from std::tanh
// in the last couple of ulps; the pinned golden digests survived the switch
// unchanged (no greedy argmax flips at ulp-level logit shifts).
#pragma once

#include <cstddef>

namespace dosc::nn::vecmath {

/// v[0..count) = tanh(v[0..count)), vectorized at the dispatched ISA level.
void tanh_inplace(double* v, std::size_t count);

/// Single-element tanh through the same dispatched kernel: bit-identical to
/// what tanh_inplace writes for the same input.
double tanh1(double x);

/// The rounding contract of the dispatched kernel ("avx2+fma" or
/// "baseline"), named as gemm::isa_name() names it. tanh has no AVX-512
/// tier: 8 lanes would save under 1% of an ACKTR update (DESIGN.md §7).
const char* tanh_isa() noexcept;

}  // namespace dosc::nn::vecmath
