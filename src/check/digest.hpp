// Golden digest of the simulator event stream.
//
// A 64-bit order-sensitive hash over every dispatched event — (kind, time,
// seq, flow, a, b) — so a fixed-seed episode pins simulator behaviour to a
// single number. Two runs produce the same digest iff they dispatched the
// same events at the same times in the same order, which is exactly the
// "this refactor did not change semantics" statement future perf PRs need,
// and (because the NN kernels run on the calling thread, whatever the
// compute-thread budget) the digest is also invariant under DOSC_THREADS.
//
// The digest covers event *dispatch*, not handling: two behaviours that
// schedule identical streams but account them differently are caught by the
// InvariantAuditor / SimMetrics golden values instead, so golden tests pin
// both.
#pragma once

#include <cstdint>

#include "sim/audit.hpp"
#include "util/rng.hpp"

namespace dosc::check {

class EventDigest final : public sim::AuditHook {
 public:
  /// Does NOT reset on episode start: one digest can cover a multi-episode
  /// stream. Use reset() or a fresh instance for per-episode digests.
  void on_event(const sim::Simulator& /*sim*/, const sim::SimEvent& event) override;

  std::uint64_t digest() const noexcept { return hash_; }
  std::uint64_t events() const noexcept { return events_; }
  void reset() noexcept;

 private:
  void absorb(std::uint64_t x) noexcept { hash_ = util::mix64(hash_ ^ x) * 0x9E3779B97F4A7C15ULL; }

  static constexpr std::uint64_t kSeed = 0x0D05CD16E57ULL;  // "dosc digest"
  std::uint64_t hash_ = kSeed;
  std::uint64_t events_ = 0;
};

}  // namespace dosc::check
