// Flow model (Sec. III-A).
//
// A flow f = (s_f, c_f, v_in, v_eg, lambda_f, t_in, delta_f, tau_f) is a
// fluid stream requesting a service. c_f — the currently requested
// component — is tracked as chain_pos, the index into the service chain;
// chain_pos == chain length means the flow is fully processed (c_f = ∅) and
// only needs routing to its egress.
//
// Flows live in the simulator's slot-map pool (see simulator.hpp): the
// object is recycled across flows, and `pool_handle` is the stable
// generation-tagged handle events use to address it in O(1).
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "net/network.hpp"
#include "sim/service.hpp"

namespace dosc::sim {

using FlowId = std::uint64_t;

enum class DropReason {
  kNodeOverload,   ///< chosen node lacked compute capacity for r_c(lambda)
  kLinkOverload,   ///< chosen link lacked capacity for lambda
  kInvalidAction,  ///< action pointed at a padded (non-existing) neighbour
  kExpired,        ///< deadline tau_f reached before the flow completed
  kNodeFailed,     ///< the flow was at / sent to a failed node
  kLinkFailed,     ///< the flow was forwarded onto a failed link
};

inline constexpr std::size_t kNumDropReasons = 6;

const char* drop_reason_name(DropReason reason) noexcept;

/// Small-buffer list of generation-tagged resource-hold handles. A flow's
/// simultaneously active holds (one node hold while processing, plus the
/// links its tail is still draining through) almost always fit the inline
/// array — the simulator prunes released handles before spilling — so
/// steady-state flows never touch the heap. The spill vector keeps its
/// capacity across clear(), which matters because Flow objects are pooled.
class HoldList {
 public:
  static constexpr std::size_t kInline = 8;

  void push_back(std::uint64_t handle) {
    if (size_ < kInline) {
      inline_[size_] = handle;
    } else {
      const std::size_t spill = size_ - kInline;
      if (spill < overflow_.size()) {
        overflow_[spill] = handle;
      } else {
        overflow_.push_back(handle);
      }
    }
    ++size_;
  }

  std::uint64_t operator[](std::size_t i) const {
    return i < kInline ? inline_[i] : overflow_[i - kInline];
  }

  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }
  /// Keeps the spill capacity: a pooled flow's list never re-allocates.
  void clear() noexcept { size_ = 0; }

  /// Compact the list to the entries for which `live` returns true.
  template <typename Pred>
  void remove_dead(Pred&& live) {
    std::size_t kept = 0;
    for (std::size_t i = 0; i < size_; ++i) {
      const std::uint64_t handle = (*this)[i];
      if (live(handle)) {
        if (kept < kInline) {
          inline_[kept] = handle;
        } else {
          overflow_[kept - kInline] = handle;
        }
        ++kept;
      }
    }
    size_ = kept;
  }

 private:
  std::array<std::uint64_t, kInline> inline_{};
  std::vector<std::uint64_t> overflow_;
  std::size_t size_ = 0;
};

struct Flow {
  FlowId id = 0;
  ServiceId service = 0;
  /// Index of the currently requested component within the service chain;
  /// equal to the chain length once fully processed (c_f = ∅).
  std::size_t chain_pos = 0;
  net::NodeId ingress = net::kInvalidNode;
  net::NodeId egress = net::kInvalidNode;
  double rate = 1.0;       ///< lambda_f
  double duration = 1.0;   ///< delta_f
  double arrival_time = 0.0;  ///< t_f^in
  double deadline = 100.0;    ///< tau_f, relative to arrival_time

  /// Node the flow currently resides at (where the next decision happens).
  net::NodeId current_node = net::kInvalidNode;

  // --- internal simulator state (read-only for coordinators) ---
  bool alive = true;
  HoldList holds;  ///< handles of this flow's resource holds
  /// Generation-tagged slot handle of this flow in the simulator's pool;
  /// events carry it so lookups are index arithmetic, not hashing.
  std::uint64_t pool_handle = 0;
  /// Instance currently processing the flow (pins it against idle
  /// removal), or kNoInstance.
  static constexpr std::uint32_t kNoInstance = 0xFFFFFFFF;
  std::uint32_t processing_instance = kNoInstance;

  /// Remaining time to the deadline at time t: tau_f^t = tau_f - (t - t_in).
  double remaining_deadline(double t) const noexcept {
    return deadline - (t - arrival_time);
  }
  /// Absolute expiry time.
  double expiry_time() const noexcept { return arrival_time + deadline; }
};

}  // namespace dosc::sim
