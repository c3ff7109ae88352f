#include "check/digest.hpp"

#include <bit>

namespace dosc::check {

void EventDigest::on_event(const sim::Simulator&, const sim::SimEvent& event) {
  absorb(static_cast<std::uint64_t>(event.kind) + 1);
  absorb(std::bit_cast<std::uint64_t>(event.time));
  absorb(event.seq);
  absorb(event.flow);
  absorb((static_cast<std::uint64_t>(event.a) << 32) | event.b);
  ++events_;
}

void EventDigest::reset() noexcept {
  hash_ = kSeed;
  events_ = 0;
}

}  // namespace dosc::check
