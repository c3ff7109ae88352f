#include "rl/rollout.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <utility>

namespace dosc::rl {

namespace {

/// splitmix64 finalizer: flow ids are small sequential integers, so the
/// open-addressing table needs real bit mixing to avoid clustering.
inline std::size_t hash_key(std::uint64_t key) noexcept {
  std::uint64_t h = key + 0x9E3779B97F4A7C15ULL;
  h = (h ^ (h >> 30)) * 0xBF58476D1CE4E5B9ULL;
  h = (h ^ (h >> 27)) * 0x94D049BB133111EBULL;
  return static_cast<std::size_t>(h ^ (h >> 31));
}

constexpr std::size_t kInitialTableSize = 64;  // power of two

}  // namespace

TrajectoryBuffer::TrajectoryBuffer(double gamma) : gamma_(gamma) {
  table_.assign(kInitialTableSize, kNil);
  table_mask_ = kInitialTableSize - 1;
}

void TrajectoryBuffer::reserve(std::size_t max_flows, std::size_t max_steps_per_flow,
                               std::size_t obs_dim) {
  const std::size_t old_slots = pool_.size();
  if (pool_.size() < max_flows) pool_.resize(max_flows);
  for (Slot& slot : pool_) {
    if (slot.steps.size() < max_steps_per_flow) slot.steps.resize(max_steps_per_flow);
    for (Step& step : slot.steps) step.obs.reserve(obs_dim);
  }
  free_slots_.reserve(pool_.size());
  for (std::size_t s = old_slots; s < pool_.size(); ++s) {
    free_slots_.push_back(static_cast<std::uint32_t>(s));
  }
  finished_.reserve(pool_.size());
  returns_scratch_.reserve(max_steps_per_flow);
  // Size the table past the growth trigger (open slots * 2 >= table size)
  // for max_flows simultaneously-open flows, reinserting live entries the
  // same way table_grow does.
  std::size_t want = table_.size();
  while (want <= max_flows * 2) want <<= 1;
  if (want > table_.size()) {
    table_.assign(want, kNil);
    table_mask_ = want - 1;
    for (std::uint32_t s = open_head_; s != kNil; s = pool_[s].next) {
      table_insert(pool_[s].key, s);
    }
  }
}

std::uint32_t* TrajectoryBuffer::table_find(std::uint64_t key) noexcept {
  std::size_t i = hash_key(key) & table_mask_;
  while (table_[i] != kNil) {
    if (pool_[table_[i]].key == key) return &table_[i];
    i = (i + 1) & table_mask_;
  }
  return nullptr;
}

void TrajectoryBuffer::table_insert(std::uint64_t key, std::uint32_t slot) {
  std::size_t i = hash_key(key) & table_mask_;
  while (table_[i] != kNil) i = (i + 1) & table_mask_;
  table_[i] = slot;
}

void TrajectoryBuffer::table_erase(std::uint64_t key) noexcept {
  // Linear-probing backshift deletion: no tombstones, so the table never
  // degrades (and never rehashes) under the episode-long stream of
  // insert/erase pairs one flow each.
  std::size_t i = hash_key(key) & table_mask_;
  while (table_[i] != kNil && pool_[table_[i]].key != key) i = (i + 1) & table_mask_;
  if (table_[i] == kNil) return;
  std::size_t j = i;
  for (;;) {
    j = (j + 1) & table_mask_;
    if (table_[j] == kNil) break;
    const std::size_t ideal = hash_key(pool_[table_[j]].key) & table_mask_;
    if (((j - ideal) & table_mask_) >= ((j - i) & table_mask_)) {
      table_[i] = table_[j];
      i = j;
    }
  }
  table_[i] = kNil;
}

void TrajectoryBuffer::table_grow() {
  const std::size_t new_size = table_.size() * 2;
  table_.assign(new_size, kNil);
  table_mask_ = new_size - 1;
  // Reinsert every open slot (finished slots are no longer in the table).
  for (std::uint32_t s = open_head_; s != kNil; s = pool_[s].next) {
    table_insert(pool_[s].key, s);
  }
}

std::uint32_t TrajectoryBuffer::acquire_slot(std::uint64_t key) {
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(pool_.size());
    pool_.emplace_back();
  }
  Slot& s = pool_[slot];
  s.used = 0;
  s.terminated = false;
  s.key = key;
  // Append to the open list tail: insertion order == first-decision order.
  s.prev = open_tail_;
  s.next = kNil;
  if (open_tail_ != kNil) {
    pool_[open_tail_].next = slot;
  } else {
    open_head_ = slot;
  }
  open_tail_ = slot;
  ++open_count_;
  if (open_count_ * 2 >= table_.size()) table_grow();
  table_insert(key, slot);
  return slot;
}

void TrajectoryBuffer::unlink_open(std::uint32_t slot) noexcept {
  Slot& s = pool_[slot];
  if (s.prev != kNil) {
    pool_[s.prev].next = s.next;
  } else {
    open_head_ = s.next;
  }
  if (s.next != kNil) {
    pool_[s.next].prev = s.prev;
  } else {
    open_tail_ = s.prev;
  }
  s.prev = s.next = kNil;
  --open_count_;
}

void TrajectoryBuffer::close_slot(std::uint32_t slot, bool terminated) {
  Slot& s = pool_[slot];
  if (s.used == 0) {
    free_slots_.push_back(slot);
    return;
  }
  s.terminated = terminated;
  completed_steps_ += s.used;
  finished_.push_back(slot);
}

void TrajectoryBuffer::record_decision(std::uint64_t key, std::span<const double> obs,
                                       int action) {
  const std::uint32_t* found = table_find(key);
  const std::uint32_t slot = (found != nullptr) ? *found : acquire_slot(key);
  Slot& s = pool_[slot];
  if (s.used == s.steps.size()) s.steps.emplace_back();
  Step& step = s.steps[s.used];
  ++s.used;
  step.obs.assign(obs.begin(), obs.end());  // reuses the recycled capacity
  step.action = action;
  step.reward_after = 0.0;
}

void TrajectoryBuffer::record_reward(std::uint64_t key, double reward) {
  const std::uint32_t* found = table_find(key);
  if (found == nullptr) return;
  Slot& s = pool_[*found];
  if (s.used == 0) return;
  s.steps[s.used - 1].reward_after += reward;
}

void TrajectoryBuffer::finish(std::uint64_t key) {
  const std::uint32_t* found = table_find(key);
  if (found == nullptr) return;
  const std::uint32_t slot = *found;
  table_erase(key);
  unlink_open(slot);
  close_slot(slot, /*terminated=*/true);
}

void TrajectoryBuffer::truncate_all() {
  for (std::uint32_t s = open_head_; s != kNil;) {
    const std::uint32_t next = pool_[s].next;
    pool_[s].prev = pool_[s].next = kNil;
    close_slot(s, /*terminated=*/false);
    s = next;
  }
  open_head_ = open_tail_ = kNil;
  open_count_ = 0;
  std::fill(table_.begin(), table_.end(), kNil);
}

void TrajectoryBuffer::drain_into(Batch& out, const ActorCritic& net, std::size_t obs_dim) {
  std::size_t total = 0;
  for (const std::uint32_t slot : finished_) total += pool_[slot].used;
  out.obs.ensure_shape(total, obs_dim);
  out.actions.clear();
  out.returns.clear();
  out.actions.reserve(total);
  out.returns.reserve(total);

  std::size_t row = 0;
  for (const std::uint32_t slot : finished_) {
    Slot& trajectory = pool_[slot];
    const std::size_t n = trajectory.used;
    // Backward pass: terminal trajectories start from 0, truncated ones
    // bootstrap from the critic at the final observation.
    double ret = 0.0;
    if (!trajectory.terminated) {
      ret = net.value(trajectory.steps[n - 1].obs);
    }
    returns_scratch_.resize(n);
    for (std::size_t i = n; i-- > 0;) {
      ret = trajectory.steps[i].reward_after + gamma_ * ret;
      returns_scratch_[i] = ret;
    }
    for (std::size_t i = 0; i < n; ++i) {
      const Step& step = trajectory.steps[i];
      if (step.obs.size() != obs_dim) {
        throw std::invalid_argument("TrajectoryBuffer::drain: obs size mismatch");
      }
      std::copy(step.obs.begin(), step.obs.end(), out.obs.data() + row * obs_dim);
      out.actions.push_back(step.action);
      out.returns.push_back(returns_scratch_[i]);
      ++row;
    }
    free_slots_.push_back(slot);  // recycle, keeping steps/obs capacity
  }
  finished_.clear();
  completed_steps_ = 0;
}

Batch TrajectoryBuffer::drain(const ActorCritic& net, std::size_t obs_dim) {
  Batch batch;
  drain_into(batch, net, obs_dim);
  return batch;
}

void merge_batches_into(Batch& out, std::span<const Batch> batches, std::size_t obs_dim,
                        std::size_t max_steps, util::Rng& rng) {
  std::size_t total = 0;
  for (const Batch& b : batches) total += b.size();
  const std::size_t keep = std::min(total, max_steps);
  // Pick the kept (batch, row) pairs first, then copy exactly once.
  std::vector<std::pair<std::size_t, std::size_t>> picks;
  picks.reserve(keep);
  if (keep == total) {
    for (std::size_t bi = 0; bi < batches.size(); ++bi) {
      for (std::size_t i = 0; i < batches[bi].size(); ++i) picks.emplace_back(bi, i);
    }
  } else {
    // Reservoir sampling over the concatenated steps.
    std::size_t seen = 0;
    for (std::size_t bi = 0; bi < batches.size(); ++bi) {
      for (std::size_t i = 0; i < batches[bi].size(); ++i) {
        if (picks.size() < keep) {
          picks.emplace_back(bi, i);
        } else {
          const std::size_t j = static_cast<std::size_t>(
              rng.uniform_int(0, static_cast<std::int64_t>(seen)));
          if (j < keep) picks[j] = {bi, i};
        }
        ++seen;
      }
    }
  }
  out.obs.ensure_shape(picks.size(), obs_dim);
  out.actions.clear();
  out.returns.clear();
  out.actions.reserve(picks.size());
  out.returns.reserve(picks.size());
  for (std::size_t row = 0; row < picks.size(); ++row) {
    const auto [bi, i] = picks[row];
    const Batch& b = batches[bi];
    std::copy(b.obs.data() + i * obs_dim, b.obs.data() + (i + 1) * obs_dim,
              out.obs.data() + row * obs_dim);
    out.actions.push_back(b.actions[i]);
    out.returns.push_back(b.returns[i]);
  }
}

}  // namespace dosc::rl
