// Wait-free epoch-based snapshot publication.
//
// The decision daemon hot-swaps policy weights under live traffic
// (serve::PolicyStore), which needs:
//
//   * readers (decide workers) must never block and never observe a torn
//     snapshot — a value whose bytes mix two publishes;
//   * the publisher (the control thread) may block, but only until
//     in-flight readers of the slot it wants to recycle finish.
//
// EpochPublished<T> implements this with a small ring of epoch slots, each
// guarded by an atomic reader count. acquire() is wait-free in the absence
// of publishes (one atomic load + one fetch_add + one validating load):
// a reader pins the current slot with a refcount and re-checks that the
// slot is still current; if a publish raced past, it unpins and retries
// against the new current slot. publish() rotates to the next slot, waits
// for its stragglers (readers pinned kSlots publishes ago — with 8 slots
// and microsecond reads, effectively never), installs the value, and
// only then advances the current index with release ordering. Because a
// slot is reused only after its refcount reaches zero *and* the current
// index has long moved away, a reader that passes the re-check is
// guaranteed the slot's value was fully constructed before the index
// pointed at it (release/acquire on current_) — no tears, no ABA.
//
// The publisher never makes a reader thread wait.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>

namespace dosc::util {

template <typename T>
class EpochPublished {
 public:
  static constexpr std::size_t kSlots = 8;

  /// RAII pin on one published snapshot. Movable, not copyable; the
  /// snapshot stays valid (and its slot unrecycled) until release.
  class Handle {
   public:
    Handle() = default;
    Handle(Handle&& other) noexcept
        : store_(std::exchange(other.store_, nullptr)), slot_(other.slot_) {}
    Handle& operator=(Handle&& other) noexcept {
      if (this != &other) {
        release();
        store_ = std::exchange(other.store_, nullptr);
        slot_ = other.slot_;
      }
      return *this;
    }
    Handle(const Handle&) = delete;
    Handle& operator=(const Handle&) = delete;
    ~Handle() { release(); }

    const T* get() const noexcept { return store_ ? store_->slots_[slot_].value.get() : nullptr; }
    const T& operator*() const noexcept { return *get(); }
    const T* operator->() const noexcept { return get(); }
    explicit operator bool() const noexcept { return get() != nullptr; }

    void release() noexcept {
      if (store_ != nullptr) {
        store_->slots_[slot_].refs.fetch_sub(1, std::memory_order_release);
        store_ = nullptr;
      }
    }

   private:
    friend class EpochPublished;
    Handle(const EpochPublished* store, std::uint32_t slot) : store_(store), slot_(slot) {}
    const EpochPublished* store_ = nullptr;
    std::uint32_t slot_ = 0;
  };

  /// Pin the current snapshot; null handle only before the first publish.
  Handle acquire() const noexcept {
    for (;;) {
      const std::uint32_t i = current_.load(std::memory_order_acquire);
      slots_[i].refs.fetch_add(1, std::memory_order_acquire);
      if (current_.load(std::memory_order_acquire) == i) {
        return Handle(this, i);
      }
      // A publish moved on while we pinned; unpin and chase the new slot.
      slots_[i].refs.fetch_sub(1, std::memory_order_release);
    }
  }

  /// Install a new snapshot. Serialized against other publishers by a
  /// mutex; waits (publisher-side only) for readers still pinning the slot
  /// being recycled — kSlots publishes old, so in practice free.
  void publish(std::unique_ptr<const T> value) {
    std::lock_guard<std::mutex> lock(publish_mu_);
    // Always rotate — even on the first publish — so the slot being written
    // is never the one current_ already points at: the reader's post-pin
    // re-check of current_ is what makes a pinned slot immutable.
    const std::uint32_t cur = current_.load(std::memory_order_relaxed);
    const std::uint32_t next = (cur + 1) % kSlots;
    while (slots_[next].refs.load(std::memory_order_acquire) != 0) {
      std::this_thread::yield();
    }
    slots_[next].value = std::move(value);
    current_.store(next, std::memory_order_release);
    ++publishes_;
    publish_count_.store(publishes_, std::memory_order_release);
  }

  /// Number of publishes so far (0 = nothing to acquire yet).
  std::uint64_t publish_count() const noexcept {
    return publish_count_.load(std::memory_order_acquire);
  }

 private:
  struct Slot {
    std::atomic<std::uint64_t> refs{0};
    std::unique_ptr<const T> value;
  };

  mutable Slot slots_[kSlots];
  std::atomic<std::uint32_t> current_{0};
  std::mutex publish_mu_;
  std::uint64_t publishes_ = 0;  ///< guarded by publish_mu_
  std::atomic<std::uint64_t> publish_count_{0};
};

}  // namespace dosc::util
