// util::EpochPublished safety: concurrent readers must never observe a torn
// snapshot while a publisher loops, pinned handles must survive later
// publishes, and acquire before any publish is null. serve::PolicyStore
// hot-swaps policy snapshots through this template.
//
// The torn-read detector uses per-snapshot sentinel values: every publish
// installs a large vector whose elements all equal the publish index, so a
// reader that ever sees two different elements has caught a tear — a
// mixed-generation snapshot — which the epoch protocol promises cannot
// happen.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "util/epoch_published.hpp"

using dosc::util::EpochPublished;

TEST(EpochPublished, ConcurrentReadersNeverSeeTornSnapshots) {
  EpochPublished<std::vector<double>> store;
  store.publish(std::make_unique<std::vector<double>>(4096, 0.0));

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> torn{0};
  std::atomic<std::uint64_t> reads{0};
  std::atomic<std::uint64_t> stale{0};

  constexpr int kReaders = 4;
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      double last_seen = -1.0;
      while (!stop.load(std::memory_order_acquire)) {
        const auto handle = store.acquire();
        ASSERT_TRUE(handle);
        const std::vector<double>& v = *handle;
        const double first = v[0];
        for (const double x : v) {
          if (x != first) {
            torn.fetch_add(1, std::memory_order_relaxed);
            break;
          }
        }
        // Published generations are monotone; a reader may lag by an
        // in-flight publish but must never travel backwards.
        if (first < last_seen) stale.fetch_add(1, std::memory_order_relaxed);
        last_seen = first;
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  // Interleave publishes with reader progress: on a single hardware thread
  // the publisher can otherwise retire every publish before a reader is
  // ever scheduled, and an unobserved publish storm verifies nothing.
  constexpr std::uint64_t kPublishes = 2000;
  for (std::uint64_t gen = 1; gen <= kPublishes; ++gen) {
    const std::uint64_t reads_before = reads.load(std::memory_order_relaxed);
    store.publish(
        std::make_unique<std::vector<double>>(4096, static_cast<double>(gen)));
    if (gen % 16 == 0) {
      while (reads.load(std::memory_order_relaxed) == reads_before) {
        std::this_thread::yield();
      }
    }
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(torn.load(), 0u);
  EXPECT_EQ(stale.load(), 0u);
  EXPECT_GT(reads.load(), 0u);
  EXPECT_EQ(store.publish_count(), kPublishes + 1);
  EXPECT_EQ((*store.acquire())[0], static_cast<double>(kPublishes));
}

TEST(EpochPublished, HandlePinsItsSnapshotAcrossPublishes) {
  EpochPublished<std::vector<double>> store;
  store.publish(std::make_unique<std::vector<double>>(16, 7.0));

  const auto pinned = store.acquire();
  // Up to kSlots - 1 further publishes can proceed without recycling the
  // pinned slot; the pinned view must stay bit-identical throughout.
  for (std::size_t i = 0; i < EpochPublished<std::vector<double>>::kSlots - 1; ++i) {
    store.publish(std::make_unique<std::vector<double>>(16, 100.0 + static_cast<double>(i)));
    EXPECT_EQ((*pinned)[0], 7.0);
    EXPECT_EQ((*pinned)[15], 7.0);
  }
  EXPECT_NE((*store.acquire())[0], 7.0);
}

TEST(EpochPublished, AcquireBeforeFirstPublishIsNull) {
  EpochPublished<int> store;
  EXPECT_FALSE(store.acquire());
  store.publish(std::make_unique<int>(42));
  ASSERT_TRUE(store.acquire());
  EXPECT_EQ(*store.acquire(), 42);
}
