// Per-record seqlock (DESIGN.md §11): optimistic readers must either get a
// consistent committed snapshot or report contention — never a torn value.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "rodain/obs/obs.hpp"
#include "rodain/storage/object_store.hpp"

namespace rodain::storage {
namespace {

Value val(std::string_view s) { return Value{s}; }

TEST(Seqlock, OptimisticHitCopiesRecord) {
  ObjectStore store;
  store.upsert(1, val("one"), 7);
  ObjectRecord out;
  std::uint32_t retries = 99;
  EXPECT_EQ(store.read_optimistic(1, out, retries), OptimisticRead::kHit);
  EXPECT_EQ(retries, 0u);
  EXPECT_EQ(out.value, val("one"));
  EXPECT_EQ(out.wts, 7u);
  EXPECT_FALSE(out.deleted);
}

TEST(Seqlock, OptimisticMissOnAbsentId) {
  ObjectStore store;
  store.insert(1, val("one"));
  ObjectRecord out;
  std::uint32_t retries = 99;
  EXPECT_EQ(store.read_optimistic(42, out, retries), OptimisticRead::kMiss);
  EXPECT_EQ(retries, 0u);
}

TEST(Seqlock, TombstoneObservedWithDeleterWts) {
  ObjectStore store;
  store.upsert(5, val("short-lived"), 3);
  store.tombstone(5, 9);
  ObjectRecord out;
  std::uint32_t retries = 0;
  ASSERT_EQ(store.read_optimistic(5, out, retries), OptimisticRead::kHit);
  EXPECT_TRUE(out.deleted);
  EXPECT_EQ(out.wts, 9u);  // the deleter's wts stays visible
}

TEST(Seqlock, ContendedWhenWriterHoldsTheSeqlock) {
  ObjectStore store;
  store.insert(1, val("x"));
  ObjectRecord* rec = store.find_mutable(1);
  ASSERT_NE(rec, nullptr);
  rec->write_begin();  // odd seq: a writer is (artificially) mid-update
  ObjectRecord out;
  std::uint32_t retries = 0;
  EXPECT_EQ(store.read_optimistic(1, out, retries, /*max_retries=*/8),
            OptimisticRead::kContended);
  EXPECT_GT(retries, 8u);
  rec->write_end();
  EXPECT_EQ(store.read_optimistic(1, out, retries), OptimisticRead::kHit);
  EXPECT_EQ(out.value, val("x"));
}

TEST(Seqlock, HeapPayloadSnapshotsThroughSharedLock) {
  ObjectStore store;
  const std::string big(Value::kInlineCapacity * 4, 'h');  // heap-allocated
  store.upsert(2, val(big), 11);
  ObjectRecord out;
  std::uint32_t retries = 0;
  ASSERT_EQ(store.read_optimistic(2, out, retries), OptimisticRead::kHit);
  EXPECT_EQ(out.value, val(big));
  EXPECT_EQ(out.wts, 11u);
}

TEST(Seqlock, InlineUpsertDoesNotFenceReaders) {
  obs::ObsConfig cfg;
  cfg.enabled = true;
  obs::init(cfg);
  ObjectStore store;
  store.insert(3, val("aaaa"));
  obs::Counter& fences = obs::metrics().counter("store.rehash_fences");
  const std::uint64_t before = fences.value();
  store.upsert(3, val("bbbb"), 5);  // inline -> inline: seqlock only
  EXPECT_EQ(fences.value(), before);
  const std::string big(Value::kInlineCapacity * 2, 'z');
  store.upsert(3, val(big), 6);  // heap involvement: unique table lock
  EXPECT_GT(fences.value(), before);
}

// The heart of the matter: concurrent in-place writers alternate two full
// 48-byte patterns while readers snapshot; any blend of the two patterns is
// a torn read and fails the test.
TEST(Seqlock, ConcurrentReadersNeverObserveTornValues) {
  ObjectStore store;
  const std::string a(Value::kInlineCapacity, 'a');
  const std::string b(Value::kInlineCapacity, 'b');
  const Value va = val(a);
  const Value vb = val(b);
  store.insert(7, Value{va});

  std::atomic<bool> stop{false};
  std::thread writer([&] {
    ValidationTs wts = 1;
    while (!stop.load(std::memory_order_relaxed)) {
      store.upsert(7, Value{va}, ++wts);
      store.upsert(7, Value{vb}, ++wts);
    }
  });

  std::atomic<std::uint64_t> torn{0};
  std::atomic<std::uint64_t> hits{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      // At least 50000 reads, and on until one is a hit: on an
      // oversubscribed host all 50000 can fall inside one preemption of
      // the writer mid-write, where every read is (rightly) contended.
      const auto give_up =
          std::chrono::steady_clock::now() + std::chrono::seconds(10);
      for (int i = 0; i < 50000 || (hits.load(std::memory_order_relaxed) == 0 &&
                                    std::chrono::steady_clock::now() < give_up);
           ++i) {
        ObjectRecord out;
        std::uint32_t retries = 0;
        if (store.read_optimistic(7, out, retries) != OptimisticRead::kHit) {
          continue;  // contended: the serial fallback would handle it
        }
        hits.fetch_add(1, std::memory_order_relaxed);
        if (!(out.value == va) && !(out.value == vb)) {
          torn.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& t : readers) t.join();
  stop.store(true, std::memory_order_relaxed);
  writer.join();

  EXPECT_EQ(torn.load(), 0u);
  EXPECT_GT(hits.load(), 0u);
}

}  // namespace
}  // namespace rodain::storage
