#include "rodain/log/log_storage.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <unistd.h>

namespace rodain::log {
namespace {

using namespace rodain::literals;

storage::Value val(std::string_view s) { return storage::Value{s}; }

TEST(MemoryLogStorage, FlushIsImmediate) {
  MemoryLogStorage mem;
  mem.append(Record::write_image(1, 2, val("x")));
  EXPECT_EQ(mem.appended(), 1u);
  EXPECT_EQ(mem.durable(), 0u);
  bool done = false;
  mem.flush([&](Status s) {
    EXPECT_TRUE(s);
    done = true;
  });
  EXPECT_TRUE(done);
  EXPECT_EQ(mem.durable(), 1u);
}

class FileLogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = (std::filesystem::temp_directory_path() /
             ("rodain_log_" + std::to_string(::getpid()) + "_" +
              ::testing::UnitTest::GetInstance()->current_test_info()->name() +
              ".log"))
                .string();
    std::filesystem::remove(path_);
  }
  void TearDown() override { std::filesystem::remove(path_); }
  std::string path_;
};

TEST_F(FileLogTest, AppendFlushReadBack) {
  {
    auto file = FileLogStorage::open(path_);
    ASSERT_TRUE(file.is_ok());
    file.value()->append(Record::write_image(1, 10, val("a")));
    file.value()->append(Record::commit(1, 1, 100, 1));
    bool flushed = false;
    file.value()->flush([&](Status s) {
      EXPECT_TRUE(s);
      flushed = true;
    });
    EXPECT_TRUE(flushed);
    EXPECT_EQ(file.value()->durable(), 2u);
  }
  auto records = FileLogStorage::read_all(path_);
  ASSERT_TRUE(records.is_ok());
  ASSERT_EQ(records.value().size(), 2u);
  EXPECT_EQ(records.value()[0].oid, 10u);
  EXPECT_TRUE(records.value()[1].is_commit());
}

TEST_F(FileLogTest, ReopenAppends) {
  {
    auto file = FileLogStorage::open(path_);
    file.value()->append(Record::commit(1, 1, 100, 0));
    file.value()->flush({});
  }
  {
    auto file = FileLogStorage::open(path_);
    file.value()->append(Record::commit(2, 2, 200, 0));
    file.value()->flush({});
  }
  auto records = FileLogStorage::read_all(path_);
  ASSERT_TRUE(records.is_ok());
  EXPECT_EQ(records.value().size(), 2u);
}

TEST_F(FileLogTest, TornTailReported) {
  {
    auto file = FileLogStorage::open(path_);
    file.value()->append(Record::commit(1, 1, 100, 0));
    file.value()->flush({});
  }
  // Append garbage simulating a torn write.
  {
    std::FILE* f = std::fopen(path_.c_str(), "ab");
    const char garbage[] = {0x40, 0x00, 0x00, 0x00, 0x01};
    std::fwrite(garbage, 1, sizeof garbage, f);
    std::fclose(f);
  }
  bool torn = false;
  auto records = FileLogStorage::read_all(path_, &torn);
  ASSERT_TRUE(records.is_ok());
  EXPECT_TRUE(torn);
  EXPECT_EQ(records.value().size(), 1u);
}

TEST_F(FileLogTest, MissingFileIsNotFound) {
  auto records = FileLogStorage::read_all(path_ + ".nope");
  ASSERT_FALSE(records.is_ok());
  EXPECT_EQ(records.status().code(), ErrorCode::kNotFound);
}

TEST_F(FileLogTest, FailedFlushKeepsBytesForRetry) {
  auto file = FileLogStorage::open(path_);
  ASSERT_TRUE(file.is_ok());
  file.value()->append(Record::write_image(1, 10, val("a")));
  file.value()->append(Record::commit(1, 1, 100, 1));
  file.value()->inject_write_error(1);

  Status status = Status::ok();
  file.value()->flush([&](Status s) { status = s; });
  EXPECT_FALSE(status);
  EXPECT_EQ(file.value()->durable(), 0u);

  // Regression: the failed flush used to clear the pending buffer while
  // leaving the buffered count, so this retry (with nothing left to write)
  // would credit durable_ for records that never reached the file.
  file.value()->flush([&](Status s) { status = s; });
  ASSERT_TRUE(status) << status.to_string();
  EXPECT_EQ(file.value()->durable(), 2u);

  auto records = FileLogStorage::read_all(path_);
  ASSERT_TRUE(records.is_ok());
  ASSERT_EQ(records.value().size(), 2u);
  EXPECT_TRUE(records.value()[1].is_commit());
}

TEST(MemoryLogStorage, TruncateUptoTrimsDurableCommitPrefix) {
  MemoryLogStorage mem;
  for (TxnId t = 1; t <= 4; ++t) {
    mem.append(Record::write_image(t, t * 10, val("x")));
    mem.append(Record::commit(t, t, t * 100, 1));
  }
  mem.flush({});
  // Boundary mid-history: exactly the first two transactions are covered.
  EXPECT_EQ(mem.truncate_upto(2), 4u);
  EXPECT_EQ(mem.durable(), 4u);
  ASSERT_EQ(mem.records().size(), 4u);
  EXPECT_EQ(mem.records()[0].oid, 30u);
  // A boundary below every remaining commit removes nothing.
  EXPECT_EQ(mem.truncate_upto(2), 0u);
}

TEST(SimDiskLogStorage, TruncateUptoPreservesBacklogAccounting) {
  sim::Simulation sim;
  SimDiskLogStorage disk(sim, {});
  for (TxnId t = 1; t <= 3; ++t) {
    disk.append(Record::commit(t, t, t * 100, 0));
  }
  disk.flush({});
  sim.run();
  // Two more appended but not yet durable.
  disk.append(Record::commit(4, 4, 400, 0));
  disk.append(Record::commit(5, 5, 500, 0));
  EXPECT_EQ(disk.backlog(), 2u);

  EXPECT_EQ(disk.truncate_upto(2), 2u);
  EXPECT_EQ(disk.truncated(), 2u);
  EXPECT_EQ(disk.backlog(), 2u) << "truncation only trims the durable prefix";
  EXPECT_EQ(disk.durable(), 1u);
  EXPECT_EQ(disk.appended(), 3u);

  disk.flush({});
  sim.run();
  EXPECT_EQ(disk.backlog(), 0u);
  EXPECT_EQ(disk.durable(), 3u);
  ASSERT_EQ(disk.records().size(), 3u);
  EXPECT_EQ(disk.records()[0].seq, 3u);
}

TEST(SimDiskLogStorage, FlushCostsSeekPlusTransfer) {
  sim::Simulation sim;
  SimDiskLogStorage::Options options;
  options.seek_time = 8_ms;
  options.throughput_bytes_per_sec = 1e6;  // 1 MB/s: 1 us per byte
  SimDiskLogStorage disk(sim, options);
  disk.append(Record::write_image(1, 2, val(std::string(1000, 'x'))));
  TimePoint done_at{};
  disk.flush([&](Status s) {
    EXPECT_TRUE(s);
    done_at = sim.now();
  });
  sim.run();
  // ~8 ms seek + ~1 ms transfer for ~1 KB.
  EXPECT_GT(done_at.us, 8500);
  EXPECT_LT(done_at.us, 11000);
  EXPECT_EQ(disk.durable(), 1u);
}

TEST(SimDiskLogStorage, SerializedFlushesQueue) {
  sim::Simulation sim;
  SimDiskLogStorage::Options options;
  options.seek_time = 10_ms;
  options.throughput_bytes_per_sec = 1e9;  // transfer negligible
  options.coalesce_flushes = false;
  SimDiskLogStorage disk(sim, options);

  std::vector<TimePoint> completions;
  for (int i = 0; i < 3; ++i) {
    disk.append(Record::commit(static_cast<TxnId>(i), i + 1, 100, 0));
    disk.flush([&](Status) { completions.push_back(sim.now()); });
  }
  sim.run();
  ASSERT_EQ(completions.size(), 3u);
  // One 10 ms op each, strictly serialized.
  EXPECT_EQ(completions[0].us, 10000);
  EXPECT_EQ(completions[1].us, 20000);
  EXPECT_EQ(completions[2].us, 30000);
}

TEST(SimDiskLogStorage, CoalescedFlushesGroupCommit) {
  sim::Simulation sim;
  SimDiskLogStorage::Options options;
  options.seek_time = 10_ms;
  options.throughput_bytes_per_sec = 1e9;
  options.coalesce_flushes = true;
  SimDiskLogStorage disk(sim, options);

  std::vector<TimePoint> completions;
  for (int i = 0; i < 3; ++i) {
    disk.append(Record::commit(static_cast<TxnId>(i), i + 1, 100, 0));
    disk.flush([&](Status) { completions.push_back(sim.now()); });
  }
  sim.run();
  ASSERT_EQ(completions.size(), 3u);
  // First op covers txn 0; the two requests arriving while it is busy fold
  // into ONE second op.
  EXPECT_EQ(completions[0].us, 10000);
  EXPECT_EQ(completions[1].us, 20000);
  EXPECT_EQ(completions[2].us, 20000);
  EXPECT_EQ(disk.durable(), 3u);
}

TEST(SimDiskLogStorage, BacklogTracksUnflushed) {
  sim::Simulation sim;
  SimDiskLogStorage disk(sim, {});
  for (int i = 0; i < 5; ++i) {
    disk.append(Record::commit(static_cast<TxnId>(i), i + 1, 100, 0));
  }
  EXPECT_EQ(disk.backlog(), 5u);
  disk.flush({});
  sim.run();
  EXPECT_EQ(disk.backlog(), 0u);
}

TEST(SimDiskLogStorage, FlushWithNothingPendingCompletesInline) {
  sim::Simulation sim;
  SimDiskLogStorage disk(sim, {});
  bool done = false;
  disk.flush([&](Status) { done = true; });
  EXPECT_TRUE(done);
}

}  // namespace
}  // namespace rodain::log
