// End-to-end tests of the real-time runtime: real threads, real TCP
// between a primary and a mirror in one process.
#include <gtest/gtest.h>

#include <condition_variable>
#include <filesystem>
#include <mutex>
#include <thread>
#include <unistd.h>

#include "rodain/log/recovery.hpp"

#include "rodain/db/database.hpp"
#include "rodain/net/tcp.hpp"
#include "rodain/obs/obs.hpp"
#include "rodain/rt/node.hpp"
#include "tcp_pair.hpp"
#include "rodain/workload/number_translation.hpp"

namespace rodain {
namespace {

using namespace rodain::literals;

storage::Value val(std::string_view s) { return storage::Value{s}; }
storage::Value zeros8() {
  return storage::Value{std::string_view{"\0\0\0\0\0\0\0\0", 8}};
}

TEST(RtNode, SingleNodeCommitAndRead) {
  rt::NodeConfig config;
  rt::Node node(config, "solo");
  node.store().upsert(1, val("initial"), 0);
  node.start_primary(LogMode::kOff);

  txn::TxnProgram p;
  p.set_value(1, val("updated"));
  p.relative_deadline = 5_s;
  auto info = node.execute(std::move(p));
  EXPECT_EQ(info.outcome, TxnOutcome::kCommitted);

  auto value = node.get(1);
  ASSERT_TRUE(value.is_ok());
  EXPECT_EQ(value.value(), val("updated"));
  EXPECT_EQ(node.counters().committed, 2u);  // the update + the read
  node.stop();
}

// Node::get reads through a transaction: a committed delete reads as
// missing at every worker count (the tombstone stays in the store only to
// keep its timestamps).
TEST(RtNode, GetOfDeletedObjectIsNotFound) {
  for (const std::size_t workers : {1, 2}) {
    rt::NodeConfig config;
    config.worker_threads = workers;
    rt::Node node(config, "solo");
    node.store().upsert(1, val("doomed"), 0);
    node.start_primary(LogMode::kOff);
    txn::TxnProgram p;
    p.erase(1);
    p.relative_deadline = 5_s;
    ASSERT_EQ(node.execute(std::move(p)).outcome, TxnOutcome::kCommitted);
    auto value = node.get(1);
    ASSERT_FALSE(value.is_ok()) << workers << " workers";
    EXPECT_EQ(value.status().code(), ErrorCode::kNotFound);
    node.stop();
  }
}

TEST(RtNode, CounterIncrementsAreAtomic) {
  rt::NodeConfig config;
  config.worker_threads = 2;
  config.overload.max_active = 10000;  // admit the whole burst
  rt::Node node(config, "solo");
  node.store().upsert(1, zeros8(), 0);
  node.start_primary(LogMode::kOff);

  std::mutex mu;
  std::condition_variable cv;
  int done = 0;
  const int kTxns = 200;
  for (int i = 0; i < kTxns; ++i) {
    txn::TxnProgram p;
    p.add_to_field(1, 0, 1);
    p.relative_deadline = 5_s;
    node.submit(std::move(p), [&](const rt::CommitInfo& info) {
      EXPECT_EQ(info.outcome, TxnOutcome::kCommitted);
      std::lock_guard lock(mu);
      ++done;
      cv.notify_all();
    });
  }
  std::unique_lock lock(mu);
  ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(10),
                          [&] { return done == kTxns; }));
  lock.unlock();

  auto value = node.get(1);
  ASSERT_TRUE(value.is_ok());
  EXPECT_EQ(value.value().read_u64(0), static_cast<std::uint64_t>(kTxns));
  node.stop();
}

TEST(RtNode, DirectDiskLoggingSurvivesRestart) {
  const std::string log_path =
      (std::filesystem::temp_directory_path() /
       ("rodain_rt_restart_" + std::to_string(::getpid()) + "_" +
        ::testing::UnitTest::GetInstance()->current_test_info()->name() +
        ".log"))
          .string();
  std::filesystem::remove(log_path);
  {
    rt::NodeConfig config;
    config.log_path = log_path;
    rt::Node node(config, "durable");
    node.store().upsert(1, zeros8(), 0);
    node.start_primary(LogMode::kDirectDisk);
    txn::TxnProgram p;
    p.add_to_field(1, 0, 42);
    p.relative_deadline = 5_s;
    ASSERT_EQ(node.execute(std::move(p)).outcome, TxnOutcome::kCommitted);
    node.stop();
  }
  // Recover from the log alone.
  storage::ObjectStore recovered;
  recovered.upsert(1, zeros8(), 0);
  auto stats = log::recover_from_file(log_path, recovered);
  ASSERT_TRUE(stats.is_ok()) << stats.status().to_string();
  EXPECT_EQ(stats.value().committed_applied, 1u);
  EXPECT_EQ(recovered.find(1)->value.read_u64(0), 42u);
  std::filesystem::remove(log_path);
}

TEST(RtNode, TwoNodeLogShippingOverTcp) {
  auto tcp = TcpPair::make();

  rt::NodeConfig config;
  rt::Node primary(config, "primary");
  rt::Node mirror(config, "mirror");
  for (ObjectId oid = 1; oid <= 100; ++oid) {
    primary.store().upsert(oid, zeros8(), 0);
    mirror.store().upsert(oid, zeros8(), 0);
  }

  mirror.start_mirror(*tcp.server_end);
  primary.start_primary(LogMode::kMirror, tcp.client_end.get());
  tcp.server_end->start();
  tcp.client_end->start();

  for (int i = 0; i < 50; ++i) {
    txn::TxnProgram p;
    p.add_to_field(static_cast<ObjectId>(1 + i % 100), 0, 1);
    p.relative_deadline = 5_s;
    ASSERT_EQ(primary.execute(std::move(p)).outcome, TxnOutcome::kCommitted)
        << i;
  }
  EXPECT_EQ(primary.counters().committed, 50u);

  // The mirror applied everything the primary committed.
  for (int waited = 0; waited < 100 && mirror.mirror_applied_seq() < 50;
       ++waited) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GE(mirror.mirror_applied_seq(), 50u);
  std::uint64_t total = 0;
  mirror.store().for_each([&](ObjectId, const storage::ObjectRecord& rec) {
    total += rec.value.read_u64(0);
  });
  EXPECT_EQ(total, 50u);

  primary.stop();
  mirror.stop();
}

TEST(RtNode, MirrorTakesOverWhenPrimaryStops) {
  auto tcp = TcpPair::make();

  rt::NodeConfig config;
  config.watchdog_timeout = 300_ms;
  config.heartbeat_interval = 50_ms;
  rt::Node primary(config, "primary");
  rt::Node mirror(config, "mirror");
  primary.store().upsert(1, zeros8(), 0);
  mirror.store().upsert(1, zeros8(), 0);

  mirror.start_mirror(*tcp.server_end);
  primary.start_primary(LogMode::kMirror, tcp.client_end.get());
  tcp.server_end->start();
  tcp.client_end->start();

  txn::TxnProgram p;
  p.add_to_field(1, 0, 7);
  p.relative_deadline = 5_s;
  ASSERT_EQ(primary.execute(std::move(p)).outcome, TxnOutcome::kCommitted);

  // Primary dies; the TCP link drops; the mirror's watchdog fires.
  primary.stop();
  tcp.client_end->close();

  for (int waited = 0; waited < 300 && !mirror.serving(); ++waited) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_TRUE(mirror.serving());

  // The committed value survived and the survivor serves reads and writes.
  auto value = mirror.get(1);
  ASSERT_TRUE(value.is_ok());
  EXPECT_EQ(value.value().read_u64(0), 7u);
  txn::TxnProgram q;
  q.add_to_field(1, 0, 1);
  q.relative_deadline = 5_s;
  EXPECT_EQ(mirror.execute(std::move(q)).outcome, TxnOutcome::kCommitted);
  mirror.stop();
}

TEST(RtNode, RejoinIsServedFromDiskArtifacts) {
  // A restarted peer rejoins via checkpoint bytes + surviving log segments
  // (DESIGN.md §12) instead of a live store encode: the primary's commit
  // path never pauses to serialize its state. The bespoke live-record stash
  // is gone — records arriving during the join stage in the mirror's held
  // reorderer and apply after the snapshot boundary installs.
  obs::ObsConfig obs_config;
  obs_config.enabled = true;
  obs::init(obs_config);
  const std::uint64_t disk_serves_before =
      obs::metrics().counter("repl.snapshots_from_disk").value();

  const auto dir =
      std::filesystem::temp_directory_path() /
      ("rodain_rejoin_disk_" + std::to_string(::getpid()) + "_" +
       ::testing::UnitTest::GetInstance()->current_test_info()->name());
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  auto tcp = TcpPair::make();

  rt::NodeConfig config;
  config.log_path = (dir / "segments").string();
  config.log_segment_bytes = 2048;
  config.checkpoint_path = (dir / "db.ckpt").string();
  rt::Node primary(config, "primary");
  for (ObjectId oid = 1; oid <= 20; ++oid) {
    primary.store().upsert(oid, zeros8(), 0);
  }

  primary.start_primary(LogMode::kDirectDisk, tcp.client_end.get());
  tcp.client_end->start();
  auto commit_n = [&](int n) {
    for (int i = 0; i < n; ++i) {
      txn::TxnProgram p;
      p.add_to_field(static_cast<ObjectId>(1 + i % 20), 0, 1);
      p.relative_deadline = 5_s;
      ASSERT_EQ(primary.execute(std::move(p)).outcome, TxnOutcome::kCommitted);
    }
  };
  commit_n(30);
  ASSERT_TRUE(primary.write_checkpoint().is_ok());  // covers seq 1..30
  commit_n(10);  // the tail lives only in the segments + writer tail

  // The restarted peer joins with an empty store: everything it learns
  // comes from the disk artifacts and the streamed catch-up.
  rt::NodeConfig rc;
  rt::Node rejoiner(rc, "rejoiner");
  rejoiner.start_rejoin(*tcp.server_end);
  tcp.server_end->start();
  commit_n(5);  // live traffic during the join rides the held reorderer

  for (int waited = 0; waited < 500 && rejoiner.mirror_applied_seq() < 45;
       ++waited) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GE(rejoiner.mirror_applied_seq(), 45u);
  EXPECT_EQ(primary.role(), NodeRole::kPrimaryWithMirror);
  EXPECT_EQ(obs::metrics().counter("repl.snapshots_from_disk").value(),
            disk_serves_before + 1);

  std::uint64_t total = 0;
  rejoiner.store().for_each([&](ObjectId, const storage::ObjectRecord& rec) {
    total += rec.value.read_u64(0);
  });
  EXPECT_EQ(total, 45u);

  primary.stop();
  rejoiner.stop();
  std::filesystem::remove_all(dir);
}

TEST(Database, EmbeddedQuickstartFlow) {
  db::DatabaseOptions options;
  db::Database database(options);
  ASSERT_TRUE(database.put_raw(1, val("alice")));
  ASSERT_TRUE(
      database.index_raw(storage::IndexKey::from_string("user:alice"), 1));

  auto fetched =
      database.get_by_key(storage::IndexKey::from_string("user:alice"));
  ASSERT_TRUE(fetched.is_ok());
  EXPECT_EQ(fetched.value(), val("alice"));

  EXPECT_EQ(database.put(1, val("alice-v2")).outcome, TxnOutcome::kCommitted);
  // Reads take the lock-free snapshot path: no transactions were submitted
  // for the two gets above, only the put committed.
  const std::uint64_t submitted_before_get = database.counters().submitted;
  EXPECT_EQ(database.get(1).value(), val("alice-v2"));
  EXPECT_EQ(database.counters().submitted, submitted_before_get);
  EXPECT_GE(database.counters().committed, 1u);
}

}  // namespace
}  // namespace rodain
