// Replication-layer tests over the simulated link: the primary half
// (shipping, acks, join serving) against the mirror half (immediate ack,
// reorder+apply, snapshot install, takeover).
#include <gtest/gtest.h>

#include "rodain/net/sim_link.hpp"
#include "rodain/repl/mirror.hpp"
#include "rodain/repl/primary.hpp"

namespace rodain::repl {
namespace {

using namespace rodain::literals;

storage::Value val(std::string_view s) { return storage::Value{s}; }

struct Rig {
  sim::Simulation sim;
  net::SimLink link{sim, {}};
  storage::ObjectStore primary_store{64};
  storage::ObjectStore mirror_store{64};
  log::MemoryLogStorage primary_disk;
  log::MemoryLogStorage mirror_disk;
  log::LogWriter writer{LogMode::kOff, &primary_disk, nullptr};
  std::unique_ptr<PrimaryReplicator> primary;
  std::unique_ptr<MirrorService> mirror;
  bool mirror_joined = false;
  ValidationTs boundary = 0;

  Rig() {
    PrimaryReplicator::Hooks hooks;
    hooks.snapshot_boundary = [this] { return boundary; };
    hooks.on_mirror_joined = [this] {
      writer.set_mode(LogMode::kMirror);
      mirror_joined = true;
    };
    primary = std::make_unique<PrimaryReplicator>(link.end_a(), sim,
                                                  primary_store, writer, hooks);
    writer.set_shipper(primary.get());

    MirrorService::Options options;
    options.store_to_disk = true;
    mirror = std::make_unique<MirrorService>(mirror_store, &mirror_disk,
                                             link.end_b(), sim, options);
  }

  void submit_txn(ValidationTs seq, ObjectId oid, std::string_view value,
                  std::function<void()> on_durable = {}) {
    std::vector<log::Record> records;
    records.push_back(log::Record::write_image(seq, oid, val(value)));
    records.push_back(log::Record::commit(seq, seq, seq * 1000, 1));
    primary_store.upsert(oid, val(value), seq * 1000);
    writer.submit(seq, std::move(records), std::move(on_durable));
    writer.pump();
  }
};

TEST(Replication, CommitAckRoundTrip) {
  Rig rig;
  rig.mirror->attach_synced(1);
  rig.writer.set_mode(LogMode::kMirror);

  bool durable = false;
  rig.submit_txn(1, 10, "hello", [&] { durable = true; });
  EXPECT_FALSE(durable);
  rig.sim.run();
  EXPECT_TRUE(durable);
  ASSERT_NE(rig.mirror_store.find(10), nullptr);
  EXPECT_EQ(rig.mirror_store.find(10)->value, val("hello"));
  EXPECT_EQ(rig.mirror->applied_seq(), 1u);
  // The ordered log reached the mirror's disk.
  EXPECT_EQ(rig.mirror_disk.records().size(), 2u);
}

TEST(Replication, AckLatencyIsOneRoundTrip) {
  Rig rig;
  rig.mirror->attach_synced(1);
  rig.writer.set_mode(LogMode::kMirror);
  TimePoint acked{};
  rig.submit_txn(1, 10, "x", [&] { acked = rig.sim.now(); });
  rig.sim.run();
  // 500 us each way (default SimLink latency).
  EXPECT_GE(acked.us, 1000);
  EXPECT_LT(acked.us, 1500);
}

TEST(Replication, MirrorHeartbeatCarriesAppliedSeq) {
  Rig rig;
  rig.mirror->attach_synced(1);
  rig.writer.set_mode(LogMode::kMirror);
  rig.submit_txn(1, 10, "x");
  rig.sim.run();
  rig.mirror->send_heartbeat();
  rig.sim.run();
  EXPECT_EQ(rig.primary->mirror_applied_seq(), 1u);
}

TEST(Replication, BatchedCommitsCoalesceToOneCumulativeAck) {
  Rig rig;
  rig.mirror->attach_synced(1);
  rig.writer.set_mode(LogMode::kMirror);
  log::LogWriter::BatchOptions batch;
  batch.max_txns = 3;
  rig.writer.configure_batching(&rig.sim, batch);

  int durable = 0;
  rig.submit_txn(1, 10, "a", [&] { ++durable; });
  rig.submit_txn(2, 11, "b", [&] { ++durable; });
  EXPECT_EQ(rig.writer.batched_txns(), 2u);  // buffered, nothing on the wire
  rig.submit_txn(3, 12, "c", [&] { ++durable; });  // threshold drains
  rig.sim.run();

  EXPECT_EQ(durable, 3);
  EXPECT_EQ(rig.mirror->applied_seq(), 3u);
  // One frame carried three transactions; the mirror answered with a single
  // cumulative ack covering all of them.
  EXPECT_EQ(rig.writer.counters().batches_shipped, 1u);
  EXPECT_EQ(rig.mirror->stats().acks_sent, 1u);
  EXPECT_EQ(rig.mirror->stats().ack_commits_covered, 3u);
  EXPECT_EQ(rig.writer.counters().acks_received, 1u);
  EXPECT_EQ(rig.writer.counters().ack_released_txns, 3u);
}

/// Mirror-side channel tap: notes how many records the stored log held
/// when each ack left, and after every delivered frame checks that the
/// stored log holds a commit record for every seq the mirror has acked.
class AckOrderTap final : public net::Channel {
 public:
  AckOrderTap(net::Channel& inner, const log::MemoryLogStorage& disk)
      : inner_(inner), disk_(disk) {}

  void set_message_handler(MessageHandler handler) override {
    inner_.set_message_handler(
        [this, h = std::move(handler)](std::vector<std::byte> frame) {
          h(std::move(frame));
          ValidationTs stored = 0;
          for (const log::Record& r : disk_.records()) {
            if (r.is_commit() && r.seq == stored + 1) ++stored;
          }
          if (stored < acked_) ++unstored_after_handler_;
        });
  }
  void set_disconnect_handler(DisconnectHandler handler) override {
    inner_.set_disconnect_handler(std::move(handler));
  }
  Status send(std::vector<std::byte> frame) override {
    auto f = decode_framed(frame);
    if (f.is_ok() && f.value().msg.type == MsgType::kCommitAck) {
      acked_ = f.value().msg.seq;
      disk_records_at_ack_.push_back(disk_.records().size());
    }
    return inner_.send(std::move(frame));
  }
  [[nodiscard]] bool connected() const override { return inner_.connected(); }
  void close() override { inner_.close(); }

  std::vector<std::size_t> disk_records_at_ack_;
  int unstored_after_handler_{0};

 private:
  net::Channel& inner_;
  const log::MemoryLogStorage& disk_;
  ValidationTs acked_{0};
};

TEST(Replication, MirrorAcksBeforeItsDiskWrite) {
  // Paper §3: the mirror acks a commit record on arrival and stores the
  // log off the commit path. The ack leaves before the records reach the
  // stored log, yet the write completes inside the same handler call:
  // once a frame's handler returns, everything acked is on disk.
  sim::Simulation sim;
  net::SimLink link{sim, {}};
  storage::ObjectStore pstore{64}, mstore{64};
  log::MemoryLogStorage pdisk, mdisk;
  log::LogWriter writer{LogMode::kOff, &pdisk, nullptr};
  PrimaryReplicator primary(link.end_a(), sim, pstore, writer, {});
  writer.set_shipper(&primary);
  AckOrderTap tap(link.end_b(), mdisk);
  MirrorService::Options options;
  options.store_to_disk = true;
  MirrorService mirror(mstore, &mdisk, tap, sim, options);
  mirror.attach_synced(1);
  writer.set_mode(LogMode::kMirror);

  int durable = 0;
  auto submit = [&](ValidationTs seq) {
    std::vector<log::Record> records;
    records.push_back(log::Record::write_image(seq, 10 + seq, val("v")));
    records.push_back(log::Record::commit(seq, seq, seq * 1000, 1));
    writer.submit(seq, std::move(records), [&] { ++durable; });
  };
  for (ValidationTs seq = 1; seq <= 3; ++seq) {  // one txn per frame
    submit(seq);
    writer.pump();
    sim.run();
  }
  for (ValidationTs seq = 4; seq <= 6; ++seq) submit(seq);  // one frame
  writer.pump();
  sim.run();

  EXPECT_EQ(durable, 6);
  EXPECT_EQ(mirror.stats().acks_sent, 4u);
  // Each ack saw the stored log without the records it acknowledged.
  EXPECT_EQ(tap.disk_records_at_ack_,
            (std::vector<std::size_t>{0, 2, 4, 6}));
  EXPECT_EQ(tap.unstored_after_handler_, 0);
  EXPECT_EQ(mdisk.records().size(), 12u);
  EXPECT_TRUE(mirror.disk_log_dense());
}

TEST(Replication, JoinShipsSnapshotAndCatchUp) {
  Rig rig;
  // The primary ran alone for a while: 5 committed txns, logged locally.
  rig.writer.set_mode(LogMode::kDirectDisk);
  for (ValidationTs seq = 1; seq <= 5; ++seq) {
    rig.submit_txn(seq, 100 + seq, "v" + std::to_string(seq));
  }
  rig.boundary = 3;  // snapshot covers txns 1..3; 4..5 must catch up via tail

  rig.mirror->request_join(0);
  rig.sim.run();

  EXPECT_TRUE(rig.mirror_joined);
  EXPECT_EQ(rig.writer.mode(), LogMode::kMirror);
  EXPECT_FALSE(rig.mirror->snapshot_in_progress());
  EXPECT_EQ(rig.mirror->applied_seq(), 5u);
  for (ValidationTs seq = 1; seq <= 5; ++seq) {
    const auto* rec = rig.mirror_store.find(100 + seq);
    ASSERT_NE(rec, nullptr) << seq;
    EXPECT_EQ(rec->value, val("v" + std::to_string(seq))) << seq;
  }
  EXPECT_EQ(rig.primary->snapshots_served(), 1u);

  // Live stream continues seamlessly after the join.
  bool durable = false;
  rig.submit_txn(6, 200, "live", [&] { durable = true; });
  rig.sim.run();
  EXPECT_TRUE(durable);
  EXPECT_EQ(rig.mirror->applied_seq(), 6u);
}

TEST(Replication, TakeoverAppliesStagedAndDropsOpen) {
  Rig rig;
  rig.mirror->attach_synced(1);
  rig.writer.set_mode(LogMode::kMirror);

  // Txn 1 complete; txn 2's commit record staged behind nothing; txn 3 has
  // writes but its commit never arrives (primary died mid-write-phase).
  rig.submit_txn(1, 10, "committed");
  rig.sim.run();
  // Hand-feed an out-of-order commit (seq 3 before seq 2 never arrives...
  // here: stage seq 3, leave seq 2 missing, and an open txn 99).
  std::vector<log::Record> batch;
  batch.push_back(log::Record::write_image(33, 30, val("staged")));
  batch.push_back(log::Record::commit(33, 3, 3000, 1));
  batch.push_back(log::Record::write_image(99, 40, val("incomplete")));
  // Hand-built frame: a huge epoch so the mirror's anti-replay window treats
  // it as newer than anything the real primary endpoint sent.
  (void)rig.link.end_a().send(
      encode_framed(1ULL << 40, 1, Message::log_batch(std::move(batch))));
  rig.sim.run();

  EXPECT_EQ(rig.mirror->reorder_staged(), 1u);
  EXPECT_EQ(rig.mirror->reorder_open(), 1u);

  auto takeover = rig.mirror->take_over();
  EXPECT_EQ(takeover.applied_staged, 1u);
  EXPECT_EQ(takeover.dropped_open, 1u);
  EXPECT_EQ(takeover.next_seq, 4u);
  // Staged txn applied; incomplete txn's write discarded (paper §3).
  ASSERT_NE(rig.mirror_store.find(30), nullptr);
  EXPECT_EQ(rig.mirror_store.find(40), nullptr);
}

TEST(Replication, CorruptTxnMidFrameIsQuarantinedNotFatal) {
  // Regression: a commit record whose write count disagrees with the
  // buffered images (bit rot / a shipper bug) used to poison nothing but
  // also count nothing — the batch kept going silently. The victim must be
  // quarantined (counted, open state dropped), the REST of the frame must
  // still stage, and the stalled floor must let the resend heal the gap.
  Rig rig;
  rig.mirror->attach_synced(1);
  rig.writer.set_mode(LogMode::kMirror);
  rig.submit_txn(1, 10, "good");
  rig.sim.run();
  EXPECT_EQ(rig.mirror->applied_seq(), 1u);

  // Hand-built frame: seq 2's commit claims 2 writes but ships 1 (corrupt),
  // seq 3 is intact and must survive the frame.
  std::vector<log::Record> batch;
  batch.push_back(log::Record::write_image(22, 20, val("torn")));
  batch.push_back(log::Record::commit(22, 2, 2000, 2));  // claims 2 writes
  batch.push_back(log::Record::write_image(33, 30, val("fine")));
  batch.push_back(log::Record::commit(33, 3, 3000, 1));
  (void)rig.link.end_a().send(
      encode_framed(1ULL << 40, 1, Message::log_batch(std::move(batch))));
  rig.sim.run();

  EXPECT_EQ(rig.mirror->stats().corrupt_txns, 1u);
  EXPECT_EQ(rig.mirror->reorder_open(), 0u);    // quarantine left no state
  EXPECT_EQ(rig.mirror->reorder_staged(), 1u);  // seq 3 staged behind the gap
  EXPECT_EQ(rig.mirror->applied_seq(), 1u);     // floor stalls at the victim
  EXPECT_EQ(rig.mirror_store.find(20), nullptr);
  EXPECT_EQ(rig.mirror_store.find(30), nullptr);

  // The primary's resend re-delivers seq 2 intact: the gap closes and the
  // staged seq 3 cascades in the same epoch.
  std::vector<log::Record> resend;
  resend.push_back(log::Record::write_image(22, 20, val("healed")));
  resend.push_back(log::Record::write_image(22, 21, val("second")));
  resend.push_back(log::Record::commit(22, 2, 2000, 2));
  (void)rig.link.end_a().send(
      encode_framed((1ULL << 40) + 1, 2, Message::log_batch(std::move(resend))));
  rig.sim.run();

  EXPECT_EQ(rig.mirror->applied_seq(), 3u);
  ASSERT_NE(rig.mirror_store.find(20), nullptr);
  EXPECT_EQ(rig.mirror_store.find(20)->value, val("healed"));
  ASSERT_NE(rig.mirror_store.find(30), nullptr);
  EXPECT_EQ(rig.mirror->stats().corrupt_txns, 1u);  // counted exactly once
}

TEST(Replication, DiskFlushFailureMarksLogNonDense) {
  // Regression: release() used to discard the disk flush result entirely —
  // a mirror whose stored log silently lost a batch would later vouch for
  // dense catch-up coverage when serving a rejoin. A failed flush must be
  // counted and flip disk_log_dense() off, permanently.
  Rig rig;
  rig.mirror->attach_synced(1);
  rig.writer.set_mode(LogMode::kMirror);
  EXPECT_TRUE(rig.mirror->disk_log_dense());

  rig.submit_txn(1, 10, "a");
  rig.sim.run();
  EXPECT_TRUE(rig.mirror->disk_log_dense());  // healthy disk, still dense

  rig.mirror_disk.inject_flush_error(1);
  rig.submit_txn(2, 11, "b");
  rig.sim.run();
  EXPECT_FALSE(rig.mirror->disk_log_dense());
  EXPECT_EQ(rig.mirror->stats().disk_write_failures, 1u);
  // The copy itself is fine — only the stored log's coverage is suspect.
  ASSERT_NE(rig.mirror_store.find(11), nullptr);
  EXPECT_EQ(rig.mirror->applied_seq(), 2u);

  // Sticky: a healthy flush afterwards must not resurrect density (the
  // hole is already in the log).
  rig.submit_txn(3, 12, "c");
  rig.sim.run();
  EXPECT_FALSE(rig.mirror->disk_log_dense());
  EXPECT_EQ(rig.mirror->stats().disk_write_failures, 1u);
}

TEST(Replication, SeveredLinkDropsFramesAndWriterReroutes) {
  Rig rig;
  rig.mirror->attach_synced(1);
  rig.writer.set_mode(LogMode::kMirror);

  bool durable = false;
  rig.submit_txn(1, 10, "x", [&] { durable = true; });
  rig.link.sever();  // frame in flight is lost
  rig.sim.run();
  EXPECT_FALSE(durable);
  EXPECT_EQ(rig.writer.pending_acks(), 1u);

  // The node-level watchdog would now call on_mirror_lost: the pending
  // transaction completes via the local disk.
  rig.writer.on_mirror_lost();
  EXPECT_TRUE(durable);
  EXPECT_EQ(rig.primary_disk.records().size(), 2u);
}

}  // namespace
}  // namespace rodain::repl
