#include "rodain/log/writer.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <map>
#include <mutex>
#include <thread>

#include "rodain/obs/obs.hpp"

namespace rodain::log {
namespace {

storage::Value val(std::string_view s) { return storage::Value{s}; }

std::vector<Record> txn_records(TxnId txn, ValidationTs seq) {
  std::vector<Record> records;
  records.push_back(Record::write_image(txn, 100 + txn, val("v")));
  records.push_back(Record::commit(txn, seq, seq * 1000, 1));
  return records;
}

struct CapturingShipper final : Shipper {
  std::vector<Record> shipped;
  void ship(std::span<const TxnRecords> txns) override {
    for (const TxnRecords& t : txns) {
      shipped.insert(shipped.end(), t->begin(), t->end());
    }
  }
};

TEST(LogWriter, OffModeAcksImmediately) {
  LogWriter writer(LogMode::kOff, nullptr, nullptr);
  bool durable = false;
  writer.submit(1, txn_records(1, 1), [&] { durable = true; });
  EXPECT_TRUE(durable);
  EXPECT_EQ(writer.counters().via_none, 1u);
}

TEST(LogWriter, DirectDiskWaitsForFlush) {
  MemoryLogStorage disk;
  LogWriter writer(LogMode::kDirectDisk, &disk, nullptr);
  bool durable = false;
  writer.submit(1, txn_records(1, 1), [&] { durable = true; });
  EXPECT_TRUE(durable);  // memory flush completes inline
  EXPECT_EQ(disk.records().size(), 2u);
  EXPECT_EQ(writer.counters().via_disk, 1u);
}

TEST(LogWriter, MirrorModeWaitsForAck) {
  CapturingShipper shipper;
  LogWriter writer(LogMode::kMirror, nullptr, &shipper);
  bool durable = false;
  writer.submit(5, txn_records(9, 5), [&] { durable = true; });
  EXPECT_TRUE(shipper.shipped.empty());  // nothing leaves before a pump
  EXPECT_EQ(writer.outbox_txns(), 1u);
  EXPECT_EQ(writer.pump(), 1u);
  EXPECT_FALSE(durable);
  EXPECT_EQ(shipper.shipped.size(), 2u);
  EXPECT_EQ(writer.outbox_txns(), 0u);
  EXPECT_EQ(writer.pending_acks(), 1u);

  writer.on_mirror_ack(5);
  EXPECT_TRUE(durable);
  EXPECT_EQ(writer.pending_acks(), 0u);
}

TEST(LogWriter, DuplicateAndUnknownAcksIgnored) {
  CapturingShipper shipper;
  LogWriter writer(LogMode::kMirror, nullptr, &shipper);
  int acks = 0;
  writer.submit(5, txn_records(9, 5), [&] { ++acks; });
  writer.on_mirror_ack(4);  // unknown
  writer.on_mirror_ack(5);
  writer.on_mirror_ack(5);  // duplicate
  EXPECT_EQ(acks, 1);
}

TEST(LogWriter, MirrorLostReroutesPendingToDisk) {
  CapturingShipper shipper;
  MemoryLogStorage disk;
  LogWriter writer(LogMode::kMirror, &disk, &shipper);
  int durable = 0;
  writer.submit(1, txn_records(1, 1), [&] { ++durable; });
  writer.submit(2, txn_records(2, 2), [&] { ++durable; });
  EXPECT_EQ(durable, 0);

  writer.on_mirror_lost();
  // Both pending transactions completed through the local disk instead.
  EXPECT_EQ(durable, 2);
  EXPECT_EQ(writer.mode(), LogMode::kDirectDisk);
  EXPECT_EQ(disk.records().size(), 4u);
  EXPECT_EQ(writer.counters().rerouted, 2u);
  // Late ack from the dead mirror: harmless.
  writer.on_mirror_ack(1);
  EXPECT_EQ(durable, 2);
}

TEST(LogWriter, ModeSwitchAffectsNewSubmissions) {
  CapturingShipper shipper;
  MemoryLogStorage disk;
  LogWriter writer(LogMode::kDirectDisk, &disk, &shipper);
  writer.submit(1, txn_records(1, 1), {});
  EXPECT_EQ(disk.records().size(), 2u);
  writer.set_mode(LogMode::kMirror);
  writer.submit(2, txn_records(2, 2), {});
  writer.pump();
  EXPECT_EQ(shipper.shipped.size(), 2u);
  EXPECT_EQ(disk.records().size(), 2u);  // unchanged
}

TEST(LogWriter, AckTimeoutFiresForOldestUnacked) {
  CapturingShipper shipper;
  MemoryLogStorage disk;
  ManualClock clock;
  LogWriter writer(LogMode::kMirror, &disk, &shipper);
  int timeouts = 0;
  writer.configure_ack_timeout(&clock, Duration::millis(100),
                               [&] { ++timeouts; });

  writer.submit(1, txn_records(1, 1), {});
  clock.advance(Duration::millis(50));
  EXPECT_FALSE(writer.check_ack_timeouts());
  EXPECT_EQ(timeouts, 0);

  clock.advance(Duration::millis(51));  // oldest shipment now 101 ms old
  EXPECT_TRUE(writer.check_ack_timeouts());
  EXPECT_EQ(timeouts, 1);
  EXPECT_EQ(writer.counters().ack_timeouts, 1u);
}

TEST(LogWriter, AckInTimeDisarmsTimeout) {
  CapturingShipper shipper;
  ManualClock clock;
  LogWriter writer(LogMode::kMirror, nullptr, &shipper);
  int timeouts = 0;
  writer.configure_ack_timeout(&clock, Duration::millis(100),
                               [&] { ++timeouts; });
  writer.submit(1, txn_records(1, 1), {});
  writer.on_mirror_ack(1);
  clock.advance(Duration::seconds(10));
  EXPECT_FALSE(writer.check_ack_timeouts());
  EXPECT_EQ(timeouts, 0);
}

TEST(LogWriter, ResendRestampsAckTimeout) {
  // Regression: resend_pending() used to leave Pending::shipped_at at the
  // original shipment time, so check_ack_timeouts() re-fired immediately
  // after a reconnect. A resend restarts the window for the new attempt.
  CapturingShipper shipper;
  MemoryLogStorage disk;
  ManualClock clock;
  LogWriter writer(LogMode::kMirror, &disk, &shipper);
  int timeouts = 0;
  writer.configure_ack_timeout(&clock, Duration::millis(100),
                               [&] { ++timeouts; });
  writer.submit(1, txn_records(1, 1), {});
  clock.advance(Duration::millis(60));
  EXPECT_EQ(writer.resend_pending(), 1u);
  clock.advance(Duration::millis(60));  // 120 ms overall, 60 ms since resend
  EXPECT_FALSE(writer.check_ack_timeouts());
  EXPECT_EQ(timeouts, 0);
  clock.advance(Duration::millis(41));  // 101 ms since the resend
  EXPECT_TRUE(writer.check_ack_timeouts());
  EXPECT_EQ(timeouts, 1);
}

TEST(LogWriter, ResendRestampsObsShipTimeUnconditionally) {
  // Regression: resend_pending() only restamped Pending::shipped_at_us when
  // it was already non-zero, so a transaction submitted while obs was off
  // and resent after obs came up kept its zero stamp — its replication-RTT
  // sample was skipped forever on ack. The resend anchors both the
  // ack-timeout clock and the obs stamp at the new attempt.
  CapturingShipper shipper;
  ManualClock clock;
  LogWriter writer(LogMode::kMirror, nullptr, &shipper);
  writer.configure_ack_timeout(&clock, Duration::seconds(10), {});
  writer.submit(1, txn_records(1, 1), {});  // obs off: shipped_at_us == 0

  obs::ObsConfig obs_config;
  obs_config.enabled = true;
  obs::init(obs_config);
  const std::size_t rtt_before =
      obs::metrics().timer("repl.commit_rtt_us").merged().count();
  EXPECT_EQ(writer.resend_pending(), 1u);
  writer.on_mirror_ack(1);
  EXPECT_EQ(obs::metrics().timer("repl.commit_rtt_us").merged().count(),
            rtt_before + 1);
}

TEST(LogWriter, ResendPendingReshipsInSeqOrderAsOneBatch) {
  CapturingShipper shipper;
  LogWriter writer(LogMode::kMirror, nullptr, &shipper);
  writer.submit(1, txn_records(1, 1), {});
  writer.submit(2, txn_records(2, 2), {});
  writer.submit(3, txn_records(3, 3), {});
  writer.on_mirror_ack(1);
  shipper.shipped.clear();
  const std::uint64_t frames_before = writer.counters().batches_shipped;

  // Txns 2 and 3 go out again as one combined frame, in validation order.
  EXPECT_EQ(writer.resend_pending(), 2u);
  ASSERT_EQ(shipper.shipped.size(), 4u);
  EXPECT_EQ(shipper.shipped[1].seq, 2u);
  EXPECT_EQ(shipper.shipped[3].seq, 3u);
  EXPECT_EQ(writer.counters().resent, 2u);
  EXPECT_EQ(writer.counters().batches_shipped, frames_before + 1);

  // Acked transactions are gone; the cumulative ack clears the rest.
  writer.on_mirror_ack(3);
  EXPECT_EQ(writer.resend_pending(), 0u);
}

TEST(LogWriter, ResendIsNoOpOutsideMirrorMode) {
  CapturingShipper shipper;
  MemoryLogStorage disk;
  LogWriter writer(LogMode::kMirror, &disk, &shipper);
  writer.submit(1, txn_records(1, 1), {});
  writer.on_mirror_lost();
  shipper.shipped.clear();
  EXPECT_EQ(writer.resend_pending(), 0u);
  EXPECT_TRUE(shipper.shipped.empty());
}

TEST(LogWriter, MirrorLostWithInFlightUnackedCompletesEveryCommitter) {
  // The satellite case: ack timeout escalates to on_mirror_lost while
  // several transactions sit unacked; all must become durable via disk, in
  // order, exactly once.
  CapturingShipper shipper;
  MemoryLogStorage disk;
  ManualClock clock;
  LogWriter writer(LogMode::kMirror, &disk, &shipper);
  writer.configure_ack_timeout(&clock, Duration::millis(100),
                               [&] { writer.on_mirror_lost(); });

  std::vector<ValidationTs> durable_order;
  for (ValidationTs seq = 1; seq <= 3; ++seq) {
    writer.submit(seq, txn_records(seq, seq),
                  [&durable_order, seq] { durable_order.push_back(seq); });
  }
  writer.on_mirror_ack(1);
  EXPECT_EQ(writer.pending_acks(), 2u);

  clock.advance(Duration::millis(101));
  EXPECT_TRUE(writer.check_ack_timeouts());
  EXPECT_EQ(durable_order, (std::vector<ValidationTs>{1, 2, 3}));
  EXPECT_EQ(writer.mode(), LogMode::kDirectDisk);
  EXPECT_EQ(writer.pending_acks(), 0u);
  EXPECT_EQ(writer.counters().rerouted, 2u);
  EXPECT_EQ(disk.records().size(), 4u);  // txns 2 and 3 rerouted
  // The stale mirror ack arriving later is harmless.
  writer.on_mirror_ack(2);
  EXPECT_EQ(durable_order.size(), 3u);
}

TEST(LogWriter, TailSinceServesCatchUp) {
  LogWriter writer(LogMode::kOff, nullptr, nullptr);
  for (ValidationTs seq = 1; seq <= 10; ++seq) {
    writer.submit(seq, txn_records(seq, seq), {});
  }
  auto tail = writer.tail_since(7);
  // Transactions 8, 9, 10: two records each.
  ASSERT_EQ(tail.size(), 6u);
  EXPECT_EQ(tail[1].seq, 8u);
  EXPECT_EQ(tail[5].seq, 10u);
  EXPECT_TRUE(writer.tail_since(10).empty());
  // Everything retained from seq 0.
  EXPECT_EQ(writer.tail_since(0).size(), 20u);
}

TEST(LogWriter, TailRetentionIsBounded) {
  LogWriter writer(LogMode::kOff, nullptr, nullptr);
  const ValidationTs total = LogWriter::kTailRetention + 100;
  for (ValidationTs seq = 1; seq <= total; ++seq) {
    writer.submit(seq, txn_records(seq, seq), {});
  }
  auto all = writer.tail_since(0);
  EXPECT_EQ(all.size(), LogWriter::kTailRetention * 2);
  ASSERT_TRUE(all[1].is_commit());
  EXPECT_EQ(all[1].seq, 101u);  // oldest 100 evicted
}

TEST(LogWriter, SynchronousLoopbackAckFindsPendingEntry) {
  // Regression: submit() used to ship before registering pending_, so a
  // shipper that acks synchronously (loopback transport) found an empty map
  // and the durable callback was lost forever.
  struct LoopbackShipper final : Shipper {
    LogWriter* writer{nullptr};
    void ship(std::span<const TxnRecords> txns) override {
      ValidationTs top = 0;
      for (const TxnRecords& t : txns) {
        for (const Record& r : *t) {
          if (r.is_commit() && r.seq > top) top = r.seq;
        }
      }
      if (writer != nullptr && top != 0) writer->on_mirror_ack(top);
    }
  };
  LoopbackShipper shipper;
  LogWriter writer(LogMode::kMirror, nullptr, &shipper);
  shipper.writer = &writer;
  bool durable = false;
  writer.submit(1, txn_records(1, 1), [&] { durable = true; });
  writer.pump();
  EXPECT_TRUE(durable);
  EXPECT_EQ(writer.pending_acks(), 0u);
}

TEST(LogWriter, CumulativeAckReleasesInSeqOrder) {
  CapturingShipper shipper;
  LogWriter writer(LogMode::kMirror, nullptr, &shipper);
  std::vector<ValidationTs> durable_order;
  for (ValidationTs seq = 1; seq <= 4; ++seq) {
    writer.submit(seq, txn_records(seq, seq),
                  [&durable_order, seq] { durable_order.push_back(seq); });
  }
  writer.on_mirror_ack(3);
  EXPECT_EQ(durable_order, (std::vector<ValidationTs>{1, 2, 3}));
  EXPECT_EQ(writer.pending_acks(), 1u);
  EXPECT_EQ(writer.counters().acks_received, 1u);
  EXPECT_EQ(writer.counters().ack_released_txns, 3u);
  writer.on_mirror_ack(4);
  EXPECT_EQ(durable_order, (std::vector<ValidationTs>{1, 2, 3, 4}));
  EXPECT_EQ(writer.pending_acks(), 0u);
}

TEST(LogWriter, BatchDrainsAtTxnThreshold) {
  CapturingShipper shipper;
  ManualClock clock;
  LogWriter writer(LogMode::kMirror, nullptr, &shipper);
  LogWriter::BatchOptions opts;
  opts.max_txns = 3;
  writer.configure_batching(&clock, opts);

  writer.submit(1, txn_records(1, 1), {});
  writer.submit(2, txn_records(2, 2), {});
  EXPECT_TRUE(shipper.shipped.empty());
  EXPECT_EQ(writer.batched_txns(), 2u);

  writer.submit(3, txn_records(3, 3), {});
  EXPECT_EQ(writer.outbox_txns(), 3u);  // the threshold drained the batch
  writer.pump();
  EXPECT_EQ(shipper.shipped.size(), 6u);  // three txns, two records each
  EXPECT_EQ(writer.batched_txns(), 0u);
  EXPECT_EQ(writer.counters().batches_shipped, 1u);
  EXPECT_EQ(writer.counters().batch_txns_shipped, 3u);
  EXPECT_EQ(writer.counters().batch_fill_txns, 1u);
}

TEST(LogWriter, BatchDrainsAtByteThreshold) {
  CapturingShipper shipper;
  ManualClock clock;
  LogWriter writer(LogMode::kMirror, nullptr, &shipper);
  std::size_t one_txn_bytes = 0;
  for (const Record& r : txn_records(1, 1)) one_txn_bytes += r.encoded_size();
  LogWriter::BatchOptions opts;
  opts.max_txns = 100;
  opts.max_bytes = one_txn_bytes + 1;  // one txn fits, two overflow
  writer.configure_batching(&clock, opts);

  writer.submit(1, txn_records(1, 1), {});
  EXPECT_TRUE(shipper.shipped.empty());
  writer.submit(2, txn_records(2, 2), {});
  writer.pump();
  EXPECT_EQ(shipper.shipped.size(), 4u);
  EXPECT_EQ(writer.counters().batch_fill_bytes, 1u);
  EXPECT_EQ(writer.counters().batch_bytes_shipped, 2 * one_txn_bytes);
}

TEST(LogWriter, DelayWindowFlushesViaScheduler) {
  CapturingShipper shipper;
  ManualClock clock;
  std::vector<Duration> scheduled;
  LogWriter writer(LogMode::kMirror, nullptr, &shipper);
  LogWriter::BatchOptions opts;
  opts.max_txns = 100;
  opts.max_delay = Duration::millis(5);
  writer.configure_batching(&clock, opts,
                            [&](Duration d) { scheduled.push_back(d); });

  writer.submit(1, txn_records(1, 1), {});
  ASSERT_EQ(scheduled.size(), 1u);  // first txn of the batch opens the window
  EXPECT_EQ(scheduled[0].us, 5000);
  writer.submit(2, txn_records(2, 2), {});
  EXPECT_EQ(scheduled.size(), 1u);  // later txns ride the same window
  EXPECT_TRUE(shipper.shipped.empty());

  clock.advance(Duration::millis(5));
  writer.flush_batch();
  EXPECT_EQ(shipper.shipped.size(), 4u);
  EXPECT_EQ(writer.counters().batch_fill_delay, 1u);
}

TEST(LogWriter, StaleFlushTimerRearmsForYoungerBatch) {
  // A timer armed for batch N may fire after N already drained on a
  // threshold; it must not ship batch N+1 early, only re-arm its remainder.
  CapturingShipper shipper;
  ManualClock clock;
  std::vector<Duration> scheduled;
  LogWriter writer(LogMode::kMirror, nullptr, &shipper);
  LogWriter::BatchOptions opts;
  opts.max_txns = 2;
  opts.max_delay = Duration::millis(5);
  writer.configure_batching(&clock, opts,
                            [&](Duration d) { scheduled.push_back(d); });

  writer.submit(1, txn_records(1, 1), {});  // t=0: timer armed for t=5ms
  clock.advance(Duration::millis(1));
  writer.submit(2, txn_records(2, 2), {});  // threshold drains batch 1
  writer.pump();
  EXPECT_EQ(shipper.shipped.size(), 4u);
  clock.advance(Duration::millis(1));
  writer.submit(3, txn_records(3, 3), {});  // t=2ms: batch 2 deadline t=7ms
  ASSERT_EQ(scheduled.size(), 2u);

  clock.advance(Duration::millis(3));  // t=5ms: batch 1's stale timer fires
  writer.flush_batch();
  EXPECT_EQ(shipper.shipped.size(), 4u);  // batch 2 not shipped early
  ASSERT_EQ(scheduled.size(), 3u);
  EXPECT_EQ(scheduled[2].us, 2000);  // re-armed for the remaining window

  clock.advance(Duration::millis(2));  // t=7ms: batch 2's own deadline
  writer.flush_batch();
  EXPECT_EQ(shipper.shipped.size(), 6u);
  EXPECT_EQ(writer.counters().batch_fill_txns, 1u);
  EXPECT_EQ(writer.counters().batch_fill_delay, 1u);
}

TEST(LogWriter, ExplicitFlushDrainsPartialBatch) {
  CapturingShipper shipper;
  ManualClock clock;
  LogWriter writer(LogMode::kMirror, nullptr, &shipper);
  LogWriter::BatchOptions opts;
  opts.max_txns = 100;
  writer.configure_batching(&clock, opts);

  writer.submit(1, txn_records(1, 1), {});
  writer.submit(2, txn_records(2, 2), {});
  EXPECT_EQ(writer.batched_txns(), 2u);
  writer.flush_batch();
  EXPECT_EQ(shipper.shipped.size(), 4u);
  EXPECT_EQ(writer.counters().batch_fill_forced, 1u);
  writer.flush_batch();  // empty buffer: no-op
  EXPECT_EQ(writer.counters().batches_shipped, 1u);
}

TEST(LogWriter, MirrorLostReroutesBufferedBatchToDisk) {
  // Buffered-but-unshipped txns are registered in pending_, so the mirror
  // loss path must complete them via disk without ever shipping the batch.
  CapturingShipper shipper;
  MemoryLogStorage disk;
  ManualClock clock;
  LogWriter writer(LogMode::kMirror, &disk, &shipper);
  LogWriter::BatchOptions opts;
  opts.max_txns = 100;
  writer.configure_batching(&clock, opts);

  int durable = 0;
  writer.submit(1, txn_records(1, 1), [&] { ++durable; });
  writer.submit(2, txn_records(2, 2), [&] { ++durable; });
  EXPECT_TRUE(shipper.shipped.empty());

  writer.on_mirror_lost();
  EXPECT_EQ(durable, 2);
  EXPECT_TRUE(shipper.shipped.empty());
  EXPECT_EQ(writer.batched_txns(), 0u);
  EXPECT_EQ(disk.records().size(), 4u);
  EXPECT_EQ(writer.counters().rerouted, 2u);
}

TEST(LogWriter, AdaptiveDelayTracksLoad) {
  CapturingShipper shipper;
  ManualClock clock;
  LogWriter writer(LogMode::kMirror, nullptr, &shipper);
  LogWriter::BatchOptions opts;
  opts.max_txns = 4;
  opts.max_delay = Duration::millis(8);
  opts.adaptive_delay = true;
  writer.configure_batching(&clock, opts);
  EXPECT_EQ(writer.current_flush_delay().us, 8000);

  // A delay-filled batch under half full halves the window.
  writer.submit(1, txn_records(1, 1), {});
  clock.advance(Duration::millis(8));
  writer.flush_batch();
  EXPECT_EQ(writer.counters().batch_fill_delay, 1u);
  EXPECT_EQ(writer.current_flush_delay().us, 4000);

  // A threshold-filled batch doubles it back toward max_delay.
  for (ValidationTs seq = 2; seq <= 5; ++seq) {
    writer.submit(seq, txn_records(seq, seq), {});
  }
  EXPECT_EQ(writer.counters().batch_fill_txns, 1u);
  EXPECT_EQ(writer.current_flush_delay().us, 8000);
}

// ------------------------------------------------ concurrent pump drain --

/// Records each frame's commit seqs; flags a ship that overlaps another.
struct RecordingShipper final : Shipper {
  std::mutex mu;
  std::vector<std::vector<ValidationTs>> frames;
  std::atomic<int> in_ship{0};
  std::atomic<bool> overlapped{false};
  void ship(std::span<const TxnRecords> txns) override {
    if (in_ship.fetch_add(1) != 0) overlapped = true;
    std::vector<ValidationTs> seqs;
    for (const TxnRecords& t : txns) seqs.push_back(t->back().seq);
    {
      std::lock_guard lock(mu);
      frames.push_back(std::move(seqs));
    }
    in_ship.fetch_sub(1);
  }
};

TEST(LogWriter, ConcurrentPumpsShipEveryTxnOnceInSeqOrder) {
  // Four committers submit under one serial mutex (the host's commit
  // mutex) and pump after releasing it, as rt::Node workers do. One ship
  // runs at a time, commit seqs rise strictly across frames, every txn
  // ships exactly once, and the last pump leaves the outbox empty.
  RecordingShipper shipper;
  LogWriter writer(LogMode::kMirror, nullptr, &shipper);
  std::mutex serial;
  ValidationTs next_seq = 1;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 2000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        {
          std::lock_guard lock(serial);
          const ValidationTs seq = next_seq++;
          writer.submit(seq, txn_records(seq, seq), {});
        }
        writer.pump();
      }
    });
  }
  for (std::thread& t : threads) t.join();

  constexpr ValidationTs kTotal = ValidationTs{kThreads} * kPerThread;
  EXPECT_EQ(writer.outbox_txns(), 0u);
  EXPECT_FALSE(shipper.overlapped.load());
  std::vector<ValidationTs> shipped;
  for (const auto& frame : shipper.frames) {
    ASSERT_FALSE(frame.empty());
    shipped.insert(shipped.end(), frame.begin(), frame.end());
  }
  ASSERT_EQ(shipped.size(), kTotal);
  for (std::size_t i = 0; i < shipped.size(); ++i) {
    ASSERT_EQ(shipped[i], i + 1) << "position " << i;
  }
  const LogWriter::Counters c = writer.counters();
  EXPECT_EQ(c.batches_shipped, shipper.frames.size());
  EXPECT_EQ(c.batch_txns_shipped, kTotal);
  EXPECT_EQ(writer.pending_acks(), kTotal);
  writer.on_mirror_ack(kTotal);
  EXPECT_EQ(writer.pending_acks(), 0u);
}

/// Parks the first ship() until release() — a frame held on the wire —
/// and records every frame's commit seqs.
struct GateShipper final : Shipper {
  std::mutex mu;
  std::condition_variable cv;
  bool entered{false};
  bool released{false};
  std::vector<std::vector<ValidationTs>> frames;
  void ship(std::span<const TxnRecords> txns) override {
    std::unique_lock lock(mu);
    std::vector<ValidationTs> seqs;
    for (const TxnRecords& t : txns) seqs.push_back(t->back().seq);
    frames.push_back(std::move(seqs));
    entered = true;
    cv.notify_all();
    cv.wait(lock, [this] { return released; });
  }
  void wait_entered() {
    std::unique_lock lock(mu);
    cv.wait(lock, [this] { return entered; });
  }
  void release() {
    {
      std::lock_guard lock(mu);
      released = true;
    }
    cv.notify_all();
  }
};

TEST(LogWriter, FollowerLeavesItsTxnsToTheRunningPump) {
  // A pump that finds a ship running returns at once; the running pump's
  // loop ships what was appended meanwhile, as one frame, before it
  // returns — nothing is stranded in the outbox.
  GateShipper shipper;
  LogWriter writer(LogMode::kMirror, nullptr, &shipper);
  writer.submit(1, txn_records(1, 1), {});
  std::size_t leader_frames = 0;
  std::thread leader([&] { leader_frames = writer.pump(); });
  shipper.wait_entered();
  writer.submit(2, txn_records(2, 2), {});
  writer.submit(3, txn_records(3, 3), {});
  EXPECT_EQ(writer.pump(), 0u);
  EXPECT_EQ(writer.outbox_txns(), 2u);
  shipper.release();
  leader.join();
  EXPECT_EQ(leader_frames, 2u);
  EXPECT_EQ(writer.outbox_txns(), 0u);
  EXPECT_EQ(shipper.frames,
            (std::vector<std::vector<ValidationTs>>{{1}, {2, 3}}));
}

TEST(LogWriter, MirrorLostDuringInFlightPumpReroutesEachTxnOnce) {
  // A frame is on the wire (the shipper parks inside ship()) when the
  // mirror is declared lost. Every unacked txn — the ones in flight and
  // the ones still in the outbox — completes through the disk exactly
  // once, and nothing queued behind the in-flight frame ever ships.
  GateShipper shipper;
  MemoryLogStorage disk;
  LogWriter writer(LogMode::kMirror, &disk, &shipper);
  std::map<ValidationTs, int> durable;  // touched by the serial thread only
  auto submit = [&](ValidationTs seq) {
    writer.submit(seq, txn_records(seq, seq), [&durable, seq] {
      ++durable[seq];
    });
  };
  submit(1);
  submit(2);
  std::thread pumper([&] { writer.pump(); });
  shipper.wait_entered();
  // While {1, 2} is on the wire, 3 and 4 seal; a second pump finds the
  // ship running and leaves them to it.
  submit(3);
  submit(4);
  EXPECT_EQ(writer.pump(), 0u);
  EXPECT_EQ(writer.outbox_txns(), 2u);

  writer.on_mirror_lost();
  EXPECT_EQ(writer.mode(), LogMode::kDirectDisk);
  EXPECT_EQ(writer.outbox_txns(), 0u);
  EXPECT_EQ(writer.pending_acks(), 0u);
  EXPECT_EQ(durable, (std::map<ValidationTs, int>{{1, 1}, {2, 1}, {3, 1},
                                                   {4, 1}}));
  std::vector<ValidationTs> on_disk;
  for (const Record& r : disk.records()) {
    if (r.is_commit()) on_disk.push_back(r.seq);
  }
  EXPECT_EQ(on_disk, (std::vector<ValidationTs>{1, 2, 3, 4}));

  shipper.release();
  pumper.join();
  // The dead mirror's late ack and a later pump change nothing.
  writer.on_mirror_ack(4);
  EXPECT_EQ(writer.pump(), 0u);
  EXPECT_EQ(shipper.frames, (std::vector<std::vector<ValidationTs>>{{1, 2}}));
  for (const auto& [seq, n] : durable) EXPECT_EQ(n, 1) << "seq " << seq;
  EXPECT_EQ(writer.counters().rerouted, 4u);
  EXPECT_EQ(writer.counters().batches_shipped, 1u);
}

}  // namespace
}  // namespace rodain::log
