#include "rodain/log/reorder.hpp"

#include <gtest/gtest.h>

#include "rodain/common/rng.hpp"

namespace rodain::log {
namespace {

storage::Value val(std::string_view s) { return storage::Value{s}; }

/// Flattened release order, one wire batch per fed transaction: feed_txn
/// flushes the epoch after each transaction, and flush() drains what a
/// direct reorderer call (floor move, forced release) put in the buffer.
struct Collector {
  std::vector<ValidationTs> released;
  Reorderer reorderer;

  explicit Collector(ValidationTs expected = 1)
      : reorderer(
            [this](std::vector<ReleasedTxn> epoch) {
              for (const ReleasedTxn& t : epoch) released.push_back(t.seq);
            },
            expected) {}

  void feed_txn(TxnId txn, ValidationTs seq, std::uint32_t writes = 1) {
    for (std::uint32_t w = 0; w < writes; ++w) {
      ASSERT_TRUE(reorderer.add(Record::write_image(txn, 100 + w, val("v"))));
    }
    ASSERT_TRUE(reorderer.add(Record::commit(txn, seq, seq * 1000, writes)));
    flush();
  }
  void flush() { reorderer.flush_epoch(); }
};

TEST(Reorderer, InOrderStreamsReleaseImmediately) {
  Collector c;
  c.feed_txn(11, 1);
  c.feed_txn(12, 2);
  c.feed_txn(13, 3);
  EXPECT_EQ(c.released, (std::vector<ValidationTs>{1, 2, 3}));
  EXPECT_EQ(c.reorderer.staged_commits(), 0u);
}

TEST(Reorderer, OutOfOrderCommitsBufferUntilGapCloses) {
  Collector c;
  c.feed_txn(12, 2);
  c.feed_txn(13, 3);
  EXPECT_TRUE(c.released.empty());
  EXPECT_EQ(c.reorderer.staged_commits(), 2u);
  c.feed_txn(11, 1);
  EXPECT_EQ(c.released, (std::vector<ValidationTs>{1, 2, 3}));
}

TEST(Reorderer, InterleavedWritesFromConcurrentTxns) {
  Collector c;
  // Writes of txns 21 and 22 interleave on the wire; commits arrive 2, 1.
  ASSERT_TRUE(c.reorderer.add(Record::write_image(21, 1, val("a"))));
  ASSERT_TRUE(c.reorderer.add(Record::write_image(22, 2, val("b"))));
  ASSERT_TRUE(c.reorderer.add(Record::write_image(21, 3, val("c"))));
  ASSERT_TRUE(c.reorderer.add(Record::commit(22, 2, 2000, 1)));
  EXPECT_EQ(c.reorderer.open_txns(), 1u);
  ASSERT_TRUE(c.reorderer.add(Record::commit(21, 1, 1000, 2)));
  c.flush();
  EXPECT_EQ(c.released, (std::vector<ValidationTs>{1, 2}));
}

TEST(Reorderer, WriteCountMismatchIsCorruption) {
  Collector c;
  ASSERT_TRUE(c.reorderer.add(Record::write_image(5, 1, val("x"))));
  auto s = c.reorderer.add(Record::commit(5, 1, 1000, 2));  // claims 2 writes
  EXPECT_EQ(s.code(), ErrorCode::kCorruption);
}

TEST(Reorderer, StaleCommitDropped) {
  Collector c(/*expected=*/5);
  // A duplicate of an already-applied transaction (catch-up overlap).
  ASSERT_TRUE(c.reorderer.add(Record::write_image(3, 1, val("old"))));
  ASSERT_TRUE(c.reorderer.add(Record::commit(3, 3, 3000, 1)));
  EXPECT_TRUE(c.released.empty());
  EXPECT_EQ(c.reorderer.open_txns(), 0u);  // buffered writes discarded
  // The live stream continues at 5.
  c.feed_txn(50, 5);
  EXPECT_EQ(c.released, (std::vector<ValidationTs>{5}));
}

TEST(Reorderer, DuplicateStagedCommitDropped) {
  Collector c;
  c.feed_txn(12, 2);
  EXPECT_EQ(c.reorderer.staged_commits(), 1u);
  // Duplicate delivery of the same commit (different copy of the records).
  ASSERT_TRUE(c.reorderer.add(Record::write_image(12, 1, val("dup"))));
  ASSERT_TRUE(c.reorderer.add(Record::commit(12, 2, 2000, 1)));
  EXPECT_EQ(c.reorderer.staged_commits(), 1u);
  c.feed_txn(11, 1);
  EXPECT_EQ(c.released, (std::vector<ValidationTs>{1, 2}));
}

TEST(Reorderer, SetExpectedNextPurgesStagedBelowFloor) {
  // Rejoin scenario from the chaos soak: commits 21..23 staged behind a gap
  // (their predecessors were disk-committed on the primary and never
  // shipped), then a snapshot install moves the floor past them. The stale
  // entries must not wall off the live stream that resumes at the floor.
  Collector c(/*expected=*/10);
  c.feed_txn(121, 21);
  c.feed_txn(122, 22);
  c.feed_txn(123, 23);
  EXPECT_TRUE(c.released.empty());
  EXPECT_EQ(c.reorderer.staged_commits(), 3u);
  c.reorderer.set_expected_next(31);  // snapshot boundary 30
  EXPECT_EQ(c.reorderer.staged_commits(), 0u);
  c.feed_txn(131, 31);
  c.feed_txn(132, 32);
  EXPECT_EQ(c.released, (std::vector<ValidationTs>{31, 32}));
}

TEST(Reorderer, SetExpectedNextReleasesStagedAtFloor) {
  // Commits at and above the new floor survive the purge and release as
  // soon as the floor reaches them (install path: stash replayed after).
  Collector c(/*expected=*/10);
  c.feed_txn(121, 21);  // below the new floor: purged
  c.feed_txn(131, 31);  // at the new floor: releases synchronously
  c.feed_txn(132, 32);
  EXPECT_TRUE(c.released.empty());
  c.reorderer.set_expected_next(31);
  c.flush();
  EXPECT_EQ(c.released, (std::vector<ValidationTs>{31, 32}));
  EXPECT_EQ(c.reorderer.expected_next(), 33u);
}

TEST(Reorderer, DropOpenTxns) {
  Collector c;
  ASSERT_TRUE(c.reorderer.add(Record::write_image(9, 1, val("x"))));
  ASSERT_TRUE(c.reorderer.add(Record::write_image(10, 2, val("y"))));
  EXPECT_EQ(c.reorderer.drop_open_txns(), 2u);
  EXPECT_EQ(c.reorderer.open_txns(), 0u);
}

TEST(Reorderer, ForceReleaseStagedAppliesAcrossGaps) {
  Collector c;
  c.feed_txn(12, 2);
  c.feed_txn(14, 4);
  EXPECT_TRUE(c.released.empty());
  EXPECT_EQ(c.reorderer.force_release_staged(), 2u);
  c.flush();
  EXPECT_EQ(c.released, (std::vector<ValidationTs>{2, 4}));
  EXPECT_EQ(c.reorderer.expected_next(), 5u);
}

TEST(Reorderer, RecordsWithinTxnKeepOrder) {
  std::vector<Record> out;
  Reorderer reorderer([&](std::vector<ReleasedTxn> epoch) {
    ASSERT_EQ(epoch.size(), 1u);
    out = std::move(epoch[0].records);
  });
  ASSERT_TRUE(reorderer.add(Record::write_image(1, 10, val("first"))));
  ASSERT_TRUE(reorderer.add(Record::write_image(1, 20, val("second"))));
  ASSERT_TRUE(reorderer.add(Record::commit(1, 1, 1000, 2)));
  EXPECT_EQ(reorderer.flush_epoch(), 1u);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].oid, 10u);
  EXPECT_EQ(out[1].oid, 20u);
  EXPECT_TRUE(out[2].is_commit());
}

// Property: any permutation of complete transaction batches is released in
// exactly dense seq order.
TEST(Reorderer, PropertyRandomPermutationsReleaseInOrder) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    const std::size_t n = 200;
    std::vector<ValidationTs> order(n);
    for (std::size_t i = 0; i < n; ++i) order[i] = i + 1;
    shuffle(order, rng);

    Collector c;
    for (ValidationTs seq : order) {
      c.feed_txn(seq + 1000, seq, 1 + seq % 3);
      if (::testing::Test::HasFatalFailure()) return;
    }
    ASSERT_EQ(c.released.size(), n) << seed;
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(c.released[i], i + 1) << seed;
    }
    EXPECT_EQ(c.reorderer.staged_commits(), 0u);
    EXPECT_EQ(c.reorderer.open_txns(), 0u);
  }
}

TEST(Reorderer, BatchEpochDedupsRedeliveredWrites) {
  // Regression: a resend after reconnect re-delivers the write images of a
  // transaction whose first delivery is still buffered in open_. Without the
  // per-batch epoch the images double up and the commit's write count check
  // reports kCorruption.
  Collector c;
  c.reorderer.begin_batch();
  ASSERT_TRUE(c.reorderer.add(Record::write_image(7, 100, val("v"))));
  // Link drops before the commit record; the primary re-ships the whole txn.
  c.reorderer.begin_batch();
  ASSERT_TRUE(c.reorderer.add(Record::write_image(7, 100, val("v"))));
  ASSERT_TRUE(c.reorderer.add(Record::commit(7, 1, 1000, 1)));
  c.flush();
  EXPECT_EQ(c.released, (std::vector<ValidationTs>{1}));
  EXPECT_EQ(c.reorderer.open_txns(), 0u);
}

TEST(Reorderer, BatchEpochKeepsWritesWithinOneBatch) {
  // Within a single batch a multi-write transaction accumulates normally.
  Collector c;
  c.reorderer.begin_batch();
  ASSERT_TRUE(c.reorderer.add(Record::write_image(7, 100, val("a"))));
  ASSERT_TRUE(c.reorderer.add(Record::write_image(7, 101, val("b"))));
  ASSERT_TRUE(c.reorderer.add(Record::commit(7, 1, 1000, 2)));
  c.flush();
  EXPECT_EQ(c.released, (std::vector<ValidationTs>{1}));
}

// ---- Epoch boundaries (DESIGN.md §14) ------------------------------------

struct BatchCollector {
  /// One entry per flush_epoch() that carried transactions.
  std::vector<std::vector<ValidationTs>> epochs;
  Reorderer reorderer;

  explicit BatchCollector(ValidationTs expected = 1)
      : reorderer(
            [this](std::vector<ReleasedTxn> epoch) {
              std::vector<ValidationTs> seqs;
              for (const ReleasedTxn& t : epoch) seqs.push_back(t.seq);
              epochs.push_back(std::move(seqs));
            },
            expected) {}

  void feed_txn(TxnId txn, ValidationTs seq, std::uint32_t writes = 1) {
    for (std::uint32_t w = 0; w < writes; ++w) {
      ASSERT_TRUE(reorderer.add(Record::write_image(txn, 100 + w, val("v"))));
    }
    ASSERT_TRUE(reorderer.add(Record::commit(txn, seq, seq * 1000, writes)));
  }
};

TEST(ReordererEpochs, ReleasesAccumulateUntilFlush) {
  BatchCollector c;
  c.feed_txn(11, 1);
  c.feed_txn(12, 2);
  EXPECT_TRUE(c.epochs.empty());  // nothing handed out yet
  EXPECT_EQ(c.reorderer.epoch_pending(), 2u);
  EXPECT_EQ(c.reorderer.flush_epoch(), 2u);
  ASSERT_EQ(c.epochs.size(), 1u);
  EXPECT_EQ(c.epochs[0], (std::vector<ValidationTs>{1, 2}));
  EXPECT_EQ(c.reorderer.epoch_pending(), 0u);
  // An empty flush is a no-op, not an empty callback.
  EXPECT_EQ(c.reorderer.flush_epoch(), 0u);
  EXPECT_EQ(c.epochs.size(), 1u);
}

TEST(ReordererEpochs, GapAtEpochBoundarySplitsTheRun) {
  BatchCollector c;
  // Wire batch 1 delivers 1, 2, and 4 — 4 stages behind the missing 3.
  c.feed_txn(11, 1);
  c.feed_txn(12, 2);
  c.feed_txn(14, 4);
  EXPECT_EQ(c.reorderer.flush_epoch(), 2u);
  ASSERT_EQ(c.epochs.size(), 1u);
  EXPECT_EQ(c.epochs[0], (std::vector<ValidationTs>{1, 2}));
  EXPECT_EQ(c.reorderer.staged_commits(), 1u);
  // The epoch barrier fired with 4 still staged: the floor honestly stops
  // at 2 (received_commit_floor counts the staged 4 only once 3 closes).
  EXPECT_EQ(c.reorderer.expected_next(), 3u);
  // Batch 2 closes the gap: 3 and the formerly staged 4 form the next epoch.
  c.feed_txn(13, 3);
  EXPECT_EQ(c.reorderer.flush_epoch(), 2u);
  ASSERT_EQ(c.epochs.size(), 2u);
  EXPECT_EQ(c.epochs[1], (std::vector<ValidationTs>{3, 4}));
}

TEST(ReordererEpochs, HoldReleasesSpansEpochs) {
  BatchCollector c;
  c.feed_txn(11, 1);
  EXPECT_EQ(c.reorderer.flush_epoch(), 1u);
  // A join starts: releases held while live batches keep staging.
  c.reorderer.hold_releases();
  c.feed_txn(12, 2);
  c.feed_txn(13, 3);
  EXPECT_EQ(c.reorderer.flush_epoch(), 0u);  // epoch boundary crosses the hold
  EXPECT_EQ(c.reorderer.staged_commits(), 2u);
  c.feed_txn(14, 4);
  EXPECT_EQ(c.reorderer.flush_epoch(), 0u);  // still holding
  // Snapshot boundary 1 installs: the staged run above it releases as one
  // epoch.
  c.reorderer.set_expected_next(2);
  EXPECT_EQ(c.reorderer.flush_epoch(), 3u);
  ASSERT_EQ(c.epochs.size(), 2u);
  EXPECT_EQ(c.epochs[1], (std::vector<ValidationTs>{2, 3, 4}));
}

TEST(ReordererEpochs, SetExpectedNextDiscardsUnflushedEpoch) {
  // Releases parked in the epoch buffer when a snapshot install moves the
  // floor are covered by that snapshot: applying them afterwards would
  // clobber newer state, so the buffer must drain empty.
  BatchCollector c;
  c.feed_txn(11, 1);
  c.feed_txn(12, 2);
  EXPECT_EQ(c.reorderer.epoch_pending(), 2u);
  c.reorderer.set_expected_next(10);  // snapshot boundary 9 supersedes them
  EXPECT_EQ(c.reorderer.epoch_pending(), 0u);
  EXPECT_EQ(c.reorderer.flush_epoch(), 0u);
  EXPECT_TRUE(c.epochs.empty());
}

TEST(ReordererEpochs, ForceReleaseStagedLandsInEpochBuffer) {
  BatchCollector c;
  c.feed_txn(11, 1);
  EXPECT_EQ(c.reorderer.flush_epoch(), 1u);  // partially applied epoch
  c.feed_txn(13, 3);
  c.feed_txn(15, 5);
  EXPECT_EQ(c.reorderer.flush_epoch(), 0u);  // both staged behind gaps
  // Takeover: everything that can apply, applies — across the gaps, into
  // the buffer, drained by the follow-up flush.
  EXPECT_EQ(c.reorderer.force_release_staged(), 2u);
  EXPECT_EQ(c.reorderer.flush_epoch(), 2u);
  ASSERT_EQ(c.epochs.size(), 2u);
  EXPECT_EQ(c.epochs[1], (std::vector<ValidationTs>{3, 5}));
  EXPECT_EQ(c.reorderer.expected_next(), 6u);
}

TEST(ReordererEpochs, CorruptTxnQuarantinedMidBatch) {
  // A write-count mismatch must not poison the surrounding batch: the
  // victim's open state is consumed, its seq stays un-staged, and a later
  // intact re-delivery stages normally.
  BatchCollector c;
  c.feed_txn(11, 1);
  ASSERT_TRUE(c.reorderer.add(Record::write_image(12, 100, val("x"))));
  auto s = c.reorderer.add(Record::commit(12, 2, 2000, 3));  // claims 3 writes
  EXPECT_EQ(s.code(), ErrorCode::kCorruption);
  EXPECT_EQ(c.reorderer.open_txns(), 0u);  // quarantine left nothing behind
  c.feed_txn(13, 3);  // rest of the batch still stages
  EXPECT_EQ(c.reorderer.flush_epoch(), 1u);
  EXPECT_EQ(c.epochs[0], (std::vector<ValidationTs>{1}));
  // The primary's resend re-delivers seq 2 intact; 3 cascades behind it.
  c.feed_txn(12, 2);
  EXPECT_EQ(c.reorderer.flush_epoch(), 2u);
  EXPECT_EQ(c.epochs[1], (std::vector<ValidationTs>{2, 3}));
}

TEST(ReordererEpochs, ValidReleaseSetRejectsEmptyAndCommitless) {
  // The applier stamps writes with the commit record's serial_ts; an empty
  // or commit-less set would fabricate wts=0. The predicate is the gate
  // both release paths use.
  EXPECT_FALSE(Reorderer::valid_release_set({}));
  std::vector<Record> no_commit;
  no_commit.push_back(Record::write_image(1, 10, val("w")));
  EXPECT_FALSE(Reorderer::valid_release_set(no_commit));
  std::vector<Record> ok;
  ok.push_back(Record::write_image(1, 10, val("w")));
  ok.push_back(Record::commit(1, 1, 1000, 1));
  EXPECT_TRUE(Reorderer::valid_release_set(ok));
  // Commit-only (write_count 0) is structurally valid.
  std::vector<Record> commit_only;
  commit_only.push_back(Record::commit(2, 2, 2000, 0));
  EXPECT_TRUE(Reorderer::valid_release_set(commit_only));
  // Nothing the add() path produces ever trips the gate.
  BatchCollector c;
  c.feed_txn(11, 1);
  c.reorderer.flush_epoch();
  EXPECT_EQ(c.reorderer.rejected_release_sets(), 0u);
}

TEST(ReordererEpochs, PropertyPermutationsMatchPerTxnMode) {
  // Where the epochs cut must not change what is released: feeding the same
  // permuted stream with a flush after every transaction and with flushes
  // at random chunk boundaries yields the same dense seq order and the same
  // record sets, only chunked differently.
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    Rng rng(seed);
    const std::size_t n = 120;
    std::vector<ValidationTs> order(n);
    for (std::size_t i = 0; i < n; ++i) order[i] = i + 1;
    shuffle(order, rng);

    std::vector<ReleasedTxn> per_txn;
    std::vector<ReleasedTxn> chunked;
    std::size_t chunked_epochs = 0;
    Reorderer a([&](std::vector<ReleasedTxn> epoch) {
      for (ReleasedTxn& t : epoch) per_txn.push_back(std::move(t));
    });
    Reorderer b([&](std::vector<ReleasedTxn> epoch) {
      ++chunked_epochs;
      for (ReleasedTxn& t : epoch) chunked.push_back(std::move(t));
    });
    for (ValidationTs seq : order) {
      const std::uint32_t writes = 1 + seq % 3;
      const TxnId txn = seq + 1000;
      const std::string value = "v" + std::to_string(seq);
      for (Reorderer* r : {&a, &b}) {
        for (std::uint32_t w = 0; w < writes; ++w) {
          ASSERT_TRUE(r->add(Record::write_image(txn, 100 + w, val(value))));
        }
        ASSERT_TRUE(r->add(Record::commit(txn, seq, seq * 1000, writes)));
      }
      // `a` flushes once per transaction, `b` at random chunk boundaries.
      a.flush_epoch();
      if (rng.next_below(4) == 0) b.flush_epoch();
    }
    b.flush_epoch();
    ASSERT_EQ(per_txn.size(), n) << seed;
    ASSERT_EQ(chunked.size(), n) << seed;
    EXPECT_LT(chunked_epochs, n) << seed;  // the chunks really batched
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(per_txn[i].seq, i + 1) << seed;
      ASSERT_EQ(chunked[i].seq, per_txn[i].seq) << seed;
      ASSERT_EQ(chunked[i].txn, per_txn[i].txn) << seed;
      ASSERT_EQ(chunked[i].records.size(), per_txn[i].records.size()) << seed;
      for (std::size_t k = 0; k < per_txn[i].records.size(); ++k) {
        ASSERT_TRUE(chunked[i].records[k] == per_txn[i].records[k])
            << seed << " txn " << i << " record " << k;
      }
    }
    for (const Reorderer* r : {&a, &b}) {
      EXPECT_EQ(r->staged_commits(), 0u);
      EXPECT_EQ(r->epoch_pending(), 0u);
    }
  }
}

TEST(Reorderer, ReceivedCommitFloorTracksContiguousPrefix) {
  Collector c;
  EXPECT_EQ(c.reorderer.received_commit_floor(), 0u);  // nothing received
  c.feed_txn(11, 1);
  EXPECT_EQ(c.reorderer.received_commit_floor(), 1u);
  // Seq 3 and 4 stage behind the missing 2: the floor must not advance past
  // the gap, or the primary would release a transaction the mirror lost.
  c.feed_txn(13, 3);
  c.feed_txn(14, 4);
  EXPECT_EQ(c.reorderer.received_commit_floor(), 1u);
  c.feed_txn(12, 2);
  EXPECT_EQ(c.reorderer.received_commit_floor(), 4u);
}

}  // namespace
}  // namespace rodain::log
