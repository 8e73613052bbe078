// Direct unit tests of the OCC family's decision logic: forward
// adjustment, backward ordering, broadcast victims, re-read detection and
// the per-protocol policy differences the ablation bench measures.
#include "rodain/cc/occ.hpp"

#include <gtest/gtest.h>

#include "rodain/cc/controller.hpp"

namespace rodain::cc {
namespace {

storage::Value val(std::string_view s) { return storage::Value{s}; }

struct Rig {
  storage::ObjectStore store{16};
  std::unique_ptr<ConcurrencyController> cc;
  std::vector<std::unique_ptr<txn::Transaction>> txns;
  ValidationTs next_seq{1};

  explicit Rig(Protocol protocol) : cc(make_controller(protocol)) {
    store.upsert(1, val("x1"), 0);
    store.upsert(2, val("x2"), 0);
    store.upsert(3, val("x3"), 0);
  }

  txn::Transaction& begin() {
    const TxnId id = txns.size() + 1;
    txns.push_back(std::make_unique<txn::Transaction>(
        id, id, txn::TxnProgram{}, TimePoint{0}, TimePoint::max()));
    cc->on_begin(*txns.back());
    return *txns.back();
  }

  void read(txn::Transaction& t, ObjectId oid) {
    auto r = cc->on_read(t, oid, store.find(oid));
    ASSERT_EQ(r.decision, Access::kGranted);
  }

  void write(txn::Transaction& t, ObjectId oid, std::string_view v) {
    auto r = cc->on_write(t, oid, store.find(oid));
    ASSERT_EQ(r.decision, Access::kGranted);
    t.write_copy(oid, store.find(oid) ? store.find(oid)->value
                                      : storage::Value{}) = val(v);
  }

  ValidationResult validate(txn::Transaction& t) {
    ValidationResult result = cc->validate(t, next_seq, store);
    if (result.ok) {
      t.set_validated(next_seq, result.serial_ts);
      ++next_seq;
      // Publish and install as the engine would (atomically with
      // validation): read floors at validation, write floors by upsert.
      for (const txn::ReadEntry& r : t.read_set()) {
        store.bump_rts(r.oid, t.serial_ts());
      }
      for (const txn::WriteEntry& w : t.write_set()) {
        store.upsert(w.oid, w.after, t.serial_ts());
      }
      cc->on_installed(t);
    }
    return result;
  }
};

TEST(Occ, NonConflictingTxnsAllCommit) {
  for (Protocol protocol : {Protocol::kOccBc, Protocol::kOccDa,
                            Protocol::kOccTi, Protocol::kOccDati}) {
    Rig rig(protocol);
    auto& t1 = rig.begin();
    auto& t2 = rig.begin();
    rig.read(t1, 1);
    rig.write(t2, 2, "w2");
    EXPECT_TRUE(rig.validate(t1).ok) << to_string(protocol);
    EXPECT_TRUE(rig.validate(t2).ok) << to_string(protocol);
    EXPECT_EQ(rig.cc->active_count(), 0u);
  }
}

TEST(Occ, CommittedTimestampsAdvance) {
  Rig rig(Protocol::kOccDati);
  auto& t1 = rig.begin();
  rig.read(t1, 1);
  rig.write(t1, 2, "w");
  ASSERT_TRUE(rig.validate(t1).ok);
  EXPECT_EQ(rig.store.find(1)->rts, t1.serial_ts());
  EXPECT_EQ(rig.store.find(2)->wts, t1.serial_ts());
}

TEST(Occ, BroadcastRestartsActiveReadersOfWriteSet) {
  Rig rig(Protocol::kOccBc);
  auto& reader = rig.begin();
  auto& writer = rig.begin();
  rig.read(reader, 1);
  rig.write(writer, 1, "new");
  ValidationResult r = rig.validate(writer);
  ASSERT_TRUE(r.ok);
  ASSERT_EQ(r.victims.size(), 1u);
  EXPECT_EQ(r.victims[0], reader.id());
}

TEST(Occ, DatiAdjustsReaderBackwardInsteadOfRestarting) {
  Rig rig(Protocol::kOccDati);
  auto& reader = rig.begin();
  auto& writer = rig.begin();
  rig.read(reader, 1);
  rig.write(writer, 1, "new");
  ValidationResult r = rig.validate(writer);
  ASSERT_TRUE(r.ok);
  EXPECT_TRUE(r.victims.empty());  // the reader is ordered before the writer
  EXPECT_LT(reader.interval().hi, writer.serial_ts());

  // The reader then commits serialized before the writer.
  ValidationResult r2 = rig.validate(reader);
  ASSERT_TRUE(r2.ok);
  EXPECT_LT(reader.serial_ts(), writer.serial_ts());
}

TEST(Occ, DaCannotCommitBackwardAndRestartsItself) {
  Rig rig(Protocol::kOccDa);
  auto& reader = rig.begin();
  auto& writer = rig.begin();
  rig.read(reader, 1);
  rig.write(writer, 1, "new");
  ASSERT_TRUE(rig.validate(writer).ok);
  // OCC-DA's validator timestamp is fixed at its slot: the backward-only
  // interval cannot contain it.
  ValidationResult r = rig.validate(reader);
  EXPECT_FALSE(r.ok);
}

TEST(Occ, WriteWriteForcesForwardOrder) {
  for (Protocol protocol :
       {Protocol::kOccDa, Protocol::kOccTi, Protocol::kOccDati}) {
    Rig rig(protocol);
    auto& w1 = rig.begin();
    auto& w2 = rig.begin();
    rig.write(w1, 1, "a");
    rig.write(w2, 1, "b");
    ASSERT_TRUE(rig.validate(w1).ok) << to_string(protocol);
    ValidationResult r = rig.validate(w2);
    ASSERT_TRUE(r.ok) << to_string(protocol);
    EXPECT_GT(w2.serial_ts(), w1.serial_ts()) << to_string(protocol);
    EXPECT_EQ(rig.store.find(1)->value, val("b"));
  }
}

TEST(Occ, ReaderOfOverwrittenAndRereadRestarts) {
  Rig rig(Protocol::kOccDati);
  auto& reader = rig.begin();
  auto& writer = rig.begin();
  rig.read(reader, 1);
  rig.write(writer, 1, "new");
  ASSERT_TRUE(rig.validate(writer).ok);
  // Re-reading the overwritten object: no serialization point can see both
  // versions.
  auto r = rig.cc->on_read(reader, 1, rig.store.find(1));
  EXPECT_EQ(r.decision, Access::kRestartSelf);
}

TEST(Occ, RereadOfUnchangedObjectIsFine) {
  Rig rig(Protocol::kOccDati);
  auto& reader = rig.begin();
  rig.read(reader, 1);
  auto r = rig.cc->on_read(reader, 1, rig.store.find(1));
  EXPECT_EQ(r.decision, Access::kGranted);
  EXPECT_EQ(reader.read_set().size(), 1u);
}

TEST(Occ, SandwichedTransactionRestarts) {
  // T both read something the committer wrote AND wrote something the
  // committer read: it must serialize both before and after -> empty.
  for (Protocol protocol :
       {Protocol::kOccDa, Protocol::kOccTi, Protocol::kOccDati}) {
    Rig rig(protocol);
    auto& t = rig.begin();
    auto& committer = rig.begin();
    rig.read(t, 1);      // committer writes 1 => t before committer
    rig.write(t, 2, "tw");  // committer reads 2 => t after committer
    rig.read(committer, 2);
    rig.write(committer, 1, "cw");
    ValidationResult r = rig.validate(committer);
    ASSERT_TRUE(r.ok) << to_string(protocol);
    ASSERT_EQ(r.victims.size(), 1u) << to_string(protocol);
    EXPECT_EQ(r.victims[0], t.id());
  }
}

TEST(Occ, WriterFloorsAgainstCommittedReaderTimestamps) {
  Rig rig(Protocol::kOccDati);
  // A reader commits with a high serial ts; a later writer of the same
  // object must serialize after it even if its own interval was clamped low.
  auto& reader = rig.begin();
  rig.read(reader, 1);
  ASSERT_TRUE(rig.validate(reader).ok);
  const ValidationTs reader_ts = reader.serial_ts();

  auto& writer = rig.begin();
  rig.write(writer, 1, "after-reader");
  ASSERT_TRUE(rig.validate(writer).ok);
  EXPECT_GT(writer.serial_ts(), reader_ts);
}

TEST(Occ, TiEagerClampingAtAccessTime) {
  Rig rig(Protocol::kOccTi);
  rig.store.find_mutable(1)->wts = 500;
  auto& t = rig.begin();
  rig.read(t, 1);
  // OCC-TI clamps immediately at the read.
  EXPECT_GE(t.interval().lo, 501u);

  Rig rig2(Protocol::kOccDati);
  rig2.store.find_mutable(1)->wts = 500;
  auto& t2 = rig2.begin();
  rig2.read(t2, 1);
  // OCC-DATI defers every clamp to validation.
  EXPECT_EQ(t2.interval().lo, 1u);
}

TEST(Occ, AbortRemovesFromActiveSet) {
  Rig rig(Protocol::kOccDati);
  auto& t = rig.begin();
  rig.read(t, 1);
  EXPECT_EQ(rig.cc->active_count(), 1u);
  rig.cc->on_abort(t);
  EXPECT_EQ(rig.cc->active_count(), 0u);

  // An aborted transaction is no longer adjusted by validators.
  auto& writer = rig.begin();
  rig.write(writer, 1, "w");
  ValidationResult r = rig.validate(writer);
  ASSERT_TRUE(r.ok);
  EXPECT_TRUE(r.victims.empty());
}

TEST(Occ, SerialTimestampsRespectSlotSpacing) {
  Rig rig(Protocol::kOccDati);
  auto& a = rig.begin();
  rig.write(a, 1, "a");
  ASSERT_TRUE(rig.validate(a).ok);
  EXPECT_EQ(a.serial_ts(), 1 * kTsSpacing);
  auto& b = rig.begin();
  rig.read(b, 2);
  ASSERT_TRUE(rig.validate(b).ok);
  EXPECT_EQ(b.serial_ts(), 2 * kTsSpacing);
}

}  // namespace
}  // namespace rodain::cc
