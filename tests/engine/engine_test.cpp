// Unit tests of the engine state machine, driven directly (no simulator):
// deferred writes, read-your-own-write, log emission, restart budgets,
// abort rules and the installed low-water mark.
#include "rodain/engine/engine.hpp"

#include <gtest/gtest.h>

#include "rodain/workload/number_translation.hpp"

namespace rodain::engine {
namespace {

using namespace rodain::literals;

storage::Value val(std::string_view s) { return storage::Value{s}; }

struct Harness {
  storage::ObjectStore store{64};
  storage::BPlusTree index;
  log::MemoryLogStorage disk;
  log::LogWriter writer{LogMode::kDirectDisk, &disk, nullptr};
  std::vector<TxnId> durable;
  std::vector<TxnId> victims;
  std::unique_ptr<Engine> engine;
  std::vector<std::unique_ptr<txn::Transaction>> txns;
  std::uint64_t next_id{1};

  explicit Harness(EngineConfig config = {}) {
    Engine::Hooks hooks;
    hooks.on_log_durable = [this](TxnId id) { durable.push_back(id); };
    hooks.on_victim_restart = [this](TxnId id) { victims.push_back(id); };
    engine = std::make_unique<Engine>(config, store, &index, writer,
                                      std::move(hooks));
  }

  txn::Transaction& begin(txn::TxnProgram program) {
    const TxnId id = next_id++;
    txns.push_back(std::make_unique<txn::Transaction>(
        id, id, std::move(program), TimePoint{0}, TimePoint::max()));
    engine->begin(*txns.back());
    return *txns.back();
  }

  /// Drive a transaction to a terminal action, returning it.
  StepAction run(txn::Transaction& t) {
    while (true) {
      const StepResult r = engine->step(t);
      switch (r.action) {
        case StepAction::kContinue:
        case StepAction::kRestarted:
        case StepAction::kWaitLogAck:  // memory log acks inline
          continue;
        default:
          return r.action;
      }
    }
  }
};

TEST(Engine, CommitInstallsDeferredWrites) {
  Harness h;
  h.store.upsert(1, val("old"), 0);

  txn::TxnProgram p;
  p.set_value(1, val("new"));
  txn::Transaction& t = h.begin(p);

  // The store is untouched until validation+write.
  EXPECT_EQ(h.engine->step(t).action, StepAction::kContinue);
  EXPECT_EQ(h.store.find(1)->value, val("old"));

  EXPECT_EQ(h.engine->step(t).action, StepAction::kWaitLogAck);
  EXPECT_EQ(h.store.find(1)->value, val("new"));
  ASSERT_EQ(h.durable.size(), 1u);

  EXPECT_EQ(h.engine->step(t).action, StepAction::kCommitted);
  EXPECT_EQ(t.outcome(), TxnOutcome::kCommitted);
}

TEST(Engine, RedoStreamHasAfterImagesThenCommit) {
  Harness h;
  h.store.upsert(1, val("a"), 0);
  h.store.upsert(2, val("b"), 0);
  txn::TxnProgram p;
  p.set_value(1, val("a2"));
  p.set_value(2, val("b2"));
  txn::Transaction& t = h.begin(p);
  ASSERT_EQ(h.run(t), StepAction::kCommitted);

  const auto& records = h.disk.records();
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0].type, log::RecordType::kWriteImage);
  EXPECT_EQ(records[0].after, val("a2"));
  EXPECT_EQ(records[1].type, log::RecordType::kWriteImage);
  EXPECT_TRUE(records[2].is_commit());
  EXPECT_EQ(records[2].write_count, 2u);
  EXPECT_EQ(records[2].seq, t.validation_seq());
}

TEST(Engine, ReadOnlyTxnStillEmitsCommitRecord) {
  // Paper §4: "the system generates a commit log record also for read-only
  // transactions".
  Harness h;
  h.store.upsert(1, val("x"), 0);
  txn::TxnProgram p;
  p.read(1);
  ASSERT_EQ(h.run(h.begin(p)), StepAction::kCommitted);
  ASSERT_EQ(h.disk.records().size(), 1u);
  EXPECT_TRUE(h.disk.records()[0].is_commit());
  EXPECT_EQ(h.disk.records()[0].write_count, 0u);
}

TEST(Engine, NoLogModeEmitsNothing) {
  EngineConfig config;
  Harness h(config);
  h.writer.set_mode(LogMode::kOff);
  h.store.upsert(1, val("x"), 0);
  txn::TxnProgram p;
  p.set_value(1, val("y"));
  ASSERT_EQ(h.run(h.begin(p)), StepAction::kCommitted);
  EXPECT_TRUE(h.disk.records().empty());
  EXPECT_EQ(h.store.find(1)->value, val("y"));
}

TEST(Engine, ReadYourOwnWrite) {
  EngineConfig config;
  config.capture_reads = true;
  Harness h(config);
  h.store.upsert(1, val("committed"), 0);
  txn::TxnProgram p;
  p.set_value(1, val("private"));
  p.read(1);
  txn::Transaction& t = h.begin(p);
  ASSERT_EQ(h.run(t), StepAction::kCommitted);
  ASSERT_EQ(t.captured_reads.size(), 1u);
  EXPECT_EQ(t.captured_reads[0], val("private"));
  // Reading a private copy adds no read-set entry (no conflict exists).
  EXPECT_TRUE(t.read_set().empty());
}

TEST(Engine, ReadKeyThroughIndex) {
  EngineConfig config;
  config.capture_reads = true;
  Harness h(config);
  h.store.upsert(42, val("subscriber"), 0);
  h.index.insert(storage::IndexKey::from_string("0800777"), 42);
  txn::TxnProgram p;
  p.read_key(storage::IndexKey::from_string("0800777"));
  txn::Transaction& t = h.begin(p);
  ASSERT_EQ(h.run(t), StepAction::kCommitted);
  ASSERT_EQ(t.captured_reads.size(), 1u);
  EXPECT_EQ(t.captured_reads[0], val("subscriber"));
  ASSERT_EQ(t.read_set().size(), 1u);
  EXPECT_EQ(t.read_set()[0].oid, 42u);
}

TEST(Engine, ReadKeyMissIsHarmless) {
  Harness h;
  txn::TxnProgram p;
  p.read_key(storage::IndexKey::from_string("no-such-number"));
  txn::Transaction& t = h.begin(p);
  ASSERT_EQ(h.run(t), StepAction::kCommitted);
  EXPECT_TRUE(t.read_set().empty());
}

TEST(Engine, AddToFieldReadModifyWrite) {
  Harness h;
  storage::Value counter{std::string_view{"\0\0\0\0\0\0\0\0", 8}};
  counter.write_u64(0, 40);
  h.store.upsert(1, counter, 0);
  txn::TxnProgram p;
  p.add_to_field(1, 0, 2);
  txn::Transaction& t = h.begin(p);
  ASSERT_EQ(h.run(t), StepAction::kCommitted);
  EXPECT_EQ(h.store.find(1)->value.read_u64(0), 42u);
  // Read-modify-write tracks the read for conflict detection.
  EXPECT_TRUE(t.in_read_set(1));
}

TEST(Engine, AddToFieldCreatesMissingObject) {
  Harness h;
  txn::TxnProgram p;
  p.add_to_field(7, 0, 5);
  ASSERT_EQ(h.run(h.begin(p)), StepAction::kCommitted);
  ASSERT_NE(h.store.find(7), nullptr);
  EXPECT_EQ(h.store.find(7)->value.read_u64(0), 5u);
}

TEST(Engine, ValidationSeqsAreDense) {
  Harness h;
  for (int i = 0; i < 5; ++i) {
    txn::TxnProgram p;
    p.set_value(static_cast<ObjectId>(i + 1), val("v"));
    txn::Transaction& t = h.begin(p);
    ASSERT_EQ(h.run(t), StepAction::kCommitted);
    EXPECT_EQ(t.validation_seq(), static_cast<ValidationTs>(i + 1));
  }
  EXPECT_EQ(h.engine->last_validation_seq(), 5u);
  EXPECT_EQ(h.engine->installed_low_water(), 5u);
}

TEST(Engine, MaxRestartsBudgetTerminatesConflicts) {
  EngineConfig config;
  config.max_restarts = 2;
  Harness h(config);
  h.store.upsert(1, val("x"), 0);

  // Interleave: reader starts, writer commits between the reader's two
  // reads of the same object -> re-read mismatch -> restart. Repeat until
  // the budget is gone.
  txn::TxnProgram reader_program;
  reader_program.read(1);
  reader_program.read(1);
  txn::Transaction& reader = h.begin(reader_program);

  int terminal_restarts = 0;
  for (int round = 0; round < 10; ++round) {
    StepResult r = h.engine->step(reader);  // first read
    if (r.action == StepAction::kAborted) break;
    ASSERT_EQ(r.action, StepAction::kContinue);

    txn::TxnProgram writer_program;
    writer_program.set_value(1, val("v" + std::to_string(round)));
    txn::Transaction& writer = h.begin(writer_program);
    ASSERT_EQ(h.run(writer), StepAction::kCommitted);

    r = h.engine->step(reader);  // second read observes a newer version
    if (r.action == StepAction::kAborted) {
      EXPECT_EQ(reader.outcome(), TxnOutcome::kConflictAborted);
      terminal_restarts = reader.restarts();
      break;
    }
    ASSERT_EQ(r.action, StepAction::kRestarted);
  }
  EXPECT_EQ(terminal_restarts, 2);
}

TEST(Engine, AbortDiscardsWithoutSideEffects) {
  Harness h;
  h.store.upsert(1, val("keep"), 0);
  txn::TxnProgram p;
  p.set_value(1, val("discard"));
  p.read(1);
  txn::Transaction& t = h.begin(p);
  ASSERT_EQ(h.engine->step(t).action, StepAction::kContinue);  // private write
  ASSERT_TRUE(h.engine->can_abort(t));
  h.engine->abort(t, TxnOutcome::kMissedDeadline);
  EXPECT_EQ(t.phase(), txn::Phase::kAborted);
  EXPECT_EQ(t.outcome(), TxnOutcome::kMissedDeadline);
  // Deferred write discarded, nothing logged, no engine residue.
  EXPECT_EQ(h.store.find(1)->value, val("keep"));
  EXPECT_TRUE(h.disk.records().empty());
  EXPECT_EQ(h.engine->find(t.id()), nullptr);
}

TEST(Engine, CannotAbortAfterValidation) {
  Harness h;
  // A writer whose log ack is withheld: park it in kWaitLogAck.
  log::MemoryLogStorage unused;
  struct NullShipper : log::Shipper {
    void ship(std::span<const log::TxnRecords>) override {}
  } shipper;
  h.writer.set_shipper(&shipper);
  h.writer.set_mode(LogMode::kMirror);  // acks never arrive

  txn::TxnProgram p;
  p.set_value(1, val("w"));
  txn::Transaction& t = h.begin(p);
  ASSERT_EQ(h.engine->step(t).action, StepAction::kContinue);
  ASSERT_EQ(h.engine->step(t).action, StepAction::kWaitLogAck);
  EXPECT_EQ(t.phase(), txn::Phase::kWaitLogAck);
  EXPECT_FALSE(h.engine->can_abort(t));
}

TEST(Engine, InstalledLowWaterTracksGaps) {
  Harness h;
  EXPECT_EQ(h.engine->installed_low_water(), 0u);
  h.engine->set_next_validation_seq(10);
  EXPECT_EQ(h.engine->installed_low_water(), 9u);
  txn::TxnProgram p;
  p.set_value(1, val("v"));
  ASSERT_EQ(h.run(h.begin(p)), StepAction::kCommitted);
  EXPECT_EQ(h.engine->installed_low_water(), 10u);
}

TEST(Engine, CostsChargedPerStep) {
  EngineConfig config;
  config.costs.txn_fixed = 100_us;
  config.costs.per_read = 10_us;
  config.costs.per_update = 20_us;
  config.costs.validate = 5_us;
  config.costs.per_install = 3_us;
  config.costs.per_log_marshal = 2_us;
  config.costs.commit_finalize = 7_us;
  Harness h(config);
  h.store.upsert(1, val("x"), 0);

  txn::TxnProgram p;
  p.read(1);
  p.set_value(1, val("y"));
  txn::Transaction& t = h.begin(p);

  StepResult r = h.engine->step(t);  // first read: fixed + read
  EXPECT_EQ(r.cost, 110_us);
  r = h.engine->step(t);  // update
  EXPECT_EQ(r.cost, 20_us);
  r = h.engine->step(t);  // validate + install 1 + marshal 2 records
  EXPECT_EQ(r.action, StepAction::kWaitLogAck);
  EXPECT_EQ(r.cost, 5_us + 3_us + 2_us * 2);
  r = h.engine->step(t);  // finalize
  EXPECT_EQ(r.action, StepAction::kCommitted);
  EXPECT_EQ(r.cost, 7_us);
}

}  // namespace
}  // namespace rodain::engine
