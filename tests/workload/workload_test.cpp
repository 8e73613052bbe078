#include <gtest/gtest.h>

#include <filesystem>
#include <set>
#include <unistd.h>

#include "rodain/exp/session.hpp"
#include "rodain/workload/calibration.hpp"
#include "rodain/workload/trace.hpp"

namespace rodain::workload {
namespace {

using namespace rodain::literals;

TEST(NumberTranslation, LoadDatabasePopulatesStoreAndIndex) {
  DatabaseConfig config;
  config.num_objects = 500;
  storage::ObjectStore store(500);
  storage::BPlusTree index;
  load_database(config, store, index);
  EXPECT_EQ(store.size(), 500u);
  EXPECT_EQ(index.size(), 500u);
  // Every number resolves to its subscriber.
  for (std::size_t i = 0; i < 500; i += 97) {
    auto oid = index.find(number_for(i));
    ASSERT_TRUE(oid.has_value()) << i;
    EXPECT_EQ(*oid, oid_for(i));
    const auto* rec = store.find(*oid);
    ASSERT_NE(rec, nullptr);
    EXPECT_EQ(rec->value.read_u64(kCounterOffset), 0u);
    EXPECT_LT(rec->value.read_u64(kRoutingOffset), 500u);
  }
}

TEST(NumberTranslation, LoadIsDeterministic) {
  DatabaseConfig config;
  config.num_objects = 100;
  storage::ObjectStore a(100), b(100);
  storage::BPlusTree ia, ib;
  load_database(config, a, ia);
  load_database(config, b, ib);
  a.for_each([&](ObjectId id, const storage::ObjectRecord& rec) {
    ASSERT_NE(b.find(id), nullptr);
    EXPECT_EQ(b.find(id)->value, rec.value);
  });
}

TEST(NumberTranslation, NumbersAreDistinctAndOrdered) {
  EXPECT_LT(number_for(1), number_for(2));
  EXPECT_LT(number_for(99), number_for(100));
  EXPECT_FALSE(number_for(7) == number_for(8));
}

TEST(TxnGenerator, RespectsWriteFraction) {
  DatabaseConfig db;
  db.num_objects = 1000;
  WorkloadConfig w = PaperSetup::workload(0.3);
  TxnGenerator generator(db, w, Rng(5));
  int writes = 0;
  const int n = 5000;
  for (int i = 0; i < n; ++i) {
    writes += (generator.next().num_updates() > 0);
  }
  EXPECT_NEAR(static_cast<double>(writes) / n, 0.3, 0.03);
}

TEST(TxnGenerator, ShapesMatchThePaper) {
  DatabaseConfig db;
  db.num_objects = 1000;
  WorkloadConfig w = PaperSetup::workload(1.0);
  TxnGenerator generator(db, w, Rng(6));
  for (int i = 0; i < 100; ++i) {
    txn::TxnProgram p = generator.next();
    EXPECT_EQ(p.num_reads(), 4u);     // reads a few objects
    EXPECT_EQ(p.num_updates(), 2u);   // updates some of them
    EXPECT_EQ(p.relative_deadline, 150_ms);
    EXPECT_EQ(p.criticality, Criticality::kFirm);
  }
  WorkloadConfig r = PaperSetup::workload(0.0);
  TxnGenerator read_generator(db, r, Rng(7));
  EXPECT_EQ(read_generator.next().relative_deadline, 50_ms);
}

TEST(TxnGenerator, DistinctSubscribersWithinTxn) {
  DatabaseConfig db;
  db.num_objects = 8;  // tiny: collisions would be frequent if allowed
  WorkloadConfig w = PaperSetup::workload(0.0);
  w.use_index = false;
  TxnGenerator generator(db, w, Rng(8));
  for (int i = 0; i < 200; ++i) {
    txn::TxnProgram p = generator.next();
    std::set<ObjectId> seen;
    for (const txn::Op& op : p.ops) {
      if (const auto* read = std::get_if<txn::ReadOp>(&op)) {
        EXPECT_TRUE(seen.insert(read->oid).second) << "duplicate in txn " << i;
      }
    }
  }
}

TEST(TxnGenerator, NonRtFractionProducesNonRtTxns) {
  DatabaseConfig db;
  db.num_objects = 100;
  WorkloadConfig w = PaperSetup::workload(0.5);
  w.nonrt_fraction = 0.2;
  TxnGenerator generator(db, w, Rng(9));
  int nonrt = 0;
  for (int i = 0; i < 2000; ++i) {
    nonrt += (generator.next().criticality == Criticality::kNonRealTime);
  }
  EXPECT_NEAR(nonrt / 2000.0, 0.2, 0.03);
}

TEST(Trace, PoissonArrivalRateApproximatelyCorrect) {
  DatabaseConfig db;
  db.num_objects = 1000;
  Trace trace = Trace::generate(db, PaperSetup::workload(0.5), 200.0, 4000, 11);
  EXPECT_EQ(trace.size(), 4000u);
  const double rate = 4000.0 / trace.duration().to_seconds();
  EXPECT_NEAR(rate, 200.0, 10.0);
  // Offsets are non-decreasing.
  for (std::size_t i = 1; i < trace.entries().size(); ++i) {
    EXPECT_LE(trace.entries()[i - 1].offset, trace.entries()[i].offset);
  }
}

TEST(Trace, GenerationIsDeterministicInSeed) {
  DatabaseConfig db;
  db.num_objects = 100;
  Trace a = Trace::generate(db, PaperSetup::workload(0.5), 100.0, 100, 42);
  Trace b = Trace::generate(db, PaperSetup::workload(0.5), 100.0, 100, 42);
  Trace c = Trace::generate(db, PaperSetup::workload(0.5), 100.0, 100, 43);
  ByteWriter wa, wb, wc;
  a.encode(wa);
  b.encode(wb);
  c.encode(wc);
  EXPECT_TRUE(std::equal(wa.view().begin(), wa.view().end(), wb.view().begin(),
                         wb.view().end()));
  EXPECT_FALSE(std::equal(wa.view().begin(), wa.view().end(), wc.view().begin(),
                          wc.view().end()));
}

TEST(Trace, FileRoundTrip) {
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("rodain_trace_test_" + std::to_string(::getpid()) + ".bin"))
          .string();
  DatabaseConfig db;
  db.num_objects = 200;
  Trace original = Trace::generate(db, PaperSetup::workload(0.7), 150.0, 300, 3);
  ASSERT_TRUE(original.save(path));

  auto loaded = Trace::load(path);
  ASSERT_TRUE(loaded.is_ok()) << loaded.status().to_string();
  ASSERT_EQ(loaded.value().size(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    const TraceEntry& a = original.entries()[i];
    const TraceEntry& b = loaded.value().entries()[i];
    EXPECT_EQ(a.offset, b.offset) << i;
    EXPECT_EQ(a.program.ops.size(), b.program.ops.size()) << i;
    EXPECT_EQ(a.program.relative_deadline, b.program.relative_deadline) << i;
  }
  std::filesystem::remove(path);
}

TEST(Trace, CorruptFileRejected) {
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("rodain_trace_bad_" + std::to_string(::getpid()) + ".bin"))
          .string();
  DatabaseConfig db;
  db.num_objects = 100;
  Trace t = Trace::generate(db, PaperSetup::workload(0.5), 100.0, 50, 1);
  ASSERT_TRUE(t.save(path));
  {
    std::FILE* f = std::fopen(path.c_str(), "r+b");
    std::fseek(f, 100, SEEK_SET);
    std::fputc(0x7f, f);
    std::fclose(f);
  }
  auto loaded = Trace::load(path);
  ASSERT_FALSE(loaded.is_ok());
  EXPECT_EQ(loaded.status().code(), ErrorCode::kCorruption);
  std::filesystem::remove(path);
}

TEST(Session, DeterministicInSeed) {
  exp::SessionConfig config;
  config.cluster = PaperSetup::two_node(true);
  config.database = PaperSetup::database();
  config.database.num_objects = 1000;
  config.cluster.node.store_capacity_hint = 1000;
  config.workload = PaperSetup::workload(0.5);
  config.arrival_rate_tps = 250;
  config.txn_count = 800;
  config.seed = 77;
  auto a = exp::run_session(config);
  auto b = exp::run_session(config);
  EXPECT_EQ(a.counters.committed, b.counters.committed);
  EXPECT_EQ(a.counters.missed_deadline, b.counters.missed_deadline);
  EXPECT_EQ(a.counters.overload_rejected, b.counters.overload_rejected);
  EXPECT_EQ(a.virtual_time, b.virtual_time);

  config.seed = 78;
  auto c = exp::run_session(config);
  // Different seed, (almost surely) different trajectory.
  EXPECT_NE(a.counters.committed + a.counters.missed_deadline * 1000,
            c.counters.committed + c.counters.missed_deadline * 1000);
}

}  // namespace
}  // namespace rodain::workload
