// Microbenchmarks: redo-record codec, CRC, reordering, recovery replay.
#include <benchmark/benchmark.h>

#include "rodain/common/rng.hpp"
#include "rodain/log/record.hpp"
#include "rodain/log/recovery.hpp"
#include "rodain/cc/controller.hpp"
#include "rodain/log/reorder.hpp"

using namespace rodain;

namespace {

log::Record sample_write(TxnId txn = 7) {
  storage::Value v{std::string_view{"routing-update-payload-0123456789abcdef", 40}};
  return log::Record::write_image(txn, 12345, v);
}

void BM_RecordEncode(benchmark::State& state) {
  const log::Record r = sample_write();
  for (auto _ : state) {
    ByteWriter w(128);
    log::encode_record(r, w);
    benchmark::DoNotOptimize(w.size());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RecordEncode);

void BM_RecordDecode(benchmark::State& state) {
  ByteWriter w;
  log::encode_record(sample_write(), w);
  for (auto _ : state) {
    ByteReader reader(w.view());
    log::Record out;
    auto d = log::decode_record(reader, out);
    benchmark::DoNotOptimize(d.status.is_ok());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RecordDecode);

void BM_Crc32c(benchmark::State& state) {
  std::vector<std::byte> data(static_cast<std::size_t>(state.range(0)));
  for (std::size_t i = 0; i < data.size(); ++i) data[i] = static_cast<std::byte>(i);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crc32c(data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Crc32c)->Arg(64)->Arg(4096);

void BM_ReordererInOrder(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    std::vector<log::Record> stream;
    for (ValidationTs seq = 1; seq <= 1000; ++seq) {
      stream.push_back(sample_write(seq));
      stream.push_back(log::Record::commit(seq, seq, seq * cc::kTsSpacing, 1));
    }
    std::size_t released = 0;
    log::Reorderer reorderer([&](std::vector<log::ReleasedTxn> epoch) {
      released += epoch.size();
    });
    state.ResumeTiming();
    for (auto& r : stream) (void)reorderer.add(std::move(r));
    reorderer.flush_epoch();  // the whole stream is one wire batch
    benchmark::DoNotOptimize(released);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_ReordererInOrder);

void BM_ReordererShuffled(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    // Batches arrive with bounded skew 16.
    std::vector<std::vector<log::Record>> batches;
    for (ValidationTs seq = 1; seq <= 1000; ++seq) {
      std::vector<log::Record> b;
      b.push_back(sample_write(seq));
      b.push_back(log::Record::commit(seq, seq, seq * cc::kTsSpacing, 1));
      batches.push_back(std::move(b));
    }
    Rng rng(state.iterations());
    for (std::size_t i = 0; i + 1 < batches.size(); ++i) {
      std::size_t j = i + rng.next_below(std::min<std::size_t>(17, batches.size() - i));
      std::swap(batches[i], batches[j]);
    }
    std::size_t released = 0;
    log::Reorderer reorderer([&](std::vector<log::ReleasedTxn> epoch) {
      released += epoch.size();
    });
    state.ResumeTiming();
    for (auto& b : batches) {
      for (auto& r : b) (void)reorderer.add(std::move(r));
      reorderer.flush_epoch();  // one wire batch per transaction
    }
    benchmark::DoNotOptimize(released);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_ReordererShuffled);

void BM_RecoveryReplay(benchmark::State& state) {
  const auto txns = static_cast<ValidationTs>(state.range(0));
  std::vector<log::Record> records;
  Rng rng(11);
  for (ValidationTs seq = 1; seq <= txns; ++seq) {
    const ObjectId oid = rng.next_below(10000);
    records.push_back(sample_write(seq));
    records.back().oid = oid;
    records.push_back(log::Record::commit(seq, seq, seq * cc::kTsSpacing, 1));
  }
  for (auto _ : state) {
    storage::ObjectStore store(10000);
    auto stats = log::replay_records(records, store);
    benchmark::DoNotOptimize(stats.is_ok());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_RecoveryReplay)->Arg(1000)->Arg(10000);

}  // namespace
