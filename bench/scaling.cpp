// Multicore scaling of the primary (DESIGN.md §11, §13): sweep the worker
// count 1 -> 8 over the paper's number-translation workload and report
// committed throughput, commit latency tails, seqlock retries, reader
// fences and commit-mutex wait per point. The primary runs alone with
// LogMode::kOff, so no replication cost is in these figures. Two mixes per
// sweep: the paper's read-heavy service-provision mix (lock-free read
// phase) and a write-heavy mix that exercises the parallel commit path
// (per-worker redo buffers and the epoch sealer). `speedup_at_4` is the
// read-heavy mix's committed throughput at 4 workers over 1 worker. It
// measures whether extra workers pay; they do not yet: on a 4-core host it
// measured 0.84-0.98x, short of the 2x target in ROADMAP.md (item 4).
//
// A third point covers the other end of the wire (DESIGN.md §14): the
// mirror's serial epoch apply over a write-heavy redo stream. The
// virtual-time half proves the ack-floor lag stays bounded (apply_lag_max);
// the wall-clock half measures the raw serial apply rate.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "rodain/common/stats.hpp"
#include "rodain/exp/args.hpp"
#include "rodain/exp/report.hpp"
#include "rodain/net/sim_link.hpp"
#include "rodain/obs/obs.hpp"
#include "rodain/repl/mirror.hpp"
#include "rodain/repl/primary.hpp"
#include "rodain/rt/node.hpp"
#include "rodain/workload/number_translation.hpp"

using namespace rodain;

namespace {

struct Mix {
  const char* name;          // report-label prefix ("" = legacy read-heavy)
  double write_fraction;
  std::size_t reads_per_txn;
  std::size_t updates_per_txn;
};

struct SweepPoint {
  std::size_t workers{0};
  std::uint64_t committed{0};
  std::uint64_t submitted{0};
  double seconds{0};
  double tps{0};
  LatencyHistogram latency;
  std::uint64_t seqlock_retries{0};
  std::uint64_t rehash_fences{0};
  double lock_wait_ms{0};
  std::uint64_t epoch_seals{0};
  std::uint64_t intent_conflicts{0};
};

double timer_total_ms(const LatencyHistogram& h) {
  return h.mean().to_ms() * static_cast<double>(h.count());
}

SweepPoint run_point(std::size_t workers, const Mix& mix,
                     const exp::BenchArgs& args) {
  workload::DatabaseConfig dbc;
  dbc.num_objects = std::min<std::size_t>(30000, std::max<std::size_t>(
                                                     args.txns * 4, 2000));
  workload::WorkloadConfig wlc;
  wlc.write_fraction = mix.write_fraction;
  wlc.reads_per_txn = mix.reads_per_txn;
  wlc.updates_per_txn = mix.updates_per_txn;
  // Throughput sweep, not a deadline experiment: give every transaction
  // room so the miss path never confounds the scaling signal.
  wlc.read_deadline = Duration::seconds(30);
  wlc.write_deadline = Duration::seconds(30);

  rt::NodeConfig config;
  config.worker_threads = workers;  // explicit: overrides any RODAIN_WORKERS
  config.overload.max_active = 100000;
  config.store_capacity_hint = dbc.num_objects * 2;
  rt::Node node(config, "scaling");
  workload::load_database(dbc, node.store(), node.index());
  node.start_primary(LogMode::kOff);

  obs::Counter& retries = obs::metrics().counter("engine.read_retries");
  obs::Counter& fences = obs::metrics().counter("store.rehash_fences");
  obs::Timer& mu_wait = obs::metrics().timer("node.commit_mu_wait");
  obs::Counter& seals = obs::metrics().counter("node.epoch_seals");
  obs::Counter& conflicts = obs::metrics().counter("engine.intent_conflicts");
  const std::uint64_t retries0 = retries.value();
  const std::uint64_t fences0 = fences.value();
  const double wait0_ms = timer_total_ms(mu_wait.merged());
  const std::uint64_t seals0 = seals.value();
  const std::uint64_t conflicts0 = conflicts.value();

  // Closed loop: 2 clients per worker keep every worker fed without the
  // open-loop overload machinery entering the picture.
  const std::size_t clients = std::max<std::size_t>(workers * 2, 2);
  const std::size_t per_client = std::max<std::size_t>(args.txns / clients, 1);
  std::mutex merge_mu;
  LatencyHistogram latency;
  std::uint64_t committed = 0;

  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      workload::TxnGenerator gen(dbc, wlc, Rng(args.seed + 1000 * c + 1));
      LatencyHistogram local;
      std::uint64_t ok = 0;
      for (std::size_t i = 0; i < per_client; ++i) {
        const rt::CommitInfo info = node.execute(gen.next());
        if (info.outcome == TxnOutcome::kCommitted) {
          ++ok;
          local.add(info.latency);
        }
      }
      std::lock_guard lock(merge_mu);
      latency.merge(local);
      committed += ok;
    });
  }
  for (std::thread& t : threads) t.join();
  const auto t1 = std::chrono::steady_clock::now();

  SweepPoint point;
  point.workers = workers;
  point.committed = committed;
  point.submitted = node.counters().submitted;
  point.seconds = std::chrono::duration<double>(t1 - t0).count();
  point.tps = point.seconds > 0
                  ? static_cast<double>(committed) / point.seconds
                  : 0.0;
  point.latency = latency;
  point.seqlock_retries = retries.value() - retries0;
  point.rehash_fences = fences.value() - fences0;
  point.lock_wait_ms = timer_total_ms(mu_wait.merged()) - wait0_ms;
  point.epoch_seals = seals.value() - seals0;
  point.intent_conflicts = conflicts.value() - conflicts0;
  node.stop();
  return point;
}

void report_point(exp::BenchReport& rep, const Mix& mix, const SweepPoint& p,
                  double speedup) {
  char label[48];
  if (mix.name[0] == '\0') {
    std::snprintf(label, sizeof(label), "workers=%zu", p.workers);
  } else {
    std::snprintf(label, sizeof(label), "%s workers=%zu", mix.name, p.workers);
  }
  rep.begin_result(label);
  rep.field("workers", static_cast<std::int64_t>(p.workers));
  rep.field("committed", static_cast<std::int64_t>(p.committed));
  rep.field("submitted", static_cast<std::int64_t>(p.submitted));
  rep.field("txns_per_sec", p.tps);
  rep.field("p99_commit_ms", p.latency.quantile(0.99).to_ms());
  rep.field("p50_commit_ms", p.latency.quantile(0.5).to_ms());
  rep.field("seqlock_retries", static_cast<std::int64_t>(p.seqlock_retries));
  rep.field("rehash_fences", static_cast<std::int64_t>(p.rehash_fences));
  rep.field("lock_wait_ms", p.lock_wait_ms);
  rep.field("epoch_seals", static_cast<std::int64_t>(p.epoch_seals));
  rep.field("intent_conflicts",
            static_cast<std::int64_t>(p.intent_conflicts));
  rep.field("speedup_vs_1", speedup);
}

// ---- Mirror-side epoch apply (DESIGN.md §14) -----------------------------

struct MirrorApplyPoint {
  std::uint64_t txns{0};
  /// Max (highest submitted seq - mirror applied floor) over periodic
  /// virtual-time samples: how far the mirror trailed the primary.
  std::uint64_t apply_lag_max{0};
  std::uint64_t apply_lag_final{0};
  std::uint64_t corrupt_txns{0};
  /// Wall-clock serial apply rate over the same released stream.
  double apply_txns_per_sec{0};
};

/// The write-heavy redo stream both halves of the point replay: 4 writes
/// per transaction over a small oid pool.
std::vector<log::ReleasedTxn> make_apply_stream(std::size_t n,
                                                std::uint64_t seed) {
  const ObjectId pool = std::max<std::size_t>(n / 4, 64);
  Rng rng(seed);
  std::vector<log::ReleasedTxn> txns;
  txns.reserve(n);
  for (ValidationTs seq = 1; seq <= n; ++seq) {
    log::ReleasedTxn t;
    t.seq = seq;
    t.txn = seq;
    for (int w = 0; w < 4; ++w) {
      const ObjectId oid = 1 + rng.next_u64() % pool;
      t.records.push_back(log::Record::write_image(
          seq, oid, storage::Value{"v" + std::to_string(seq)}));
    }
    t.records.push_back(log::Record::commit(seq, seq, seq * 10 + 1, 4));
    txns.push_back(std::move(t));
  }
  return txns;
}

MirrorApplyPoint run_mirror_apply(const exp::BenchArgs& args) {
  const std::size_t n = std::max<std::size_t>(args.txns, 64);
  const auto stream = make_apply_stream(n, args.seed);

  // Virtual-time half: primary ships the stream in group-commit batches,
  // the mirror applies epoch-at-a-time; sample the ack-floor lag.
  sim::Simulation sim;
  net::SimLink link{sim, {}};
  storage::ObjectStore pstore{4096};
  storage::ObjectStore mstore{4096};
  log::MemoryLogStorage pdisk;
  log::MemoryLogStorage mdisk;
  log::LogWriter writer{LogMode::kOff, &pdisk, nullptr};
  repl::PrimaryReplicator::Hooks hooks;
  repl::PrimaryReplicator primary(link.end_a(), sim, pstore, writer, hooks);
  writer.set_shipper(&primary);
  repl::MirrorService::Options options;
  options.store_to_disk = true;
  repl::MirrorService mirror(mstore, &mdisk, link.end_b(), sim, options);
  mirror.attach_synced(1);
  writer.set_mode(LogMode::kMirror);
  log::LogWriter::BatchOptions batch;
  batch.max_txns = 8;
  batch.max_delay = Duration::micros(200);
  writer.configure_batching(&sim, batch, [&](Duration d) {
    sim.schedule_after(d, [&] { writer.flush_batch(); });
  });

  ValidationTs last_submitted = 0;
  std::uint64_t lag_max = 0;
  constexpr std::int64_t kArrivalUs = 20;  // 50k txn/s offered
  for (std::size_t i = 0; i < stream.size(); ++i) {
    const log::ReleasedTxn& t = stream[i];
    sim.schedule_at(
        TimePoint{static_cast<std::int64_t>(i + 1) * kArrivalUs}, [&, i] {
          std::vector<log::Record> records = stream[i].records;
          writer.submit(stream[i].seq, std::move(records), {});
          writer.pump();
          last_submitted = stream[i].seq;
        });
    (void)t;
  }
  const std::int64_t horizon =
      static_cast<std::int64_t>(n) * kArrivalUs + 50000;
  for (std::int64_t at = 500; at <= horizon; at += 500) {
    sim.schedule_at(TimePoint{at}, [&] {
      const ValidationTs applied = mirror.applied_seq();
      if (last_submitted > applied) {
        lag_max = std::max<std::uint64_t>(lag_max, last_submitted - applied);
      }
    });
  }
  sim.run();

  MirrorApplyPoint point;
  point.txns = mirror.stats().txns_applied;
  point.apply_lag_max = lag_max;
  point.apply_lag_final = last_submitted - mirror.applied_seq();
  point.corrupt_txns = mirror.stats().corrupt_txns;

  // Wall-clock half: apply the identical stream serially, in seq order,
  // against a fresh copy.
  storage::ObjectStore wall_store{4096};
  const auto t0 = std::chrono::steady_clock::now();
  for (const log::ReleasedTxn& t : stream) {
    const ValidationTs serial_ts = t.records.back().serial_ts;
    for (const log::Record& r : t.records) {
      if (r.type == log::RecordType::kWriteImage) {
        wall_store.upsert(r.oid, r.after, serial_ts);
      }
    }
  }
  const auto t1 = std::chrono::steady_clock::now();
  const double secs = std::chrono::duration<double>(t1 - t0).count();
  point.apply_txns_per_sec =
      secs > 0 ? static_cast<double>(stream.size()) / secs : 0.0;
  return point;
}

void report_mirror_apply(exp::BenchReport& rep, const MirrorApplyPoint& p) {
  rep.begin_result("mirror_apply");
  rep.field("txns", static_cast<std::int64_t>(p.txns));
  rep.field("apply_lag_max", static_cast<std::int64_t>(p.apply_lag_max));
  rep.field("apply_lag_final", static_cast<std::int64_t>(p.apply_lag_final));
  rep.field("corrupt_txns", static_cast<std::int64_t>(p.corrupt_txns));
  rep.field("apply_txns_per_sec", p.apply_txns_per_sec);
}

}  // namespace

int main(int argc, char** argv) {
  const exp::BenchArgs args = exp::BenchArgs::parse(argc, argv);
  obs::ObsConfig obs_config;
  obs_config.enabled = true;
  obs_config.tracing = false;
  obs::init(obs_config);

  const std::size_t cores = std::max(1u, std::thread::hardware_concurrency());
  exp::BenchReport rep("scaling");
  rep.set("txns", static_cast<std::int64_t>(args.txns));
  rep.set("seed", static_cast<std::int64_t>(args.seed));
  rep.set("write_fraction", 0.1);
  rep.set("write_fraction_heavy", 0.6);
  rep.set("hardware_concurrency", static_cast<std::int64_t>(cores));

  std::printf("=== Multicore primary: worker sweep over number translation ===\n");
  std::printf(
      "    (CostModel::zero, logging off, %zu txns per point, %zu cores)\n",
      args.txns, cores);
  if (cores < 4) {
    std::printf(
        "    NOTE: fewer than 4 cores — the sweep is oversubscribed and the "
        "speedup targets do not apply on this host.\n");
  }

  // Legacy read-heavy mix keeps its unprefixed labels; the write-heavy mix
  // is the parallel-commit-path stressor (DESIGN.md §13).
  const Mix mixes[] = {
      {"", 0.1, 8, 2},
      {"write_heavy", 0.6, 4, 4},
  };
  const std::size_t sweep[] = {1, 2, 4, 8};
  double speedup_at_4 = 0.0;
  double wh_speedup_at_8 = 0.0;
  double wh_mu_wait_at_8 = 0.0;
  for (const Mix& mix : mixes) {
    std::printf("  --- %s mix: write_fraction=%.1f ---\n",
                mix.name[0] ? mix.name : "read_heavy", mix.write_fraction);
    double tps_at_1 = 0.0;
    for (std::size_t workers : sweep) {
      const SweepPoint p = run_point(workers, mix, args);
      const double speedup = tps_at_1 > 0 ? p.tps / tps_at_1 : 1.0;
      if (workers == 1) tps_at_1 = p.tps;
      if (mix.name[0] == '\0' && workers == 4) speedup_at_4 = speedup;
      if (mix.name[0] != '\0' && workers == 8) {
        wh_speedup_at_8 = speedup;
        wh_mu_wait_at_8 = p.lock_wait_ms;
      }
      std::printf(
          "  workers=%zu  %9.0f txn/s  p99=%7.3fms  speedup=%.2fx  "
          "retries=%llu  fences=%llu  mu_wait=%.1fms  seals=%llu  "
          "conflicts=%llu\n",
          workers, p.tps, p.latency.quantile(0.99).to_ms(), speedup,
          static_cast<unsigned long long>(p.seqlock_retries),
          static_cast<unsigned long long>(p.rehash_fences), p.lock_wait_ms,
          static_cast<unsigned long long>(p.epoch_seals),
          static_cast<unsigned long long>(p.intent_conflicts));
      report_point(rep, mix, p, speedup);
    }
  }
  rep.set("speedup_at_4", speedup_at_4);
  rep.set("wh_speedup_at_8", wh_speedup_at_8);
  rep.set("wh_mu_wait_at_8_ms", wh_mu_wait_at_8);

  std::printf("=== Mirror epoch apply over a write-heavy redo stream ===\n");
  const MirrorApplyPoint apply = run_mirror_apply(args);
  std::printf("  lag_max=%llu txns  lag_final=%llu  serial apply=%.0f txn/s\n",
              static_cast<unsigned long long>(apply.apply_lag_max),
              static_cast<unsigned long long>(apply.apply_lag_final),
              apply.apply_txns_per_sec);
  report_mirror_apply(rep, apply);

  std::printf("  -> 4-worker speedup over 1 worker (read-heavy): %.2fx "
              "(target >= 2x)\n",
              speedup_at_4);
  std::printf("  -> 8-worker speedup over 1 worker (write-heavy): %.2fx "
              "(target >= 1.5x on 8+ cores)\n",
              wh_speedup_at_8);
  rep.write_file();
  return 0;
}
