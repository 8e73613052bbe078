// The event-driven commit path of rt::Node: heartbeats and samples keep
// their cadence under load, the watchdog fires at its own deadline, a
// mirror ack finishes a parked transaction on the channel thread while
// every done callback still fires exactly once, and the redo stream leaves
// in self-clocked groups shipped outside the commit mutex.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "rodain/net/tcp.hpp"
#include "rodain/obs/obs.hpp"
#include "rodain/repl/protocol.hpp"
#include "rodain/rt/node.hpp"
#include "tcp_pair.hpp"

namespace rodain {
namespace {

using namespace rodain::literals;
using SteadyClock = std::chrono::steady_clock;

storage::Value zeros8() {
  return storage::Value{std::string_view{"\0\0\0\0\0\0\0\0", 8}};
}

/// Channel decorator: counts the heartbeat and log frames sent through it
/// and can hold every send back by a fixed delay (a slow link).
class TapChannel final : public net::Channel {
 public:
  explicit TapChannel(net::Channel& inner) : inner_(inner) {}

  void set_message_handler(MessageHandler handler) override {
    inner_.set_message_handler(std::move(handler));
  }
  void set_disconnect_handler(DisconnectHandler handler) override {
    inner_.set_disconnect_handler(std::move(handler));
  }
  Status send(std::vector<std::byte> frame) override {
    auto decoded = repl::decode_framed(frame);
    if (decoded.is_ok() &&
        decoded.value().msg.type == repl::MsgType::kHeartbeat) {
      heartbeats_.fetch_add(1, std::memory_order_relaxed);
    }
    if (decoded.is_ok() &&
        decoded.value().msg.type == repl::MsgType::kLogBatch) {
      log_frames_.fetch_add(1, std::memory_order_relaxed);
    }
    const auto delay = std::chrono::microseconds(delay_us_.load());
    if (delay.count() > 0) std::this_thread::sleep_for(delay);
    return inner_.send(std::move(frame));
  }
  [[nodiscard]] bool connected() const override { return inner_.connected(); }
  void close() override { inner_.close(); }

  [[nodiscard]] std::uint64_t heartbeats() const { return heartbeats_.load(); }
  [[nodiscard]] std::uint64_t log_frames() const { return log_frames_.load(); }
  void set_delay(Duration d) { delay_us_.store(d.us); }

 private:
  net::Channel& inner_;
  std::atomic<std::uint64_t> heartbeats_{0};
  std::atomic<std::uint64_t> log_frames_{0};
  std::atomic<std::int64_t> delay_us_{0};
};

/// Keeps `window` submissions in flight until `total` have completed; the
/// program for submission i comes from `make(i)`, and `on_done(i, info)`
/// runs on the node's callback thread.
template <typename Make, typename OnDone>
void run_window(rt::Node& node, int total, int window, Make make,
                OnDone on_done) {
  std::mutex mu;
  std::condition_variable cv;
  int finished = 0;
  int submitted = 0;
  std::unique_lock lock(mu);
  while (finished < total) {
    while (submitted < total && submitted - finished < window) {
      const int i = submitted++;
      lock.unlock();
      node.submit(make(i), [&, i](const rt::CommitInfo& info) {
        on_done(i, info);
        std::lock_guard g(mu);
        ++finished;
        cv.notify_all();
      });
      lock.lock();
    }
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(20), [&] {
      return finished == total ||
             (submitted < total && submitted - finished < window);
    })) << "stuck at " << finished << "/" << total;
  }
}

txn::TxnProgram bump(ObjectId oid, Duration deadline) {
  txn::TxnProgram p;
  p.add_to_field(oid, 0, 1);
  p.relative_deadline = deadline;
  return p;
}

std::uint64_t mirror_total(rt::Node& mirror) {
  std::uint64_t total = 0;
  mirror.store().for_each([&](ObjectId, const storage::ObjectRecord& rec) {
    total += rec.value.read_u64(0);
  });
  return total;
}

void wait_applied(rt::Node& mirror, ValidationTs seq) {
  for (int waited = 0; waited < 500 && mirror.mirror_applied_seq() < seq;
       ++waited) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
}

// Heartbeats are a periodic failure detector, not a per-commit message:
// a few thousand commits must not raise the number of heartbeat frames
// above one per interval, and the metrics sampler keeps its own cadence.
TEST(RtCommitPath, HeartbeatCadenceHoldsUnderLoad) {
  obs::ObsConfig obs_config;
  obs_config.enabled = true;
  obs::init(obs_config);

  auto tcp = TcpPair::make();
  TapChannel tap(*tcp.client_end);
  rt::NodeConfig config;
  config.overload.max_active = 10000;
  config.heartbeat_interval = 50_ms;
  config.metrics_snapshot_interval = 50_ms;
  rt::Node primary(config, "primary");
  rt::Node mirror(config, "mirror");
  for (ObjectId oid = 1; oid <= 64; ++oid) {
    primary.store().upsert(oid, zeros8(), 0);
    mirror.store().upsert(oid, zeros8(), 0);
  }
  mirror.start_mirror(*tcp.server_end);
  const auto started = SteadyClock::now();
  primary.start_primary(LogMode::kMirror, &tap);
  tcp.server_end->start();
  tcp.client_end->start();

  constexpr int kTxns = 3000;
  std::atomic<int> committed{0};
  run_window(
      primary, kTxns, 8,
      [](int i) { return bump(static_cast<ObjectId>(1 + i % 64), 5_s); },
      [&](int, const rt::CommitInfo& info) {
        if (info.outcome == TxnOutcome::kCommitted) committed.fetch_add(1);
      });
  primary.stop();
  const double elapsed_s =
      std::chrono::duration<double>(SteadyClock::now() - started).count();
  EXPECT_EQ(committed.load(), kTxns);

  const double beats = elapsed_s / 0.050;
  EXPECT_LE(static_cast<double>(tap.heartbeats()), beats + 2)
      << "elapsed " << elapsed_s << " s";
  EXPECT_LE(static_cast<double>(primary.metrics_series().row_count()),
            beats + 2)
      << "elapsed " << elapsed_s << " s";
  mirror.stop();
}

// The mirror must take over at last_heard + watchdog_timeout, not at the
// next heartbeat tick: with a 1 s heartbeat and a 200 ms watchdog, and no
// submissions reaching the mirror, it serves well within 600 ms of the
// primary going silent.
TEST(RtCommitPath, TakeoverAtWatchdogDeadline) {
  auto tcp = TcpPair::make();
  rt::NodeConfig mirror_config;
  mirror_config.heartbeat_interval = 1_s;
  mirror_config.watchdog_timeout = 200_ms;
  rt::NodeConfig primary_config = mirror_config;
  // The mirror beats only once a second: keep the primary's watchdog quiet.
  primary_config.watchdog_timeout = 10_s;
  rt::Node primary(primary_config, "primary");
  rt::Node mirror(mirror_config, "mirror");
  for (ObjectId oid = 1; oid <= 8; ++oid) {
    primary.store().upsert(oid, zeros8(), 0);
    mirror.store().upsert(oid, zeros8(), 0);
  }
  mirror.start_mirror(*tcp.server_end);
  primary.start_primary(LogMode::kMirror, tcp.client_end.get());
  tcp.server_end->start();
  tcp.client_end->start();

  // Log traffic keeps the mirror's watchdog fed between the 1 s beats.
  int commits = 0;
  const auto until = SteadyClock::now() + std::chrono::milliseconds(150);
  while (SteadyClock::now() < until) {
    ASSERT_EQ(primary.execute(bump(static_cast<ObjectId>(1 + commits % 8), 5_s))
                  .outcome,
              TxnOutcome::kCommitted);
    ++commits;
  }
  ASSERT_EQ(mirror.role(), NodeRole::kMirror);

  const auto silent = SteadyClock::now();
  primary.stop();
  tcp.client_end->close();
  while (!mirror.serving() &&
         SteadyClock::now() - silent < std::chrono::seconds(3)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const auto took = std::chrono::duration_cast<std::chrono::milliseconds>(
      SteadyClock::now() - silent);
  ASSERT_TRUE(mirror.serving());
  EXPECT_LT(took.count(), 600);
  auto value = mirror.get(1);
  ASSERT_TRUE(value.is_ok());
  mirror.stop();
}

/// One done callback per submission, checked for consistency with the
/// submission's deadline.
struct Ledger {
  explicit Ledger(int n) : calls(static_cast<std::size_t>(n)) {}
  std::vector<std::atomic<int>> calls;
  std::atomic<int> committed{0};
  std::atomic<int> late{0};
  std::atomic<int> missed{0};
  std::atomic<int> system_aborted{0};
  std::atomic<int> bad{0};

  void record(Duration deadline, const rt::CommitInfo& info, int i) {
    calls[static_cast<std::size_t>(i)].fetch_add(1);
    switch (info.outcome) {
      case TxnOutcome::kCommitted:
        committed.fetch_add(1);
        if (info.late) {
          late.fetch_add(1);
          // The timer marks a validated txn late only once its deadline
          // passed.
          if (info.latency < deadline) bad.fetch_add(1);
        }
        break;
      case TxnOutcome::kMissedDeadline:
        missed.fetch_add(1);
        if (info.late || info.latency < deadline) bad.fetch_add(1);
        break;
      case TxnOutcome::kSystemAborted:
        system_aborted.fetch_add(1);
        break;
      default:
        bad.fetch_add(1);
    }
    if (info.latency.us < 0) bad.fetch_add(1);
  }
  [[nodiscard]] int calls_other_than_once() const {
    int n = 0;
    for (const auto& c : calls) n += c.load() != 1 ? 1 : 0;
    return n;
  }
};

class FinishOnAck : public ::testing::TestWithParam<std::size_t> {
 protected:
  void SetUp() override {
    obs::ObsConfig obs_config;
    obs_config.enabled = true;
    obs::init(obs_config);
  }
  [[nodiscard]] rt::NodeConfig config() const {
    rt::NodeConfig c;
    c.worker_threads = GetParam();
    c.overload.max_active = 10000;
    return c;
  }
  static std::uint64_t finished_on_ack() {
    return obs::metrics().counter("node.txn.finished_on_ack").value();
  }
};

// Parked transactions are finished by the ack thread. A slow mirror link
// makes short deadlines pass while txns wait for their ack: those commit
// late (they validated, so they cannot be aborted) or miss their deadline
// before validation — never both, never twice.
TEST_P(FinishOnAck, ParkedTxnsFinishOnTheAckThread) {
  auto tcp = TcpPair::make();
  TapChannel slow_mirror_link(*tcp.server_end);
  rt::Node primary(config(), "primary");
  rt::Node mirror(config(), "mirror");
  constexpr ObjectId kObjects = 32;
  for (ObjectId oid = 1; oid <= kObjects; ++oid) {
    primary.store().upsert(oid, zeros8(), 0);
    mirror.store().upsert(oid, zeros8(), 0);
  }
  mirror.start_mirror(slow_mirror_link);
  primary.start_primary(LogMode::kMirror, tcp.client_end.get());
  tcp.server_end->start();
  tcp.client_end->start();
  const std::uint64_t on_ack_before = finished_on_ack();

  constexpr int kFast = 1500;
  Ledger fast(kFast);
  run_window(
      primary, kFast, 16,
      [](int i) { return bump(static_cast<ObjectId>(1 + i % kObjects), 5_s); },
      [&](int i, const rt::CommitInfo& info) { fast.record(5_s, info, i); });
  EXPECT_EQ(fast.calls_other_than_once(), 0);
  EXPECT_EQ(fast.committed.load(), kFast);
  EXPECT_EQ(fast.late.load(), 0);
  EXPECT_EQ(fast.bad.load(), 0);
  EXPECT_GT(finished_on_ack(), on_ack_before);

  // Every ack now takes 5 ms; a 2 ms deadline expires while txns wait.
  slow_mirror_link.set_delay(5_ms);
  constexpr int kSlow = 200;
  Ledger slow(kSlow);
  run_window(
      primary, kSlow, 8,
      [](int i) { return bump(static_cast<ObjectId>(1 + i % kObjects), 2_ms); },
      [&](int i, const rt::CommitInfo& info) { slow.record(2_ms, info, i); });
  slow_mirror_link.set_delay(Duration::zero());
  EXPECT_EQ(slow.calls_other_than_once(), 0);
  EXPECT_EQ(slow.bad.load(), 0);
  EXPECT_EQ(slow.committed.load() + slow.missed.load(), kSlow);
  EXPECT_GT(slow.late.load(), 0);

  const TxnCounters counters = primary.counters();
  EXPECT_EQ(counters.committed + counters.missed_deadline,
            static_cast<std::uint64_t>(kFast + kSlow));
  // Exactly the committed bumps reached the mirror (late ones included).
  const auto applied = static_cast<ValidationTs>(fast.committed.load() +
                                                 slow.committed.load());
  wait_applied(mirror, applied);
  EXPECT_EQ(mirror_total(mirror), applied);
  primary.stop();
  mirror.stop();
}

// An ack that lands while a worker still owns the txn takes the
// resume_pending path: with the direct-disk log the durable callback fires
// inside the worker's own log submit, so no txn is ever parked and the
// ack thread finishes none.
TEST_P(FinishOnAck, AckRacingTheParkResumesTheOwner) {
  rt::Node node(config(), "solo");
  for (ObjectId oid = 1; oid <= 8; ++oid) node.store().upsert(oid, zeros8(), 0);
  node.start_primary(LogMode::kDirectDisk);
  const std::uint64_t on_ack_before = finished_on_ack();

  constexpr int kTxns = 1000;
  Ledger ledger(kTxns);
  run_window(
      node, kTxns, 16,
      [](int i) { return bump(static_cast<ObjectId>(1 + i % 8), 5_s); },
      [&](int i, const rt::CommitInfo& info) { ledger.record(5_s, info, i); });
  EXPECT_EQ(ledger.calls_other_than_once(), 0);
  EXPECT_EQ(ledger.committed.load(), kTxns);
  EXPECT_EQ(ledger.bad.load(), 0);
  EXPECT_EQ(finished_on_ack(), on_ack_before);
  std::uint64_t total = 0;
  for (ObjectId oid = 1; oid <= 8; ++oid) {
    total += node.get(oid).value().read_u64(0);
  }
  EXPECT_EQ(total, static_cast<std::uint64_t>(kTxns));
  node.stop();
}

// Stopping the primary while txns wait for slow acks: each callback still
// fires exactly once — committed by the ack thread, or system-aborted by
// the shutdown sweep — and the mirror that takes over holds every
// acknowledged bump.
TEST_P(FinishOnAck, TakeoverNeverFinishesATxnTwice) {
  auto tcp = TcpPair::make();
  TapChannel slow_mirror_link(*tcp.server_end);
  rt::NodeConfig c = config();
  c.heartbeat_interval = 20_ms;
  c.watchdog_timeout = 200_ms;
  rt::Node primary(c, "primary");
  rt::Node mirror(c, "mirror");
  constexpr ObjectId kObjects = 16;
  for (ObjectId oid = 1; oid <= kObjects; ++oid) {
    primary.store().upsert(oid, zeros8(), 0);
    mirror.store().upsert(oid, zeros8(), 0);
  }
  mirror.start_mirror(slow_mirror_link);
  primary.start_primary(LogMode::kMirror, tcp.client_end.get());
  tcp.server_end->start();
  tcp.client_end->start();
  slow_mirror_link.set_delay(1_ms);

  constexpr int kTxns = 400;
  Ledger ledger(kTxns);
  std::atomic<int> done{0};
  for (int i = 0; i < kTxns; ++i) {
    primary.submit(bump(static_cast<ObjectId>(1 + i % kObjects), 5_s),
                   [&, i](const rt::CommitInfo& info) {
                     ledger.record(5_s, info, i);
                     done.fetch_add(1);
                   });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  primary.stop();
  tcp.client_end->close();
  // The shutdown sweep runs its callbacks inside stop(); an ack thread may
  // still be running the ones it finished just before.
  for (int waited = 0; waited < 200 && done.load() < kTxns; ++waited) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(done.load(), kTxns);
  EXPECT_EQ(ledger.calls_other_than_once(), 0);
  EXPECT_EQ(ledger.bad.load(), 0);
  EXPECT_EQ(ledger.committed.load() + ledger.system_aborted.load(), kTxns);

  for (int waited = 0; waited < 300 && !mirror.serving(); ++waited) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_TRUE(mirror.serving());
  slow_mirror_link.set_delay(Duration::zero());
  std::uint64_t total = 0;
  for (ObjectId oid = 1; oid <= kObjects; ++oid) {
    total += mirror.get(oid).value().read_u64(0);
  }
  EXPECT_GE(total, static_cast<std::uint64_t>(ledger.committed.load()));
  EXPECT_LE(total, static_cast<std::uint64_t>(kTxns));
  mirror.stop();
}

// Four workers commit a closed-loop burst while every log send takes
// 100 us: whatever seals while a frame is on the wire leaves as the next
// frame, so there are fewer log frames than commits, and the mirror ends
// byte-equal to the primary. A stop() with frames in flight then finishes
// each outstanding txn exactly once.
TEST(RtCommitPath, FourWorkersShipSelfClockedGroups) {
  auto tcp = TcpPair::make();
  TapChannel slow_primary_link(*tcp.client_end);
  rt::NodeConfig c;
  c.worker_threads = 4;  // explicit: this test is about concurrent sealers
  c.overload.max_active = 10000;
  // The pair must stay paired however oversubscribed the host is: this
  // test is about grouping, not about the failure detectors.
  c.ack_timeout = 10_s;
  c.watchdog_timeout = 10_s;
  rt::Node primary(c, "primary");
  rt::Node mirror(c, "mirror");
  constexpr ObjectId kObjects = 64;
  for (ObjectId oid = 1; oid <= kObjects; ++oid) {
    primary.store().upsert(oid, zeros8(), 0);
    mirror.store().upsert(oid, zeros8(), 0);
  }
  mirror.start_mirror(*tcp.server_end);
  primary.start_primary(LogMode::kMirror, &slow_primary_link);
  tcp.server_end->start();
  tcp.client_end->start();
  slow_primary_link.set_delay(100_us);

  constexpr int kTxns = 2000;
  Ledger burst(kTxns);
  run_window(
      primary, kTxns, 32,
      [](int i) { return bump(static_cast<ObjectId>(1 + i % kObjects), 5_s); },
      [&](int i, const rt::CommitInfo& info) { burst.record(5_s, info, i); });
  EXPECT_EQ(burst.calls_other_than_once(), 0);
  ASSERT_EQ(burst.committed.load(), kTxns);
  EXPECT_LT(slow_primary_link.log_frames(), static_cast<std::uint64_t>(kTxns));
  wait_applied(mirror, kTxns);
  ASSERT_EQ(mirror.mirror_applied_seq(), static_cast<ValidationTs>(kTxns));
  for (ObjectId oid = 1; oid <= kObjects; ++oid) {
    const storage::ObjectRecord* p = primary.store().find(oid);
    const storage::ObjectRecord* m = mirror.store().find(oid);
    ASSERT_TRUE(p != nullptr && m != nullptr) << "oid " << oid;
    EXPECT_EQ(p->value, m->value) << "oid " << oid;
  }
  EXPECT_EQ(mirror_total(mirror), static_cast<std::uint64_t>(kTxns));

  constexpr int kInFlight = 400;
  Ledger tail(kInFlight);
  std::atomic<int> done{0};
  for (int i = 0; i < kInFlight; ++i) {
    primary.submit(bump(static_cast<ObjectId>(1 + i % kObjects), 5_s),
                   [&, i](const rt::CommitInfo& info) {
                     tail.record(5_s, info, i);
                     done.fetch_add(1);
                   });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  primary.stop();
  for (int waited = 0; waited < 200 && done.load() < kInFlight; ++waited) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(done.load(), kInFlight);
  EXPECT_EQ(tail.calls_other_than_once(), 0);
  EXPECT_EQ(tail.bad.load(), 0);
  EXPECT_EQ(tail.committed.load() + tail.system_aborted.load(), kInFlight);
  mirror.stop();
}

INSTANTIATE_TEST_SUITE_P(Workers, FinishOnAck, ::testing::Values(1u, 4u),
                         [](const auto& param_info) {
                           return "w" + std::to_string(param_info.param);
                         });

}  // namespace
}  // namespace rodain
