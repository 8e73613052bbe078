// Endpoint hardening: envelope anti-replay window, corrupt-frame
// rejection, the polled reconnect/backoff state machine, and the Watchdog
// failure detector's boundary behaviour.
#include <gtest/gtest.h>

#include <mutex>
#include <thread>

#include "rodain/common/backoff.hpp"
#include "rodain/repl/endpoint.hpp"

namespace rodain::repl {
namespace {

/// In-memory channel: records sent frames, injects received ones.
class StubChannel final : public net::Channel {
 public:
  void set_message_handler(MessageHandler handler) override {
    handler_ = std::move(handler);
  }
  void set_disconnect_handler(DisconnectHandler handler) override {
    on_disconnect_ = std::move(handler);
  }
  Status send(std::vector<std::byte> frame) override {
    if (!up_) return Status::error(ErrorCode::kUnavailable, "link down");
    sent_.push_back(std::move(frame));
    return Status::ok();
  }
  [[nodiscard]] bool connected() const override { return up_; }
  void close() override { up_ = false; }

  void inject(std::vector<std::byte> frame) { handler_(std::move(frame)); }
  void set_up(bool up) {
    const bool went_down = up_ && !up;
    up_ = up;
    if (went_down && on_disconnect_) on_disconnect_();
  }
  std::vector<std::vector<std::byte>> sent_;

 private:
  MessageHandler handler_;
  DisconnectHandler on_disconnect_;
  bool up_{true};
};

struct Rig {
  ManualClock clock;
  StubChannel channel;
  std::vector<ValidationTs> acks;
  int protocol_errors = 0;
  int reconnected = 0;
  std::unique_ptr<Endpoint> ep;

  Rig() {
    Endpoint::Handlers handlers;
    handlers.on_commit_ack = [this](ValidationTs seq) { acks.push_back(seq); };
    handlers.on_protocol_error = [this](Status) { ++protocol_errors; };
    handlers.on_reconnected = [this] { ++reconnected; };
    ep = std::make_unique<Endpoint>(channel, clock, std::move(handlers));
  }

  void inject(std::uint64_t epoch, std::uint64_t seq, const Message& m) {
    channel.inject(encode_framed(epoch, seq, m));
  }
};

TEST(Endpoint, SendWrapsFramedEnvelope) {
  Rig rig;
  ASSERT_TRUE(rig.ep->send(Message::commit_ack(7)).is_ok());
  ASSERT_TRUE(rig.ep->send(Message::commit_ack(8)).is_ok());
  ASSERT_EQ(rig.channel.sent_.size(), 2u);
  auto f1 = decode_framed(rig.channel.sent_[0]);
  auto f2 = decode_framed(rig.channel.sent_[1]);
  ASSERT_TRUE(f1.is_ok() && f2.is_ok());
  EXPECT_EQ(f1.value().epoch, rig.ep->epoch());
  EXPECT_EQ(f1.value().frame_seq + 1, f2.value().frame_seq);
  EXPECT_EQ(rig.ep->stats().frames_sent, 2u);
}

TEST(Endpoint, EpochsMonotoneAcrossRebuilds) {
  ManualClock clock;
  StubChannel c1, c2;
  Endpoint a(c1, clock, {});
  Endpoint b(c2, clock, {});
  EXPECT_LT(a.epoch(), b.epoch());
}

TEST(Endpoint, DestroyedEndpointLeavesNoLiveChannelHandlers) {
  // Regression: the channel outlives the endpoint (a SimLink end survives a
  // node failure), and the handlers the endpoint registered used to dangle —
  // a late frame or a sever after teardown was a use-after-free.
  ManualClock clock;
  StubChannel channel;
  { Endpoint ep(channel, clock, {}); }
  channel.inject(encode_framed(100, 1, Message::commit_ack(5)));
  channel.set_up(false);  // fires the stale disconnect handler: must no-op
}

TEST(Endpoint, CorruptFrameRejected) {
  Rig rig;
  auto bytes = encode_framed(100, 1, Message::commit_ack(5));
  bytes[bytes.size() / 2] ^= std::byte{0x04};
  rig.channel.inject(std::move(bytes));
  EXPECT_TRUE(rig.acks.empty());
  EXPECT_EQ(rig.ep->stats().corrupt_rejected, 1u);
  EXPECT_EQ(rig.protocol_errors, 1);
}

TEST(Endpoint, DuplicateFrameSuppressed) {
  Rig rig;
  auto bytes = encode_framed(100, 1, Message::commit_ack(5));
  rig.channel.inject(bytes);
  rig.channel.inject(bytes);
  EXPECT_EQ(rig.acks.size(), 1u);
  EXPECT_EQ(rig.ep->stats().duplicates_suppressed, 1u);
}

TEST(Endpoint, ReorderedFrameWithinWindowAccepted) {
  Rig rig;
  rig.inject(100, 5, Message::commit_ack(50));
  rig.inject(100, 3, Message::commit_ack(30));  // late but new: deliver
  rig.inject(100, 3, Message::commit_ack(30));  // now a duplicate
  EXPECT_EQ(rig.acks, (std::vector<ValidationTs>{50, 30}));
  EXPECT_EQ(rig.ep->stats().duplicates_suppressed, 1u);
}

TEST(Endpoint, FrameBehindWindowSuppressed) {
  Rig rig;
  rig.inject(100, 200, Message::commit_ack(1));
  rig.inject(100, 100, Message::commit_ack(2));  // 100 behind: stale
  EXPECT_EQ(rig.acks.size(), 1u);
  EXPECT_EQ(rig.ep->stats().stale_suppressed, 1u);
}

TEST(Endpoint, OlderEpochSuppressedNewerResetsWindow) {
  Rig rig;
  rig.inject(200, 50, Message::commit_ack(1));
  rig.inject(100, 51, Message::commit_ack(2));  // stale epoch
  EXPECT_EQ(rig.acks.size(), 1u);
  EXPECT_EQ(rig.ep->stats().stale_suppressed, 1u);
  // Peer rebuilt: new epoch restarts the sequence space from 1.
  rig.inject(300, 1, Message::commit_ack(3));
  EXPECT_EQ(rig.acks, (std::vector<ValidationTs>{1, 3}));
}

TEST(Endpoint, SendFailureCounted) {
  Rig rig;
  rig.channel.set_up(false);
  EXPECT_FALSE(rig.ep->send(Message::commit_ack(1)).is_ok());
  EXPECT_EQ(rig.ep->stats().send_failures, 1u);
}

TEST(Endpoint, PollDetectsPassiveReconnect) {
  Rig rig;
  rig.ep->poll(rig.clock.now());  // connected: no-op
  EXPECT_EQ(rig.reconnected, 0);

  rig.channel.set_up(false);
  rig.ep->poll(rig.clock.now());  // notices the drop, arms backoff
  rig.clock.advance(Duration::millis(1));
  rig.ep->poll(rig.clock.now());
  EXPECT_EQ(rig.reconnected, 0);

  rig.channel.set_up(true);  // transport restored underneath us
  rig.ep->poll(rig.clock.now());
  EXPECT_EQ(rig.reconnected, 1);
  EXPECT_EQ(rig.ep->stats().reconnects, 1u);
}

TEST(Endpoint, PollPacesConnectorWithBackoff) {
  Rig rig;
  int attempts = 0;
  rig.ep->set_connector([&] { return ++attempts >= 3; });
  rig.channel.set_up(false);
  // Drive the state machine on a fine tick; backoff spaces real attempts
  // far sparser than the tick rate.
  for (int tick = 0; tick < 2000 && rig.reconnected == 0; ++tick) {
    rig.clock.advance(Duration::millis(1));
    rig.ep->poll(rig.clock.now());
    if (attempts >= 3) rig.channel.set_up(true);
  }
  EXPECT_EQ(attempts, 3);
  EXPECT_EQ(rig.reconnected, 1);
  EXPECT_EQ(rig.ep->stats().reconnect_attempts, 3u);
  // 3 attempts under exponential backoff (initial 5 ms) need > 15 ms of
  // simulated time but far fewer than 2000 polls' worth.
  EXPECT_GT(rig.clock.now().us, 15'000);
}

/// Thread-safe in-process link: send() hands the frame to the peer's
/// handler before returning, one frame at a time (the wire), and records
/// each delivered frame_seq in wire order.
class LoopbackChannel final : public net::Channel {
 public:
  void connect_to(LoopbackChannel& peer) { peer_ = &peer; }
  void set_message_handler(MessageHandler handler) override {
    handler_ = std::move(handler);
  }
  void set_disconnect_handler(DisconnectHandler) override {}
  Status send(std::vector<std::byte> frame) override {
    peer_->deliver(std::move(frame));
    return Status::ok();
  }
  [[nodiscard]] bool connected() const override { return true; }
  void close() override {}

  std::vector<std::uint64_t> wire_seqs() {
    std::lock_guard lock(mu_);
    return wire_seqs_;
  }

 private:
  void deliver(std::vector<std::byte> frame) {
    std::lock_guard lock(mu_);
    auto f = decode_framed(frame);
    if (f.is_ok()) wire_seqs_.push_back(f.value().frame_seq);
    handler_(std::move(frame));
  }

  LoopbackChannel* peer_{nullptr};
  std::mutex mu_;
  MessageHandler handler_;
  std::vector<std::uint64_t> wire_seqs_;
};

TEST(Endpoint, ConcurrentSendersKeepWireOrderEqualToFrameSeq) {
  // The primary's log pump ships while other threads heartbeat or serve
  // joins. Stamping and sending are one critical section, so the peer sees
  // frame_seq 1, 2, 3, ... and its anti-replay window rejects nothing.
  ManualClock clock;
  LoopbackChannel a, b;
  a.connect_to(b);
  b.connect_to(a);
  Endpoint sender(a, clock, {});
  std::size_t acks = 0;
  std::size_t batches = 0;
  Endpoint::Handlers handlers;
  handlers.on_commit_ack = [&](ValidationTs) { ++acks; };
  handlers.on_log_batch = [&](std::vector<log::Record> records) {
    EXPECT_EQ(records.size(), 2u);
    ++batches;
  };
  Endpoint receiver(b, clock, std::move(handlers));

  constexpr int kThreads = 4;
  constexpr int kFrames = 2000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&sender, t] {
      for (int i = 0; i < kFrames; ++i) {
        const auto seq = static_cast<ValidationTs>(t * kFrames + i + 1);
        if (t % 2 == 0) {
          ASSERT_TRUE(sender.send(Message::commit_ack(seq)).is_ok());
        } else {
          std::vector<log::Record> records;
          records.push_back(log::Record::write_image(seq, seq, {}));
          records.push_back(log::Record::commit(seq, seq, seq, 1));
          const log::TxnRecords txn =
              std::make_shared<const std::vector<log::Record>>(
                  std::move(records));
          ASSERT_TRUE(sender.send_log_batch({&txn, 1}).is_ok());
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();

  constexpr std::size_t kTotal = std::size_t{kThreads} * kFrames;
  const std::vector<std::uint64_t> wire = b.wire_seqs();
  ASSERT_EQ(wire.size(), kTotal);
  for (std::size_t i = 0; i < wire.size(); ++i) {
    ASSERT_EQ(wire[i], i + 1) << "wire position " << i;
  }
  EXPECT_EQ(acks + batches, kTotal);
  EXPECT_EQ(sender.stats().frames_sent, kTotal);
  const Endpoint::Stats rx = receiver.stats();
  EXPECT_EQ(rx.frames_received, kTotal);
  EXPECT_EQ(rx.duplicates_suppressed, 0u);
  EXPECT_EQ(rx.stale_suppressed, 0u);
}

// ---------------------------------------------------------------- Backoff --

TEST(Backoff, GrowsExponentiallyUpToCap) {
  BackoffPolicy policy;
  policy.initial = Duration::millis(10);
  policy.max = Duration::millis(100);
  policy.multiplier = 2.0;
  policy.jitter = 0.0;
  Backoff b(policy, 42);
  EXPECT_EQ(b.next().us, 10'000);
  EXPECT_EQ(b.next().us, 20'000);
  EXPECT_EQ(b.next().us, 40'000);
  EXPECT_EQ(b.next().us, 80'000);
  EXPECT_EQ(b.next().us, 100'000);  // capped
  EXPECT_EQ(b.next().us, 100'000);
  EXPECT_EQ(b.attempts(), 6u);
}

TEST(Backoff, JitterStaysWithinBand) {
  BackoffPolicy policy;
  policy.initial = Duration::millis(10);
  policy.max = Duration::seconds(10);
  policy.multiplier = 1.0;  // isolate the jitter term
  policy.jitter = 0.2;
  Backoff b(policy, 7);
  for (int i = 0; i < 100; ++i) {
    const auto us = b.next().us;
    EXPECT_GE(us, 8'000);
    EXPECT_LE(us, 12'000);
  }
}

TEST(Backoff, ResetRestartsFromInitial) {
  BackoffPolicy policy;
  policy.initial = Duration::millis(10);
  policy.max = Duration::seconds(2);
  policy.jitter = 0.0;
  Backoff b(policy, 1);
  (void)b.next();
  (void)b.next();
  b.reset();
  EXPECT_EQ(b.attempts(), 0u);
  EXPECT_EQ(b.next().us, 10'000);
}

TEST(Backoff, DeterministicForSameSeed) {
  BackoffPolicy policy;
  Backoff a(policy, 99), b(policy, 99);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(a.next().us, b.next().us);
}

// ---------------------------------------------------------------- Watchdog --

TEST(Watchdog, NotExpiredExactlyAtTimeout) {
  const Watchdog w(Duration::millis(100));
  const TimePoint last{1'000'000};
  EXPECT_FALSE(w.expired(last + Duration::millis(100), last));
}

TEST(Watchdog, ExpiredJustPastTimeout) {
  const Watchdog w(Duration::millis(100));
  const TimePoint last{1'000'000};
  EXPECT_TRUE(w.expired(last + Duration::millis(100) + Duration::micros(1),
                        last));
}

TEST(Watchdog, NotExpiredAtEqualTimes) {
  const Watchdog w(Duration::millis(100));
  const TimePoint t{5'000};
  EXPECT_FALSE(w.expired(t, t));
}

TEST(Watchdog, NotExpiredWhenHeardInFuture) {
  // A heartbeat stamped after `now` (callback ordering race) must not trip
  // the detector.
  const Watchdog w(Duration::millis(100));
  const TimePoint now{10'000};
  EXPECT_FALSE(w.expired(now, now + Duration::millis(1)));
}

TEST(Watchdog, ZeroTimeoutExpiresOnAnyGap) {
  const Watchdog w(Duration::zero());
  const TimePoint last{0};
  EXPECT_FALSE(w.expired(last, last));
  EXPECT_TRUE(w.expired(last + Duration::micros(1), last));
}

}  // namespace
}  // namespace rodain::repl
