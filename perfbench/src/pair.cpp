#include "pair.hpp"

#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <thread>

#include "trace.hpp"

namespace perfbench {

// ------------------------------------------------------ CountingChannel ---

void CountingChannel::set_message_handler(MessageHandler handler) {
  inner_.set_message_handler([this, h = std::move(handler)](std::vector<std::byte> frame) {
    if (!decode_.load(std::memory_order_relaxed)) {
      h(std::move(frame));
      return;
    }
    auto decoded = repl::decode_framed(frame);
    if (side_ == Side::kMirror) {
      ValidationTs seq = 0;
      if (decoded.is_ok()) {
        for (const log::Record& r : decoded.value().msg.records) {
          if (r.is_commit()) seq = std::max(seq, r.seq);
        }
      }
      Span span(SpanKind::kMirrorFrame, seq);
      h(std::move(frame));
      return;
    }
    if (!decoded.is_ok() || decoded.value().msg.type != repl::MsgType::kCommitAck) {
      h(std::move(frame));
      return;
    }
    const ValidationTs acked = decoded.value().msg.seq;
    {
      const std::int64_t now = now_ns();
      std::lock_guard lock(rtt_mu_);
      while (!in_flight_.empty() && in_flight_.front().first <= acked) {
        rtts_us_.push_back(static_cast<double>(now - in_flight_.front().second) / 1e3);
        in_flight_.pop_front();
      }
    }
    Span span(SpanKind::kAckHandle, acked);
    h(std::move(frame));
  });
}

Status CountingChannel::send(std::vector<std::byte> frame) {
  bytes_.fetch_add(frame.size() + 8, std::memory_order_relaxed);
  frames_.fetch_add(1, std::memory_order_relaxed);
  if (!decode_.load(std::memory_order_relaxed)) return inner_.send(std::move(frame));

  ValidationTs seq = 0;
  auto decoded = repl::decode_framed(frame);
  if (decoded.is_ok() && side_ == Side::kPrimary) {
    const repl::Message& msg = decoded.value().msg;
    if (msg.type == repl::MsgType::kHeartbeat) {
      heartbeat_seq_.store(msg.seq);
      heartbeats_.fetch_add(1);
    } else if (msg.type == repl::MsgType::kLogBatch) {
      std::uint64_t commits = 0;
      for (const log::Record& r : msg.records) {
        if (!r.is_commit()) continue;
        ++commits;
        seq = std::max(seq, r.seq);
      }
      log_frames_.fetch_add(1);
      log_commits_.fetch_add(commits);
      if (seq > max_seq_.load()) max_seq_.store(seq);
      if (commits > 0) {
        std::lock_guard lock(rtt_mu_);
        in_flight_.emplace_back(seq, now_ns());
      }
    }
  }
  Span span(SpanKind::kSend, seq);
  return inner_.send(std::move(frame));
}

std::vector<double> CountingChannel::take_ack_rtts_us() {
  std::lock_guard lock(rtt_mu_);
  return std::exchange(rtts_us_, {});
}

// ------------------------------------------------------------------ Pair ---

std::unique_ptr<Pair> Pair::create(const PairConfig& config, std::string& error) {
  std::unique_ptr<Pair> pair(new Pair(config));

  rt::NodeConfig node_config;
  node_config.worker_threads = config.worker_threads;
  node_config.overload.max_active = config.max_active;
  node_config.heartbeat_interval = config.heartbeat;
  node_config.watchdog_timeout = config.watchdog;
  node_config.store_capacity_hint = config.subscribers;
  rt::NodeConfig mirror_config = node_config;
  mirror_config.log_path = config.mirror_log_dir;
  mirror_config.log_segment_bytes = config.segment_bytes;
  mirror_config.fsync_log = false;
  std::filesystem::remove_all(config.mirror_log_dir);

  pair->primary_ = std::make_unique<rt::Node>(node_config, "primary");
  pair->mirror_ = std::make_unique<rt::Node>(mirror_config, "mirror");

  workload::DatabaseConfig db;
  db.num_objects = config.subscribers;
  db.seed = config.db_seed;
  std::thread loader([&] {
    workload::load_database(db, pair->mirror_->store(), pair->mirror_->index());
  });
  workload::load_database(db, pair->primary_->store(), pair->primary_->index());
  loader.join();

  std::mutex mu;
  std::condition_variable cv;
  std::unique_ptr<net::TcpChannel> accepted;
  auto server = net::TcpServer::listen(0, [&](std::unique_ptr<net::TcpChannel> ch) {
    std::lock_guard lock(mu);
    accepted = std::move(ch);
    cv.notify_all();
  });
  if (!server.is_ok()) {
    error = "listen: " + server.status().to_string();
    return nullptr;
  }
  auto connected = net::TcpChannel::connect("127.0.0.1", server.value()->port(),
                                            Duration::seconds(2));
  if (!connected.is_ok()) {
    error = "connect: " + connected.status().to_string();
    return nullptr;
  }
  pair->primary_tcp_ = std::move(connected.value());
  {
    std::unique_lock lock(mu);
    cv.wait_for(lock, std::chrono::seconds(2), [&] { return accepted != nullptr; });
    pair->mirror_tcp_ = std::move(accepted);
  }
  server.value()->stop();
  if (!pair->mirror_tcp_) {
    error = "accept timed out";
    return nullptr;
  }
  pair->primary_chan_ = std::make_unique<CountingChannel>(
      *pair->primary_tcp_, CountingChannel::Side::kPrimary);
  pair->mirror_chan_ = std::make_unique<CountingChannel>(
      *pair->mirror_tcp_, CountingChannel::Side::kMirror);

  pair->mirror_->start_mirror(*pair->mirror_chan_);
  pair->primary_->start_primary(LogMode::kMirror, pair->primary_chan_.get());
  pair->mirror_tcp_->start();
  pair->primary_tcp_->start();

  // Synced: one read-only commit has made the round trip to the mirror.
  txn::TxnProgram probe;
  probe.read(workload::oid_for(0));
  probe.with_deadline(Duration::seconds(2));
  const rt::CommitInfo info = pair->primary_->execute(std::move(probe));
  if (info.outcome != TxnOutcome::kCommitted) {
    error = "sync probe " + std::string(to_string(info.outcome));
    return nullptr;
  }
  const auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(2);
  while (pair->mirror_->mirror_applied_seq() < 1) {
    if (std::chrono::steady_clock::now() > give_up) {
      error = "mirror never applied the sync probe";
      return nullptr;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  return pair;
}

Pair::~Pair() {
  // Nodes stop first (no more sends), then the sockets close and join their
  // reader threads, and only then do the nodes and decorators those reader
  // threads call into go away.
  if (primary_) primary_->stop();
  if (mirror_) mirror_->stop();
  primary_tcp_.reset();
  mirror_tcp_.reset();
  primary_.reset();
  mirror_.reset();
  std::error_code ec;
  std::filesystem::remove_all(config_.mirror_log_dir, ec);
}

void Pair::crash_primary() {
  primary_->stop();
  primary_tcp_.reset();
  primary_.reset();
}

std::uint64_t Pair::mirror_disk_bytes() const {
  std::uint64_t total = 0;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(config_.mirror_log_dir, ec)) {
    if (entry.is_regular_file(ec)) total += entry.file_size(ec);
  }
  return total;
}

}  // namespace perfbench
