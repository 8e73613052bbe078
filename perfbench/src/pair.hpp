// A primary/mirror pair of rt::Node over loopback TCP, built and torn down
// through the program's public API only.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "rodain/rodain.hpp"

namespace perfbench {

using namespace rodain;

/// net::Channel decorator around one end of the pair's TCP connection.
/// Byte and frame counts are always on. Decoding the frames (which the
/// per-layer metrics and the quiesce check need) is switched on only when
/// asked, so untraced runs pay one atomic add per frame and nothing else.
class CountingChannel final : public net::Channel {
 public:
  enum class Side : std::uint8_t { kPrimary, kMirror };

  CountingChannel(net::TcpChannel& inner, Side side)
      : inner_(inner), side_(side) {}

  void set_message_handler(MessageHandler handler) override;
  void set_disconnect_handler(DisconnectHandler handler) override {
    inner_.set_disconnect_handler(std::move(handler));
  }
  Status send(std::vector<std::byte> frame) override;
  [[nodiscard]] bool connected() const override { return inner_.connected(); }
  void close() override { inner_.close(); }

  /// Bytes on the wire: payload plus TcpChannel's 8-byte length/crc header.
  [[nodiscard]] std::uint64_t bytes_sent() const { return bytes_.load(); }
  [[nodiscard]] std::uint64_t frames_sent() const { return frames_.load(); }

  void set_decode(bool on) { decode_.store(on); }
  /// Highest commit seq shipped in a log batch (primary side, decoding).
  [[nodiscard]] ValidationTs max_shipped_seq() const { return max_seq_.load(); }
  /// Applied seq named by the latest heartbeat this end sent (decoding):
  /// on the primary side, the primary's installed low-water mark.
  [[nodiscard]] ValidationTs heartbeat_seq() const { return heartbeat_seq_.load(); }
  [[nodiscard]] std::uint64_t heartbeats_sent() const { return heartbeats_.load(); }
  [[nodiscard]] std::uint64_t log_frames() const { return log_frames_.load(); }
  [[nodiscard]] std::uint64_t log_commits() const { return log_commits_.load(); }
  /// Ship-to-covering-ack round trips collected so far (primary side).
  [[nodiscard]] std::vector<double> take_ack_rtts_us();

 private:
  net::TcpChannel& inner_;
  const Side side_;
  std::atomic<bool> decode_{false};
  std::atomic<std::uint64_t> bytes_{0};
  std::atomic<std::uint64_t> frames_{0};
  std::atomic<ValidationTs> max_seq_{0};
  std::atomic<ValidationTs> heartbeat_seq_{0};
  std::atomic<std::uint64_t> heartbeats_{0};
  std::atomic<std::uint64_t> log_frames_{0};
  std::atomic<std::uint64_t> log_commits_{0};

  std::mutex rtt_mu_;
  /// (highest commit seq in the frame, send time) awaiting a covering ack.
  std::deque<std::pair<ValidationTs, std::int64_t>> in_flight_;  // rtt_mu_
  std::vector<double> rtts_us_;                                  // rtt_mu_
};

struct PairConfig {
  std::size_t subscribers{30000};
  std::uint64_t db_seed{1};
  std::size_t worker_threads{1};
  std::size_t max_active{50};
  Duration heartbeat{Duration::millis(50)};
  Duration watchdog{Duration::millis(300)};
  /// The mirror's segmented on-disk log lives here (fsync off).
  std::string mirror_log_dir;
  std::size_t segment_bytes{4u << 20};
};

/// Primary and mirror over a loopback TcpChannel pair.
class Pair {
 public:
  /// Load both stores, connect, start both roles and wait until the mirror
  /// has applied a first shipped commit. Null on failure (`error` says why).
  static std::unique_ptr<Pair> create(const PairConfig& config, std::string& error);
  ~Pair();
  Pair(const Pair&) = delete;
  Pair& operator=(const Pair&) = delete;

  [[nodiscard]] rt::Node* primary() { return primary_.get(); }
  [[nodiscard]] rt::Node& mirror() { return *mirror_; }
  [[nodiscard]] CountingChannel& primary_channel() { return *primary_chan_; }
  [[nodiscard]] CountingChannel& mirror_channel() { return *mirror_chan_; }
  [[nodiscard]] const PairConfig& config() const { return config_; }

  /// Stop the primary hard and close its socket, as a process crash would.
  void crash_primary();

  /// Bytes in the mirror's on-disk log directory.
  [[nodiscard]] std::uint64_t mirror_disk_bytes() const;

 private:
  explicit Pair(PairConfig config) : config_(std::move(config)) {}

  PairConfig config_;
  // Declaration order is teardown order in reverse: nodes stop before the
  // sockets close, sockets (and their reader threads) go before the
  // decorators the readers call into.
  std::unique_ptr<CountingChannel> primary_chan_;
  std::unique_ptr<CountingChannel> mirror_chan_;
  std::unique_ptr<net::TcpChannel> primary_tcp_;
  std::unique_ptr<net::TcpChannel> mirror_tcp_;
  std::unique_ptr<rt::Node> mirror_;
  std::unique_ptr<rt::Node> primary_;
};

}  // namespace perfbench
