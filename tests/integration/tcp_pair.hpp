// A connected loopback TCP pair for the real-time runtime tests: the
// client end goes to the primary, the accepted server end to the mirror.
// Neither end's reader runs until the test calls start() on it, after the
// node on that end has installed its handlers.
#pragma once

#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>

#include "rodain/net/tcp.hpp"

namespace rodain {

struct TcpPair {
  std::unique_ptr<net::TcpServer> server;
  std::unique_ptr<net::TcpChannel> client_end;
  std::unique_ptr<net::TcpChannel> server_end;

  static TcpPair make() {
    TcpPair p;
    std::mutex mu;
    std::condition_variable cv;
    auto server =
        net::TcpServer::listen(0, [&](std::unique_ptr<net::TcpChannel> ch) {
          std::lock_guard lock(mu);
          p.server_end = std::move(ch);
          cv.notify_all();
        });
    p.server = std::move(server).value();
    p.client_end = std::move(net::TcpChannel::connect(
                                 "127.0.0.1", p.server->port(),
                                 Duration::seconds(2)))
                       .value();
    std::unique_lock lock(mu);
    cv.wait_for(lock, std::chrono::seconds(2),
                [&] { return p.server_end != nullptr; });
    return p;
  }
};

}  // namespace rodain
