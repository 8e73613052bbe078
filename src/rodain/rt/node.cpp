#include "rodain/rt/node.hpp"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <filesystem>

#include "rodain/common/diag.hpp"
#include "rodain/log/reorder.hpp"
#include "rodain/log/segment.hpp"
#include "rodain/obs/obs.hpp"
#include "rodain/repl/protocol.hpp"
#include "rodain/storage/checkpoint.hpp"
#include "rodain/storage/fuzzy_checkpoint.hpp"

namespace rodain::rt {

namespace {
struct NodeMetrics {
  obs::Counter& submitted = obs::metrics().counter("node.txn.submitted");
  obs::Counter& committed = obs::metrics().counter("node.txn.committed");
  obs::Counter& missed_deadline =
      obs::metrics().counter("node.txn.missed_deadline");
  obs::Counter& conflict_aborted =
      obs::metrics().counter("node.txn.conflict_aborted");
  obs::Counter& system_aborted =
      obs::metrics().counter("node.txn.system_aborted");
  obs::Counter& role_transitions =
      obs::metrics().counter("node.role_transitions");
  obs::Timer& commit_latency = obs::metrics().timer("node.commit_latency_us");
  obs::Timer& commit_mu_wait = obs::metrics().timer("node.commit_mu_wait");
  /// Acked transactions finalized on the channel thread, not a worker.
  obs::Counter& finished_on_ack =
      obs::metrics().counter("node.txn.finished_on_ack");
  obs::Gauge& role = obs::metrics().gauge("node.role");
  obs::Gauge& active_txns = obs::metrics().gauge("node.active_txns");
  obs::Gauge& miss_ratio = obs::metrics().gauge("node.miss_ratio");
  /// Checkpoint observability (DESIGN.md §7, §15): gate-held stall time,
  /// failed writes, and the fuzzy chain's byte/dirtiness breakdown.
  obs::Timer& checkpoint_stall =
      obs::metrics().timer("node.checkpoint_stall_us");
  obs::Counter& checkpoint_failures =
      obs::metrics().counter("node.checkpoint_failures");
  obs::Counter& ckpt_bytes_full = obs::metrics().counter("ckpt.bytes_full");
  obs::Counter& ckpt_bytes_delta = obs::metrics().counter("ckpt.bytes_delta");
  obs::Gauge& ckpt_dirty_ratio = obs::metrics().gauge("ckpt.dirty_ratio");
};
NodeMetrics& nm() {
  static NodeMetrics m;
  return m;
}

// The lock-free read path shares the engine's retry counter: a snapshot
// retry costs the same whether a worker or a client-side get() paid it.
obs::Counter& read_retry_counter() {
  static obs::Counter& c = obs::metrics().counter("engine.read_retries");
  return c;
}
}  // namespace

// ----------------------------------------------------- guarded channel ---

void Node::GuardedChannel::set_message_handler(MessageHandler handler) {
  // Do not capture `this`: the wrapper outlives the GuardedChannel inside
  // the socket's handler slot. The epoch check (under the commit mutex)
  // makes sure `h` is only invoked while the objects it points into still
  // exist.
  Node* node = &node_;
  const std::uint64_t epoch = node_.channel_epoch_;
  inner_.set_message_handler(
      [node, epoch, h = std::move(handler)](std::vector<std::byte> frame) {
        std::vector<std::pair<DoneFn, CommitInfo>> callbacks;
        {
          std::unique_lock lock(node->commit_mu_);
          if (node->channel_epoch_ != epoch) return;  // role torn down
          // Parallel commit path (DESIGN.md §13): join frames serve a
          // snapshot whose boundary is the installed low-water. Seal first
          // so the log writer's tail covers every installed transaction,
          // and hold the install gate while the handler walks replication
          // state so no committer is mid-install under it. Acks and
          // heartbeats read no store state and skip both.
          std::unique_lock<std::shared_mutex> gate;
          if (node->engine_ && node->engine_->parallel_commit() &&
              repl::frame_serves_join(frame)) {
            node->engine_->seal_epoch();
            // A rare seal site: ship what it sealed inline, ahead of the
            // snapshot (the handler holds commit_mu_, so the writer and
            // replicator cannot be torn down under this pump).
            node->log_writer_->pump();
            gate = std::unique_lock(node->engine_->install_gate());
          }
          // Commit acks finish parked transactions right here (see
          // finish_parked_locked); their done callbacks run below, after
          // commit_mu_ is released.
          node->ack_callbacks_ = &callbacks;
          if (h) h(std::move(frame));
          node->ack_callbacks_ = nullptr;
        }
        for (auto& [cb, info] : callbacks) cb(info);
      });
}

void Node::GuardedChannel::set_disconnect_handler(DisconnectHandler handler) {
  Node* node = &node_;
  const std::uint64_t epoch = node_.channel_epoch_;
  inner_.set_disconnect_handler([node, epoch, h = std::move(handler)] {
    std::unique_lock lock(node->commit_mu_);
    if (node->channel_epoch_ != epoch) return;
    if (h) h();
  });
}

// ----------------------------------------------------------------- node ---

Node::Node(NodeConfig config, std::string name)
    : config_(config),
      name_(std::move(name)),
      store_(config.store_capacity_hint),
      overload_(config.overload) {
  if (config_.log_path.empty()) {
    disk_ = std::make_unique<log::MemoryLogStorage>();
  } else if (config_.log_segment_bytes > 0) {
    log::SegmentedLogStorage::Options seg;
    seg.segment_bytes = config_.log_segment_bytes;
    seg.fsync_on_flush = config_.fsync_log;
    auto segmented = log::SegmentedLogStorage::open(config_.log_path, seg);
    if (!segmented.is_ok()) {
      RODAIN_ERROR("%s: cannot open segmented log %s (%s); using memory log",
                   name_.c_str(), config_.log_path.c_str(),
                   segmented.status().to_string().c_str());
      disk_ = std::make_unique<log::MemoryLogStorage>();
    } else {
      log_tail_trimmed_ = segmented.value()->tail_trimmed_at_open();
      disk_ = std::move(segmented).value();
    }
  } else {
    auto file = log::FileLogStorage::open(config_.log_path, config_.fsync_log);
    if (!file.is_ok()) {
      RODAIN_ERROR("%s: cannot open log %s (%s); using memory log",
                   name_.c_str(), config_.log_path.c_str(),
                   file.status().to_string().c_str());
      disk_ = std::make_unique<log::MemoryLogStorage>();
    } else {
      disk_ = std::move(file).value();
    }
  }
  log::Checkpointer::Options ckpt;
  ckpt.interval = config_.checkpoint_interval;
  ckpt.boundary = [this] {
    return engine_ ? engine_->installed_low_water() : ValidationTs{0};
  };
  ckpt.write = [this](ValidationTs b) {
    // Fuzzy needs a primary-side engine (the flip runs under its install
    // gate; mirror applies are not excludable that way) — anything else
    // keeps the legacy stop-the-world encode.
    if (config_.fuzzy_checkpoint && engine_) {
      return write_checkpoint_fuzzy_locked(b);
    }
    return write_checkpoint_at_locked(b);
  };
  ckpt.log = disk_.get();
  ckpt_.configure(std::move(ckpt));
  // Lifecycle stage clocks read this node's steady clock; the engine stamps
  // read/validate/write transitions, the log writer ship/ack.
  config_.engine.clock = &clock_;
  if (config_.http_port >= 0) start_http();
}

void Node::start_http() {
  auto server = net::HttpServer::listen(
      static_cast<std::uint16_t>(config_.http_port),
      [this](const std::string& path) { return route_http(path); });
  if (!server.is_ok()) {
    RODAIN_ERROR("%s: observability endpoint failed: %s", name_.c_str(),
                 server.status().to_string().c_str());
    return;
  }
  http_ = std::move(server).value();
  RODAIN_INFO("%s: observability endpoint on 127.0.0.1:%u", name_.c_str(),
              static_cast<unsigned>(http_->port()));
}

net::HttpServer::Response Node::route_http(const std::string& path) {
  // Runs on the HTTP server thread. Touches only the process-wide obs
  // registries and this node's atomics — no node mutex, so a wedged commit
  // path can still be inspected live.
  net::HttpServer::Response r;
  if (path == "/metrics") {
    r.content_type = "text/plain; version=0.0.4; charset=utf-8";
    r.body = obs::metrics().render_text();
  } else if (path == "/vars") {
    r.content_type = "application/json";
    r.body = obs::metrics().render_json();
  } else if (path == "/trace") {
    r.content_type = "application/json";
    r.body = obs::tracer().dump_json();
  } else if (path == "/healthz") {
    const NodeRole current = role();
    const bool up = serving();
    r.status = up ? 200 : 503;
    r.content_type = "application/json";
    r.body = "{\"node\":\"" + name_ + "\",\"role\":\"" +
             std::string(to_string(current)) +
             "\",\"serving\":" + (up ? "true" : "false") +
             ",\"recovery_mode\":" +
             std::to_string(recovery_mode_.load(std::memory_order_acquire)) +
             "}\n";
  } else {
    r.status = 404;
    r.body = "unknown path; routes: /metrics /vars /trace /healthz\n";
  }
  return r;
}

Node::~Node() { stop(); }

NodeRole Node::role() const { return role_.load(std::memory_order_acquire); }

bool Node::serving() const {
  const NodeRole r = role_.load(std::memory_order_acquire);
  return r == NodeRole::kPrimaryWithMirror || r == NodeRole::kPrimaryAlone;
}

void Node::become_locked(NodeRole role) {
  const NodeRole old = role_.load(std::memory_order_relaxed);
  if (old == role) return;
  RODAIN_INFO("%s: role %s -> %s", name_.c_str(),
              std::string(to_string(old)).c_str(),
              std::string(to_string(role)).c_str());
  role_.store(role, std::memory_order_release);
  nm().role_transitions.inc();
  nm().role.set(static_cast<double>(static_cast<int>(role)));
  if (obs::tracing_enabled()) {
    obs::tracer().record_instant(obs::Phase::kRoleChange,
                                 static_cast<std::uint64_t>(role));
  }
  // Availability timeline: serving roles open a serving window; leaving one
  // opens an outage. A node that was never serving (fresh mirror, rejoin)
  // does not log an outage for its mirror tenure.
  const std::int64_t t = clock_.now().us;
  const bool now_serving =
      role == NodeRole::kPrimaryWithMirror || role == NodeRole::kPrimaryAlone;
  if (now_serving) {
    availability_.set_serving(true, t);
  } else if (availability_.serving()) {
    availability_.set_serving(false, t);
  }
  availability_.publish_metrics("node.avail", t);
  // The heartbeat loop watches per-role deadlines; let it re-plan.
  service_cv_.notify_all();
}

void Node::escalate_mirror_lost_locked(const char* why) {
  if (role_.load(std::memory_order_relaxed) != NodeRole::kPrimaryWithMirror) {
    return;
  }
  RODAIN_INFO("%s: mirror lost (%s)", name_.c_str(), why);
  link_down_since_.reset();
  log_writer_->on_mirror_lost();
  become_locked(NodeRole::kPrimaryAlone);
  ready_cv_.notify_all();
}

void Node::build_primary_locked(LogMode mode) {
  // Workers pump the log writer with no node lock held, so the writer and
  // replicator replaced below must have no worker: start_primary runs from
  // kDown (stop() joined them) and take_over_locked from the mirror role,
  // which has none. Every other pump runs under commit_mu_.
  assert(workers_.empty());
  ++channel_epoch_;  // invalidate callbacks into the old role's objects
  link_down_since_.reset();
  mirror_.reset();
  replicator_.reset();
  log_writer_ = std::make_unique<log::LogWriter>(LogMode::kOff, disk_.get(), nullptr);
  log_writer_->set_stage_clock(&clock_);
  if (peer_) {
    guarded_channel_ = std::make_unique<GuardedChannel>(*this, *peer_);
    repl::PrimaryReplicator::Hooks hooks;
    hooks.snapshot_boundary = [this] {
      return engine_ ? engine_->installed_low_water() : ValidationTs{0};
    };
    // Runs under commit_mu_ (GuardedChannel wraps every inbound frame).
    hooks.join_artifacts = [this] { return join_artifacts_locked(); };
    hooks.on_mirror_joined = [this] {
      log_writer_->set_mode(LogMode::kMirror);
      become_locked(NodeRole::kPrimaryWithMirror);
    };
    hooks.on_disconnect = [this] {
      if (role_.load(std::memory_order_relaxed) !=
          NodeRole::kPrimaryWithMirror) {
        return;
      }
      if (!config_.disconnect_grace.is_positive()) {
        escalate_mirror_lost_locked("link lost");
      } else if (!link_down_since_) {
        link_down_since_ = clock_.now();
        RODAIN_INFO("%s: mirror link down, grace %lld us", name_.c_str(),
                    static_cast<long long>(config_.disconnect_grace.us));
        service_cv_.notify_all();  // the grace expiry is a new deadline
      }
    };
    hooks.on_reconnected = [this] {
      if (link_down_since_) {
        RODAIN_INFO("%s: mirror link restored within grace", name_.c_str());
        link_down_since_.reset();
      }
    };
    hooks.on_peer_primary = [this, warned = false](ValidationTs peer) mutable {
      // Split brain in the threaded runtime is detected and surfaced, not
      // auto-resolved: demoting a live primary means quiescing the worker
      // pool mid-transaction, so the deployment fences manually (the sim
      // runtime auto-demotes — DESIGN.md §8 documents the asymmetry).
      obs::metrics().counter("node.split_brain_detected").inc();
      if (!warned) {
        warned = true;
        RODAIN_WARN(
            "%s: split brain: peer also claims a primary role "
            "(peer height %llu vs ours %llu) — manual fencing required",
            name_.c_str(), static_cast<unsigned long long>(peer),
            static_cast<unsigned long long>(
                engine_ ? engine_->installed_low_water() : 0));
      }
    };
    replicator_ = std::make_unique<repl::PrimaryReplicator>(
        *guarded_channel_, clock_, store_, *log_writer_, std::move(hooks));
    replicator_->set_index(&index_);
    log_writer_->set_shipper(replicator_.get());
    log_writer_->configure_ack_timeout(&clock_, config_.ack_timeout, [this] {
      escalate_mirror_lost_locked("commit ack timeout");
    });
    // The schedule hook runs under commit_mu_ (every submit path holds it);
    // flush_batch() — which pumps inline — is then driven by the timer
    // thread, also under it.
    log_flush_at_.reset();
    log_writer_->configure_batching(
        &clock_, config_.log_batch, [this](Duration d) {
          const TimePoint at = clock_.now() + d;
          if (!log_flush_at_ || at < *log_flush_at_) log_flush_at_ = at;
          timer_cv_.notify_all();
        });
  }
  log_writer_->set_mode(mode);

  // Parallel commit (DESIGN.md §13): with more than one worker, OCC
  // transactions validate and install outside commit_mu_ (per-record write
  // intents + the engine's validation mutex), and redo records reach the
  // LogWriter through the epoch sealer. The engine opts back out for
  // controllers without a lock-free read phase (2PL).
  config_.engine.parallel_commit =
      config_.engine.parallel_commit || config_.worker_threads > 1;

  // Every engine hook fires with commit_mu_ held (worker serial sections,
  // channel handlers, the timer's flush path), so push_ready's park-resume
  // handshake is race-free by construction.
  engine::Engine::Hooks hooks;
  hooks.on_victim_restart = [this](TxnId id) { push_ready(id); };
  hooks.on_lock_granted = [this](TxnId id) { push_ready(id); };
  hooks.on_log_durable = [this](TxnId id) {
    if (ack_callbacks_ && finish_parked_locked(id, *ack_callbacks_)) return;
    push_ready(id);
  };
  engine_ = std::make_unique<engine::Engine>(config_.engine, store_, &index_,
                                             *log_writer_, std::move(hooks));
  if (recovery_ && recovery_->active()) {
    engine_->set_recovery(recovery_.get());
  }
}

void Node::start_primary(LogMode mode, net::Channel* peer) {
  std::unique_lock lock(commit_mu_);
  assert(role_.load(std::memory_order_relaxed) == NodeRole::kDown);
  peer_ = peer;
  {
    std::lock_guard q(queue_mu_);
    stopping_.store(false, std::memory_order_relaxed);
  }
  build_primary_locked(mode);
  engine_->set_next_validation_seq(recovered_next_seq_);
  become_locked(mode == LogMode::kMirror ? NodeRole::kPrimaryWithMirror
                                         : NodeRole::kPrimaryAlone);
  for (std::size_t i = 0; i < config_.worker_threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
  timer_ = std::thread([this] { timer_loop(); });
  if (peer_) heartbeater_ = std::thread([this] { heartbeat_loop(); });
  if (!config_.checkpoint_path.empty() &&
      config_.checkpoint_interval.is_positive()) {
    checkpointer_ = std::thread([this] {
      std::unique_lock ckpt_lock(commit_mu_);
      while (!stopping_.load(std::memory_order_relaxed)) {
        service_cv_.wait_for(
            ckpt_lock,
            std::chrono::microseconds(config_.checkpoint_interval.us));
        if (stopping_.load(std::memory_order_relaxed) || !serving_locked()) {
          continue;
        }
        if (recovery_ && recovery_->active()) {
          // A checkpoint at the installed low-water would claim to cover
          // deferred commits whose after-images are still parked in the
          // redo index; wait for the sweep to drain it.
          continue;
        }
        // The Checkpointer owns the cadence (a spurious wake is a no-op
        // tick) and truncates the log after each successful write.
        ckpt_.tick(clock_.now());
      }
    });
  }
  if (recovery_ && recovery_->active()) {
    sweeper_ = std::thread([this] { sweeper_loop(); });
  }
  start_sampler_locked();
}

void Node::sweeper_loop() {
  std::unique_lock lock(commit_mu_);
  while (!stopping_.load(std::memory_order_relaxed)) {
    if (!recovery_) break;
    if (recovery_->active()) {
      recovery_->sweep(config_.recovery_sweep_txns, store_, &index_);
    }
    if (!recovery_->active()) {
      // Drained — by this sweep, the on-demand path, or an explicit
      // checkpoint drain (then finish already ran and this is a no-op).
      finish_recovery_locked("background sweep drained");
      break;
    }
    service_cv_.wait_for(
        lock, std::chrono::microseconds(config_.recovery_sweep_interval.us));
  }
}

void Node::finish_recovery_locked(const char* how) {
  // Acquire pairs with the release store in recover_from_local_state: the
  // sweeper or a checkpoint drain entering here must observe the fully
  // initialized redo index the flag published, not just the flag itself
  // (commit_mu_ orders the common paths, but the pairing keeps the flag
  // self-contained for every reader — /healthz reads it with no mutex).
  if (!recovery_ || recovery_mode_.load(std::memory_order_acquire) == 0) {
    return;  // never entered recovery mode, or already finished
  }
  if (engine_) engine_->set_recovery(nullptr);
  recovery_->retire();
  recovery_mode_.store(0, std::memory_order_release);
  obs::metrics().gauge("recovery.mode").set(0.0);
  RODAIN_INFO("%s: instant recovery complete: %s (%llu on-demand, "
              "%llu background replays)",
              name_.c_str(), how,
              static_cast<unsigned long long>(recovery_->ondemand_applied()),
              static_cast<unsigned long long>(recovery_->background_applied()));
  if (obs::tracing_enabled()) {
    obs::tracer().record_instant(obs::Phase::kRecovery, recovery_->last_seq());
  }
}

void Node::start_sampler_locked() {
  if (sampler_.joinable() || !config_.metrics_snapshot_interval.is_positive()) {
    return;
  }
  sampler_ = std::thread([this] {
    std::unique_lock lock(commit_mu_);
    // Deadline-driven: one row per interval however often the cv wakes.
    TimePoint next = clock_.now() + config_.metrics_snapshot_interval;
    while (!stopping_.load(std::memory_order_relaxed)) {
      const TimePoint now = clock_.now();
      if (now < next) {
        service_cv_.wait_for(lock, std::chrono::microseconds((next - now).us));
        continue;
      }
      sample_metrics_locked();
      next = now + config_.metrics_snapshot_interval;
    }
  });
}

void Node::sample_metrics_locked() {
  if (!obs::enabled()) return;
  // Refresh the point-in-time gauges right before the registry snapshot so
  // the sampled row is internally consistent. active_ structure is written
  // under both mutexes, so reading its size under commit_mu_ is safe.
  nm().active_txns.set(static_cast<double>(active_.size()));
  nm().miss_ratio.set(counters_.miss_ratio());
  obs::metrics().sample_into(series_, obs::now_us());
}

bool Node::serving_locked() const {
  const NodeRole r = role_.load(std::memory_order_relaxed);
  return r == NodeRole::kPrimaryWithMirror || r == NodeRole::kPrimaryAlone;
}

Status Node::write_checkpoint_at_locked(ValidationTs boundary) {
  // Parallel committers install outside commit_mu_; the unique gate makes
  // the store walk see no half-installed transaction. (Mirror-role callers
  // have no engine — their applies run serially under commit_mu_.)
  // The whole encode counts as stall: commit_mu_ is held throughout, so
  // every committer waits for the full store walk (the cost the fuzzy
  // path exists to avoid).
  obs::ScopedTimer stall(nm().checkpoint_stall);
  std::unique_lock<std::shared_mutex> gate;
  if (engine_ && engine_->parallel_commit()) {
    gate = std::unique_lock(engine_->install_gate());
  }
  Status s = storage::write_checkpoint_file(store_, boundary,
                                            config_.checkpoint_path, &index_);
  if (s) {
    RODAIN_INFO("%s: checkpoint written at boundary %llu", name_.c_str(),
                static_cast<unsigned long long>(boundary));
    obs::metrics().counter("node.checkpoints").inc();
    if (obs::tracing_enabled()) {
      obs::tracer().record_instant(obs::Phase::kCheckpoint, boundary);
    }
  } else {
    nm().checkpoint_failures.inc();
  }
  return s;
}

Status Node::write_checkpoint_fuzzy_locked(ValidationTs boundary) {
  // Phase 1 — the only part committers ever wait for: flip the store into
  // snapshot mode and start (or cut) the index journal under writer
  // exclusion. O(retain stripes), independent of store size.
  std::uint64_t capture = 0;
  bool base = false;
  std::vector<storage::IndexOp> journal;
  {
    obs::ScopedTimer stall(nm().checkpoint_stall);
    std::unique_lock<std::shared_mutex> gate;
    if (engine_->parallel_commit()) {
      engine_->seal_epoch();
      log_writer_->pump();  // rare seal site: ship inline, under commit_mu_
      gate = std::unique_lock(engine_->install_gate());
    }
    // A base is forced when there is no chain to extend, when the chain is
    // long enough that replaying deltas would dominate recovery, or when
    // the journal was lost (e.g. a failed base write disabled it).
    base = !ckpt_have_base_ ||
           ckpt_deltas_since_base_ >= config_.checkpoint_delta_limit ||
           !index_.journal_enabled();
    capture = store_.snapshot_begin();
    if (base) {
      index_.set_journal(true);
    } else {
      journal = index_.cut_journal();
    }
  }

  // Phase 2 — encode and persist off-lock. Committers keep running; any
  // record they would overwrite before the walker reaches it is retained
  // as a pre-image by the store. Dropping commit_mu_ here is safe: ckpt_
  // is single-flight (running_ guard), and stop() joins the checkpointer
  // thread before tearing down engine_/store_/index_.
  commit_mu_.unlock();
  const std::uint64_t floor = base ? 0 : ckpt_floor_epoch_;
  ByteWriter w(store_.size() * 80 + 64);
  storage::FuzzyEncodeStats stats;
  if (base) {
    stats = storage::encode_fuzzy_base(store_, index_, boundary, w);
  } else {
    stats = storage::encode_fuzzy_delta(store_, journal, boundary, floor, w);
  }
  const std::string suffix =
      (base ? ".b" : ".d") + std::to_string(capture);
  const std::string path = config_.checkpoint_path + suffix;
  Status s = storage::write_file_atomic(path, w.view());
  storage::CkptManifest next;
  if (s) {
    if (!base) next = ckpt_chain_;
    storage::ManifestEntry entry;
    entry.kind = base ? storage::ManifestEntry::Kind::kBase
                      : storage::ManifestEntry::Kind::kDelta;
    entry.boundary = boundary;
    entry.capture_epoch = capture;
    entry.bytes = stats.bytes;
    entry.file =
        std::filesystem::path(config_.checkpoint_path).filename().string() +
        suffix;
    next.entries.push_back(std::move(entry));
    s = storage::write_manifest_file(
        next, storage::manifest_path_for(config_.checkpoint_path));
    if (!s) std::remove(path.c_str());  // unreferenced artifact: delete it
  }
  commit_mu_.lock();
  store_.snapshot_end();

  if (!s) {
    nm().checkpoint_failures.inc();
    if (base) {
      // The journal started in phase 1 only covers ops since this failed
      // base; keeping it would let a later delta chain onto a chain whose
      // base never landed. Force the next attempt to be a base.
      index_.set_journal(false);
      ckpt_have_base_ = false;
    } else {
      // Put the cut ops back so the next delta still covers them.
      index_.restore_journal(std::move(journal));
    }
    return s;
  }

  // Prune artifacts the new manifest no longer references (a replaced
  // chain after a base, or nothing after a delta).
  for (const storage::ManifestEntry& old : ckpt_chain_.entries) {
    const bool kept =
        std::any_of(next.entries.begin(), next.entries.end(),
                    [&](const storage::ManifestEntry& e) {
                      return e.file == old.file;
                    });
    if (!kept) {
      std::remove(
          storage::sibling_path(config_.checkpoint_path, old.file).c_str());
    }
  }
  ckpt_chain_ = std::move(next);
  ckpt_have_base_ = true;
  ckpt_deltas_since_base_ = base ? 0 : ckpt_deltas_since_base_ + 1;
  ckpt_floor_epoch_ = capture;
  if (base) {
    nm().ckpt_bytes_full.inc(stats.bytes);
    nm().ckpt_dirty_ratio.set(1.0);
  } else {
    nm().ckpt_bytes_delta.inc(stats.bytes);
    const std::size_t live = store_.size();
    nm().ckpt_dirty_ratio.set(
        live == 0 ? 0.0
                  : static_cast<double>(stats.records) /
                        static_cast<double>(live));
  }
  RODAIN_INFO("%s: fuzzy %s checkpoint at boundary %llu (epoch %llu, "
              "%llu records, %llu bytes)",
              name_.c_str(), base ? "base" : "delta",
              static_cast<unsigned long long>(boundary),
              static_cast<unsigned long long>(capture),
              static_cast<unsigned long long>(stats.records),
              static_cast<unsigned long long>(stats.bytes));
  obs::metrics().counter("node.checkpoints").inc();
  if (obs::tracing_enabled()) {
    obs::tracer().record_instant(obs::Phase::kCheckpoint, boundary);
  }
  return Status::ok();
}

Status Node::write_checkpoint_locked() {
  if (recovery_ && recovery_->active()) {
    // The boundary below claims every commit up to the installed low-water
    // is in the store; deferred redo chains would make that a lie. Drain
    // them first (an explicit checkpoint request ends instant recovery).
    recovery_->drain(store_, &index_);
    finish_recovery_locked("drained for checkpoint");
  }
  // The Checkpointer is the single boundary authority: routing the explicit
  // request through run() serializes it with the cadenced timer (single
  // flight), so the covered boundary stays monotone even when the fuzzy
  // path drops commit_mu_ mid-write.
  return ckpt_.run(clock_.now(), /*force=*/true);
}

Status Node::write_checkpoint() {
  std::lock_guard lock(commit_mu_);
  if (config_.checkpoint_path.empty()) {
    return Status::error(ErrorCode::kFailedPrecondition, "no checkpoint path");
  }
  return write_checkpoint_locked();
}

std::optional<repl::JoinArtifacts> Node::join_artifacts_locked() {
  if (config_.log_segment_bytes == 0 || config_.checkpoint_path.empty()) {
    return std::nullopt;
  }
  if (!mirror_disk_dense_) {
    // A stored-log flush failed while this node was the mirror: the disk
    // log may have holes the collector below cannot detect (an entire
    // flushed batch can be missing, not just a torn tail). Serve the join
    // by live encode instead.
    RODAIN_INFO("%s: disk log marked non-dense by the mirror epoch; "
                "falling back to live encode",
                name_.c_str());
    return std::nullopt;
  }
  auto ckpt = storage::read_artifact_chain_bytes(config_.checkpoint_path);
  if (!ckpt.is_ok()) return std::nullopt;
  const ValidationTs boundary = ckpt.value().meta.last_applied;
  const ValidationTs low_water = engine_ ? engine_->installed_low_water() : 0;
  if (boundary > low_water) {
    // Never serve a snapshot claiming more than the engine installed.
    return std::nullopt;
  }
  repl::JoinArtifacts artifacts;
  artifacts.boundary = boundary;
  if (low_water > boundary) {
    // Catch-up candidates: the surviving segments plus the writer's
    // in-memory tail; a collector reorderer dedups the overlap and orders
    // them. Dense coverage of (boundary, low_water] is proven by the
    // released floor reaching low_water — after a kMirror epoch the local
    // segments can have holes (records shipped to the mirror never hit
    // this disk), and then the live-encode path must take over.
    auto all = log::SegmentedLogStorage::read_all(config_.log_path);
    if (!all.is_ok()) return std::nullopt;
    ValidationTs released = boundary;
    log::Reorderer collector(
        [&](std::vector<log::ReleasedTxn> epoch) {
          for (log::ReleasedTxn& t : epoch) {
            released = t.seq;
            for (log::Record& r : t.records) {
              artifacts.catch_up.push_back(std::move(r));
            }
          }
        },
        boundary + 1);
    collector.begin_batch();
    for (log::Record& r : all.value()) (void)collector.add(std::move(r));
    if (log_writer_) {
      auto tail = log_writer_->tail_since(boundary);
      collector.begin_batch();
      for (log::Record& r : tail) (void)collector.add(std::move(r));
    }
    collector.flush_epoch();
    if (released != low_water) {
      RODAIN_INFO(
          "%s: disk join artifacts cover to seq %llu < low water %llu; "
          "falling back to live encode",
          name_.c_str(), static_cast<unsigned long long>(released),
          static_cast<unsigned long long>(low_water));
      return std::nullopt;
    }
  }
  artifacts.checkpoint_bytes = std::move(ckpt.value().bytes);
  return artifacts;
}

Result<log::RecoveryStats> Node::recover_from_local_state() {
  std::lock_guard lock(commit_mu_);
  if (role_.load(std::memory_order_relaxed) != NodeRole::kDown) {
    return Status::error(ErrorCode::kFailedPrecondition,
                         "recover before starting a role");
  }
  // A recovering node is in an outage until a serving role closes it: the
  // window from here to the first post-restart commit is the restart
  // downtime the flight recorder reports.
  availability_.set_serving(false, clock_.now().us);
  const bool instant = config_.instant_recovery && config_.log_segment_bytes > 0;
  Result<log::RecoveryStats> stats = [&]() -> Result<log::RecoveryStats> {
    if (instant) {
      // Instant recovery (DESIGN.md §12): load the checkpoint, index the
      // surviving segments, and let start_primary serve immediately — first
      // touch replays on demand, the sweeper thread drains the rest.
      recovery_ = std::make_unique<log::RedoIndex>();
      return log::recover_instant_segments(config_.checkpoint_path,
                                           config_.log_path, store_, *recovery_,
                                           &index_);
    }
    return config_.log_segment_bytes > 0
               ? log::recover_checkpoint_and_segments(config_.checkpoint_path,
                                                      config_.log_path, store_,
                                                      &index_)
               : log::recover_checkpoint_and_log(
                     config_.checkpoint_path, config_.log_path, store_, &index_);
  }();
  if (instant) {
    if (!stats.is_ok() || !recovery_->active()) {
      // Error, or nothing to defer (empty log / checkpoint covers it all):
      // no recovery phase to run.
      recovery_.reset();
    } else {
      recovery_mode_.store(1, std::memory_order_release);
      obs::metrics().gauge("recovery.mode").set(1.0);
    }
  }
  if (stats.is_ok()) {
    // Opening the segmented log (in the constructor) already trimmed any
    // torn tail the crash left, so the replay above saw a clean directory;
    // fold the trim back into the stats the caller sees.
    stats.value().torn_tail |= log_tail_trimmed_;
    recovered_next_seq_ = stats.value().last_seq + 1;
    if (instant) {
      RODAIN_INFO(
          "%s: instant recovery ready (%llu txns deferred, next seq %llu)",
          name_.c_str(),
          static_cast<unsigned long long>(stats.value().deferred_txns),
          static_cast<unsigned long long>(recovered_next_seq_));
    } else {
      RODAIN_INFO("%s: local recovery done (%llu txns replayed, next seq %llu)",
                  name_.c_str(),
                  static_cast<unsigned long long>(stats.value().committed_applied),
                  static_cast<unsigned long long>(recovered_next_seq_));
    }
    if (obs::tracing_enabled()) {
      obs::tracer().record_instant(obs::Phase::kRecovery,
                                   stats.value().last_seq);
    }
  }
  return stats;
}

void Node::start_mirror(net::Channel& peer, ValidationTs expected_next) {
  std::unique_lock lock(commit_mu_);
  assert(role_.load(std::memory_order_relaxed) == NodeRole::kDown);
  peer_ = &peer;
  {
    std::lock_guard q(queue_mu_);
    stopping_.store(false, std::memory_order_relaxed);
  }
  guarded_channel_ = std::make_unique<GuardedChannel>(*this, peer);
  repl::MirrorService::Options options;
  options.store_to_disk = true;
  options.on_synced = [this] { become_locked(NodeRole::kMirror); };
  options.on_abandoned = [this] { become_locked(NodeRole::kRecovering); };
  if (!config_.checkpoint_path.empty() &&
      config_.checkpoint_interval.is_positive()) {
    // Checkpoints ride the apply path: MirrorService polls the cadence and
    // truncates the stored log after each write (DESIGN.md §10).
    options.checkpoint_interval = config_.checkpoint_interval;
    options.write_checkpoint = [this](ValidationTs boundary) {
      return write_checkpoint_at_locked(boundary);
    };
  }
  if (recovery_ && recovery_->active()) {
    // The peer's stream supersedes whatever the local log still owed.
    recovery_->abandon();
    finish_recovery_locked("superseded by mirror role");
  }
  mirror_ = std::make_unique<repl::MirrorService>(store_, disk_.get(),
                                                  *guarded_channel_, clock_,
                                                  options, &index_);
  mirror_->attach_synced(expected_next);
  become_locked(NodeRole::kMirror);
  heartbeater_ = std::thread([this] { heartbeat_loop(); });
  start_sampler_locked();
}

void Node::start_rejoin(net::Channel& peer) {
  std::unique_lock lock(commit_mu_);
  assert(role_.load(std::memory_order_relaxed) == NodeRole::kDown);
  peer_ = &peer;
  {
    std::lock_guard q(queue_mu_);
    stopping_.store(false, std::memory_order_relaxed);
  }
  guarded_channel_ = std::make_unique<GuardedChannel>(*this, peer);
  repl::MirrorService::Options options;
  options.store_to_disk = true;
  options.on_synced = [this] { become_locked(NodeRole::kMirror); };
  options.on_abandoned = [this] { become_locked(NodeRole::kRecovering); };
  if (!config_.checkpoint_path.empty() &&
      config_.checkpoint_interval.is_positive()) {
    // Checkpoints ride the apply path: MirrorService polls the cadence and
    // truncates the stored log after each write (DESIGN.md §10).
    options.checkpoint_interval = config_.checkpoint_interval;
    options.write_checkpoint = [this](ValidationTs boundary) {
      return write_checkpoint_at_locked(boundary);
    };
  }
  if (recovery_ && recovery_->active()) {
    // The snapshot about to install supersedes the local log's deferred
    // chains; applying them afterwards would clobber newer state.
    recovery_->abandon();
    finish_recovery_locked("superseded by snapshot rejoin");
  }
  mirror_ = std::make_unique<repl::MirrorService>(store_, disk_.get(),
                                                  *guarded_channel_, clock_,
                                                  options, &index_);
  become_locked(NodeRole::kRecovering);
  RODAIN_INFO("%s: rejoining via snapshot + catch-up", name_.c_str());
  mirror_->request_join(0);
  heartbeater_ = std::thread([this] { heartbeat_loop(); });
  start_sampler_locked();
}

void Node::take_over_locked() {
  if (role_.load(std::memory_order_relaxed) != NodeRole::kMirror || !mirror_) {
    return;
  }
  auto takeover = mirror_->take_over();
  // Sticky until restart: a stored-log write failure during the mirror
  // epoch means the disk may have holes, so join_artifacts_locked must
  // never vouch for dense catch-up coverage from it.
  mirror_disk_dense_ = mirror_->disk_log_dense();
  ++channel_epoch_;
  link_down_since_.reset();
  mirror_.reset();
  peer_ = nullptr;  // the old primary is gone; a rejoin brings a new channel
  guarded_channel_.reset();
  build_primary_locked(LogMode::kDirectDisk);
  engine_->set_next_validation_seq(takeover.next_seq);
  become_locked(NodeRole::kPrimaryAlone);
  if (workers_.empty()) {
    for (std::size_t i = 0; i < config_.worker_threads; ++i) {
      workers_.emplace_back([this] { worker_loop(); });
    }
    timer_ = std::thread([this] { timer_loop(); });
  }
}

void Node::stop() {
  {
    std::scoped_lock lock(commit_mu_, queue_mu_);
    if (stopping_.load(std::memory_order_relaxed) &&
        role_.load(std::memory_order_relaxed) == NodeRole::kDown) {
      return;
    }
    stopping_.store(true, std::memory_order_relaxed);
    become_locked(NodeRole::kDown);
    // Freeze the outage become_locked just opened: downtime accrual stops at
    // shutdown, but the outage stays reported as open (never re-served).
    availability_.close(clock_.now().us);
  }
  ready_cv_.notify_all();
  timer_cv_.notify_all();
  service_cv_.notify_all();
  // Join BEFORE sweeping active_: a worker in the lock-free read phase holds
  // a raw Transaction pointer with no mutex, so the entries must outlive it.
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
  workers_.clear();
  if (timer_.joinable()) timer_.join();
  if (heartbeater_.joinable()) heartbeater_.join();
  if (checkpointer_.joinable()) checkpointer_.join();
  if (sampler_.joinable()) sampler_.join();
  if (sweeper_.joinable()) sweeper_.join();
  std::vector<std::pair<DoneFn, CommitInfo>> callbacks;
  {
    std::scoped_lock lock(commit_mu_, queue_mu_);
    // In-flight transactions die with the node.
    for (auto& [id, a] : active_) {
      if (a.done) {
        CommitInfo info;
        info.outcome = TxnOutcome::kSystemAborted;
        callbacks.emplace_back(std::move(a.done), info);
      }
      ++counters_.system_aborted;
    }
    active_.clear();
    ready_.clear();
    deadlines_.clear();
    ++channel_epoch_;
    engine_.reset();
    replicator_.reset();
    mirror_.reset();
    log_writer_.reset();
    guarded_channel_.reset();
  }
  http_.reset();
  for (auto& [cb, info] : callbacks) cb(info);
}

// ------------------------------------------------------------ client ----

void Node::submit(txn::TxnProgram program, DoneFn done) {
  std::vector<std::pair<DoneFn, CommitInfo>> callbacks;
  bool wake_timer = false;
  {
    std::unique_lock lock(commit_mu_);
    ++counters_.submitted;
    nm().submitted.inc();
    const TimePoint now = clock_.now();
    CommitInfo info;
    if (!serving_locked()) {
      ++counters_.system_aborted;
      info.outcome = TxnOutcome::kSystemAborted;
      if (done) callbacks.emplace_back(std::move(done), info);
    } else if (!overload_.try_admit(now)) {
      ++counters_.overload_rejected;
      info.outcome = TxnOutcome::kOverloadRejected;
      if (done) callbacks.emplace_back(std::move(done), info);
    } else {
      const TxnId id = next_local_txn_++;
      const TimePoint deadline =
          program.criticality == Criticality::kNonRealTime
              ? TimePoint::max()
              : now + program.relative_deadline;
      Active a;
      a.txn = std::make_unique<txn::Transaction>(id, ++admission_seq_,
                                                 std::move(program), now, deadline);
      a.done = std::move(done);
      if (obs::enabled()) a.txn->stages.enter(obs::Stage::kAdmit, now.us);
      engine_->begin(*a.txn);
      if (deadline != TimePoint::max()) {
        a.deadline_slot = deadlines_.emplace(deadline, id);
        // Wake the timer only if it would otherwise sleep past this one.
        wake_timer = deadline < timer_wake_at_;
      }
      if (obs::enabled()) {
        // Admission work done; the clock ticks in kQueueWait until a worker
        // picks the transaction up (step_read_phase stamps kReadPhase).
        a.txn->stages.enter(obs::Stage::kQueueWait, clock_.now().us);
      }
      {
        std::lock_guard q(queue_mu_);
        active_.emplace(id, std::move(a));
      }
      push_ready(id);
    }
  }
  if (wake_timer) timer_cv_.notify_one();
  for (auto& [cb, info] : callbacks) cb(info);
}

CommitInfo Node::execute(txn::TxnProgram program) {
  std::promise<CommitInfo> promise;
  auto future = promise.get_future();
  submit(std::move(program),
         [&promise](const CommitInfo& info) { promise.set_value(info); });
  return future.get();
}

Result<storage::Value> Node::get(ObjectId oid) {
  txn::TxnProgram program;
  program.read(oid);
  program.relative_deadline = Duration::seconds(5);
  const CommitInfo info = execute(std::move(program));
  if (info.outcome != TxnOutcome::kCommitted) {
    return Status::error(ErrorCode::kAborted, "read transaction aborted");
  }
  std::lock_guard lock(commit_mu_);
  if (engine_ && engine_->parallel_commit()) {
    // Committers install outside commit_mu_: read through the seqlock; on
    // contention exclude the installer via its write-intent stripe and
    // retry once (the stripe holder cannot be mid-install afterwards).
    storage::ObjectRecord snap;
    std::uint32_t retries = 0;
    storage::OptimisticRead r = store_.read_optimistic(oid, snap, retries);
    if (retries != 0) read_retry_counter().inc(retries);
    if (r == storage::OptimisticRead::kContended) {
      const auto intent = engine_->intents().acquire_one(oid);
      retries = 0;
      r = store_.read_optimistic(oid, snap, retries);
    }
    if (r != storage::OptimisticRead::kHit || snap.deleted) {
      return Status::error(ErrorCode::kNotFound, "no such object");
    }
    return std::move(snap.value);
  }
  const storage::ObjectRecord* rec = store_.find(oid);
  if (!rec) return Status::error(ErrorCode::kNotFound, "no such object");
  return rec->value;
}

Result<storage::Value> Node::read_committed(ObjectId oid) {
  if (!serving()) {
    return Status::error(ErrorCode::kUnavailable, "not serving");
  }
  // serving() ordered the role_ acquire before this: recovery_ was set (if
  // at all) before the node started serving and is never re-assigned until
  // the destructor, so the unlocked pointer read is safe. While the index
  // is active the store may lack deferred commits for this object; the
  // transactional fallback path replays them on first touch.
  if (recovery_ && recovery_->active()) {
    return Status::error(ErrorCode::kUnavailable, "instant recovery draining");
  }
  storage::ObjectRecord snap;
  std::uint32_t retries = 0;
  const storage::OptimisticRead r = store_.read_optimistic(oid, snap, retries);
  if (retries != 0) read_retry_counter().inc(retries);
  if (r == storage::OptimisticRead::kContended) {
    return Status::error(ErrorCode::kUnavailable, "seqlock contention");
  }
  // Re-check the role AFTER the snapshot: a takeover/demotion that raced the
  // read invalidates it (the value may predate the new primary's installs).
  if (!serving()) {
    return Status::error(ErrorCode::kUnavailable, "not serving");
  }
  if (r == storage::OptimisticRead::kMiss || snap.deleted) {
    return Status::error(ErrorCode::kNotFound, "no such object");
  }
  return std::move(snap.value);
}

// ------------------------------------------------------------ workers ---

void Node::push_ready(TxnId id) {
  std::lock_guard q(queue_mu_);
  auto it = active_.find(id);
  if (it == active_.end()) return;
  Active& a = it->second;
  if (a.owned_by_worker) {
    // The owner worker is driving it right now; it re-checks this flag at
    // its next park point (under commit_mu_ + queue_mu_, both held by every
    // caller of this path, so the handshake cannot be missed).
    a.resume_pending = true;
    return;
  }
  ready_.emplace(a.txn->priority(), id);
  ready_cv_.notify_one();
}

bool Node::finish_parked_locked(
    TxnId id, std::vector<std::pair<DoneFn, CommitInfo>>& callbacks) {
  txn::Transaction* t = nullptr;
  {
    std::lock_guard q(queue_mu_);
    auto it = active_.find(id);
    if (it == active_.end()) return false;
    // Ownership first: an owner may still be writing the phase unlocked;
    // an unowned entry quiesced its phase writes before releasing
    // ownership under queue_mu_. An owned one takes the resume_pending
    // path in push_ready.
    if (it->second.owned_by_worker ||
        it->second.txn->phase() != txn::Phase::kWaitLogAck) {
      return false;
    }
    t = it->second.txn.get();
  }
  // Parked and unowned: no worker can reach it (it is not in ready_, and
  // every path that could queue it holds commit_mu_, as we do). Finalizing
  // is O(1) bookkeeping, so it does not go back through the EDF queue (nor
  // burn the fidelity mode's modelled commit_finalize cost).
  const engine::StepResult r = engine_->step(*t);
  assert(r.action == engine::StepAction::kCommitted);
  (void)r;
  nm().finished_on_ack.inc();
  finish_locked(id, TxnOutcome::kCommitted, callbacks);
  return true;
}

void Node::lock_commit(std::unique_lock<std::mutex>& lock) {
  assert(lock.mutex() == &commit_mu_ && !lock.owns_lock());
  if (lock.try_lock()) return;
  obs::ScopedTimer wait(nm().commit_mu_wait);
  lock.lock();
}

void Node::worker_loop() {
  std::unique_lock qlock(queue_mu_);
  while (true) {
    ready_cv_.wait(qlock, [this] {
      return stopping_.load(std::memory_order_relaxed) || !ready_.empty();
    });
    if (stopping_.load(std::memory_order_relaxed)) return;
    const TxnId id = ready_.begin()->second;
    ready_.erase(ready_.begin());
    drive(id, qlock);
  }
}

void Node::drive(TxnId id, std::unique_lock<std::mutex>& qlock) {
  auto it = active_.find(id);
  if (it == active_.end()) return;
  it->second.owned_by_worker = true;
  // The entry (and the Transaction it owns) is stable while owned: only
  // finish_locked (called by this worker) or stop() — which joins workers
  // before sweeping — erases it.
  txn::Transaction* t = it->second.txn.get();
  qlock.unlock();

  std::vector<std::pair<DoneFn, CommitInfo>> callbacks;
  std::unique_lock commit(commit_mu_, std::defer_lock);
  // While true, t->lock_free_executing() is set and commit_mu_ is released:
  // the worker streams read-phase steps against seqlock snapshots while
  // other workers validate/install. Victimizers see the flag (they hold
  // commit_mu_) and defer the restart; we consume it at the next step.
  bool unlocked_reads = false;
  bool done = false;
  while (!done) {
    const bool want_unlocked = engine_->lock_free_reads() &&
                               t->phase() == txn::Phase::kReadPhase &&
                               !t->program_done();
    if (want_unlocked && !unlocked_reads) {
      if (!commit.owns_lock()) lock_commit(commit);
      if (stopping_.load(std::memory_order_relaxed)) break;
      // Flag flips happen only under commit_mu_, so a victimizer can never
      // observe a half-entered lock-free section.
      t->set_lock_free_executing(true);
      unlocked_reads = true;
      commit.unlock();
    }
    if (unlocked_reads) {
      if (stopping_.load(std::memory_order_relaxed)) break;
      if (std::optional<engine::StepResult> r = engine_->step_read_unlocked(*t)) {
        if (r->cost.is_positive() &&
            config_.engine.costs.per_read.is_positive()) {
          // Optional fidelity mode: burn the modelled CPU cost for real
          // (outside every lock — that is the whole point).
          const TimePoint until = clock_.now() + r->cost;
          while (clock_.now() < until) {
          }
        }
        continue;
      }
      if (t->phase() == txn::Phase::kReadPhase && t->program_done() &&
          engine_->parallel_commit_active()) {
        // Parallel commit (DESIGN.md §13): validate + install WITHOUT
        // commit_mu_ — per-record write intents and the engine's validation
        // mutex serialize what must be serial. Clearing the flag needs no
        // mutex here: with the parallel path compiled in, victimizers
        // always defer instead of reading lock_free_executing
        // (Engine::restart_victims).
        t->set_lock_free_executing(false);
        unlocked_reads = false;
        const engine::StepResult pr = engine_->step_commit_unlocked(*t);
        if (pr.cost.is_positive() &&
            config_.engine.costs.per_read.is_positive()) {
          const TimePoint until = clock_.now() + pr.cost;
          while (clock_.now() < until) {
          }
        }
        if (pr.action == engine::StepAction::kRestarted) continue;
        // Seal under commit_mu_: the buffered redo entry (and any peers'
        // below the dense edge) joins the globally seq-ordered stream the
        // LogWriter sees; kOff durables fire inside this call.
        lock_commit(commit);
        engine_->seal_epoch();
        if (stopping_.load(std::memory_order_relaxed)) break;
        if (pr.action == engine::StepAction::kAborted) {
          finish_locked(id, t->outcome(), callbacks);
          done = true;
          continue;
        }
        // kWaitLogAck: park unless the durable callback (inline kOff seal,
        // or a mirror/disk ack raced ahead) already resumed us.
        {
          std::lock_guard q(queue_mu_);
          auto it2 = active_.find(id);
          if (it2 == active_.end()) {
            done = true;
          } else if (it2->second.resume_pending) {
            it2->second.resume_pending = false;
          } else {
            it2->second.owned_by_worker = false;
            done = true;
          }
        }
        continue;
      }
      // The next step must run serially: validation is up (with the
      // parallel path inactive — recovery drain), a deferred victim-restart
      // is pending, or the optimistic read hit contention.
      lock_commit(commit);
      t->set_lock_free_executing(false);
      unlocked_reads = false;
      if (stopping_.load(std::memory_order_relaxed)) break;
    } else if (!commit.owns_lock()) {
      lock_commit(commit);
      if (stopping_.load(std::memory_order_relaxed)) break;
    }
    const engine::StepResult r = engine_->step(*t);
    if (r.cost.is_positive() && config_.engine.costs.per_read.is_positive()) {
      // Optional fidelity mode: burn the modelled CPU cost for real.
      const TimePoint until = clock_.now() + r.cost;
      while (clock_.now() < until) {
      }
    }
    switch (r.action) {
      case engine::StepAction::kContinue:
      case engine::StepAction::kRestarted:
        continue;
      case engine::StepAction::kBlocked:
      case engine::StepAction::kWaitLogAck: {
        // Every resume path (lock grant, log ack, victim restart) runs under
        // commit_mu_, which we hold: checking resume_pending and parking are
        // one atomic decision — the historical re-check race is gone.
        std::lock_guard q(queue_mu_);
        auto it2 = active_.find(id);
        if (it2 == active_.end()) {
          done = true;
          break;
        }
        if (it2->second.resume_pending) {
          it2->second.resume_pending = false;
          continue;  // the grant/ack already arrived
        }
        it2->second.owned_by_worker = false;
        done = true;
        break;
      }
      case engine::StepAction::kCommitted:
        finish_locked(id, TxnOutcome::kCommitted, callbacks);
        done = true;
        break;
      case engine::StepAction::kAborted:
        finish_locked(id, t->outcome(), callbacks);
        done = true;
        break;
    }
  }
  if (unlocked_reads) {
    // Shutdown path: clear the flag under commit_mu_ so the sweep in stop()
    // never sees a phantom lock-free owner.
    if (!commit.owns_lock()) lock_commit(commit);
    t->set_lock_free_executing(false);
  }
  if (commit.owns_lock()) commit.unlock();
  // Ship what this drive sealed — and whatever other committers sealed
  // meanwhile — with no node lock held (LogWriter::pump). stop() joins the
  // workers before it destroys the writer, and build_primary_locked never
  // runs while a worker exists.
  log_writer_->pump();
  for (auto& [cb, info] : callbacks) cb(info);
  qlock.lock();
}

void Node::finish_locked(TxnId id, TxnOutcome outcome,
                         std::vector<std::pair<DoneFn, CommitInfo>>& callbacks) {
  Active a;
  {
    std::lock_guard q(queue_mu_);
    auto it = active_.find(id);
    if (it == active_.end()) return;
    a = std::move(it->second);
    active_.erase(it);
  }
  if (a.deadline_slot) deadlines_.erase(*a.deadline_slot);
  overload_.on_finish();

  const TimePoint now = clock_.now();
  CommitInfo info;
  info.latency = now - a.txn->arrival();
  info.restarts = a.txn->restarts();
  info.late = a.late;
  info.captured_reads = std::move(a.txn->captured_reads);
  counters_.restarts += static_cast<std::uint64_t>(a.txn->restarts());

  if (obs::enabled()) {
    obs::observe_stages(a.txn->stages, now.us);
    const bool missed = (outcome == TxnOutcome::kCommitted && a.late) ||
                        outcome == TxnOutcome::kMissedDeadline;
    if (missed && a.txn->deadline() != TimePoint::max()) {
      // Charge the miss to the lifecycle stage that exhausted the slack.
      obs::charge_deadline_miss(a.txn->stages,
                                (a.txn->deadline() - a.txn->arrival()).us,
                                now.us);
    }
  }
  if (outcome == TxnOutcome::kCommitted) availability_.on_commit(now.us);

  if (outcome == TxnOutcome::kCommitted && a.late) {
    ++counters_.missed_deadline;
    nm().missed_deadline.inc();
    overload_.on_deadline_miss(now);
  } else {
    switch (outcome) {
      case TxnOutcome::kCommitted:
        ++counters_.committed;
        commit_latency_.add(info.latency);
        nm().committed.inc();
        nm().commit_latency.observe(info.latency);
        break;
      case TxnOutcome::kMissedDeadline:
        ++counters_.missed_deadline;
        nm().missed_deadline.inc();
        overload_.on_deadline_miss(now);
        break;
      case TxnOutcome::kOverloadRejected:
        ++counters_.overload_rejected;
        break;
      case TxnOutcome::kConflictAborted:
        ++counters_.conflict_aborted;
        nm().conflict_aborted.inc();
        break;
      case TxnOutcome::kSystemAborted:
        ++counters_.system_aborted;
        nm().system_aborted.inc();
        break;
    }
  }
  info.outcome = outcome;
  if (a.done) callbacks.emplace_back(std::move(a.done), info);
}

// -------------------------------------------------------------- timers ---

void Node::timer_loop() {
  std::unique_lock lock(commit_mu_);
  while (!stopping_.load(std::memory_order_relaxed)) {
    // Wake for whichever comes first: the next txn deadline or a pending
    // group-commit flush.
    std::optional<TimePoint> next;
    if (!deadlines_.empty()) next = deadlines_.begin()->first;
    if (log_flush_at_ && (!next || *log_flush_at_ < *next)) {
      next = *log_flush_at_;
    }
    if (!next) {
      timer_wake_at_ = TimePoint::max();
      timer_cv_.wait(lock, [this] {
        return stopping_.load(std::memory_order_relaxed) ||
               !deadlines_.empty() || log_flush_at_.has_value();
      });
      continue;
    }
    const TimePoint now = clock_.now();
    if (now < *next) {
      timer_wake_at_ = *next;
      timer_cv_.wait_for(lock, std::chrono::microseconds((*next - now).us));
      continue;
    }
    if (log_flush_at_ && clock_.now() >= *log_flush_at_) {
      log_flush_at_.reset();
      // flush_batch may re-arm via the schedule hook (sets log_flush_at_).
      if (log_writer_) log_writer_->flush_batch();
    }
    std::vector<std::pair<DoneFn, CommitInfo>> callbacks;
    while (!deadlines_.empty() && deadlines_.begin()->first <= clock_.now()) {
      const TxnId id = deadlines_.begin()->second;
      deadlines_.erase(deadlines_.begin());
      txn::Transaction* expired = nullptr;
      {
        std::lock_guard q(queue_mu_);
        auto it = active_.find(id);
        if (it == active_.end()) continue;
        Active& a = it->second;
        a.deadline_slot.reset();  // erased above
        // Ownership first: a parallel-commit owner mutates the phase with
        // neither node mutex held, so can_abort (which reads it) may only
        // run on unowned entries — those quiesced their phase writes before
        // releasing ownership under queue_mu_.
        if (!a.owned_by_worker &&
            a.txn->criticality() == Criticality::kFirm &&
            engine_->can_abort(*a.txn)) {
          // Not owned: no worker can pick it up once it leaves ready_
          // (push_ready callers hold commit_mu_, which we hold).
          ready_.erase({a.txn->priority(), id});
          expired = a.txn.get();
        } else {
          // Soft deadline, running, or already validated: it completes late.
          a.late = true;
        }
      }
      if (expired) {
        engine_->abort(*expired, TxnOutcome::kMissedDeadline);
        finish_locked(id, TxnOutcome::kMissedDeadline, callbacks);
      }
    }
    if (!callbacks.empty()) {
      lock.unlock();
      for (auto& [cb, info] : callbacks) cb(info);
      lock.lock();
    }
  }
}

// ---------------------------------------------------------- heartbeats ---

void Node::heartbeat_loop() {
  std::unique_lock lock(commit_mu_);
  const repl::Watchdog watchdog(config_.watchdog_timeout);
  // Deadlines sit one microsecond past each limit: the checks below fire
  // only once the limit is strictly exceeded.
  const Duration past = Duration::micros(1);
  TimePoint next_beat = clock_.now() + config_.heartbeat_interval;
  while (!stopping_.load(std::memory_order_relaxed)) {
    // Sleep until the earliest deadline the current role watches. Inputs
    // that only push a deadline later (frames refreshing last_heard, acks
    // draining the pending set) need no wake-up; role flips, a dropped
    // link and stop() notify service_cv_.
    const NodeRole r = role_.load(std::memory_order_relaxed);
    TimePoint wake = next_beat;
    if (r == NodeRole::kPrimaryWithMirror && replicator_) {
      wake = std::min(wake,
                      replicator_->last_heard() + watchdog.timeout() + past);
      if (link_down_since_) {
        wake = std::min(
            wake, *link_down_since_ + config_.disconnect_grace + past);
      }
      if (log_writer_) {
        if (auto ack = log_writer_->ack_deadline()) wake = std::min(wake, *ack);
      }
    } else if (r == NodeRole::kMirror && mirror_) {
      wake = std::min(wake, mirror_->last_heard() + watchdog.timeout() + past);
    }
    TimePoint now = clock_.now();
    if (now < wake) {
      service_cv_.wait_for(lock, std::chrono::microseconds((wake - now).us));
      continue;
    }
    const bool beat = now >= next_beat;
    if (beat) next_beat = now + config_.heartbeat_interval;
    switch (r) {
      case NodeRole::kPrimaryWithMirror:
        if (replicator_) {
          if (beat) {
            replicator_->send_heartbeat(
                r, engine_ ? engine_->installed_low_water() : 0);
            replicator_->poll(now);
          }
          if (link_down_since_ && replicator_->channel_connected()) {
            link_down_since_.reset();
          }
          now = clock_.now();
          if (link_down_since_ &&
              now - *link_down_since_ > config_.disconnect_grace) {
            escalate_mirror_lost_locked("disconnect grace expired");
            break;
          }
          if (log_writer_ && log_writer_->check_ack_timeouts()) break;
          if (role_.load(std::memory_order_relaxed) ==
                  NodeRole::kPrimaryWithMirror &&
              watchdog.expired(now, replicator_->last_heard())) {
            RODAIN_INFO("%s: watchdog expired for mirror", name_.c_str());
            escalate_mirror_lost_locked("watchdog expired");
          }
        }
        break;
      case NodeRole::kPrimaryAlone:
        if (replicator_ && beat) {
          replicator_->send_heartbeat(
              r, engine_ ? engine_->installed_low_water() : 0);
          replicator_->poll(now);
        }
        break;
      case NodeRole::kMirror:
        if (mirror_) {
          if (beat) {
            mirror_->send_heartbeat();
            mirror_->poll(now);
          }
          if (watchdog.expired(clock_.now(), mirror_->last_heard())) {
            RODAIN_INFO("%s: watchdog expired for primary, taking over",
                        name_.c_str());
            if (obs::tracing_enabled()) {
              obs::tracer().record_instant(obs::Phase::kPrimaryFailure, 0);
            }
            obs::metrics().counter("node.takeovers").inc();
            take_over_locked();
          }
        }
        break;
      case NodeRole::kRecovering:
        // Keep the primary's watchdog fed while the snapshot installs, and
        // drive the join retry/chunk-retry machinery.
        if (mirror_ && beat) {
          mirror_->send_heartbeat();
          mirror_->poll(now);
        }
        break;
      case NodeRole::kDown:
        break;
    }
  }
}

// ------------------------------------------------------------ telemetry --

TxnCounters Node::counters() const {
  std::lock_guard lock(commit_mu_);
  return counters_;
}

LatencyHistogram Node::commit_latency() const {
  std::lock_guard lock(commit_mu_);
  return commit_latency_;
}

ValidationTs Node::mirror_applied_seq() const {
  std::lock_guard lock(commit_mu_);
  return mirror_ ? mirror_->applied_seq() : 0;
}

obs::TimeSeries Node::metrics_series() const {
  std::lock_guard lock(commit_mu_);
  return series_;
}

obs::AvailabilityTimeline Node::availability() const {
  std::lock_guard lock(commit_mu_);
  return availability_;
}

std::uint16_t Node::http_port() const { return http_ ? http_->port() : 0; }

}  // namespace rodain::rt
