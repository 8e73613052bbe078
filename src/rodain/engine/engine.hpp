// The database engine: a passive (sans-IO) state machine that advances
// transactions one operation at a time.
//
// Drivers own time and concurrency: the simulator charges each step's CPU
// cost on a virtual preemptive-EDF processor, while the real-time runtime
// executes steps on worker threads. The engine itself only mutates state:
// it runs reads against the store, keeps deferred-write copies, validates
// through the pluggable concurrency controller, installs after-images, and
// hands redo records to the Log Writer.
//
// A transaction's journey (paper §2–3):
//   read phase  ->  validation  ->  write phase (+ log emission)  ->
//   wait for the commit-record ack  ->  final commit step.
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <shared_mutex>
#include <unordered_map>

#include "rodain/cc/controller.hpp"
#include "rodain/cc/intents.hpp"
#include "rodain/common/clock.hpp"
#include "rodain/common/types.hpp"
#include "rodain/log/redo_index.hpp"
#include "rodain/log/worker_buffer.hpp"
#include "rodain/log/writer.hpp"
#include "rodain/storage/btree.hpp"
#include "rodain/storage/object_store.hpp"
#include "rodain/txn/transaction.hpp"

namespace rodain::engine {

/// CPU cost of each engine step, charged by the driver. Calibrated in
/// workload/calibration.hpp so that the no-logging configuration saturates
/// at the paper's 200–300 txn/s (DESIGN.md §5).
struct CostModel {
  Duration txn_fixed{Duration::micros(1200)};   ///< charged on the first step
  Duration per_read{Duration::micros(350)};
  Duration per_update{Duration::micros(550)};
  Duration per_index_lookup{Duration::micros(80)};
  Duration validate{Duration::micros(250)};
  Duration per_install{Duration::micros(100)};
  Duration per_log_marshal{Duration::micros(50)};
  Duration commit_finalize{Duration::micros(200)};

  [[nodiscard]] static CostModel zero();  ///< free steps (functional tests)
};

struct EngineConfig {
  cc::Protocol protocol{cc::Protocol::kOccDati};
  CostModel costs{};
  /// Restart budget per transaction; < 0 means unlimited (the deadline is
  /// the real bound — "an aborted transaction is either discarded or
  /// restarted depending on its properties", paper §2).
  int max_restarts{-1};
  /// Capture every read value on the transaction (serializability tests).
  bool capture_reads{false};
  /// Driver clock for lifecycle stage stamps (obs/lifecycle.hpp): the
  /// real-time node passes its steady clock, the simulator passes itself.
  /// Null disables stage accounting.
  const Clock* clock{nullptr};
};

enum class StepAction : std::uint8_t {
  kContinue = 0,  ///< charge the cost, then call step() again
  kBlocked,       ///< parked on a lock; on_lock_granted will fire
  kWaitLogAck,    ///< parked until the log ack; on_log_durable will fire
  kCommitted,     ///< transaction finished successfully
  kRestarted,     ///< reset to the read phase; reschedule from scratch
  kAborted,       ///< terminal abort; outcome() says why
};

struct StepResult {
  StepAction action{StepAction::kContinue};
  Duration cost{Duration::zero()};
};

class Engine {
 public:
  struct Hooks {
    /// A concurrency-control victim was reset to its read phase in a serial
    /// context; the driver must cancel its in-flight CPU work and
    /// reschedule it. Fires under the engine's validation mutex, like
    /// on_lock_granted: neither may call back into the engine.
    std::function<void(TxnId)> on_victim_restart;
    /// A blocked (2PL) transaction's lock was granted.
    std::function<void(TxnId)> on_lock_granted;
    /// The log ack for a kWaitLogAck transaction arrived; drive its final
    /// commit step. May fire inline from within step().
    std::function<void(TxnId)> on_log_durable;
  };

  Engine(EngineConfig config, storage::ObjectStore& store,
         storage::BPlusTree* index, log::LogWriter& log_writer, Hooks hooks);

  /// Register and begin a transaction (driver keeps ownership).
  void begin(txn::Transaction& t);

  /// Advance the transaction by one unit of work.
  StepResult step(txn::Transaction& t);

  /// Whether the controller permits read-phase steps outside the commit
  /// mutex (OCC family; 2PL mutates its lock table on every access).
  [[nodiscard]] bool lock_free_reads() const {
    return cc_->lock_free_read_phase();
  }

  /// Advance one read-phase step WITHOUT the commit mutex (DESIGN.md §11).
  /// Reads come from seqlock snapshots; CC bookkeeping goes through the
  /// transaction's leaf mutex. Returns nullopt when the step must run
  /// serially instead: program done (validation is next), a deferred
  /// restart is pending, or the optimistic read exhausted its retries.
  /// Only the owner worker may call this, with t.lock_free_executing() set.
  [[nodiscard]] std::optional<StepResult> step_read_unlocked(
      txn::Transaction& t);

  /// Whether a driver may commit a transaction outside its commit mutex
  /// right now: false while a recovery drain runs (the redo index mutates
  /// under the commit mutex). Recovery only deactivates; it never
  /// reactivates, so a false->true transition cannot race an in-flight
  /// serial commit.
  [[nodiscard]] bool parallel_commit_active() const {
    const log::RedoIndex* rec = recovery_.load(std::memory_order_acquire);
    return !(rec && rec->active());
  }

  /// The commit step WITHOUT the driver's commit mutex. The caller owns the
  /// transaction, which is at a read-phase boundary with its program done,
  /// and keeps t.lock_free_executing() set until it re-takes the commit
  /// mutex. Victims are deferred. The redo entry is buffered: the driver
  /// must call seal_epoch() under its commit mutex afterwards (kWaitLogAck
  /// results park until the sealed submit's ack; kOff durable fires inside
  /// that seal).
  StepResult step_commit_unlocked(txn::Transaction& t);

  /// Drain the per-worker buffers and dispatch the dense seq prefix to the
  /// LogWriter. Serial context only (the driver's commit mutex). Returns
  /// transactions sealed.
  std::size_t seal_epoch();

  /// Install gate: committers install after-images holding it shared;
  /// whole-store readers (checkpoint writer, join snapshots) take it
  /// unique to see no half-installed transaction. Lock order: driver
  /// commit mutex -> gate.
  [[nodiscard]] std::shared_mutex& install_gate() { return install_gate_; }

  /// Per-record write intents (exposed for point-read fallbacks that must
  /// exclude a concurrent installer on one object).
  [[nodiscard]] cc::IntentTable& intents() { return intents_; }

  /// True while the transaction has not passed validation (only such
  /// transactions may be aborted — deferred writes make that free).
  [[nodiscard]] bool can_abort(const txn::Transaction& t) const;

  /// Terminal abort (deadline expiry, overload shedding, shutdown).
  void abort(txn::Transaction& t, TxnOutcome reason);

  [[nodiscard]] txn::Transaction* find(TxnId id);
  [[nodiscard]] ValidationTs last_validation_seq() const {
    return next_seq_.load(std::memory_order_acquire) - 1;
  }

  /// Highest seq v such that every transaction with seq <= v has installed
  /// its after-images — the consistent snapshot boundary for join serving.
  [[nodiscard]] ValidationTs installed_low_water() const {
    return installed_low_water_.load(std::memory_order_acquire);
  }
  [[nodiscard]] std::uint64_t restarts() const {
    return restarts_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] cc::ConcurrencyController& controller() { return *cc_; }
  [[nodiscard]] const CostModel& costs() const { return config_.costs; }

  /// Continue the validation sequence after a takeover (the new primary
  /// must not reuse sequence numbers the old one already shipped).
  void set_next_validation_seq(ValidationTs seq) {
    next_seq_.store(seq, std::memory_order_release);
    installed_low_water_.store(seq - 1, std::memory_order_release);
    sealer_.reset(seq);
  }

  /// Instant recovery (DESIGN.md §12): while `redo` is active, serial
  /// fetches replay an object's deferred chain on first touch, and
  /// optimistic read phases and commits always fall back to the serial
  /// path (the index mutates under the driver's commit mutex). Pass
  /// nullptr to detach; the pointer must outlive the engine or a later
  /// detach.
  void set_recovery(log::RedoIndex* redo) {
    recovery_.store(redo, std::memory_order_release);
  }

 private:
  // `optimistic` routes committed-state reads through seqlock snapshots and
  // forbids engine-state mutation (restart, abort, victim dispatch): those
  // paths set `*fallback` and leave the transaction unchanged so the caller
  // can re-run the same pc serially under the commit mutex.
  StepResult step_read_phase(txn::Transaction& t, bool optimistic,
                             bool* fallback);
  StepResult step_finalize(txn::Transaction& t);

  /// Committed-record fetch for one read-phase access: copies a seqlock
  /// snapshot into `snap` and returns &snap (nullptr on miss). Serial mode
  /// replays the redo index first and outlasts contention; optimistic
  /// mode sets `*fallback` and returns nullptr on retry exhaustion.
  const storage::ObjectRecord* fetch(ObjectId oid, storage::ObjectRecord& snap,
                                     bool optimistic, bool* fallback);

  StepResult exec_read(txn::Transaction& t, ObjectId oid, Duration base_cost,
                       bool optimistic, bool* fallback);
  StepResult exec_update(txn::Transaction& t, const txn::UpdateOp& op,
                         bool optimistic, bool* fallback);
  StepResult exec_insert(txn::Transaction& t, const txn::InsertOp& op,
                         bool optimistic, bool* fallback);
  StepResult exec_delete(txn::Transaction& t, const txn::DeleteOp& op,
                         bool optimistic, bool* fallback);

  /// Stamp the transaction's lifecycle stage clock (no-op without a
  /// driver clock or with obs disabled).
  void mark_stage(txn::Transaction& t, obs::Stage s) const;

  /// Reset a transaction to its read phase (self restart or victim).
  void restart(txn::Transaction& t);
  void restart_unsynchronized(txn::Transaction& t);
  /// Victim handling. A serial context (`defer` false) restarts a victim
  /// at once and fires on_victim_restart, unless its owner is running it
  /// outside the commit mutex (lock_free_executing): then, as always when
  /// `defer` is set, the owner consumes a restart request at its next
  /// step boundary. The _locked variant requires validate_mu_.
  void restart_victims(const std::vector<TxnId>& victims);  ///< serial
  void restart_victim_locked(TxnId id, bool defer);
  /// Self restart unless the budget is exhausted (then terminal abort).
  StepResult restart_or_abort(txn::Transaction& t, Duration cost);

  /// The commit step, the only one (DESIGN.md §13): validate under
  /// per-record intents + the validation mutex, install under the gate,
  /// append to the epoch sealer. `serial` (the simulator, a driver holding
  /// its commit mutex) restarts victims inline and seals immediately, so
  /// kOff configurations fire their durable callback before this returns.
  StepResult commit_transaction(txn::Transaction& t, bool serial);

  /// Marshal the redo stream (after-images + commit record, paper §3).
  [[nodiscard]] std::vector<log::Record> marshal_records(
      const txn::Transaction& t) const;

  EngineConfig config_;
  storage::ObjectStore& store_;
  storage::BPlusTree* index_;
  log::LogWriter& log_writer_;
  Hooks hooks_;
  std::unique_ptr<cc::ConcurrencyController> cc_;
  // Attached/detached under the driver's commit mutex but consulted by
  // unlocked read phases and parallel_commit_active(), so the pointer
  // itself is atomic. Chain mutation stays commit-mutex-serial.
  std::atomic<log::RedoIndex*> recovery_{nullptr};
  void mark_installed(ValidationTs seq);

  std::unordered_map<TxnId, txn::Transaction*> txns_;
  std::atomic<ValidationTs> next_seq_{1};
  std::atomic<ValidationTs> installed_low_water_{0};
  std::set<ValidationTs> installed_gap_;  ///< installed above the low-water
  std::atomic<std::uint64_t> restarts_{0};

  /// Commit path (DESIGN.md §13). validate_mu_ serializes cc state, txns_,
  /// next_seq_ and the install bookkeeping against concurrent committers;
  /// the controller's victim and wakeup handlers run under it.
  std::mutex validate_mu_;
  std::shared_mutex install_gate_;
  cc::IntentTable intents_;
  log::EpochSealer sealer_;
};

}  // namespace rodain::engine
