#include "rodain/engine/engine.hpp"

#include <cassert>
#include <mutex>

#include "rodain/common/diag.hpp"
#include "rodain/obs/obs.hpp"

namespace rodain::engine {

namespace {
/// Registered once, shared by every engine in the process (sim clusters run
/// two); all mutators no-op unless obs::init enabled the layer.
struct EngineMetrics {
  obs::Counter& commits = obs::metrics().counter("engine.commits");
  obs::Counter& aborts = obs::metrics().counter("engine.aborts");
  obs::Counter& restarts = obs::metrics().counter("engine.restarts");
  obs::Counter& validations = obs::metrics().counter("engine.validations");
  obs::Counter& validation_rejects =
      obs::metrics().counter("engine.validation_rejects");
  obs::Counter& installs = obs::metrics().counter("engine.installs");
  /// Torn seqlock snapshots discarded by optimistic read-phase fetches.
  obs::Counter& read_retries = obs::metrics().counter("engine.read_retries");
  /// Optimistic reads refused at validation because a foreign committer
  /// held a write intent on the object.
  obs::Counter& intent_conflicts =
      obs::metrics().counter("engine.intent_conflicts");
};
EngineMetrics& em() {
  static EngineMetrics m;
  return m;
}
}  // namespace

CostModel CostModel::zero() {
  CostModel m;
  m.txn_fixed = m.per_read = m.per_update = m.per_index_lookup = m.validate =
      m.per_install = m.per_log_marshal = m.commit_finalize = Duration::zero();
  return m;
}

Engine::Engine(EngineConfig config, storage::ObjectStore& store,
               storage::BPlusTree* index, log::LogWriter& log_writer,
               Hooks hooks)
    : config_(config),
      store_(store),
      index_(index),
      log_writer_(log_writer),
      hooks_(std::move(hooks)),
      cc_(cc::make_controller(config.protocol)) {
  sealer_.reset(next_seq_.load(std::memory_order_relaxed));
  // Both handlers fire from cc_->on_abort / on_installed (2PL lock
  // releases), which the engine calls only with validate_mu_ held.
  cc_->set_wakeup_handler([this](TxnId id) {
    if (txn::Transaction* t = find(id)) {
      if (t->phase() == txn::Phase::kBlocked) {
        t->set_phase(txn::Phase::kReadPhase);
        if (hooks_.on_lock_granted) hooks_.on_lock_granted(id);
      }
    }
  });
  cc_->set_victim_handler(
      [this](TxnId id) { restart_victim_locked(id, /*defer=*/false); });
}

void Engine::begin(txn::Transaction& t) {
  std::lock_guard lock(validate_mu_);
  txns_[t.id()] = &t;
  cc_->on_begin(t);
}

txn::Transaction* Engine::find(TxnId id) {
  auto it = txns_.find(id);
  return it == txns_.end() ? nullptr : it->second;
}

bool Engine::can_abort(const txn::Transaction& t) const {
  switch (t.phase()) {
    case txn::Phase::kReadPhase:
    case txn::Phase::kBlocked:
    case txn::Phase::kValidating:
      return true;
    default:
      return false;
  }
}

void Engine::mark_stage(txn::Transaction& t, obs::Stage s) const {
  if (config_.clock && obs::enabled()) {
    t.stages.enter(s, config_.clock->now().us);
  }
}

void Engine::abort(txn::Transaction& t, TxnOutcome reason) {
  assert(can_abort(t));
  em().aborts.inc();
  std::lock_guard lock(validate_mu_);
  cc_->on_abort(t);
  txns_.erase(t.id());
  t.set_phase(txn::Phase::kAborted);
  t.set_outcome(reason);
  mark_stage(t, obs::Stage::kDone);
}

void Engine::restart(txn::Transaction& t) {
  std::lock_guard lock(validate_mu_);
  restart_unsynchronized(t);
}

void Engine::restart_unsynchronized(txn::Transaction& t) {
  restarts_.fetch_add(1, std::memory_order_relaxed);
  em().restarts.inc();
  cc_->on_abort(t);
  t.prepare_restart();
  cc_->on_begin(t);
  // The retry re-enters the read phase; its stage buckets keep accruing.
  mark_stage(t, obs::Stage::kReadPhase);
}

void Engine::restart_victims(const std::vector<TxnId>& victims) {
  if (victims.empty()) return;
  std::lock_guard lock(validate_mu_);
  for (TxnId id : victims) restart_victim_locked(id, /*defer=*/false);
}

void Engine::restart_victim_locked(TxnId id, bool defer) {
  txn::Transaction* v = find(id);
  if (!v) return;
  if (defer || v->lock_free_executing()) {
    // The owner worker runs the victim outside the commit mutex (or this
    // committer does): restarting here would race the owner's set
    // mutations. It consumes the request at its next step boundary, and a
    // validation-bound victim fails on its emptied interval or on the
    // request itself (commit_transaction). Its interval was already
    // adjusted under its leaf mutex, so the conflict is recorded either way.
    v->request_restart();
    return;
  }
  // A transaction past validation is immune: its sequence number is
  // assigned and its writes are (being) installed.
  if (!can_abort(*v)) return;
  restart_unsynchronized(*v);
  if (hooks_.on_victim_restart) hooks_.on_victim_restart(id);
}

StepResult Engine::restart_or_abort(txn::Transaction& t, Duration cost) {
  std::lock_guard lock(validate_mu_);
  if (config_.max_restarts >= 0 && t.restarts() >= config_.max_restarts) {
    cc_->on_abort(t);
    txns_.erase(t.id());
    t.set_phase(txn::Phase::kAborted);
    t.set_outcome(TxnOutcome::kConflictAborted);
    return {StepAction::kAborted, cost};
  }
  restart_unsynchronized(t);
  return {StepAction::kRestarted, cost};
}

StepResult Engine::step(txn::Transaction& t) {
  // A deferred victimization (requested while the owner ran the read phase
  // outside the commit mutex) is honoured here, at the first serial step
  // boundary, before the transaction may enter validation with an interval
  // a committed writer already emptied. No on_victim_restart hook: the
  // owner is *this* caller, mid-drive — the hook protocol is for waking a
  // transaction some other thread owns.
  if (t.phase() == txn::Phase::kReadPhase && t.consume_restart_request()) {
    restart(t);
    return {StepAction::kRestarted, Duration::zero()};
  }
  switch (t.phase()) {
    case txn::Phase::kReadPhase:
      if (t.program_done()) {
        // The caller's serial context (the simulator, or a driver holding
        // its commit mutex) stands in for the commit mutex the seal needs.
        return commit_transaction(t, /*serial=*/true);
      }
      return step_read_phase(t, /*optimistic=*/false, /*fallback=*/nullptr);
    case txn::Phase::kWaitLogAck:
      return step_finalize(t);
    case txn::Phase::kValidating:
    case txn::Phase::kWritePhase:
    case txn::Phase::kBlocked:
    case txn::Phase::kCommitted:
    case txn::Phase::kAborted:
      assert(false && "step() on a parked or finished transaction");
      return {StepAction::kAborted, Duration::zero()};
  }
  return {StepAction::kAborted, Duration::zero()};
}

std::optional<StepResult> Engine::step_read_unlocked(txn::Transaction& t) {
  assert(t.lock_free_executing());
  assert(t.phase() == txn::Phase::kReadPhase);
  if (t.program_done() || t.restart_requested()) {
    // Validation (or a deferred victimization) is next — both are serial.
    return std::nullopt;
  }
  bool fallback = false;
  StepResult r = step_read_phase(t, /*optimistic=*/true, &fallback);
  if (fallback) return std::nullopt;
  return r;
}

const storage::ObjectRecord* Engine::fetch(ObjectId oid,
                                           storage::ObjectRecord& snap,
                                           bool optimistic, bool* fallback) {
  log::RedoIndex* rec = recovery_.load(std::memory_order_acquire);
  if (rec && rec->active()) {
    if (optimistic) {
      // Unlocked read phases cannot consult the redo index (its chains
      // mutate under commit_mu_); fall back to the serial path for the
      // short recovery window.
      *fallback = true;
      return nullptr;
    }
    // Instant recovery: the serial path (under the node's commit mutex) is
    // where first touch replays an object's deferred redo chain before the
    // transaction observes it.
    rec->ensure_recovered(oid, store_, index_);
  }
  // Installs run outside the commit mutex (intents + seqlock), so even the
  // serial path must not plain-read a record a committer may be writing in
  // place.
  std::uint32_t retries = 0;
  storage::OptimisticRead r = store_.read_optimistic(oid, snap, retries);
  if (retries != 0) em().read_retries.inc(retries);
  if (r == storage::OptimisticRead::kContended) {
    if (optimistic) {
      *fallback = true;
      return nullptr;
    }
    // Under persistent contention briefly take the record's intent — the
    // installer holding it never waits on the commit mutex while it does,
    // so this cannot cycle.
    const auto intent = intents_.acquire_one(oid);
    retries = 0;
    r = store_.read_optimistic(oid, snap, retries);
  }
  return r == storage::OptimisticRead::kHit ? &snap : nullptr;
}

StepResult Engine::step_read_phase(txn::Transaction& t, bool optimistic,
                                   bool* fallback) {
  obs::ScopedSpan span(obs::tracer(), obs::Phase::kExecute, t.id());
  mark_stage(t, obs::Stage::kReadPhase);
  const Duration first_step_cost =
      (t.pc() == 0) ? config_.costs.txn_fixed : Duration::zero();
  const txn::Op& op = t.program().ops[t.pc()];

  if (const auto* read = std::get_if<txn::ReadOp>(&op)) {
    return exec_read(t, read->oid, first_step_cost + config_.costs.per_read,
                     optimistic, fallback);
  }
  if (const auto* read_key = std::get_if<txn::ReadKeyOp>(&op)) {
    const Duration cost = first_step_cost + config_.costs.per_index_lookup +
                          config_.costs.per_read;
    log::RedoIndex* rec = recovery_.load(std::memory_order_acquire);
    if (rec && rec->active()) {
      if (optimistic) {
        *fallback = true;
        return {StepAction::kContinue, cost};
      }
      // A deferred insert/delete may not have reached the index yet: replay
      // whatever this key could observe before the lookup.
      rec->ensure_recovered_key(read_key->key, store_, index_);
    }
    ObjectId oid = kInvalidObject;
    if (index_) {
      // Safe unlocked: the tree's own RW lock covers structural changes.
      if (auto found = index_->find(read_key->key)) oid = *found;
    }
    if (oid == kInvalidObject) {
      // Key miss: the lookup cost was paid, nothing to read.
      t.advance_pc();
      return {StepAction::kContinue, cost};
    }
    return exec_read(t, oid, cost, optimistic, fallback);
  }
  if (const auto* update = std::get_if<txn::UpdateOp>(&op)) {
    StepResult r = exec_update(t, *update, optimistic, fallback);
    r.cost += first_step_cost;
    return r;
  }
  if (const auto* insert = std::get_if<txn::InsertOp>(&op)) {
    StepResult r = exec_insert(t, *insert, optimistic, fallback);
    r.cost += first_step_cost;
    return r;
  }
  if (const auto* erase = std::get_if<txn::DeleteOp>(&op)) {
    StepResult r = exec_delete(t, *erase, optimistic, fallback);
    r.cost += first_step_cost;
    return r;
  }
  const auto& compute = std::get<txn::ComputeOp>(op);
  t.advance_pc();
  return {StepAction::kContinue, first_step_cost + compute.cost};
}

StepResult Engine::exec_read(txn::Transaction& t, ObjectId oid,
                             Duration base_cost, bool optimistic,
                             bool* fallback) {
  // Read-your-own-write: the private copy, no concurrency-control tracking.
  // A private delete reads as missing.
  if (const txn::WriteEntry* own = t.find_write(oid)) {
    if (config_.capture_reads) {
      t.captured_reads.push_back(own->is_delete() ? storage::Value{}
                                                  : own->after);
    }
    t.advance_pc();
    return {StepAction::kContinue, base_cost};
  }

  storage::ObjectRecord snap;
  const storage::ObjectRecord* rec = fetch(oid, snap, optimistic, fallback);
  if (optimistic && *fallback) return {StepAction::kContinue, base_cost};
  cc::AccessResult access = cc_->on_read(t, oid, rec, optimistic);
  if (optimistic && access.decision != cc::Access::kGranted) {
    // Engine-state mutation (restart bookkeeping) needs the commit mutex;
    // nothing was recorded, so the serial re-run decides the same way.
    *fallback = true;
    return {StepAction::kContinue, base_cost};
  }
  restart_victims(access.victims);
  switch (access.decision) {
    case cc::Access::kGranted:
      break;
    case cc::Access::kBlocked:
      t.set_phase(txn::Phase::kBlocked);
      return {StepAction::kBlocked, base_cost};
    case cc::Access::kRestartSelf:
      return restart_or_abort(t, base_cost);
  }
  if (config_.capture_reads) {
    // Tombstones read as missing (their wts was still observed above).
    t.captured_reads.push_back(rec && rec->live() ? rec->value
                                                  : storage::Value{});
  }
  t.advance_pc();
  return {StepAction::kContinue, base_cost};
}

StepResult Engine::exec_insert(txn::Transaction& t, const txn::InsertOp& op,
                               bool optimistic, bool* fallback) {
  const Duration cost = config_.costs.per_update;
  storage::ObjectRecord snap;
  const storage::ObjectRecord* rec = fetch(op.oid, snap, optimistic, fallback);
  if (optimistic && *fallback) return {StepAction::kContinue, cost};
  cc::AccessResult access = cc_->on_write(t, op.oid, rec);
  if (optimistic && access.decision != cc::Access::kGranted) {
    *fallback = true;
    return {StepAction::kContinue, cost};
  }
  restart_victims(access.victims);
  switch (access.decision) {
    case cc::Access::kGranted:
      break;
    case cc::Access::kBlocked:
      t.set_phase(txn::Phase::kBlocked);
      return {StepAction::kBlocked, cost};
    case cc::Access::kRestartSelf:
      return restart_or_abort(t, cost);
  }
  {
    // Write-set appends are scanned by concurrent validators (Step 2).
    std::lock_guard lock(t.access_mu());
    // Blind put of the full value (revives a private or committed delete).
    t.write_copy(op.oid, storage::Value{}) = op.value;
    if (op.has_key) t.set_entry_key(op.oid, op.key);
  }
  t.advance_pc();
  return {StepAction::kContinue, cost};
}

StepResult Engine::exec_delete(txn::Transaction& t, const txn::DeleteOp& op,
                               bool optimistic, bool* fallback) {
  const Duration cost = config_.costs.per_update;
  storage::ObjectRecord snap;
  const storage::ObjectRecord* rec = fetch(op.oid, snap, optimistic, fallback);
  if (optimistic && *fallback) return {StepAction::kContinue, cost};
  cc::AccessResult access = cc_->on_write(t, op.oid, rec);
  if (optimistic && access.decision != cc::Access::kGranted) {
    *fallback = true;
    return {StepAction::kContinue, cost};
  }
  restart_victims(access.victims);
  switch (access.decision) {
    case cc::Access::kGranted:
      break;
    case cc::Access::kBlocked:
      t.set_phase(txn::Phase::kBlocked);
      return {StepAction::kBlocked, cost};
    case cc::Access::kRestartSelf:
      return restart_or_abort(t, cost);
  }
  {
    std::lock_guard lock(t.access_mu());
    t.delete_entry(op.oid, op.has_key, op.key);
  }
  t.advance_pc();
  return {StepAction::kContinue, cost};
}

StepResult Engine::exec_update(txn::Transaction& t, const txn::UpdateOp& op,
                               bool optimistic, bool* fallback) {
  const Duration cost = config_.costs.per_update;
  storage::ObjectRecord snap;
  const storage::ObjectRecord* rec = fetch(op.oid, snap, optimistic, fallback);
  if (optimistic && *fallback) return {StepAction::kContinue, cost};

  // Read-modify-write updates observe the current value: track the read.
  if (op.kind == txn::UpdateOp::Kind::kAddToField &&
      !t.in_write_set(op.oid)) {
    cc::AccessResult access = cc_->on_read(t, op.oid, rec, optimistic);
    if (optimistic && access.decision != cc::Access::kGranted) {
      *fallback = true;
      return {StepAction::kContinue, cost};
    }
    restart_victims(access.victims);
    switch (access.decision) {
      case cc::Access::kGranted:
        break;
      case cc::Access::kBlocked:
        t.set_phase(txn::Phase::kBlocked);
        return {StepAction::kBlocked, cost};
      case cc::Access::kRestartSelf:
        return restart_or_abort(t, cost);
    }
  }

  cc::AccessResult access = cc_->on_write(t, op.oid, rec);
  if (optimistic && access.decision != cc::Access::kGranted) {
    // The on_read above may already have recorded the observation; that is
    // fine — the serial re-run of this pc will find the entry unchanged.
    *fallback = true;
    return {StepAction::kContinue, cost};
  }
  restart_victims(access.victims);
  switch (access.decision) {
    case cc::Access::kGranted:
      break;
    case cc::Access::kBlocked:
      t.set_phase(txn::Phase::kBlocked);
      return {StepAction::kBlocked, cost};
    case cc::Access::kRestartSelf:
      return restart_or_abort(t, cost);
  }

  {
    std::lock_guard lock(t.access_mu());
    // Deferred write: mutate the private copy only (paper §2).
    storage::Value& copy =
        t.write_copy(op.oid, rec ? rec->value : storage::Value{});
    switch (op.kind) {
      case txn::UpdateOp::Kind::kSetValue:
        copy = op.value;
        break;
      case txn::UpdateOp::Kind::kAddToField: {
        if (copy.size() < op.field_offset + 8) {
          // Auto-extend so counters can live in fresh objects.
          std::vector<std::byte> grown(op.field_offset + 8);
          std::memcpy(grown.data(), copy.data(), copy.size());
          copy.assign(grown);
        }
        copy.write_u64(op.field_offset,
                       copy.read_u64(op.field_offset) + op.delta);
        break;
      }
    }
  }
  t.advance_pc();
  return {StepAction::kContinue, cost};
}

std::vector<log::Record> Engine::marshal_records(
    const txn::Transaction& t) const {
  const auto& writes = t.write_set();
  std::vector<log::Record> records;
  records.reserve(writes.size() + 1);
  // Paper §3: "each update also generates a log record containing
  // transaction identification, data item identification and an after
  // image"; a commit record is generated even for read-only transactions.
  for (const txn::WriteEntry& w : writes) {
    if (w.is_delete()) {
      records.push_back(w.has_key
                            ? log::Record::tombstone(t.id(), w.oid, w.key)
                            : log::Record::tombstone(t.id(), w.oid));
    } else if (w.has_key) {
      records.push_back(
          log::Record::insert_image(t.id(), w.oid, w.after, w.key));
    } else {
      records.push_back(log::Record::write_image(t.id(), w.oid, w.after));
    }
  }
  records.push_back(log::Record::commit(
      t.id(), t.validation_seq(), t.serial_ts(),
      static_cast<std::uint32_t>(writes.size())));
  return records;
}

StepResult Engine::step_commit_unlocked(txn::Transaction& t) {
  return commit_transaction(t, /*serial=*/false);
}

StepResult Engine::commit_transaction(txn::Transaction& t, bool serial) {
  assert(t.phase() == txn::Phase::kReadPhase && t.program_done());
  // Validation and the write phase form one atomic step (Kung-Robinson
  // critical section; the paper's "transactions are validated
  // atomically"): intents and validate_mu_ keep other committers from
  // validating against half-installed state.
  t.set_phase(txn::Phase::kValidating);

  const Duration validate_cost = config_.costs.validate;
  cc::IntentTable::Guard intents;
  bool ok = false;
  {
    obs::ScopedSpan span(obs::tracer(), obs::Phase::kValidate, t.id());
    mark_stage(t, obs::Stage::kValidate);
    // Intents before validation: a write-write conflict serializes fully
    // at the intent stripe, so the later writer's Step-1 floors observe
    // the earlier writer's *installed* wts and per-record install order
    // always equals validation-sequence order (mirror replay stays
    // byte-identical with the primary).
    intents = intents_.acquire(t.write_set());
    std::lock_guard lock(validate_mu_);
    // A deferred victimization may land right up to the moment validation
    // begins — its requester held validate_mu_ — so honour it here (same
    // contract as step()'s serial boundary).
    if (t.consume_restart_request()) {
      restart_unsynchronized(t);
      return {StepAction::kRestarted, Duration::zero()};
    }
    em().validations.inc();
    // Reader-vs-installer: an optimistic snapshot proves committed state
    // only if no foreign committer currently intends the object — a
    // validated-but-not-yet-installed writer has not bumped the wts the
    // Step-1 re-check compares. A writer acquiring its intent *after* this
    // probe validates after us (validation mutex) and floors above the
    // read-set rts bumps published below, so it serializes after our
    // reads either way.
    bool intent_conflict = false;
    for (const txn::ReadEntry& r : t.read_set()) {
      if (r.optimistic && intents_.foreign_intent(r.oid, intents)) {
        em().intent_conflicts.inc();
        intent_conflict = true;
        break;
      }
    }
    cc::ValidationResult result;
    const ValidationTs seq = next_seq_.load(std::memory_order_relaxed);
    if (!intent_conflict) result = cc_->validate(t, seq, store_);
    ok = !intent_conflict && result.ok;
    if (ok) {
      t.set_validated(seq, result.serial_ts);
      next_seq_.store(seq + 1, std::memory_order_release);
      // Publish committed-reader floors NOW, inside the validation
      // critical section — not at install. A later writer validating
      // before our install must already serialize above our reads;
      // committed-writer floors are published by the installs themselves
      // inside each record's seqlock.
      for (const txn::ReadEntry& r : t.read_set()) {
        store_.bump_rts(r.oid, result.serial_ts);
      }
      for (TxnId vid : result.victims) {
        restart_victim_locked(vid, /*defer=*/!serial);
      }
    }
  }
  if (!ok) {
    intents.release();
    em().validation_rejects.inc();
    t.set_phase(txn::Phase::kReadPhase);
    return restart_or_abort(t, validate_cost);
  }

  const auto& writes = t.write_set();
  em().installs.inc(writes.size());
  const bool logging = log_writer_.mode() != LogMode::kOff;
  Duration cost =
      validate_cost +
      config_.costs.per_install * static_cast<std::int64_t>(writes.size());
  if (logging) {
    cost += config_.costs.per_log_marshal *
            static_cast<std::int64_t>(writes.size() + 1);
  }
  {
    obs::ScopedSpan span(obs::tracer(), obs::Phase::kWritePhase, t.id());
    t.set_phase(txn::Phase::kWritePhase);
    mark_stage(t, obs::Stage::kWritePhase);
    // Install the deferred copies (paper §2: deferred write) under the
    // gate (shared) with the intents still held; deletes install as
    // tombstones, index keys alongside. The install bookkeeping and the
    // sealer append stay inside the gate section so a unique holder
    // (checkpoint, join snapshot) observes every transaction either fully
    // absent or installed+marked+appended — a seal under the gate then
    // drains dense through the low-water.
    std::shared_lock gate(install_gate_);
    for (const txn::WriteEntry& w : writes) {
      if (w.is_delete()) {
        store_.tombstone(w.oid, t.serial_ts());
        if (w.has_key && index_) index_->erase(w.key);
      } else {
        store_.upsert(w.oid, w.after, t.serial_ts());
        if (w.has_key && index_) {
          if (!index_->insert(w.key, w.oid)) index_->update(w.key, w.oid);
        }
      }
    }
    {
      // Read-set rts floors were published at validation, write-set wts
      // floors by the installs above; on_installed only lets 2PL release
      // its locks before the seal.
      std::lock_guard lock(validate_mu_);
      cc_->on_installed(t);
      mark_installed(t.validation_seq());
    }
    t.set_phase(txn::Phase::kWaitLogAck);
    mark_stage(t, obs::Stage::kLogFlush);
    const TxnId id = t.id();
    // Marshal unconditionally: the seal — under the driver's commit mutex —
    // decides against the then-current log mode, so a kOff->kMirror flip
    // interleaves only at epoch boundaries.
    log::WorkerRedoEntry entry;
    entry.seq = t.validation_seq();
    entry.records = marshal_records(t);
    entry.on_durable = [this, id] {
      if (hooks_.on_log_durable) hooks_.on_log_durable(id);
    };
    entry.stages = config_.clock ? &t.stages : nullptr;
    sealer_.append(std::move(entry));
  }
  intents.release();
  if (serial) seal_epoch();
  return {StepAction::kWaitLogAck, cost};
}

std::size_t Engine::seal_epoch() {
  return sealer_.seal([this](log::WorkerRedoEntry&& e) {
    if (log_writer_.mode() == LogMode::kOff) {
      // "No logs": durable immediately, nothing shipped.
      if (e.on_durable) e.on_durable();
      return;
    }
    log_writer_.submit(e.seq, std::move(e.records), std::move(e.on_durable),
                       e.stages);
  });
}

void Engine::mark_installed(ValidationTs seq) {
  ValidationTs low = installed_low_water_.load(std::memory_order_relaxed);
  if (seq == low + 1) {
    ++low;
    while (!installed_gap_.empty() && *installed_gap_.begin() == low + 1) {
      installed_gap_.erase(installed_gap_.begin());
      ++low;
    }
    installed_low_water_.store(low, std::memory_order_release);
  } else {
    installed_gap_.insert(seq);
  }
}

StepResult Engine::step_finalize(txn::Transaction& t) {
  em().commits.inc();
  t.set_phase(txn::Phase::kCommitted);
  t.set_outcome(TxnOutcome::kCommitted);
  {
    std::lock_guard lock(validate_mu_);
    txns_.erase(t.id());
  }
  mark_stage(t, obs::Stage::kDone);
  return {StepAction::kCommitted, config_.costs.commit_finalize};
}

}  // namespace rodain::engine
