#include "rodain/log/reorder.hpp"

namespace rodain::log {

Status Reorderer::add(Record r) {
  if (!r.is_commit()) {  // write images and tombstones buffer per txn
    OpenTxn& open = open_[r.txn];
    if (!open.records.empty() && open.batch != batch_epoch_) {
      // Re-delivery from a later batch (reconnect re-ship of a txn whose
      // commit never arrived): the stale copy would double the write count.
      open.records.clear();
    }
    open.batch = batch_epoch_;
    open.records.push_back(std::move(r));
    return Status::ok();
  }
  // Commit record: close the transaction and stage it at its seq.
  std::vector<Record> records;
  if (auto it = open_.find(r.txn); it != open_.end()) {
    records = std::move(it->second.records);
    open_.erase(it);
  }
  if (r.seq < expected_ || staged_.contains(r.seq)) {
    // Stale duplicate (catch-up overlap after a rejoin): already covered by
    // the snapshot or an earlier delivery; drop it and its buffered writes.
    return Status::ok();
  }
  if (records.size() != r.write_count) {
    // Quarantine: the buffered writes were already consumed above, so the
    // corrupt transaction leaves no open state behind. Its seq stays
    // un-staged — the commit floor stalls there until the primary's resend
    // re-delivers the full record set, which then stages normally.
    return Status::error(ErrorCode::kCorruption,
                         "commit record write count mismatch");
  }
  const ValidationTs seq = r.seq;
  const TxnId txn = r.txn;
  records.push_back(std::move(r));
  staged_.emplace(seq, Staged{txn, std::move(records)});
  release_ready();
  return Status::ok();
}

ValidationTs Reorderer::received_commit_floor() const {
  ValidationTs floor = expected_ == 0 ? 0 : expected_ - 1;
  // Transactions parked in the un-flushed epoch are already released
  // (expected_ moved past them), so only the staged map extends the floor.
  for (const auto& entry : staged_) {
    if (entry.first != floor + 1) break;
    ++floor;
  }
  return floor;
}

void Reorderer::set_expected_next(ValidationTs seq) {
  holding_ = false;
  expected_ = seq;
  // Commits staged in a previous incarnation can sit below the new floor
  // when the transactions between them and the old floor were rerouted to
  // the primary's disk and never shipped. The snapshot already covers them;
  // keeping them would wedge release_ready() on a seq that never matches.
  staged_.erase(staged_.begin(), staged_.lower_bound(seq));
  // Anything released before the floor moved is covered by the snapshot
  // about to install — applying it afterwards would clobber newer state.
  epoch_.clear();
  release_ready();
}

void Reorderer::dispatch(ValidationTs seq, Staged staged) {
  if (!valid_release_set(staged.records)) {
    // Never hand out an empty (or commit-less) record set: the applier
    // would stamp the writes with a fabricated serial_ts of 0.
    ++rejected_release_sets_;
    return;
  }
  epoch_.push_back(ReleasedTxn{seq, staged.txn, std::move(staged.records)});
}

void Reorderer::release_ready() {
  if (holding_) return;
  while (!staged_.empty()) {
    auto it = staged_.begin();
    if (it->first != expected_) break;
    Staged staged = std::move(it->second);
    staged_.erase(it);
    ++expected_;
    dispatch(expected_ - 1, std::move(staged));
  }
}

std::size_t Reorderer::flush_epoch() {
  if (epoch_.empty()) return 0;
  std::vector<ReleasedTxn> epoch = std::move(epoch_);
  epoch_.clear();
  const std::size_t n = epoch.size();
  release_batch_(std::move(epoch));
  return n;
}

std::size_t Reorderer::drop_open_txns() {
  const std::size_t n = open_.size();
  open_.clear();
  return n;
}

std::size_t Reorderer::force_release_staged() {
  holding_ = false;
  std::size_t released = 0;
  while (!staged_.empty()) {
    auto it = staged_.begin();
    Staged staged = std::move(it->second);
    const ValidationTs seq = it->first;
    staged_.erase(it);
    expected_ = seq + 1;
    dispatch(seq, std::move(staged));
    ++released;
  }
  return released;
}

}  // namespace rodain::log
