// Redo log records (paper §3).
//
// Deferred writes mean the log is redo-only: per transaction a sequence of
// after-images generated during the write phase, terminated by a commit
// record carrying the dense validation sequence number. There is nothing to
// undo, ever — recovery and the mirror only apply fully-committed
// transactions.
//
// Wire format per record: [u32 frame_len][payload][u32 crc32c(payload)],
// so torn tails and bit rot are detected, never misapplied.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "rodain/common/serialization.hpp"
#include "rodain/common/status.hpp"
#include "rodain/common/types.hpp"
#include "rodain/storage/btree.hpp"
#include "rodain/storage/value.hpp"

namespace rodain::log {

enum class RecordType : std::uint8_t {
  kWriteImage = 1,  ///< (txn, oid, after-image [, index key])
  kCommit = 2,      ///< (txn, validation seq, serialization ts, #writes)
  kDelete = 3,      ///< (txn, oid [, index key]) — tombstone
};

struct Record {
  RecordType type{RecordType::kWriteImage};
  TxnId txn{kInvalidTxn};

  // kWriteImage / kDelete
  ObjectId oid{kInvalidObject};
  storage::Value after;  ///< kWriteImage only
  /// Secondary-index entry carried with the change so the mirror and
  /// recovery can maintain the index (subscriber provisioning).
  bool has_key{false};
  storage::IndexKey key{};

  // kCommit
  ValidationTs seq{kInvalidValidationTs};
  ValidationTs serial_ts{kInvalidValidationTs};
  std::uint32_t write_count{0};

  [[nodiscard]] static Record write_image(TxnId txn, ObjectId oid,
                                          storage::Value after);
  [[nodiscard]] static Record insert_image(TxnId txn, ObjectId oid,
                                           storage::Value after,
                                           const storage::IndexKey& key);
  [[nodiscard]] static Record tombstone(TxnId txn, ObjectId oid);
  [[nodiscard]] static Record tombstone(TxnId txn, ObjectId oid,
                                        const storage::IndexKey& key);
  [[nodiscard]] static Record commit(TxnId txn, ValidationTs seq,
                                     ValidationTs serial_ts,
                                     std::uint32_t write_count);

  /// Approximate encoded size (for disk-throughput modelling).
  [[nodiscard]] std::size_t encoded_size() const;

  [[nodiscard]] bool is_commit() const { return type == RecordType::kCommit; }

  friend bool operator==(const Record& a, const Record& b);
};

/// One transaction's complete record set ([after-images..., commit]),
/// immutable once submitted. The log writer's pending, tail and outbox
/// entries share it, so sealing a transaction copies none of its records.
using TxnRecords = std::shared_ptr<const std::vector<Record>>;

/// Append one framed record.
void encode_record(const Record& r, ByteWriter& out);

/// Decode the next framed record. Distinguishes a clean end (kOk with
/// `end=true`), a torn tail (kOutOfRange — incomplete frame at the buffer
/// end), and corruption (kCorruption — CRC or structure mismatch).
struct DecodeResult {
  Status status;
  bool end{false};
};
DecodeResult decode_record(ByteReader& in, Record& out);

/// Encode a batch (network shipping / disk buffering).
[[nodiscard]] std::vector<std::byte> encode_records(std::span<const Record> records);

/// Decode a whole buffer; stops at a torn tail (reported via `torn`).
Result<std::vector<Record>> decode_records(std::span<const std::byte> data,
                                           bool* torn = nullptr);

}  // namespace rodain::log
