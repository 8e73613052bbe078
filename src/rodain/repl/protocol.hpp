// Wire protocol between the Primary and Mirror Nodes (paper §2–3).
//
//   kLogBatch      primary -> mirror: redo records as generated; one frame
//                  may carry many transactions (group commit), but never a
//                  partial transaction
//   kCommitAck     mirror -> primary: cumulative — every commit record with
//                  validation seq <= `seq` has arrived (the primary may let
//                  all of those transactions perform their final commit step)
//   kHeartbeat     both directions, watchdog liveness + applied high-water
//   kJoinRequest   recovering node -> serving node: "make me your mirror"
//   kSnapshotChunk serving node -> joiner: checkpoint bytes
//   kSnapshotDone  serving node -> joiner: snapshot boundary seq; live
//                  records with greater seq follow
//   kChunkRetry    joiner -> serving node: re-send these missing chunks
//
// Every message travels inside a frame envelope:
//
//   [u32 crc32c(epoch || frame_seq || payload)][u64 epoch][u64 frame_seq][payload]
//
// The crc rejects corrupted frames (the message payload itself carries no
// checksum), the per-endpoint frame_seq lets the receiver suppress
// duplicates and stale reordered frames, and the epoch — monotone across
// endpoint rebuilds within a process — keeps a rebuilt sender from being
// suppressed by the receiver's old anti-replay window.
#pragma once

#include <cstdint>
#include <vector>

#include "rodain/common/serialization.hpp"
#include "rodain/common/status.hpp"
#include "rodain/common/types.hpp"
#include "rodain/log/record.hpp"

namespace rodain::repl {

enum class MsgType : std::uint8_t {
  kLogBatch = 1,
  kCommitAck = 2,
  kHeartbeat = 3,
  kJoinRequest = 4,
  kSnapshotChunk = 5,
  kSnapshotDone = 6,
  kChunkRetry = 7,
};

struct Message {
  MsgType type{MsgType::kHeartbeat};

  std::vector<log::Record> records;  ///< kLogBatch
  ValidationTs seq{0};               ///< ack seq / snapshot boundary / applied
  NodeRole role{NodeRole::kDown};    ///< kHeartbeat: sender's role
  ValidationTs have{0};              ///< kJoinRequest: seq already recovered
  std::vector<std::byte> blob;       ///< kSnapshotChunk payload
  std::uint32_t chunk_index{0};      ///< kSnapshotChunk ordinal
  std::uint32_t chunk_total{0};      ///< kSnapshotChunk count
  /// Identifies one snapshot serve (kSnapshotChunk / kSnapshotDone /
  /// kChunkRetry), so chunks from an abandoned serve can never be mixed
  /// into a later one.
  std::uint64_t snapshot_id{0};
  std::vector<std::uint32_t> missing;  ///< kChunkRetry: chunk indexes

  [[nodiscard]] static Message log_batch(std::vector<log::Record> records);
  [[nodiscard]] static Message commit_ack(ValidationTs seq);
  [[nodiscard]] static Message heartbeat(NodeRole role, ValidationTs applied);
  [[nodiscard]] static Message join_request(ValidationTs have);
  [[nodiscard]] static Message snapshot_chunk(std::uint64_t snapshot_id,
                                              std::uint32_t index,
                                              std::uint32_t total,
                                              std::vector<std::byte> blob);
  [[nodiscard]] static Message snapshot_done(ValidationTs boundary,
                                             std::uint64_t snapshot_id);
  [[nodiscard]] static Message chunk_retry(std::uint64_t snapshot_id,
                                           std::vector<std::uint32_t> missing);
};

[[nodiscard]] std::vector<std::byte> encode(const Message& m);
/// Append `m`'s payload encoding to `w` (no framing) — the buffer-reusing
/// counterpart of encode().
void encode_into(const Message& m, ByteWriter& w);
/// Append the kLogBatch payload carrying `txns`' records in order: the
/// same bytes encode_into writes for a Message::log_batch of their
/// concatenation, without building that message.
void encode_log_batch_into(std::span<const log::TxnRecords> txns,
                           ByteWriter& w);
[[nodiscard]] Result<Message> decode(std::span<const std::byte> frame);

/// A message plus its envelope fields, as received.
struct Frame {
  std::uint64_t epoch{0};
  std::uint64_t frame_seq{0};
  Message msg;
};

[[nodiscard]] std::vector<std::byte> encode_framed(std::uint64_t epoch,
                                                   std::uint64_t frame_seq,
                                                   const Message& m);
/// Append one complete frame (crc/epoch/frame_seq envelope + payload) to
/// `w`. The endpoint clears and reuses one ByteWriter across sends so the
/// steady-state ship path stops allocating a fresh buffer per frame.
void encode_framed_into(std::uint64_t epoch, std::uint64_t frame_seq,
                        const Message& m, ByteWriter& w);
/// The same envelope around whatever payload `write_payload(w)` appends.
template <typename WritePayload>
void encode_framed_with(std::uint64_t epoch, std::uint64_t frame_seq,
                        WritePayload&& write_payload, ByteWriter& w) {
  const std::size_t base = w.size();
  w.put_u32(0);  // crc placeholder
  w.put_u64(epoch);
  w.put_u64(frame_seq);
  write_payload(w);
  w.patch_u32(base, crc32c(w.view().subspan(base + 4)));
}
[[nodiscard]] Result<Frame> decode_framed(std::span<const std::byte> frame);

/// Whether a framed message may make the receiving primary serve a joiner
/// from its live state (kJoinRequest, kChunkRetry). Reads only the type
/// byte behind the envelope — no crc check, no decode — so a transport
/// wrapper can route frames cheaply. A frame too short to tell counts as
/// serving a join: the caller then takes the conservative path.
[[nodiscard]] bool frame_serves_join(std::span<const std::byte> frame);

}  // namespace rodain::repl
