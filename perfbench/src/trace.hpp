// Benchmark-side span tracer.
//
// Spans are recorded by the benchmark around its own calls into the
// program's public API (Node::submit, BPlusTree::find, Node::read_committed,
// channel send and the inbound frame handlers), never inside the program.
// Each thread keeps a stack of open spans, so a span's self time is its
// duration minus the time covered by spans nested inside it on the same
// thread (a mirror frame handler that sends an ack, a primary ack handler
// that runs client completion callbacks). Span records are kept in memory up
// to a cap per kind and written out at the end.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

enum class SpanKind : std::uint8_t {
  kSubmit = 0,     ///< Node::submit (rt admission + hand-off)
  kDone,           ///< the benchmark's completion callback
  kFind,           ///< BPlusTree::find
  kReadCommitted,  ///< Node::read_committed
  kGetFallback,    ///< Node::get after read_committed said kUnavailable
  kSend,           ///< TcpChannel::send (both directions)
  kMirrorFrame,    ///< mirror's inbound frame handler
  kAckHandle,      ///< primary's inbound handler for a commit ack
  kCount,
};

[[nodiscard]] const char* span_name(SpanKind k);

/// Process-wide switch; spans are no-ops while it is off.
void set_tracing(bool on);
[[nodiscard]] bool tracing();

[[nodiscard]] std::int64_t now_ns();

/// RAII span. `id` ties spans of one transaction together (the txn index
/// for client spans, the highest commit seq in the frame for net spans).
class Span {
 public:
  Span(SpanKind kind, std::uint64_t id);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  bool active_;
};

/// Self time of every kept span record, per kind. Call after all traced
/// threads have stopped producing spans.
[[nodiscard]] std::vector<std::vector<double>> span_self_ns();

/// Write the kept span records as CSV; returns the number written.
std::size_t write_spans(const std::string& path);

}  // namespace perfbench
