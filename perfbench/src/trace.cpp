#include "trace.hpp"

#include <array>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>

namespace perfbench {
namespace {

/// Span records kept per kind; later spans of a kind that hit the cap are
/// timed but not kept.
constexpr std::size_t kMaxPerKind = 50000;

struct Record {
  std::int64_t start_ns;
  std::int64_t end_ns;
  std::uint64_t id;
  std::uint64_t seq;
  std::uint64_t parent;  ///< seq of the enclosing span, 0 at top level
  std::int64_t self_ns;
  std::uint32_t thread;
  SpanKind kind;
};

struct Open {
  SpanKind kind;
  std::uint64_t id;
  std::uint64_t seq;
  std::int64_t start_ns;
  std::int64_t child_ns;
};

/// One per thread that ever opened a span. Owned by the registry so the
/// records survive the thread (node and socket threads exit at teardown).
struct ThreadBuffer {
  std::uint32_t thread{0};
  std::uint64_t next_seq{1};
  std::vector<Open> stack;
  std::vector<Record> records;
};

std::atomic<bool> g_tracing{false};
std::array<std::atomic<std::size_t>, static_cast<std::size_t>(SpanKind::kCount)> g_kept{};
std::mutex g_mu;
std::vector<std::unique_ptr<ThreadBuffer>> g_buffers;  // guarded by g_mu

ThreadBuffer& local_buffer() {
  thread_local ThreadBuffer* buffer = [] {
    std::lock_guard lock(g_mu);
    g_buffers.push_back(std::make_unique<ThreadBuffer>());
    g_buffers.back()->thread = static_cast<std::uint32_t>(g_buffers.size());
    return g_buffers.back().get();
  }();
  return *buffer;
}

}  // namespace

const char* span_name(SpanKind k) {
  switch (k) {
    case SpanKind::kSubmit: return "rt.submit";
    case SpanKind::kDone: return "client.done";
    case SpanKind::kFind: return "storage.find";
    case SpanKind::kReadCommitted: return "storage.read_committed";
    case SpanKind::kGetFallback: return "storage.get_fallback";
    case SpanKind::kSend: return "net.send";
    case SpanKind::kMirrorFrame: return "repl.mirror_frame";
    case SpanKind::kAckHandle: return "repl.ack_handle";
    case SpanKind::kCount: break;
  }
  return "?";
}

void set_tracing(bool on) { g_tracing.store(on, std::memory_order_relaxed); }
bool tracing() { return g_tracing.load(std::memory_order_relaxed); }

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Span::Span(SpanKind kind, std::uint64_t id) : active_(tracing()) {
  if (!active_) return;
  ThreadBuffer& b = local_buffer();
  b.stack.push_back(Open{kind, id, b.next_seq++, now_ns(), 0});
}

Span::~Span() {
  if (!active_) return;
  const std::int64_t end = now_ns();
  ThreadBuffer& b = local_buffer();
  const Open open = b.stack.back();
  b.stack.pop_back();
  const std::int64_t duration = end - open.start_ns;
  const std::int64_t self = duration - open.child_ns;
  std::uint64_t parent = 0;
  if (!b.stack.empty()) {
    b.stack.back().child_ns += duration;
    parent = b.stack.back().seq;
  }
  if (g_kept[static_cast<std::size_t>(open.kind)].fetch_add(
          1, std::memory_order_relaxed) < kMaxPerKind) {
    b.records.push_back(
        Record{open.start_ns, end, open.id, open.seq, parent, self, b.thread, open.kind});
  }
}

std::vector<std::vector<double>> span_self_ns() {
  std::vector<std::vector<double>> out(static_cast<std::size_t>(SpanKind::kCount));
  std::lock_guard lock(g_mu);
  for (const auto& b : g_buffers) {
    for (const Record& r : b->records) {
      out[static_cast<std::size_t>(r.kind)].push_back(static_cast<double>(r.self_ns));
    }
  }
  return out;
}

std::size_t write_spans(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return 0;
  std::fprintf(f, "kind,thread,seq,parent,id,start_ns,end_ns,self_ns\n");
  std::size_t n = 0;
  std::lock_guard lock(g_mu);
  for (const auto& b : g_buffers) {
    for (const Record& r : b->records) {
      std::fprintf(f, "%s,%u,%llu,%llu,%llu,%lld,%lld,%lld\n", span_name(r.kind),
                   r.thread, static_cast<unsigned long long>(r.seq),
                   static_cast<unsigned long long>(r.parent),
                   static_cast<unsigned long long>(r.id),
                   static_cast<long long>(r.start_ns),
                   static_cast<long long>(r.end_ns),
                   static_cast<long long>(r.self_ns));
      ++n;
    }
  }
  std::fclose(f);
  return n;
}

}  // namespace perfbench
