// Replicated-pair benchmark: an rt::Node primary shipping its redo log to an
// rt::Node mirror over loopback TCP, running the paper's number-translation
// service (see ../README.md for the workloads and the metric map).
//
//   rodain_perfbench --workload nt_open --seed 1 --seconds 10 --trace 0
//
// Prints one JSON object on its last stdout line with the end-to-end
// metrics, the per-layer metrics (traced runs), sample counts and the
// outcome of every correctness check. perfbench/run.py builds and drives it.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <semaphore>
#include <string>
#include <thread>
#include <vector>

#include "pair.hpp"
#include "rodain/common/diag.hpp"
#include "rodain/obs/obs.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

using workload::kCounterOffset;
using workload::kRoutingOffset;
using workload::oid_for;

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

// ------------------------------------------------------------ workloads ---

enum class Kind : std::uint8_t { kOpen, kClosed, kLookup, kFailover };

struct WorkloadSpec {
  const char* name;
  Kind kind;
  std::size_t subscribers;
  std::size_t workers;
  double write_fraction;
  double zipf_theta;  ///< 0 = uniform
  double rate;        ///< open-loop txn/s (lookup_large: the update stream)
  bool clients;       ///< closed-loop clients, min(4, nproc) of them
};

// Why each workload exists is recorded in BENCHMARK.json and README.md.
constexpr std::array<WorkloadSpec, 4> kWorkloads{{
    {"nt_open", Kind::kOpen, 30000, 1, 0.5, 0.0, 2000, false},
    {"nt_closed_skew", Kind::kClosed, 30000, 2, 0.8, 1.1, 0, true},
    {"lookup_large", Kind::kLookup, 1000000, 1, 1.0, 0.0, 500, true},
    {"failover", Kind::kFailover, 30000, 1, 0.5, 0.0, 2000, false},
}};

/// Open-loop traffic every pair carries across its crash: the paper mix.
constexpr double kCrashRate = 1000;
constexpr double kCrashLeadS = 0.3;
constexpr double kCrashAfterS = 0.1;
/// nt_closed_skew: txns each client keeps in flight. With one, the clients
/// mostly wait to be woken and throughput swung between 10k and 16k txn/s
/// from run to run; eight per client saturate the primary.
constexpr std::size_t kClientWindow = 8;
/// failover: per cycle, this much counted traffic before the crash.
constexpr double kFailoverWarmS = 0.8;
constexpr double kFailoverAfterS = 0.3;
/// lookup_large: lookup rates are counted per window of this length.
constexpr double kWindowS = 0.5;
/// The single-client lookup probe of the other workloads counts per window
/// of this length.
constexpr double kProbeWindowS = 0.1;
/// committed_tps: the commits one measured chunk of work holds.
constexpr std::size_t kChunkTxns = 500;

struct Args {
  std::string workload;
  std::uint64_t seed{1};
  double seconds{10};
  bool trace{false};
  bool smoke{false};
  std::string out_dir{"."};
  unsigned nproc{1};  ///< CPUs online (the clients scale with it)
};

// --------------------------------------------------------------- inputs ---

/// One pregenerated transaction: four distinct subscribers read through the
/// number index; a write also bumps the call counter of the first two.
struct TxnSpec {
  std::array<std::uint32_t, 4> subs{};
  bool write{false};
};

/// Uniform or zipf draws. The zipf CDF is built once, so a draw is a binary
/// search instead of Rng::next_zipf's per-draw zeta sum.
class Sampler {
 public:
  Sampler(std::size_t n, double theta) : n_(n) {
    if (theta <= 0) return;
    cdf_.resize(n);
    double sum = 0;
    for (std::size_t i = 0; i < n; ++i) {
      sum += 1.0 / std::pow(static_cast<double>(i + 1), theta);
      cdf_[i] = sum;
    }
    for (double& c : cdf_) c /= sum;
  }
  std::uint32_t draw(Rng& rng) const {
    if (cdf_.empty()) return static_cast<std::uint32_t>(rng.next_below(n_));
    const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), rng.next_double());
    return static_cast<std::uint32_t>(std::min<std::size_t>(it - cdf_.begin(), n_ - 1));
  }

 private:
  std::size_t n_;
  std::vector<double> cdf_;
};

std::vector<TxnSpec> make_txns(std::size_t count, double write_fraction,
                               const Sampler& sampler, Rng rng) {
  std::vector<TxnSpec> out(count);
  for (TxnSpec& t : out) {
    t.write = rng.next_bool(write_fraction);
    for (std::size_t k = 0; k < t.subs.size(); ++k) {
      bool dup = true;
      while (dup) {
        t.subs[k] = sampler.draw(rng);
        dup = std::find(t.subs.begin(), t.subs.begin() + k, t.subs[k]) !=
              t.subs.begin() + k;
      }
    }
  }
  return out;
}

struct Inputs {
  std::vector<storage::IndexKey> keys;    ///< dialled number of subscriber i
  std::vector<std::uint64_t> routing;     ///< loaded routing target of i
  std::size_t value_bytes{0};
  std::vector<TxnSpec> crash_txns;
  std::vector<std::vector<TxnSpec>> main_txns;  ///< one list per client
  std::vector<std::uint32_t> lookups;
};

txn::TxnProgram build_program(const TxnSpec& t, const Inputs& in) {
  txn::TxnProgram p;
  for (std::uint32_t s : t.subs) p.read_key(in.keys[s]);
  if (t.write) {
    p.add_to_field(oid_for(t.subs[0]), kCounterOffset, 1);
    p.add_to_field(oid_for(t.subs[1]), kCounterOffset, 1);
    p.with_deadline(Duration::millis(150));
  } else {
    p.with_deadline(Duration::millis(50));
  }
  p.with_criticality(Criticality::kFirm);
  return p;
}

// ------------------------------------------------------------ statistics ---

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return kNan;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}
double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// Lookup latency histogram: 5 ns linear buckets up to 100 us, raw values
/// beyond. Per thread, merged at the end.
class FineHist {
 public:
  static constexpr double kBucketNs = 5;
  static constexpr std::size_t kBuckets = 20000;
  FineHist() : buckets_(kBuckets, 0) {}
  void add(std::int64_t ns) {
    const auto b = static_cast<std::size_t>(static_cast<double>(ns) / kBucketNs);
    if (b < kBuckets) {
      ++buckets_[b];
    } else {
      overflow_.push_back(static_cast<double>(ns));
    }
    ++count_;
  }
  void merge(const FineHist& o) {
    for (std::size_t i = 0; i < kBuckets; ++i) buckets_[i] += o.buckets_[i];
    overflow_.insert(overflow_.end(), o.overflow_.begin(), o.overflow_.end());
    count_ += o.count_;
  }
  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] double quantile_ns(double q) const {
    if (count_ == 0) return kNan;
    const double rank = q * static_cast<double>(count_ - 1);
    double cum = 0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      if (buckets_[i] == 0) continue;
      const auto n = static_cast<double>(buckets_[i]);
      if (rank < cum + n) {
        return (static_cast<double>(i) + (rank - cum + 0.5) / n) * kBucketNs;
      }
      cum += n;
    }
    const double q_rest =
        (rank - cum) / std::max(1.0, static_cast<double>(overflow_.size()) - 1);
    return quantile(overflow_, std::min(1.0, q_rest));
  }

 private:
  std::vector<std::uint32_t> buckets_;
  std::vector<double> overflow_;
  std::uint64_t count_{0};
};

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

void sleep_until_ns(std::int64_t t) {
  std::this_thread::sleep_until(
      std::chrono::steady_clock::time_point(std::chrono::nanoseconds(t)));
}
void sleep_s(double s) {
  std::this_thread::sleep_for(std::chrono::duration<double>(s));
}

/// Confine the process, and every thread it starts later, to the first `n`
/// CPUs it may run on; returns how many it got, or -1 if the affinity calls
/// fail. The pair, its workers and min(4, nproc) clients then run on the
/// same number of CPUs on every host that has them.
int pin_to_cpus(unsigned n) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return -1;
  cpu_set_t chosen;
  CPU_ZERO(&chosen);
  int count = 0;
  for (int c = 0; c < CPU_SETSIZE && count < static_cast<int>(n); ++c) {
    if (CPU_ISSET(c, &allowed)) {
      CPU_SET(c, &chosen);
      ++count;
    }
  }
  if (count == 0) return -1;
  return sched_setaffinity(0, sizeof chosen, &chosen) == 0 ? count : -1;
}

/// Lateness of a bare sleep_until loop on 1 ms ticks: the host's own tail.
std::vector<double> host_jitter_ms(int ticks) {
  std::vector<double> late;
  std::int64_t due = now_ns();
  for (int i = 0; i < ticks; ++i) {
    due += 1'000'000;
    sleep_until_ns(due);
    late.push_back(static_cast<double>(now_ns() - due) / 1e6);
  }
  return late;
}

// -------------------------------------------------------------- traffic ---

struct Slot {
  std::int64_t due_ns{0};  ///< open loop: when due; closed loop: submit time
  std::int64_t done_ns{0};
  std::uint32_t spec{0};
  TxnOutcome outcome{TxnOutcome::kSystemAborted};
  std::uint8_t target{0};  ///< 0 = the pair's primary, 1 = the survivor
};

/// Results every traffic source reports.
struct Traffic {
  const std::vector<TxnSpec>* specs{nullptr};
  std::vector<Slot> slots;
  std::int64_t window_begin{0};  ///< counted: slots due in [begin, end)
  std::int64_t window_end{0};
};

[[nodiscard]] bool on_time(const Slot& s, const TxnSpec& spec) {
  const double deadline_ns = spec.write ? 150e6 : 50e6;
  return s.outcome == TxnOutcome::kCommitted &&
         static_cast<double>(s.done_ns - s.due_ns) <= deadline_ns;
}

/// One generator thread submitting on a fixed schedule, whatever the
/// completions do. Each txn is timed from its due time.
class OpenLoop {
 public:
  OpenLoop(const std::vector<TxnSpec>& specs, const Inputs& in, double rate,
           double max_seconds, std::array<rt::Node*, 2> nodes)
      : specs_(specs), in_(in), rate_(rate), nodes_(nodes) {
    slots_.resize(static_cast<std::size_t>(rate * max_seconds) + 1);
  }
  ~OpenLoop() { stop(); }
  OpenLoop(const OpenLoop&) = delete;
  OpenLoop& operator=(const OpenLoop&) = delete;

  void start() {
    start_ns_ = now_ns();
    thread_ = std::thread([this] { run(); });
  }
  /// Route later submissions to the survivor. Returns once no submission
  /// to the old target is in progress, so the caller may destroy it.
  void retarget() {
    std::lock_guard lock(submit_mu_);
    target_ = 1;
  }
  void stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
  }
  /// Stop, then wait until every submitted txn has completed. Firm
  /// deadlines bound every txn, so a txn still open after 10 s is a hang:
  /// the run ends there, before a late completion could touch freed slots.
  void drain() {
    stop();
    const std::int64_t give_up = now_ns() + 10'000'000'000LL;
    while (completed_.load(std::memory_order_acquire) < issued_) {
      if (now_ns() > give_up) {
        std::fprintf(stderr, "perfbench: %zu txns never completed\n",
                     issued_ - completed_.load());
        std::_Exit(3);
      }
      sleep_s(0.0002);
    }
  }
  [[nodiscard]] bool committed_on_survivor() const {
    return survivor_commit_.load(std::memory_order_acquire);
  }
  [[nodiscard]] std::int64_t start_ns() const { return start_ns_; }

  /// After drain(): the slots used, and the generator's lateness samples.
  Traffic take(std::int64_t begin, std::int64_t end) {
    Traffic t;
    t.specs = &specs_;
    slots_.resize(issued_);
    t.slots = std::move(slots_);
    t.window_begin = begin;
    t.window_end = end;
    return t;
  }
  std::vector<double>& lateness_ms() { return late_ms_; }

 private:
  void run() {
    const double step_ns = 1e9 / rate_;
    std::size_t i = 0;
    while (!stop_.load(std::memory_order_relaxed) && i < slots_.size()) {
      const std::int64_t due =
          start_ns_ + static_cast<std::int64_t>(static_cast<double>(i) * step_ns);
      sleep_until_ns(due);
      late_ms_.push_back(static_cast<double>(now_ns() - due) / 1e6);
      Slot& slot = slots_[i];
      slot.due_ns = due;
      slot.spec = static_cast<std::uint32_t>(i % specs_.size());
      txn::TxnProgram program = build_program(specs_[slot.spec], in_);
      std::lock_guard lock(submit_mu_);
      slot.target = static_cast<std::uint8_t>(target_);
      issued_ = ++i;
      auto done = [this, &slot, i](const rt::CommitInfo& info) {
        Span span(SpanKind::kDone, i - 1);
        slot.outcome = info.outcome;
        slot.done_ns = now_ns();
        if (slot.target == 1 && info.outcome == TxnOutcome::kCommitted) {
          survivor_commit_.store(true, std::memory_order_release);
        }
        completed_.fetch_add(1, std::memory_order_release);
      };
      Span span(SpanKind::kSubmit, i - 1);
      nodes_[target_]->submit(std::move(program), std::move(done));
    }
  }

  const std::vector<TxnSpec>& specs_;
  const Inputs& in_;
  const double rate_;
  std::array<rt::Node*, 2> nodes_;
  std::vector<Slot> slots_;
  std::vector<double> late_ms_;
  std::mutex submit_mu_;
  int target_{0};           // submit_mu_
  std::size_t issued_{0};   // written by the generator; read after stop()
  std::atomic<std::size_t> completed_{0};
  std::atomic<bool> survivor_commit_{false};
  std::atomic<bool> stop_{false};
  std::int64_t start_ns_{0};
  std::thread thread_;
};

/// Closed loop: each client keeps `window` txns in flight and submits the
/// next only when one of them completes. Timed from submit.
Traffic closed_loop(rt::Node& node, const Inputs& in, std::size_t client,
                    std::size_t window, std::int64_t begin, std::int64_t end) {
  const std::vector<TxnSpec>& specs = in.main_txns[client];
  std::deque<Slot> slots;  // stable addresses for in-flight completions
  std::counting_semaphore<64> free(static_cast<std::ptrdiff_t>(window));
  std::uint64_t i = 0;
  while (now_ns() < end) {
    free.acquire();
    Slot& slot = slots.emplace_back();
    slot.spec = static_cast<std::uint32_t>(i % specs.size());
    txn::TxnProgram program = build_program(specs[slot.spec], in);
    slot.due_ns = now_ns();
    Span span(SpanKind::kSubmit, i);
    node.submit(std::move(program), [&slot, &free, i](const rt::CommitInfo& info) {
      Span s(SpanKind::kDone, i);
      slot.outcome = info.outcome;
      slot.done_ns = now_ns();
      free.release();
    });
    ++i;
  }
  for (std::size_t k = 0; k < window; ++k) free.acquire();
  Traffic t;
  t.specs = &specs;
  t.window_begin = begin;
  t.window_end = end;
  t.slots.assign(slots.begin(), slots.end());
  return t;
}

// -------------------------------------------------------------- lookups ---

struct LookupStats {
  FineHist hist;
  FineHist find_ns;
  FineHist read_ns;
  std::vector<std::uint64_t> per_window;
  std::uint64_t ops{0};
  std::uint64_t fallbacks{0};
  std::uint64_t failed{0};

  void merge(const LookupStats& o) {
    hist.merge(o.hist);
    find_ns.merge(o.find_ns);
    read_ns.merge(o.read_ns);
    ops += o.ops;
    fallbacks += o.fallbacks;
    failed += o.failed;
  }
};

/// find + read_committed, falling back to Node::get on kUnavailable the way
/// db::Database::get_by_key does. Every answer is checked against the
/// subscriber record as loaded (routing target and size never change).
void lookup_client(rt::Node& node, const Inputs& in, std::size_t offset,
                   std::int64_t begin, std::int64_t end, double window_s,
                   LookupStats& st) {
  const auto window_ns = static_cast<std::int64_t>(window_s * 1e9);
  st.per_window.assign(static_cast<std::size_t>((end - begin) / window_ns) + 1, 0);
  const bool traced = tracing();
  std::size_t j = offset;
  for (;;) {
    const std::uint32_t s = in.lookups[j++ % in.lookups.size()];
    const std::int64_t t0 = now_ns();
    if (t0 >= end) break;
    std::optional<ObjectId> oid;
    {
      Span span(SpanKind::kFind, s);
      oid = node.index().find(in.keys[s]);
    }
    const std::int64_t t1 = traced ? now_ns() : 0;
    Result<storage::Value> value = Status::error(ErrorCode::kNotFound, "no key");
    if (oid) {
      Span span(SpanKind::kReadCommitted, s);
      value = node.read_committed(*oid);
    }
    const std::int64_t t2 = traced ? now_ns() : 0;
    if (!value.is_ok() && value.status().code() == ErrorCode::kUnavailable) {
      Span span(SpanKind::kGetFallback, s);
      ++st.fallbacks;
      value = node.get(*oid);
    }
    const std::int64_t t3 = now_ns();
    const bool ok = oid && *oid == oid_for(s) && value.is_ok() &&
                    value.value().size() == in.value_bytes &&
                    value.value().read_u64(kRoutingOffset) == in.routing[s];
    if (!ok) ++st.failed;
    if (t0 >= begin) {
      ++st.ops;
      st.hist.add(t3 - t0);
      if (traced) {
        st.find_ns.add(t1 - t0);
        st.read_ns.add(t2 - t1);
      }
      ++st.per_window[static_cast<std::size_t>((t0 - begin) / window_ns)];
    }
  }
}

LookupStats run_lookups(rt::Node& node, const Inputs& in, std::size_t threads,
                        std::int64_t begin, std::int64_t end, double window_s) {
  std::vector<LookupStats> per(threads);
  std::vector<std::thread> pool;
  for (std::size_t c = 0; c < threads; ++c) {
    pool.emplace_back([&, c] {
      lookup_client(node, in, c * in.lookups.size() / threads, begin, end, window_s,
                    per[c]);
    });
  }
  for (std::thread& t : pool) t.join();
  LookupStats out = std::move(per[0]);
  for (std::size_t c = 1; c < threads; ++c) {
    out.merge(per[c]);
    for (std::size_t w = 0; w < out.per_window.size(); ++w) {
      out.per_window[w] += per[c].per_window[w];
    }
  }
  // The last window is cut short by the deadline; rates use full windows.
  if (out.per_window.size() > 1) out.per_window.pop_back();
  return out;
}

// ------------------------------------------------------------- registry ---

/// Sum and count of a registry timer. The registry exposes bucketed
/// quantiles only, so the sum is integrated over the quantile function.
struct TimerSum {
  double count{0};
  double sum_us{0};
};

TimerSum timer_sum(std::string_view name) {
  const LatencyHistogram h = obs::metrics().timer(name).merged();
  TimerSum t;
  t.count = static_cast<double>(h.count());
  if (h.count() == 0) return t;
  constexpr int kSteps = 2000;
  double acc = 0;
  for (int i = 0; i < kSteps; ++i) {
    acc += static_cast<double>(h.quantile((i + 0.5) / kSteps).us);
  }
  t.sum_us = acc / kSteps * t.count;
  return t;
}

const std::array<const char*, 9> kStages = {"admit",      "queue_wait", "read_phase",
                                            "validate",   "write_phase", "log_flush",
                                            "ship",       "mirror_ack", "done"};
const std::array<const char*, 7> kCounters = {
    "node.epoch_seals",   "engine.restarts",         "engine.intent_conflicts",
    "engine.read_retries", "node.txn.conflict_aborted", "sched.overload_rejected",
    "node.txn.submitted"};

struct RegistrySnap {
  std::map<std::string, TimerSum> timers;
  std::map<std::string, double> counters;

  static RegistrySnap take() {
    RegistrySnap s;
    if (!obs::enabled()) return s;
    for (const char* st : kStages) {
      const std::string name = std::string("lifecycle.stage.") + st + "_us";
      s.timers[name] = timer_sum(name);
      const std::string miss = std::string("deadline_miss.by_stage.") + st;
      s.counters[miss] = static_cast<double>(obs::metrics().counter(miss).value());
    }
    s.timers["node.commit_mu_wait"] = timer_sum("node.commit_mu_wait");
    for (const char* c : kCounters) {
      s.counters[c] = static_cast<double>(obs::metrics().counter(c).value());
    }
    return s;
  }
};

/// Registry changes summed over the measured phases of every pair. A metric
/// no snapshot held (obs disabled) reads NaN, or an empty timer.
struct RegistryDelta {
  std::map<std::string, TimerSum> timers;
  std::map<std::string, double> counters;

  void add(const RegistrySnap& after, const RegistrySnap& before) {
    for (const auto& [name, a] : after.timers) {
      const TimerSum& b = before.timers.at(name);
      timers[name].count += a.count - b.count;
      timers[name].sum_us += a.sum_us - b.sum_us;
    }
    for (const auto& [name, a] : after.counters) {
      counters[name] += a - before.counters.at(name);
    }
  }
  [[nodiscard]] double counter(const std::string& n) const {
    const auto it = counters.find(n);
    return it == counters.end() ? kNan : it->second;
  }
  [[nodiscard]] TimerSum timer(const std::string& n) const {
    const auto it = timers.find(n);
    return it == timers.end() ? TimerSum{} : it->second;
  }
};

/// Seqlock retries so far (the registry counts only while obs is enabled).
double read_retries() {
  return static_cast<double>(obs::metrics().counter("engine.read_retries").value());
}

// ---------------------------------------------------------------- checks ---

/// Per-subscriber count of call-counter bumps the client was told committed
/// (`acked`) and of bumps whose outcome it cannot know (`maybe`: refused,
/// missed or aborted writes, some of which may have installed).
struct Ledger {
  std::vector<std::uint32_t> acked;
  std::vector<std::uint32_t> maybe;
  explicit Ledger(std::size_t n) : acked(n, 0), maybe(n, 0) {}
  void add(const Traffic& t) {
    for (const Slot& s : t.slots) {
      const TxnSpec& spec = (*t.specs)[s.spec];
      if (!spec.write) continue;
      auto& into = s.outcome == TxnOutcome::kCommitted ? acked : maybe;
      ++into[spec.subs[0]];
      ++into[spec.subs[1]];
    }
  }
};

struct Checks {
  std::uint64_t store_mismatches{0};
  std::uint64_t seq_mismatches{0};
  std::uint64_t lost_acked{0};
  std::uint64_t lookup_failures{0};
  std::uint64_t errors{0};
  int quiesce_checks{0};
  int survivor_checks{0};
  int lookup_checks{0};
  std::vector<std::string> notes;

  [[nodiscard]] std::uint64_t failed() const {
    return store_mismatches + seq_mismatches + lost_acked + lookup_failures + errors;
  }
  void error(std::string what) {
    ++errors;
    notes.push_back(std::move(what));
  }
};

/// Every acked bump is in `store`, and nothing beyond acked + maybe. This
/// per-subscriber check implies failover_demo's balance total (the counters
/// sum to at least the acked bumps).
void check_ledger(const storage::ObjectStore& store, const Ledger& ledger,
                  Checks& checks) {
  for (std::size_t s = 0; s < ledger.acked.size(); ++s) {
    const storage::ObjectRecord* rec = store.find(oid_for(s));
    const std::uint64_t c = rec ? rec->value.read_u64(kCounterOffset) : 0;
    if (!rec || c < ledger.acked[s] || c > ledger.acked[s] + ledger.maybe[s]) {
      ++checks.lost_acked;
    }
  }
}

/// At quiesce the mirror holds exactly the primary's committed state: the
/// same applied seq, and every record's value, wts and tombstone bit.
void quiesce_check(Pair& pair, const Ledger& ledger, Checks& checks) {
  CountingChannel& ch = pair.primary_channel();
  const bool was_decoding = tracing();
  ch.set_decode(true);
  const std::uint64_t hb0 = ch.heartbeats_sent();
  const std::int64_t give_up = now_ns() + 5'000'000'000LL;
  bool synced = false;
  while (now_ns() < give_up) {
    // Two heartbeats after decoding started: the seq they carry is current.
    if (ch.heartbeats_sent() >= hb0 + 2 &&
        pair.mirror().mirror_applied_seq() == ch.heartbeat_seq()) {
      synced = true;
      break;
    }
    sleep_s(0.001);
  }
  if (!was_decoding) ch.set_decode(false);
  ++checks.quiesce_checks;
  if (!synced) {
    ++checks.seq_mismatches;
    checks.notes.push_back("mirror applied " +
                           std::to_string(pair.mirror().mirror_applied_seq()) +
                           " != primary seq " + std::to_string(ch.heartbeat_seq()));
  }
  const storage::ObjectStore& p = pair.primary()->store();
  const storage::ObjectStore& m = pair.mirror().store();
  if (p.size() != m.size() || p.live_size() != m.live_size() ||
      pair.primary()->index().size() != pair.mirror().index().size()) {
    ++checks.store_mismatches;
  }
  p.for_each([&](ObjectId oid, const storage::ObjectRecord& rec) {
    const storage::ObjectRecord* other = m.find(oid);
    if (other == nullptr || other->wts != rec.wts || other->deleted != rec.deleted ||
        other->value.size() != rec.value.size() ||
        std::memcmp(other->value.data(), rec.value.data(), rec.value.size()) != 0) {
      ++checks.store_mismatches;
    }
  });
  check_ledger(p, ledger, checks);
}

// ------------------------------------------------------------ the run ---

struct Run {
  const Args& args;
  const WorkloadSpec& w;
  Inputs in;
  std::size_t clients{1};
  Checks checks;
  std::uint64_t attempted{0};

  std::vector<double> setup_s;
  std::vector<double> takeover_ms;
  std::vector<double> outage_ms;
  std::vector<double> drain_txns;
  std::vector<double> gen_late_ms;
  std::vector<double> commit_ms;    ///< committed, in the counted window
  std::vector<double> chunk_tps;    ///< per kChunkTxns commits
  std::uint64_t counted{0};         ///< txns in the counted window
  std::uint64_t counted_on_time{0};
  std::uint64_t counted_committed{0};
  double cpu_s{0};
  double wire_bytes{0};
  double frames_to_mirror{0};
  double frames_to_primary{0};
  double log_frames{0};
  double log_commits{0};
  double mirror_disk_bytes{0};
  double mirror_disk_commits{0};
  double phase_wall_s{0};
  std::vector<double> lag_txns;
  std::vector<double> ack_rtt_us;
  LookupStats lookups;
  double lookup_retries{0};
  RegistryDelta reg;

  Run(const Args& a, const WorkloadSpec& spec) : args(a), w(spec) {}

  [[nodiscard]] PairConfig pair_config(int k) const {
    PairConfig c;
    c.subscribers = subscribers();
    c.db_seed = args.seed;
    c.worker_threads = w.workers;
    c.mirror_log_dir = (std::filesystem::path(args.out_dir) /
                        ("mirror-log-" + std::to_string(::getpid()) + "-" +
                         std::to_string(k)))
                           .string();
    return c;
  }
  [[nodiscard]] std::size_t subscribers() const {
    return args.smoke && w.kind == Kind::kLookup ? 100000 : w.subscribers;
  }

  void make_inputs() {
    const std::size_t n = subscribers();
    in.keys.resize(n);
    for (std::size_t i = 0; i < n; ++i) in.keys[i] = workload::number_for(i);
    Rng root(args.seed * 0x9e3779b97f4a7c15ULL + 17);
    const Sampler uniform(n, 0);
    in.crash_txns = make_txns(1 << 14, 0.5, uniform, root.split());
    const Sampler main_sampler(n, w.zipf_theta);
    const std::size_t lists = w.clients ? clients : 1;
    for (std::size_t c = 0; c < lists; ++c) {
      in.main_txns.push_back(make_txns(1 << 15, w.write_fraction, main_sampler, root.split()));
    }
    Rng rng = root.split();
    in.lookups.resize(1 << 20);
    for (std::uint32_t& s : in.lookups) s = static_cast<std::uint32_t>(rng.next_below(n));
  }

  void capture_routing(rt::Node& node) {
    const std::size_t n = subscribers();
    in.routing.resize(n);
    for (std::size_t s = 0; s < n; ++s) {
      const storage::ObjectRecord* rec = node.store().find(oid_for(s));
      in.routing[s] = rec ? rec->value.read_u64(kRoutingOffset) : ~0ULL;
      if (s == 0 && rec) in.value_bytes = rec->value.size();
    }
  }

  std::unique_ptr<Pair> setup(int k) {
    const std::int64_t t0 = now_ns();
    std::string error;
    auto pair = Pair::create(pair_config(k), error);
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    if (!pair) checks.error("setup: " + error);
    if (pair && in.routing.empty()) capture_routing(*pair->primary());
    return pair;
  }

  /// Count a traffic segment toward the end-to-end commit metrics; returns
  /// the completion times of its committed txns.
  std::vector<std::int64_t> count(const Traffic& t) {
    const std::vector<TxnSpec>& specs = *t.specs;
    std::vector<std::int64_t> done;
    for (const Slot& s : t.slots) {
      if (s.due_ns < t.window_begin || s.due_ns >= t.window_end) continue;
      ++counted;
      if (on_time(s, specs[s.spec])) ++counted_on_time;
      if (s.outcome != TxnOutcome::kCommitted) continue;
      ++counted_committed;
      commit_ms.push_back(static_cast<double>(s.done_ns - s.due_ns) / 1e6);
      done.push_back(s.done_ns);
    }
    return done;
  }
  /// Throughput over fixed amounts of work: the wall time each successive
  /// kChunkTxns commits of one traffic segment took (a segment shorter than
  /// one chunk counts as one).
  void add_chunks(std::vector<std::int64_t> done) {
    std::sort(done.begin(), done.end());
    const std::size_t chunk = std::min(kChunkTxns, done.size() - (done.empty() ? 0 : 1));
    for (std::size_t i = 0; chunk > 0 && i + chunk < done.size(); i += chunk) {
      const double span_s = static_cast<double>(done[i + chunk] - done[i]) / 1e9;
      if (span_s > 0) chunk_tps.push_back(static_cast<double>(chunk) / span_s);
    }
  }

  /// Open-loop traffic over the crash of the pair's primary.
  void crash_cycle(Pair& pair, Ledger& ledger, double rate, double lead_s,
                   double after_s, bool counted_traffic) {
    OpenLoop gen(in.crash_txns, in, rate, lead_s + after_s + 10.0,
                 {pair.primary(), &pair.mirror()});
    const Meter m = meter(pair);
    gen.start();
    sleep_s(lead_s);
    const double shipped = static_cast<double>(pair.primary_channel().max_shipped_seq());
    const double applied = static_cast<double>(pair.mirror().mirror_applied_seq());
    const std::int64_t crash = now_ns();
    gen.retarget();
    pair.crash_primary();
    const std::int64_t give_up = crash + 5'000'000'000LL;
    while (!pair.mirror().serving() && now_ns() < give_up) sleep_s(0.0001);
    const std::int64_t serving = now_ns();
    if (!pair.mirror().serving()) {
      checks.error("mirror did not take over within 5 s");
    } else {
      takeover_ms.push_back(static_cast<double>(serving - crash) / 1e6);
    }
    while (!gen.committed_on_survivor() && now_ns() < give_up) sleep_s(0.0002);
    sleep_s(after_s);
    gen.drain();
    const std::int64_t end = now_ns();
    gen_late_ms.insert(gen_late_ms.end(), gen.lateness_ms().begin(), gen.lateness_ms().end());
    Traffic t = gen.take(gen.start_ns(), end);
    attempted += t.slots.size();
    std::int64_t last_primary = 0;
    std::int64_t first_survivor = 0;
    for (const Slot& s : t.slots) {
      if (s.outcome != TxnOutcome::kCommitted) continue;
      if (s.target == 0) last_primary = std::max(last_primary, s.done_ns);
      if (s.target == 1 && (first_survivor == 0 || s.done_ns < first_survivor)) {
        first_survivor = s.done_ns;
      }
    }
    if (last_primary > 0 && first_survivor > 0) {
      outage_ms.push_back(static_cast<double>(first_survivor - last_primary) / 1e6);
    } else {
      checks.error("no commit on one side of the crash");
    }
    if (tracing()) drain_txns.push_back(std::max(0.0, shipped - applied));
    if (counted_traffic) {
      add_chunks(count(t));
      settle(m, pair, end, gen.start_ns());
    }
    ledger.add(t);
    ++checks.survivor_checks;
    check_ledger(pair.mirror().store(), ledger, checks);
  }

  void main_open(Pair& pair, Ledger& ledger, double warm_s, double seconds) {
    OpenLoop gen(in.main_txns[0], in, w.rate, warm_s + seconds + 1,
                 {pair.primary(), nullptr});
    gen.start();
    const std::int64_t begin = gen.start_ns() + static_cast<std::int64_t>(warm_s * 1e9);
    const std::int64_t end = begin + static_cast<std::int64_t>(seconds * 1e9);
    sleep_until_ns(begin);
    const Meter m = meter(pair);
    LagSampler lag(pair, tracing());
    sleep_until_ns(end);
    lag.stop(lag_txns);
    settle(m, pair, end, begin);
    gen.drain();
    gen_late_ms.insert(gen_late_ms.end(), gen.lateness_ms().begin(), gen.lateness_ms().end());
    Traffic t = gen.take(begin, end);
    attempted += t.slots.size();
    add_chunks(count(t));
    ledger.add(t);
  }

  void main_closed(Pair& pair, Ledger& ledger, double warm_s, double seconds) {
    const std::int64_t begin = now_ns() + static_cast<std::int64_t>(warm_s * 1e9);
    const std::int64_t end = begin + static_cast<std::int64_t>(seconds * 1e9);
    std::vector<Traffic> per(clients);
    std::vector<std::thread> pool;
    for (std::size_t c = 0; c < clients; ++c) {
      pool.emplace_back([&, c] {
        per[c] = closed_loop(*pair.primary(), in, c, kClientWindow, begin, end);
      });
    }
    sleep_until_ns(begin);
    const Meter m = meter(pair);
    LagSampler lag(pair, tracing());
    sleep_until_ns(end);
    lag.stop(lag_txns);
    settle(m, pair, end, begin);
    for (std::thread& t : pool) t.join();
    std::vector<std::int64_t> done;
    for (std::size_t c = 0; c < clients; ++c) {
      const std::vector<std::int64_t> mine = count(per[c]);
      done.insert(done.end(), mine.begin(), mine.end());
      attempted += per[c].slots.size();
      ledger.add(per[c]);
    }
    add_chunks(std::move(done));
  }

  void main_lookup(Pair& pair, Ledger& ledger, double warm_s, double seconds) {
    OpenLoop gen(in.main_txns[0], in, w.rate, warm_s + seconds + 1,
                 {pair.primary(), nullptr});
    gen.start();
    const std::int64_t begin = gen.start_ns() + static_cast<std::int64_t>(warm_s * 1e9);
    const std::int64_t end = begin + static_cast<std::int64_t>(seconds * 1e9);
    const double retries0 = read_retries();
    LookupStats st;
    std::thread lookups_thread([&] {
      st = run_lookups(*pair.primary(), in, clients, begin, end, kWindowS);
    });
    sleep_until_ns(begin);
    const Meter m = meter(pair);
    LagSampler lag(pair, tracing());
    sleep_until_ns(end);
    lag.stop(lag_txns);
    settle(m, pair, end, begin);
    lookups_thread.join();
    lookup_retries += read_retries() - retries0;
    add_lookups(st);
    gen.drain();
    gen_late_ms.insert(gen_late_ms.end(), gen.lateness_ms().begin(), gen.lateness_ms().end());
    Traffic t = gen.take(begin, end);
    attempted += t.slots.size();
    add_chunks(count(t));
    ledger.add(t);
  }

  /// A short lookup phase on a quiesced pair, for workloads whose main
  /// phase does no lookups: one client, so the figure is the lookup path's
  /// own cost on a store that fits the cache, not the host's scheduling of
  /// several spinning clients. Every pair of the run is probed in turn and
  /// the windows pooled, so one pair's memory layout or one spell of host
  /// slowness does not set the figure.
  void lookup_probe(Pair& pair, int setups) {
    const double seconds = (args.smoke ? 0.2 : 0.6 * args.seconds) / setups;
    const std::int64_t begin = now_ns() + 50'000'000;
    const std::int64_t end = begin + static_cast<std::int64_t>(seconds * 1e9);
    const double retries0 = read_retries();
    const LookupStats probe = run_lookups(*pair.primary(), in, 1, begin, end, kProbeWindowS);
    lookup_retries += read_retries() - retries0;
    add_lookups(probe);
  }

  void add_lookups(const LookupStats& st) {
    attempted += st.ops;
    ++checks.lookup_checks;
    checks.lookup_failures += st.failed;
    lookups.merge(st);
    lookups.per_window.insert(lookups.per_window.end(), st.per_window.begin(),
                              st.per_window.end());
  }

  struct Meter {
    double cpu;
    double bytes;
    double to_mirror;
    double to_primary;
    double log_frames;
    double log_commits;
  };
  static Meter meter(Pair& pair) {
    return {cpu_seconds(), static_cast<double>(pair.primary_channel().bytes_sent()),
            static_cast<double>(pair.primary_channel().frames_sent()),
            static_cast<double>(pair.mirror_channel().frames_sent()),
            static_cast<double>(pair.primary_channel().log_frames()),
            static_cast<double>(pair.primary_channel().log_commits())};
  }
  void settle(const Meter& m0, Pair& pair, std::int64_t end, std::int64_t begin) {
    const Meter m1 = meter(pair);
    cpu_s += m1.cpu - m0.cpu;
    wire_bytes += m1.bytes - m0.bytes;
    frames_to_mirror += m1.to_mirror - m0.to_mirror;
    frames_to_primary += m1.to_primary - m0.to_primary;
    log_frames += m1.log_frames - m0.log_frames;
    log_commits += m1.log_commits - m0.log_commits;
    phase_wall_s += static_cast<double>(end - begin) / 1e9;
  }

  /// Samples how far the mirror's applied seq trails the primary's shipped
  /// seq (traced runs: the shipped seq comes from decoded frames).
  class LagSampler {
   public:
    LagSampler(Pair& pair, bool on) {
      if (!on) return;
      thread_ = std::thread([this, &pair] {
        while (!stop_.load()) {
          const double shipped = static_cast<double>(pair.primary_channel().max_shipped_seq());
          const double applied = static_cast<double>(pair.mirror().mirror_applied_seq());
          samples_.push_back(std::max(0.0, shipped - applied));
          sleep_s(0.005);
        }
      });
    }
    ~LagSampler() {
      stop_.store(true);
      if (thread_.joinable()) thread_.join();
    }
    LagSampler(const LagSampler&) = delete;
    LagSampler& operator=(const LagSampler&) = delete;
    void stop(std::vector<double>& out) {
      stop_.store(true);
      if (thread_.joinable()) thread_.join();
      out.insert(out.end(), samples_.begin(), samples_.end());
    }

   private:
    std::atomic<bool> stop_{false};
    std::vector<double> samples_;
    std::thread thread_;
  };

  void execute() {
    clients = std::min<std::size_t>(4, args.nproc);
    make_inputs();
    const double seconds = args.seconds;
    int setups = w.kind == Kind::kFailover
        ? std::max(3, static_cast<int>(std::lround(seconds / 1.6)))
        : (w.kind == Kind::kLookup ? 3 : 5);
    if (args.smoke) setups = 2;
    // The measured traffic is shared out over every pair, so no one pair's
    // thread placement or memory layout sets a figure.
    const double share = seconds / setups;
    for (int k = 0; k < setups; ++k) {
      std::unique_ptr<Pair> pair = setup(k);
      if (!pair) return;
      Ledger ledger(subscribers());
      if (tracing()) {
        pair->primary_channel().set_decode(true);
        pair->mirror_channel().set_decode(true);
      }
      // Registry deltas cover the measured traffic: the main phase, or for
      // failover the whole cycle.
      const RegistrySnap before = RegistrySnap::take();
      switch (w.kind) {
        case Kind::kOpen:
          main_open(*pair, ledger, 0.5, share);
          break;
        case Kind::kClosed:
          main_closed(*pair, ledger, 0.5, share);
          break;
        case Kind::kLookup:
          main_lookup(*pair, ledger, 0.5, share);
          break;
        case Kind::kFailover:
          main_open(*pair, ledger, 0.0, kFailoverWarmS);
          break;
      }
      if (w.kind != Kind::kFailover) reg.add(RegistrySnap::take(), before);
      quiesce_check(*pair, ledger, checks);
      if (w.kind != Kind::kLookup) lookup_probe(*pair, setups);
      mirror_disk_bytes += static_cast<double>(pair->mirror_disk_bytes());
      mirror_disk_commits += static_cast<double>(pair->mirror().mirror_applied_seq());
      const std::vector<double> rtts = pair->primary_channel().take_ack_rtts_us();
      ack_rtt_us.insert(ack_rtt_us.end(), rtts.begin(), rtts.end());
      if (w.kind == Kind::kFailover) {
        crash_cycle(*pair, ledger, w.rate, kCrashLeadS, kFailoverAfterS, true);
        reg.add(RegistrySnap::take(), before);
      } else {
        crash_cycle(*pair, ledger, kCrashRate, kCrashLeadS, kCrashAfterS, false);
      }
    }
  }

  // ----------------------------------------------------------- report ---

  std::map<std::string, double> end_to_end() const {
    std::map<std::string, double> m;
    const double committed = static_cast<double>(counted_committed);
    m["setup_s"] = median(setup_s);
    m["committed_tps"] = median(chunk_tps);
    m["commit_p50_ms"] = quantile(commit_ms, 0.50);
    m["commit_p99_ms"] = quantile(commit_ms, 0.99);
    m["on_time_ratio"] = counted ? static_cast<double>(counted_on_time) /
                                       static_cast<double>(counted + checks.failed())
                                 : kNan;
    m["cpu_us_per_commit"] = committed > 0 ? cpu_s * 1e6 / committed : kNan;
    m["wire_bytes_per_commit"] = committed > 0 ? wire_bytes / committed : kNan;
    std::vector<double> lw;
    const double lwin = w.kind == Kind::kLookup ? kWindowS : kProbeWindowS;
    for (std::uint64_t c : lookups.per_window) lw.push_back(static_cast<double>(c) / lwin);
    m["lookups_per_s"] = median(lw);
    m["lookup_p50_us"] = lookups.hist.quantile_ns(0.50) / 1e3;
    m["lookup_p99_us"] = lookups.hist.quantile_ns(0.99) / 1e3;
    m["takeover_ms"] = median(takeover_ms);
    m["outage_ms"] = median(outage_ms);
    m["peak_rss_mb"] = peak_rss_mb();
    return m;
  }

  /// `self_ns`: the kept span records' self times, per kind (median is
  /// reported: on a shared host a mean is dominated by preemptions).
  std::map<std::string, double> per_layer(const std::vector<std::vector<double>>& self_ns) const {
    std::map<std::string, double> m;
    const double committed = std::max(1.0, static_cast<double>(counted_committed));
    auto self_us = [&](SpanKind k) {
      return median(self_ns[static_cast<std::size_t>(k)]) / 1e3;
    };
    auto stage_us = [&](const char* stage) {
      const TimerSum t = reg.timer(std::string("lifecycle.stage.") + stage + "_us");
      return t.count > 0 ? t.sum_us / t.count : kNan;
    };
    auto counter = [&](const char* name) { return reg.counter(name); };

    m["rt.submit_us"] = self_us(SpanKind::kSubmit);
    m["rt.admit_us"] = stage_us("admit");
    m["rt.queue_wait_us"] = stage_us("queue_wait");
    const TimerSum mu = reg.timer("node.commit_mu_wait");
    m["rt.commit_mu_wait_ms_per_s"] = mu.sum_us / 1e3 / std::max(1e-9, phase_wall_s);
    m["rt.epoch_seals_per_commit"] = counter("node.epoch_seals") / committed;
    m["engine.read_phase_us"] = stage_us("read_phase");
    m["engine.validate_us"] = stage_us("validate");
    m["engine.write_phase_us"] = stage_us("write_phase");
    const double restarts = counter("engine.restarts");
    const double conflicts = counter("node.txn.conflict_aborted");
    m["cc.restarts_per_commit"] = restarts / committed;
    m["cc.intent_conflicts_per_commit"] = counter("engine.intent_conflicts") / committed;
    m["cc.useful_ratio"] = committed / (committed + restarts + conflicts);
    m["storage.find_us"] = lookups.find_ns.quantile_ns(0.5) / 1e3;
    m["storage.read_committed_us"] = lookups.read_ns.quantile_ns(0.5) / 1e3;
    const double lops = std::max<double>(1, static_cast<double>(lookups.ops));
    m["storage.read_fallback_ratio"] = static_cast<double>(lookups.fallbacks) / lops;
    m["storage.seqlock_retries_per_read"] = lookup_retries / lops;
    m["log.flush_wait_us"] = stage_us("log_flush");
    m["log.txns_per_frame"] = log_frames > 0 ? log_commits / log_frames : kNan;
    m["log.mirror_disk_bytes_per_commit"] =
        mirror_disk_commits > 0 ? mirror_disk_bytes / mirror_disk_commits : kNan;
    m["net.frames_per_commit.to_mirror"] = frames_to_mirror / committed;
    m["net.frames_per_commit.to_primary"] = frames_to_primary / committed;
    m["net.send_us"] = self_us(SpanKind::kSend);
    m["net.ack_rtt_us"] = median(ack_rtt_us);
    m["repl.ship_us"] = stage_us("ship");
    m["repl.mirror_ack_us"] = stage_us("mirror_ack");
    m["repl.mirror_frame_us"] = self_us(SpanKind::kMirrorFrame);
    m["repl.ack_handle_us"] = self_us(SpanKind::kAckHandle);
    m["repl.mirror_lag_txns"] = quantile(lag_txns, 0.99);
    m["repl.takeover_drain_txns"] = median(drain_txns);
    const double attempted_txns = std::max(1.0, counter("node.txn.submitted"));
    m["sched.shed_ratio"] = counter("sched.overload_rejected") / attempted_txns;
    for (const char* st : kStages) {
      m[std::string("sched.deadline_miss.") + st] =
          counter((std::string("deadline_miss.by_stage.") + st).c_str());
    }
    m["client.gen_late_p99_ms"] = quantile(gen_late_ms, 0.99);
    return m;
  }
};

void put_number(std::string& out, double v) {
  if (!std::isfinite(v)) {
    out += "null";
    return;
  }
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  out += buf;
}

void put_map(std::string& out, const char* key, const std::map<std::string, double>& m) {
  out += '"';
  out += key;
  out += "\":{";
  bool first = true;
  for (const auto& [k, v] : m) {
    if (!first) out += ',';
    first = false;
    out += '"' + k + "\":";
    put_number(out, v);
  }
  out += '}';
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
  }
  return out + '"';
}

int usage() {
  std::fprintf(stderr,
               "usage: rodain_perfbench --workload <nt_open|nt_closed_skew|"
               "lookup_large|failover> [--seed N] [--seconds S] [--trace 0|1] "
               "[--smoke] [--out DIR]\n");
  return 2;
}

int run_main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    const char* v = nullptr;
    if (a == "--smoke") {
      args.smoke = true;
      continue;
    }
    if ((v = value()) == nullptr) return usage();
    if (a == "--workload") {
      args.workload = v;
    } else if (a == "--seed") {
      args.seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--seconds") {
      args.seconds = std::strtod(v, nullptr);
    } else if (a == "--trace") {
      args.trace = std::string(v) == "1";
    } else if (a == "--out") {
      args.out_dir = v;
    } else {
      return usage();
    }
  }
  const WorkloadSpec* spec = nullptr;
  for (const WorkloadSpec& w : kWorkloads) {
    if (args.workload == w.name) spec = &w;
  }
  if (spec == nullptr || !(args.seconds > 0 && args.seconds <= 120)) return usage();

  const unsigned cpus_online = std::max(1u, std::thread::hardware_concurrency());
  const int pinned_cpus = pin_to_cpus(std::min(4u, cpus_online));
  diag::set_level(diag::Level::kError);
  if (args.trace) {
    obs::ObsConfig config;
    config.enabled = true;
    config.tracing = false;  // registry only; spans come from this benchmark
    obs::init(config);
    set_tracing(true);
  }
  std::filesystem::create_directories(args.out_dir);

  const std::vector<double> jitter = host_jitter_ms(args.smoke ? 50 : 300);
  args.nproc = cpus_online;
  Run run(args, *spec);
  const std::int64_t t0 = now_ns();
  run.execute();
  const double total_s = static_cast<double>(now_ns() - t0) / 1e9;

  std::map<std::string, double> layers;
  std::size_t spans_written = 0;
  if (args.trace) {
    layers = run.per_layer(span_self_ns());
    spans_written = write_spans(
        (std::filesystem::path(args.out_dir) /
         ("spans-" + args.workload + "-" + std::to_string(args.seed) + ".csv"))
            .string());
  }
  layers["client.host_jitter_p99_ms"] = quantile(jitter, 0.99);

  const Checks& c = run.checks;
  const bool checks_ran = c.quiesce_checks > 0 && c.survivor_checks > 0 && c.lookup_checks > 0;
  const bool correct = c.failed() == 0 && checks_ran;
  std::string out = "{\"workload\":" + json_string(args.workload);
  out += ",\"seed\":" + std::to_string(args.seed);
  out += ",\"trace\":" + std::string(args.trace ? "1" : "0");
  out += ",\"correct\":" + std::string(correct ? "true" : "false");
  out += ",\"attempted\":" + std::to_string(std::max<std::uint64_t>(1, run.attempted));
  out += ",\"failed\":" + std::to_string(c.failed() + (checks_ran ? 0 : 1));
  out += ",";
  put_map(out, "end_to_end", run.end_to_end());
  out += ",";
  put_map(out, "per_layer", layers);
  out += ",";
  std::map<std::string, double> samples = {
      {"commit", static_cast<double>(run.commit_ms.size())},
      {"commit_beyond_p99", std::floor(static_cast<double>(run.commit_ms.size()) * 0.01)},
      {"counted_txns", static_cast<double>(run.counted)},
      {"tps_chunks", static_cast<double>(run.chunk_tps.size())},
      {"tps_chunk_q1", quantile(run.chunk_tps, 0.25)},
      {"tps_chunk_q3", quantile(run.chunk_tps, 0.75)},
      {"lookup", static_cast<double>(run.lookups.hist.count())},
      {"lookup_beyond_p99", std::floor(static_cast<double>(run.lookups.hist.count()) * 0.01)},
      {"setups", static_cast<double>(run.setup_s.size())},
      {"takeovers", static_cast<double>(run.takeover_ms.size())},
      {"outages", static_cast<double>(run.outage_ms.size())},
      {"host_jitter_ticks", static_cast<double>(jitter.size())},
      {"spans_written", static_cast<double>(spans_written)},
      {"run_wall_s", total_s}};
  put_map(out, "samples", samples);
  out += ",";
  std::map<std::string, double> checks = {
      {"quiesce_checks", static_cast<double>(c.quiesce_checks)},
      {"survivor_checks", static_cast<double>(c.survivor_checks)},
      {"lookup_checks", static_cast<double>(c.lookup_checks)},
      {"store_mismatches", static_cast<double>(c.store_mismatches)},
      {"seq_mismatches", static_cast<double>(c.seq_mismatches)},
      {"lost_acked", static_cast<double>(c.lost_acked)},
      {"lookup_failures", static_cast<double>(c.lookup_failures)},
      {"errors", static_cast<double>(c.errors)}};
  put_map(out, "checks", checks);
  out += ",\"params\":{\"subscribers\":" + std::to_string(run.subscribers()) +
         ",\"worker_threads\":" + std::to_string(spec->workers) +
         ",\"pinned_cpus\":" + std::to_string(pinned_cpus) +
         ",\"clients\":" + std::to_string(spec->clients ? run.clients : 0) +
         ",\"rate\":" + std::to_string(static_cast<long>(spec->rate)) +
         ",\"write_fraction\":";
  put_number(out, spec->write_fraction);
  out += ",\"zipf_theta\":";
  put_number(out, spec->zipf_theta);
  out += "},\"notes\":[";
  for (std::size_t i = 0; i < c.notes.size() && i < 20; ++i) {
    if (i) out += ',';
    out += json_string(c.notes[i]);
  }
  out += "]}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::run_main(argc, argv); }
