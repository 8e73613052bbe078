// Streaming statistics used by the experiment harness and node telemetry.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "rodain/common/time.hpp"

namespace rodain {

/// Welford online mean/variance accumulator.
class OnlineStats {
 public:
  void add(double x);
  void merge(const OnlineStats& other);

  [[nodiscard]] std::size_t count() const { return n_; }
  [[nodiscard]] double mean() const { return n_ ? mean_ : 0.0; }
  [[nodiscard]] double variance() const;  ///< sample variance (n-1)
  [[nodiscard]] double stddev() const;
  [[nodiscard]] double min() const { return n_ ? min_ : 0.0; }
  [[nodiscard]] double max() const { return n_ ? max_ : 0.0; }
  [[nodiscard]] double sum() const {
    return mean_ * static_cast<double>(n_);
  }

 private:
  std::size_t n_{0};
  double mean_{0};
  double m2_{0};
  double min_{0};
  double max_{0};
};

/// Log-scaled latency histogram (microsecond domain, ~4% resolution).
/// Bounded memory, mergeable, exact count; quantiles are bucket-interpolated.
class LatencyHistogram {
 public:
  LatencyHistogram();

  void add(Duration d);
  void merge(const LatencyHistogram& other);

  [[nodiscard]] std::size_t count() const { return count_; }
  [[nodiscard]] Duration quantile(double q) const;  ///< q in [0,1]
  [[nodiscard]] Duration mean() const;  ///< truncated to whole us
  /// Exact sum of every sample in us (exact below 2^53 us, ~285 years):
  /// totals differenced across an interval use this, not mean() * count.
  [[nodiscard]] double sum_us() const { return sum_us_; }
  [[nodiscard]] Duration max_value() const { return max_; }

  [[nodiscard]] std::string summary() const;  ///< "p50=… p95=… p99=… max=…"

 private:
  static std::size_t bucket_for(std::int64_t us);
  static std::int64_t bucket_lower(std::size_t b);

  std::vector<std::uint64_t> buckets_;
  std::size_t count_{0};
  double sum_us_{0};
  Duration max_{Duration::zero()};
};

/// Per-session transaction accounting: the quantities the paper reports.
struct TxnCounters {
  std::uint64_t submitted{0};
  std::uint64_t committed{0};
  std::uint64_t missed_deadline{0};
  std::uint64_t overload_rejected{0};
  std::uint64_t conflict_aborted{0};
  std::uint64_t system_aborted{0};
  std::uint64_t restarts{0};  ///< CC-induced restarts (txn may still commit)

  void merge(const TxnCounters& o);

  /// The paper's "transaction miss ratio": fraction of submitted
  /// transactions that did not commit (any abort reason).
  [[nodiscard]] double miss_ratio() const;
  [[nodiscard]] std::uint64_t missed_total() const {
    return missed_deadline + overload_rejected + conflict_aborted +
           system_aborted;
  }
};

}  // namespace rodain
