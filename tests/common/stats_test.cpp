#include "rodain/common/stats.hpp"

#include <gtest/gtest.h>

#include "rodain/common/rng.hpp"

namespace rodain {
namespace {

using namespace rodain::literals;

TEST(OnlineStats, Empty) {
  OnlineStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(OnlineStats, MeanVarMinMax) {
  OnlineStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-9);
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(OnlineStats, MergeMatchesSequential) {
  Rng rng(42);
  OnlineStats whole, a, b;
  for (int i = 0; i < 1000; ++i) {
    double x = rng.next_double() * 100;
    whole.add(x);
    (i % 2 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), whole.count());
  EXPECT_NEAR(a.mean(), whole.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), whole.variance(), 1e-6);
  EXPECT_EQ(a.min(), whole.min());
  EXPECT_EQ(a.max(), whole.max());
}

TEST(OnlineStats, MergeWithEmpty) {
  OnlineStats a, b;
  a.add(3);
  a.merge(b);
  EXPECT_EQ(a.count(), 1u);
  b.merge(a);
  EXPECT_EQ(b.count(), 1u);
  EXPECT_DOUBLE_EQ(b.mean(), 3.0);
}

TEST(LatencyHistogram, Empty) {
  LatencyHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.quantile(0.5), Duration::zero());
}

TEST(LatencyHistogram, SingleValue) {
  LatencyHistogram h;
  h.add(10_ms);
  EXPECT_EQ(h.count(), 1u);
  // 4% bucket resolution
  EXPECT_NEAR(h.quantile(0.5).to_ms(), 10.0, 0.7);
  EXPECT_EQ(h.max_value(), 10_ms);
}

TEST(LatencyHistogram, QuantilesOrdered) {
  LatencyHistogram h;
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    h.add(Duration::micros(
        static_cast<std::int64_t>(rng.next_below(100000)) + 1));
  }
  EXPECT_LE(h.quantile(0.1), h.quantile(0.5));
  EXPECT_LE(h.quantile(0.5), h.quantile(0.9));
  EXPECT_LE(h.quantile(0.9), h.quantile(0.99));
  EXPECT_LE(h.quantile(0.99), h.max_value());
}

TEST(LatencyHistogram, UniformMedianApprox) {
  LatencyHistogram h;
  for (int i = 1; i <= 9999; ++i) h.add(Duration::micros(i));
  EXPECT_NEAR(h.quantile(0.5).to_ms(), 5.0, 0.4);
  EXPECT_NEAR(h.mean().to_ms(), 5.0, 0.01);
}

TEST(LatencyHistogram, MergeAddsCounts) {
  LatencyHistogram a, b;
  a.add(1_ms);
  b.add(100_ms);
  a.merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_EQ(a.max_value(), 100_ms);
}

TEST(LatencyHistogram, ZeroAndNegativeGoToFirstBucket) {
  LatencyHistogram h;
  h.add(Duration::zero());
  h.add(Duration::micros(-5));
  EXPECT_EQ(h.count(), 2u);
  EXPECT_EQ(h.quantile(1.0).us, 0);
}

TEST(LatencyHistogram, SumIsExactSoIntervalTotalsNeverGoNegative) {
  // mean() truncates to whole us, so mean() * count can shrink when a
  // sample arrives: {2, 2} totals 4 us, {2, 2, 1} gives mean 1 us * 3.
  // The exact sum differenced across any interval is the interval's own
  // samples, never negative.
  LatencyHistogram h;
  h.add(2_us);
  h.add(2_us);
  double before = h.sum_us();
  EXPECT_EQ(before, 4.0);
  h.add(1_us);
  EXPECT_EQ(h.sum_us() - before, 1.0);
  EXPECT_LT(h.mean().us * 3, static_cast<std::int64_t>(before));

  Rng rng(5);
  for (int i = 0; i < 2000; ++i) {
    before = h.sum_us();
    const auto us = static_cast<std::int64_t>(rng.next_below(5000));
    h.add(Duration::micros(us));
    EXPECT_EQ(h.sum_us() - before, static_cast<double>(us));
  }
  LatencyHistogram merged;
  merged.merge(h);
  EXPECT_EQ(merged.sum_us(), h.sum_us());
}

TEST(LatencyHistogram, SummaryMentionsPercentiles) {
  LatencyHistogram h;
  h.add(1_ms);
  auto s = h.summary();
  EXPECT_NE(s.find("p50"), std::string::npos);
  EXPECT_NE(s.find("p99"), std::string::npos);
}

TEST(TxnCounters, MissRatio) {
  TxnCounters c;
  c.submitted = 100;
  c.committed = 90;
  c.missed_deadline = 4;
  c.overload_rejected = 5;
  c.conflict_aborted = 1;
  EXPECT_DOUBLE_EQ(c.miss_ratio(), 0.10);
  EXPECT_EQ(c.missed_total(), 10u);
}

TEST(TxnCounters, EmptyMissRatioIsZero) {
  TxnCounters c;
  EXPECT_DOUBLE_EQ(c.miss_ratio(), 0.0);
}

TEST(TxnCounters, Merge) {
  TxnCounters a, b;
  a.submitted = 10;
  a.committed = 9;
  a.restarts = 2;
  b.submitted = 5;
  b.committed = 4;
  b.missed_deadline = 1;
  a.merge(b);
  EXPECT_EQ(a.submitted, 15u);
  EXPECT_EQ(a.committed, 13u);
  EXPECT_EQ(a.missed_deadline, 1u);
  EXPECT_EQ(a.restarts, 2u);
}

}  // namespace
}  // namespace rodain
