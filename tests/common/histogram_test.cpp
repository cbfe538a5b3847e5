#include "common/histogram.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.h"

namespace memca {
namespace {

TEST(LatencyHistogram, EmptyState) {
  LatencyHistogram h;
  EXPECT_TRUE(h.empty());
  EXPECT_EQ(h.count(), 0);
  EXPECT_EQ(h.quantile(0.5), 0);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.max(), 0);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
}

TEST(LatencyHistogram, SingleValue) {
  LatencyHistogram h;
  h.record(msec(5));
  EXPECT_EQ(h.count(), 1);
  EXPECT_EQ(h.min(), msec(5));
  EXPECT_EQ(h.max(), msec(5));
  // 1.6% relative bucket resolution.
  EXPECT_NEAR(static_cast<double>(h.quantile(0.5)), static_cast<double>(msec(5)),
              0.02 * static_cast<double>(msec(5)));
}

TEST(LatencyHistogram, SmallValuesAreExact) {
  LatencyHistogram h;
  for (SimTime v = 0; v < 64; ++v) h.record(v);
  EXPECT_EQ(h.quantile(0.0), 0);
  EXPECT_EQ(h.quantile(1.0), 63);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.max(), 63);
}

TEST(LatencyHistogram, NegativeClampedToZero) {
  LatencyHistogram h;
  h.record(-100);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.quantile(1.0), 0);
}

TEST(LatencyHistogram, QuantilesMonotone) {
  LatencyHistogram h;
  Rng rng(5);
  for (int i = 0; i < 10000; ++i) h.record(rng.exponential_time(msec(20)));
  SimTime prev = 0;
  for (double q = 0.0; q <= 1.0; q += 0.01) {
    const SimTime v = h.quantile(q);
    EXPECT_GE(v, prev) << "quantile " << q;
    prev = v;
  }
}

TEST(LatencyHistogram, QuantileMatchesExactWithinResolution) {
  LatencyHistogram h;
  std::vector<SimTime> values;
  Rng rng(7);
  for (int i = 0; i < 20000; ++i) {
    const SimTime v = rng.exponential_time(msec(50));
    values.push_back(v);
    h.record(v);
  }
  std::sort(values.begin(), values.end());
  for (double q : {0.5, 0.9, 0.95, 0.99}) {
    const auto idx = static_cast<std::size_t>(q * static_cast<double>(values.size() - 1));
    const double exact = static_cast<double>(values[idx]);
    const double approx = static_cast<double>(h.quantile(q));
    EXPECT_NEAR(approx, exact, 0.05 * exact + 2.0) << "q=" << q;
  }
}

TEST(LatencyHistogram, MeanApproximation) {
  LatencyHistogram h;
  double exact_sum = 0.0;
  Rng rng(9);
  const int n = 10000;
  for (int i = 0; i < n; ++i) {
    const SimTime v = rng.exponential_time(msec(10));
    exact_sum += static_cast<double>(v);
    h.record(v);
  }
  EXPECT_NEAR(h.mean(), exact_sum / n, 0.01 * exact_sum / n);
}

TEST(LatencyHistogram, RecordNEquivalentToLoop) {
  LatencyHistogram a;
  LatencyHistogram b;
  a.record_n(msec(3), 5);
  for (int i = 0; i < 5; ++i) b.record(msec(3));
  EXPECT_EQ(a.count(), b.count());
  EXPECT_EQ(a.quantile(0.5), b.quantile(0.5));
  EXPECT_DOUBLE_EQ(a.mean(), b.mean());
}

TEST(LatencyHistogram, MergeEqualsCombinedRecording) {
  LatencyHistogram a;
  LatencyHistogram b;
  LatencyHistogram combined;
  Rng rng(11);
  for (int i = 0; i < 5000; ++i) {
    const SimTime v = rng.exponential_time(msec(5));
    if (i % 2 == 0) {
      a.record(v);
    } else {
      b.record(v);
    }
    combined.record(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), combined.count());
  EXPECT_EQ(a.min(), combined.min());
  EXPECT_EQ(a.max(), combined.max());
  for (double q : {0.1, 0.5, 0.9, 0.99}) {
    EXPECT_EQ(a.quantile(q), combined.quantile(q));
  }
}

TEST(LatencyHistogram, MergeIntoEmpty) {
  LatencyHistogram a;
  LatencyHistogram b;
  b.record(msec(7));
  a.merge(b);
  EXPECT_EQ(a.count(), 1);
  EXPECT_EQ(a.max(), msec(7));
}

TEST(LatencyHistogram, ResetClearsEverything) {
  LatencyHistogram h;
  h.record(msec(3));
  h.reset();
  EXPECT_TRUE(h.empty());
  EXPECT_EQ(h.quantile(0.99), 0);
}

TEST(LatencyHistogram, MaxQuantileNeverExceedsMax) {
  LatencyHistogram h;
  Rng rng(21);
  for (int i = 0; i < 1000; ++i) h.record(rng.exponential_time(sec(std::int64_t{1})));
  EXPECT_LE(h.quantile(1.0), h.max());
  EXPECT_GE(h.quantile(1.0), static_cast<SimTime>(0.98 * static_cast<double>(h.max())));
}

TEST(LatencyHistogram, HugeValuesClampToLastBucket) {
  LatencyHistogram h;
  h.record(std::int64_t{1} << 50);  // beyond representable range
  EXPECT_EQ(h.count(), 1);
  EXPECT_GT(h.quantile(1.0), 0);
}

class HistogramQuantileSweep : public ::testing::TestWithParam<double> {};

TEST_P(HistogramQuantileSweep, RelativeErrorBounded) {
  const double q = GetParam();
  LatencyHistogram h;
  std::vector<SimTime> values;
  Rng rng(31);
  for (int i = 0; i < 50000; ++i) {
    // Log-uniform values across 5 decades stress all bucket widths.
    const double exponent = rng.uniform(1.0, 6.0);
    const auto v = static_cast<SimTime>(std::pow(10.0, exponent));
    values.push_back(v);
    h.record(v);
  }
  std::sort(values.begin(), values.end());
  const auto idx = static_cast<std::size_t>(q * static_cast<double>(values.size() - 1));
  const double exact = static_cast<double>(values[idx]);
  const double approx = static_cast<double>(h.quantile(q));
  EXPECT_NEAR(approx / exact, 1.0, 0.05) << "q=" << q;
}

INSTANTIATE_TEST_SUITE_P(Quantiles, HistogramQuantileSweep,
                         ::testing::Values(0.05, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999));

}  // namespace
}  // namespace memca
