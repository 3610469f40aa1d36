// Tests of the benchmark's statistics: median and quartiles (matching
// Python's statistics.quantiles), the ten-samples-beyond percentile
// rule, self time under overlapping child spans, and histogram
// window deltas and merges.
#include <gtest/gtest.h>

#include "obs/metrics.hpp"
#include "stats.hpp"

namespace perfbench {
namespace {

TEST(Stats, MedianOddAndEven) {
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_THROW(median({}), std::invalid_argument);
}

TEST(Stats, QuartilesMatchPythonExclusiveMethod) {
  // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
  const auto [q1, q3] = quartiles({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
  EXPECT_DOUBLE_EQ(q1, 2.75);
  EXPECT_DOUBLE_EQ(q3, 8.25);
  // statistics.quantiles([10, 1, 7, 3], n=4) == [1.5, 5.0, 9.25]
  const auto [a1, a3] = quartiles({10, 1, 7, 3});
  EXPECT_DOUBLE_EQ(a1, 1.5);
  EXPECT_DOUBLE_EQ(a3, 9.25);
  // statistics.quantiles([5, 9], n=4) == [4.0, 7.0, 10.0]
  const auto [b1, b3] = quartiles({5, 9});
  EXPECT_DOUBLE_EQ(b1, 4.0);
  EXPECT_DOUBLE_EQ(b3, 10.0);
  EXPECT_NEAR(spread({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}), 5.5 / 5.5, 1e-12);
}

TEST(Stats, InterquartileMeanDropsAQuarterFromEachEnd) {
  // 8 samples: the lowest two and the highest two are dropped.
  EXPECT_DOUBLE_EQ(interquartile_mean({100, 1, 2, 3, 4, 5, 6, -100}), 3.5);
  // Fewer than 4 samples: nothing is dropped.
  EXPECT_DOUBLE_EQ(interquartile_mean({1, 2, 6}), 3.0);
  // Two clusters: moving one sample between them moves the result by a
  // fraction, where the median would jump from one cluster to the other.
  const double even = interquartile_mean({1, 1, 1, 1, 2, 2, 2, 2});
  const double more_slow = interquartile_mean({1, 1, 1, 2, 2, 2, 2, 2});
  EXPECT_DOUBLE_EQ(even, 1.5);
  EXPECT_NEAR(more_slow - even, 0.25, 1e-12);
  EXPECT_THROW(interquartile_mean({}), std::invalid_argument);
}

TEST(Stats, QuietMeanKeepsTheLeastStolenHalf) {
  // Median steal share is 0.05: the samples at or below it count.
  EXPECT_DOUBLE_EQ(quiet_mean({1, 2, 3, 50, 60}, {0, 0.01, 0.05, 0.2, 0.3}), 2.0);
  // A quiet host: every share is zero and every sample counts (5
  // samples: one dropped from each end).
  EXPECT_DOUBLE_EQ(quiet_mean({1, 2, 3, 50, 60}, {0, 0, 0, 0, 0}), 55.0 / 3.0);
  // Ties at the median share are kept.
  EXPECT_DOUBLE_EQ(quiet_mean({1, 2, 50, 60}, {0.1, 0.1, 0.1, 0.3}), 53.0 / 3.0);
  EXPECT_THROW(quiet_mean({1, 2}, {0}), std::invalid_argument);
  EXPECT_THROW(quiet_mean({}, {}), std::invalid_argument);
}

TEST(Stats, HighestPercentileKeepsTenSamplesBeyond) {
  EXPECT_DOUBLE_EQ(highest_supported_percentile(10000), 99.9);
  EXPECT_DOUBLE_EQ(highest_supported_percentile(9999), 99.0);
  EXPECT_DOUBLE_EQ(highest_supported_percentile(1000), 99.0);
  EXPECT_DOUBLE_EQ(highest_supported_percentile(999), 95.0);
  EXPECT_DOUBLE_EQ(highest_supported_percentile(200), 95.0);
  EXPECT_DOUBLE_EQ(highest_supported_percentile(100), 90.0);
  EXPECT_DOUBLE_EQ(highest_supported_percentile(20), 50.0);
  EXPECT_DOUBLE_EQ(highest_supported_percentile(19), 0.0);
}

TEST(Stats, PercentileInterpolatesBetweenRanks) {
  const std::vector<double> v{1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(percentile_sorted(v, 50.0), 3.0);
  EXPECT_DOUBLE_EQ(percentile_sorted(v, 99.0), 4.96);
  EXPECT_DOUBLE_EQ(percentile_sorted(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile_sorted(v, 100.0), 5.0);
}

TEST(Stats, WindowsDropTheTrailingPartialWindow) {
  const std::vector<std::pair<double, double>> samples{
      {0.1, 1.0}, {0.9, 2.0}, {1.0, 3.0}, {1.5, 4.0}, {2.2, 5.0}, {-0.1, 9.0}};
  const auto w = windows(samples, 1.0, 2.5);  // [0,1), [1,2); [2,2.5) partial
  ASSERT_EQ(w.size(), 2u);
  EXPECT_EQ(w[0], (std::vector<double>{1.0, 2.0}));
  EXPECT_EQ(w[1], (std::vector<double>{3.0, 4.0}));
  EXPECT_EQ(windows(samples, 1.0, 3.0).size(), 3u);
  EXPECT_TRUE(windows(samples, 1.0, 0.5).empty());
  EXPECT_THROW(windows(samples, 0.0, 1.0), std::invalid_argument);
}

TEST(Stats, SelfTimeSubtractsTheUnionOfChildren) {
  // Parent [0, 100); children overlap each other ([10,40) and [30,50))
  // and one sticks out of the parent ([90, 130)).
  EXPECT_EQ(self_time_us({0, 100}, {{10, 40}, {30, 50}, {90, 130}}), 100u - 40u - 10u);
  EXPECT_EQ(self_time_us({0, 100}, {}), 100u);
  // Nested children: [20,80) contains [30,40).
  EXPECT_EQ(self_time_us({0, 100}, {{30, 40}, {20, 80}}), 40u);
  // Disjoint children outside the parent cover nothing.
  EXPECT_EQ(self_time_us({50, 60}, {{0, 10}, {70, 80}}), 10u);
  // Children covering everything leave no self time.
  EXPECT_EQ(self_time_us({0, 10}, {{0, 5}, {4, 12}}), 0u);
}

TEST(Stats, HistogramWindowDeltaAndMerge) {
  ckat::obs::Histogram h(ckat::obs::Histogram::linear_buckets(1.0, 1.0, 10));
  for (int i = 0; i < 4; ++i) h.observe(0.5);  // before the window
  const HistSnapshot before = snapshot(h);
  for (int i = 0; i < 6; ++i) h.observe(5.5);  // the window
  const HistSnapshot after = snapshot(h);
  const HistSnapshot window = delta(after, before);
  EXPECT_EQ(window.count(), 6u);
  EXPECT_DOUBLE_EQ(window.sum, 33.0);
  EXPECT_DOUBLE_EQ(window.mean(), 5.5);
  const double p50 = window.quantile(0.5);
  EXPECT_GE(p50, 5.0);
  EXPECT_LE(p50, 6.0);

  // A second window of another histogram merges into one distribution.
  ckat::obs::Histogram g(ckat::obs::Histogram::linear_buckets(1.0, 1.0, 10));
  for (int i = 0; i < 6; ++i) g.observe(8.5);
  const HistSnapshot both = merge(window, snapshot(g));
  EXPECT_EQ(both.count(), 12u);
  EXPECT_DOUBLE_EQ(both.sum, 33.0 + 51.0);
  EXPECT_LE(both.quantile(0.25), 6.0);
  EXPECT_GE(both.quantile(0.75), 8.0);
  // Merging with an empty snapshot changes nothing.
  EXPECT_EQ(merge(HistSnapshot{}, window).count(), 6u);
  // Mismatched bounds are refused.
  ckat::obs::Histogram other(ckat::obs::Histogram::linear_buckets(2.0, 1.0, 10));
  other.observe(3.0);
  EXPECT_THROW(merge(window, snapshot(other)), std::invalid_argument);
  EXPECT_THROW(delta(before, after), std::invalid_argument);
}

}  // namespace
}  // namespace perfbench
