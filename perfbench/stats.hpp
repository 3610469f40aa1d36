// Statistics used by the benchmark: medians, interquartile means and
// quartiles, the
// "highest percentile with at least ten samples beyond it" rule, span
// self time, and merging snapshots of obs registry histograms.
//
// Header-only so the workload program and its tests share one definition.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"

namespace perfbench {

/// Median of `values` (mean of the two middle values for even sizes).
/// Throws on an empty input: every reported median has samples.
inline double median(std::vector<double> values) {
  if (values.empty()) throw std::invalid_argument("median of no samples");
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// First and third quartile, computed exactly as Python's
/// statistics.quantiles(values, n=4) (the default "exclusive" method),
/// so the steadiness record matches what an external checker computes.
inline std::pair<double, double> quartiles(std::vector<double> values) {
  if (values.empty()) throw std::invalid_argument("quartiles of no samples");
  std::sort(values.begin(), values.end());
  const auto ld = static_cast<long>(values.size());
  if (ld == 1) return {values[0], values[0]};
  const long m = ld + 1;
  auto cut = [&](long i) {
    long j = i * m / 4;
    j = std::clamp(j, 1L, ld - 1);
    const long delta = i * m - j * 4;
    return (values[static_cast<std::size_t>(j - 1)] * static_cast<double>(4 - delta) +
            values[static_cast<std::size_t>(j)] * static_cast<double>(delta)) /
           4.0;
  };
  return {cut(1), cut(3)};
}

/// Mean of the middle half of `values` (the interquartile mean): a
/// quarter of the samples, rounded down, is dropped from each end. Like
/// the median it ignores a few outliers; unlike the median it moves
/// smoothly when the samples fall into two clusters, as timings on a
/// shared host do (a fast and a slow state that alternate every few
/// seconds), instead of jumping to whichever cluster holds the middle
/// sample. Throws on an empty input.
inline double interquartile_mean(std::vector<double> values) {
  if (values.empty()) throw std::invalid_argument("mean of no samples");
  std::sort(values.begin(), values.end());
  const std::size_t cut = values.size() / 4;
  double sum = 0.0;
  for (std::size_t i = cut; i < values.size() - cut; ++i) sum += values[i];
  return sum / static_cast<double>(values.size() - 2 * cut);
}

/// Interquartile mean of the samples taken while the host was at its
/// quietest: the half (at least) whose share of CPU time stolen by the
/// hypervisor for other tenants is at most the median share. Stolen
/// time is other tenants' load, not the program's; on a host nobody
/// else is using every share is zero and every sample counts.
/// `steal[i]` belongs to `values[i]`.
inline double quiet_mean(const std::vector<double>& values, const std::vector<double>& steal) {
  if (values.size() != steal.size()) {
    throw std::invalid_argument("quiet_mean: one steal share per sample");
  }
  if (values.empty()) throw std::invalid_argument("mean of no samples");
  const double typical = median(steal);
  std::vector<double> quiet;
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (steal[i] <= typical) quiet.push_back(values[i]);
  }
  return interquartile_mean(quiet);
}

/// Quartile distance over median: the run-to-run spread measure.
inline double spread(const std::vector<double>& values) {
  const auto [q1, q3] = quartiles(values);
  const double m = median(values);
  return m == 0.0 ? 0.0 : (q3 - q1) / std::fabs(m);
}

/// Number of samples beyond the p-th percentile of n samples (rounded
/// to 1e-6, so 10000 samples have exactly 10 beyond p99.9).
inline double samples_beyond(std::size_t n, double p) {
  const double beyond = static_cast<double>(n) * (100.0 - p) / 100.0;
  return std::round(beyond * 1e6) / 1e6;
}

/// Highest of the standard reporting percentiles (99.9, 99, 95, 90, 50)
/// that has at least `min_beyond` samples beyond it; 0 when even the
/// median lacks them.
inline double highest_supported_percentile(std::size_t n,
                                           double min_beyond = 10.0) {
  for (const double p : {99.9, 99.0, 95.0, 90.0, 50.0}) {
    if (samples_beyond(n, p) >= min_beyond) return p;
  }
  return 0.0;
}

/// p-th percentile (0..100) of `sorted` by linear interpolation between
/// closest ranks. `sorted` must be ascending and non-empty.
inline double percentile_sorted(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) throw std::invalid_argument("percentile of no samples");
  const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

/// Splits a timed sample stream — (seconds since the stream began,
/// value) pairs — into consecutive windows of `width` seconds and
/// returns the values of every window that ends by `span` (the stream's
/// length), in time order. A trailing partial window is dropped.
inline std::vector<std::vector<double>> windows(
    const std::vector<std::pair<double, double>>& samples, double width, double span) {
  if (width <= 0.0) throw std::invalid_argument("window width must be > 0");
  const auto n = static_cast<std::size_t>(std::floor(span / width + 1e-9));
  std::vector<std::vector<double>> out(n);
  for (const auto& [t, value] : samples) {
    if (t < 0.0) continue;
    const auto w = static_cast<std::size_t>(t / width);
    if (w < n) out[w].push_back(value);
  }
  return out;
}

/// A half-open time interval [begin, end) in microseconds.
struct Interval {
  std::uint64_t begin = 0;
  std::uint64_t end = 0;
};

/// Self time of `span`: its duration minus the part of it that the
/// union of `children` covers. Children may overlap each other (spans
/// from several threads) and may stick out of the parent; only the
/// covered part inside the parent is subtracted.
inline std::uint64_t self_time_us(Interval span, std::vector<Interval> children) {
  if (span.end <= span.begin) return 0;
  for (Interval& c : children) {
    c.begin = std::max(c.begin, span.begin);
    c.end = std::min(c.end, span.end);
  }
  std::erase_if(children, [](const Interval& c) { return c.end <= c.begin; });
  std::sort(children.begin(), children.end(),
            [](const Interval& a, const Interval& b) { return a.begin < b.begin; });
  std::uint64_t covered = 0;
  std::uint64_t run_begin = 0;
  std::uint64_t run_end = 0;
  bool open = false;
  for (const Interval& c : children) {
    if (open && c.begin <= run_end) {
      run_end = std::max(run_end, c.end);
      continue;
    }
    if (open) covered += run_end - run_begin;
    run_begin = c.begin;
    run_end = c.end;
    open = true;
  }
  if (open) covered += run_end - run_begin;
  return (span.end - span.begin) - covered;
}

/// Plain-value copy of an obs::Histogram, so the benchmark can take one
/// before and one after a window, subtract them, and merge the windows
/// (or several label sets) into one distribution.
struct HistSnapshot {
  std::vector<double> upper_bounds;
  std::vector<std::uint64_t> buckets;  // per bucket, +inf last
  double sum = 0.0;
  double min = 0.0;  // observed extremes, used to close the end buckets
  double max = 0.0;

  [[nodiscard]] std::uint64_t count() const {
    std::uint64_t total = 0;
    for (const std::uint64_t b : buckets) total += b;
    return total;
  }

  [[nodiscard]] double mean() const {
    const std::uint64_t n = count();
    return n == 0 ? 0.0 : sum / static_cast<double>(n);
  }

  /// Same estimate as obs::Histogram::quantile: linear interpolation
  /// inside the bucket where the target rank falls, clamped to the
  /// observed extremes. 0 when empty.
  [[nodiscard]] double quantile(double q) const {
    const std::uint64_t total = count();
    if (total == 0) return 0.0;
    q = std::clamp(q, 0.0, 1.0);
    const double target = q * static_cast<double>(total);
    std::uint64_t cumulative = 0;
    for (std::size_t b = 0; b < buckets.size(); ++b) {
      const std::uint64_t in_bucket = buckets[b];
      if (in_bucket == 0) continue;
      if (static_cast<double>(cumulative + in_bucket) < target) {
        cumulative += in_bucket;
        continue;
      }
      const double lo = b == 0 ? min : upper_bounds[b - 1];
      const double hi = b < upper_bounds.size() ? upper_bounds[b] : max;
      const double fraction = (target - static_cast<double>(cumulative)) /
                              static_cast<double>(in_bucket);
      const double estimate = lo + (hi - lo) * std::clamp(fraction, 0.0, 1.0);
      return std::clamp(estimate, min, max);
    }
    return max;
  }
};

inline HistSnapshot snapshot(const ckat::obs::Histogram& h) {
  HistSnapshot s;
  s.upper_bounds = h.upper_bounds();
  s.buckets.resize(s.upper_bounds.size() + 1);
  std::uint64_t previous = 0;
  for (std::size_t i = 0; i < s.buckets.size(); ++i) {
    const std::uint64_t cumulative = h.cumulative_bucket(i);
    s.buckets[i] = cumulative - previous;
    previous = cumulative;
  }
  s.sum = h.sum();
  s.min = h.count() == 0 ? 0.0 : h.min();
  s.max = h.count() == 0 ? 0.0 : h.max();
  return s;
}

/// Observations made between `before` and `after` (snapshots of one
/// histogram). The extremes are the lifetime ones of `after`, which
/// bound the window's. An empty `before` (the histogram did not exist
/// yet) means every observation is in the window.
inline HistSnapshot delta(const HistSnapshot& after, const HistSnapshot& before) {
  if (before.upper_bounds.empty()) return after;  // not registered before
  if (after.upper_bounds != before.upper_bounds) {
    throw std::invalid_argument("histogram delta: bucket bounds differ");
  }
  HistSnapshot d = after;
  for (std::size_t i = 0; i < d.buckets.size(); ++i) {
    if (before.buckets[i] > after.buckets[i]) {
      throw std::invalid_argument("histogram delta: bucket went backwards");
    }
    d.buckets[i] = after.buckets[i] - before.buckets[i];
  }
  d.sum = after.sum - before.sum;
  return d;
}

/// One distribution from two (windows of one histogram, or label sets
/// of one metric). An empty side contributes nothing, not its extremes.
inline HistSnapshot merge(const HistSnapshot& a, const HistSnapshot& b) {
  if (a.count() == 0) return b;
  if (b.count() == 0) return a;
  if (a.upper_bounds != b.upper_bounds) {
    throw std::invalid_argument("histogram merge: bucket bounds differ");
  }
  HistSnapshot m = a;
  for (std::size_t i = 0; i < m.buckets.size(); ++i) m.buckets[i] += b.buckets[i];
  m.sum += b.sum;
  m.min = std::min(a.min, b.min);
  m.max = std::max(a.max, b.max);
  return m;
}

}  // namespace perfbench
