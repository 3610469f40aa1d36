#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <set>
#include <span>
#include <vector>

namespace ckat::util {
namespace {

TEST(Rng, DeterministicGivenSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a(), b());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_LT(equal, 5);
}

TEST(Rng, ForkIsIndependentOfParentSequence) {
  // Forking must not disturb the parent's sequence...
  Rng with_fork(42), without_fork(42);
  Rng child1 = with_fork.fork(1);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(with_fork(), without_fork());
  }
  // ...and forks of identical parents with the same stream id agree.
  Rng b(42);
  Rng child2 = b.fork(1);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(child1(), child2());
  }
  // Different stream ids give different streams.
  Rng c(42);
  Rng other = c.fork(2);
  Rng d(42);
  Rng same_seed_child = d.fork(1);
  EXPECT_NE(other(), same_seed_child());
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanNearHalf) {
  Rng rng(8);
  double acc = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) acc += rng.uniform();
  EXPECT_NEAR(acc / n, 0.5, 0.01);
}

TEST(Rng, UniformIndexCoversRange) {
  Rng rng(9);
  std::set<std::size_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const std::size_t v = rng.uniform_index(7);
    EXPECT_LT(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng rng(10);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.uniform_int(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, BernoulliRate) {
  Rng rng(11);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Rng, GaussianMoments) {
  Rng rng(12);
  double sum = 0.0, sum_sq = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const double g = rng.gaussian();
    sum += g;
    sum_sq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.03);
}

TEST(Rng, GaussianShifted) {
  Rng rng(13);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.gaussian(5.0, 0.1);
  EXPECT_NEAR(sum / n, 5.0, 0.01);
}

TEST(Rng, WeightedIndexFollowsWeights) {
  Rng rng(14);
  const std::vector<double> w = {1.0, 3.0, 0.0, 6.0};
  std::vector<int> counts(4, 0);
  const int n = 40000;
  for (int i = 0; i < n; ++i) counts[rng.weighted_index(w)]++;
  EXPECT_EQ(counts[2], 0);
  EXPECT_NEAR(counts[0] / static_cast<double>(n), 0.1, 0.01);
  EXPECT_NEAR(counts[1] / static_cast<double>(n), 0.3, 0.02);
  EXPECT_NEAR(counts[3] / static_cast<double>(n), 0.6, 0.02);
}

TEST(Rng, WeightedIndexRejectsZeroTotal) {
  Rng rng(15);
  const std::vector<double> w = {0.0, 0.0};
  EXPECT_THROW(rng.weighted_index(w), std::invalid_argument);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(16);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(Rng, SampleWithoutReplacementUnique) {
  Rng rng(17);
  for (std::size_t k : {1u, 5u, 50u, 100u}) {
    auto sample = rng.sample_without_replacement(100, k);
    EXPECT_EQ(sample.size(), k);
    std::set<std::size_t> unique(sample.begin(), sample.end());
    EXPECT_EQ(unique.size(), k);
    for (std::size_t s : sample) EXPECT_LT(s, 100u);
  }
}

TEST(Rng, SampleWithoutReplacementRejectsOversample) {
  Rng rng(18);
  EXPECT_THROW(rng.sample_without_replacement(3, 4), std::invalid_argument);
}

TEST(AliasSampler, MatchesDistribution) {
  Rng rng(19);
  AliasSampler sampler(std::vector<double>{2.0, 1.0, 1.0});
  std::vector<int> counts(3, 0);
  const int n = 40000;
  for (int i = 0; i < n; ++i) counts[sampler.sample(rng)]++;
  EXPECT_NEAR(counts[0] / static_cast<double>(n), 0.5, 0.02);
  EXPECT_NEAR(counts[1] / static_cast<double>(n), 0.25, 0.02);
}

TEST(AliasSampler, SingleElement) {
  Rng rng(20);
  AliasSampler sampler(std::vector<double>{3.0});
  for (int i = 0; i < 10; ++i) EXPECT_EQ(sampler.sample(rng), 0u);
}

TEST(AliasSampler, RejectsNegativeWeight) {
  EXPECT_THROW(AliasSampler(std::vector<double>{1.0, -1.0}),
               std::invalid_argument);
}

TEST(AliasSampler, RejectsEmptySample) {
  AliasSampler sampler;
  Rng rng(21);
  EXPECT_THROW(static_cast<void>(sampler.sample(rng)), std::logic_error);
}

/// The two-worklist Vose build the in-place AliasSampler replaced, kept
/// as the reference its tables (and so its draws) must match bit for
/// bit. sample() mirrors AliasSampler::sample.
class ReferenceAlias {
 public:
  explicit ReferenceAlias(std::span<const double> weights) {
    const std::size_t n = weights.size();
    prob_.assign(n, 0.0);
    alias_.assign(n, 0);
    double total = 0.0;
    for (double w : weights) total += w;
    std::vector<double> scaled(n);
    for (std::size_t i = 0; i < n; ++i) {
      scaled[i] = weights[i] * static_cast<double>(n) / total;
    }
    std::vector<std::uint32_t> small, large;
    for (std::size_t i = 0; i < n; ++i) {
      (scaled[i] < 1.0 ? small : large)
          .push_back(static_cast<std::uint32_t>(i));
    }
    while (!small.empty() && !large.empty()) {
      const std::uint32_t s = small.back();
      small.pop_back();
      const std::uint32_t l = large.back();
      prob_[s] = scaled[s];
      alias_[s] = l;
      scaled[l] = (scaled[l] + scaled[s]) - 1.0;
      if (scaled[l] < 1.0) {
        large.pop_back();
        small.push_back(l);
      }
    }
    for (std::uint32_t i : large) prob_[i] = 1.0;
    for (std::uint32_t i : small) prob_[i] = 1.0;
  }

  std::size_t sample(Rng& rng) const {
    const std::size_t column = rng.uniform_index(prob_.size());
    return rng.uniform() < prob_[column] ? column : alias_[column];
  }

 private:
  std::vector<double> prob_;
  std::vector<std::uint32_t> alias_;
};

std::vector<double> zipf_weights(std::size_t n, double s) {
  std::vector<double> w(n);
  for (std::size_t i = 0; i < n; ++i) {
    w[i] = 1.0 / std::pow(static_cast<double>(i + 1), s);
  }
  return w;
}

/// Index of the first of `draws` draws where the two samplers disagree
/// under the same seed, or `draws` if the streams are identical.
template <typename Sampler>
std::size_t first_divergence(const Sampler& sampler,
                             const ReferenceAlias& reference,
                             std::size_t draws, std::uint64_t seed) {
  Rng a(seed), b(seed);
  for (std::size_t i = 0; i < draws; ++i) {
    if (sampler.sample(a) != reference.sample(b)) return i;
  }
  return draws;
}

TEST(AliasSampler, DrawsIdenticalToTwoWorklistBuild) {
  constexpr std::size_t kDraws = 2'000'000;
  const std::size_t sizes[] = {1, 2, 7, 1000, 1000000};
  const double exponents[] = {0.0, 0.85, 1.3};
  for (const std::size_t n : sizes) {
    for (const double s : exponents) {
      const std::vector<double> w = zipf_weights(n, s);
      const ReferenceAlias reference(w);
      // ZipfSampler builds in its weights' storage; the span overload
      // copies first. Both must match the reference.
      EXPECT_EQ(first_divergence(ZipfSampler(n, s), reference, kDraws, n),
                kDraws)
          << "ZipfSampler n=" << n << " s=" << s;
      EXPECT_EQ(first_divergence(AliasSampler(w), reference, kDraws, n + 1),
                kDraws)
          << "AliasSampler n=" << n << " s=" << s;
    }
  }
}

TEST(AliasSampler, DrawsIdenticalWithZerosAndADominantWeight) {
  constexpr std::size_t kDraws = 2'000'000;
  std::vector<std::vector<double>> cases;
  cases.push_back({0.0, 1.0, 0.0, 2.0, 0.0});
  cases.push_back({5.0, 0.0});
  cases.push_back({0.0, 0.0, 0.0, 1.0});
  std::vector<double> dominant(1000, 1e-6);
  dominant[617] = 1e6;
  cases.push_back(dominant);
  std::vector<double> sparse(1000, 0.0);
  for (std::size_t i = 0; i < sparse.size(); i += 37) {
    sparse[i] = 1.0 + static_cast<double>(i % 5);
  }
  cases.push_back(sparse);
  for (std::size_t c = 0; c < cases.size(); ++c) {
    const ReferenceAlias reference(cases[c]);
    EXPECT_EQ(first_divergence(AliasSampler(cases[c]), reference, kDraws, c),
              kDraws)
        << "case " << c;
    AliasSampler moved;
    moved.build(std::vector<double>(cases[c]));
    EXPECT_EQ(first_divergence(moved, reference, kDraws, c), kDraws)
        << "case " << c << " (moved weights)";
  }
}

TEST(AliasSampler, FailedBuildLeavesTheSamplerAsItWas) {
  const std::vector<double> good = {1.0, 2.0, 3.0, 0.5};
  const ReferenceAlias reference(good);
  AliasSampler sampler(good);
  EXPECT_THROW(sampler.build(std::vector<double>{1.0, -1.0, 2.0}),
               std::invalid_argument);
  const std::vector<double> zeros(3, 0.0);
  EXPECT_THROW(sampler.build(zeros), std::invalid_argument);
  const std::vector<double> not_a_number = {1.0, std::nan("")};
  EXPECT_THROW(sampler.build(not_a_number), std::invalid_argument);
  ASSERT_EQ(sampler.size(), good.size());
  EXPECT_EQ(first_divergence(sampler, reference, 100000, 5), 100000U);
}

TEST(ZipfSampler, HeadHeavierThanTail) {
  Rng rng(22);
  ZipfSampler sampler(100, 1.0);
  std::vector<int> counts(100, 0);
  for (int i = 0; i < 50000; ++i) counts[sampler.sample(rng)]++;
  EXPECT_GT(counts[0], counts[10]);
  EXPECT_GT(counts[10], counts[99]);
}

TEST(ZipfSampler, ZeroExponentIsUniform) {
  Rng rng(23);
  ZipfSampler sampler(4, 0.0);
  std::vector<int> counts(4, 0);
  const int n = 40000;
  for (int i = 0; i < n; ++i) counts[sampler.sample(rng)]++;
  for (int c : counts) {
    EXPECT_NEAR(c / static_cast<double>(n), 0.25, 0.02);
  }
}

TEST(Rng, ZipfDirectSample) {
  Rng rng(24);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 5000; ++i) counts[rng.zipf(10, 1.2)]++;
  EXPECT_GT(counts[0], counts[5]);
  EXPECT_THROW(rng.zipf(0, 1.0), std::invalid_argument);
}

TEST(Rng, ExponentialMean) {
  Rng rng(25);
  double acc = 0.0;
  const int n = 30000;
  for (int i = 0; i < n; ++i) acc += rng.exponential(2.0);
  EXPECT_NEAR(acc / n, 0.5, 0.02);
}

}  // namespace
}  // namespace ckat::util
