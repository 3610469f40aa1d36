#include "util/rng.hpp"

#include <algorithm>
#include <unordered_set>

namespace ckat::util {

std::size_t Rng::weighted_index(std::span<const double> weights) {
  double total = 0.0;
  for (double w : weights) total += w;
  if (!(total > 0.0)) {
    throw std::invalid_argument("weighted_index: total weight must be > 0");
  }
  double r = uniform() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    r -= weights[i];
    if (r <= 0.0) return i;
  }
  return weights.size() - 1;  // floating-point slack lands on the last bin
}

std::size_t Rng::zipf(std::size_t n, double s) {
  if (n == 0) throw std::invalid_argument("zipf: n must be > 0");
  std::vector<double> w(n);
  for (std::size_t i = 0; i < n; ++i) {
    w[i] = 1.0 / std::pow(static_cast<double>(i + 1), s);
  }
  return weighted_index(w);
}

std::vector<std::size_t> Rng::sample_without_replacement(std::size_t n,
                                                         std::size_t k) {
  if (k > n) {
    throw std::invalid_argument(
        "sample_without_replacement: k must not exceed n");
  }
  if (k * 3 > n) {
    // Dense case: shuffle a full index vector and truncate.
    std::vector<std::size_t> idx(n);
    for (std::size_t i = 0; i < n; ++i) idx[i] = i;
    shuffle(idx);
    idx.resize(k);
    return idx;
  }
  // Sparse case: rejection sampling with a seen-set.
  std::unordered_set<std::size_t> seen;
  std::vector<std::size_t> out;
  out.reserve(k);
  while (out.size() < k) {
    std::size_t candidate = uniform_index(n);
    if (seen.insert(candidate).second) out.push_back(candidate);
  }
  return out;
}

void AliasSampler::build(std::span<const double> weights) {
  build(std::vector<double>(weights.begin(), weights.end()));
}

void AliasSampler::build(std::vector<double>&& weights) {
  // Validated before any member is touched, so a throw leaves the
  // sampler as it was.
  const std::size_t n = weights.size();
  double total = 0.0;
  for (double w : weights) {
    if (w < 0.0) throw std::invalid_argument("AliasSampler: negative weight");
    total += w;
  }
  if (n > 0 && !(total > 0.0)) {
    throw std::invalid_argument("AliasSampler: total weight must be > 0");
  }

  // Vose's construction in place: `weights` is scaled and then becomes
  // the acceptance probabilities. One n-entry worklist holds both
  // stacks (small grows up from 0, large grows down from n); an index
  // sits on at most one of them, so they never meet. Pops and pushes
  // happen in the same order as with two separate stacks, so every
  // table entry, and with it every draw, is bit-identical.
  std::vector<double>& prob = weights;
  std::vector<std::uint32_t> alias(n, 0);
  std::vector<std::uint32_t> worklist(n);
  std::size_t small_top = 0;  // small = worklist[0, small_top)
  std::size_t large_bot = n;  // large = worklist[large_bot, n), top first
  for (std::size_t i = 0; i < n; ++i) {
    prob[i] = prob[i] * static_cast<double>(n) / total;
    if (prob[i] < 1.0) {
      worklist[small_top++] = static_cast<std::uint32_t>(i);
    } else {
      worklist[--large_bot] = static_cast<std::uint32_t>(i);
    }
  }
  while (small_top > 0 && large_bot < n) {
    const std::uint32_t s = worklist[--small_top];
    const std::uint32_t l = worklist[large_bot];
    alias[s] = l;  // prob[s] keeps its scaled weight
    prob[l] = (prob[l] + prob[s]) - 1.0;
    if (prob[l] < 1.0) {
      ++large_bot;
      worklist[small_top++] = l;
    }
  }
  for (std::size_t k = large_bot; k < n; ++k) prob[worklist[k]] = 1.0;
  for (std::size_t k = 0; k < small_top; ++k) {
    prob[worklist[k]] = 1.0;  // numerical leftovers
  }
  prob_ = std::move(prob);
  alias_ = std::move(alias);
}

std::size_t AliasSampler::sample(Rng& rng) const {
  if (prob_.empty()) throw std::logic_error("AliasSampler: empty sampler");
  const std::size_t column = rng.uniform_index(prob_.size());
  return rng.uniform() < prob_[column] ? column : alias_[column];
}

ZipfSampler::ZipfSampler(std::size_t n, double s) {
  std::vector<double> w(n);
  for (std::size_t i = 0; i < n; ++i) {
    w[i] = 1.0 / std::pow(static_cast<double>(i + 1), s);
  }
  alias_.build(std::move(w));  // the weights become the table
}

}  // namespace ckat::util
