#include "core/attention.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <vector>

#include "nn/tensor.hpp"

namespace ckat::core {

std::vector<float> raw_attention_scores(const graph::Adjacency& adjacency,
                                        const TransR& transr,
                                        util::WorkerPool* pool) {
  const std::size_t n_edges = adjacency.n_edges();
  std::vector<float> scores(n_edges);

  // Group edges by relation so each group is two GEMMs against W_r.
  std::vector<std::size_t> order(n_edges);
  std::iota(order.begin(), order.end(), 0);
  const auto rels = adjacency.relations();
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return rels[a] < rels[b];
  });

  const nn::Tensor& entity = transr.entity_embedding().value();
  const nn::Tensor& relation = transr.relation_embedding().value();
  const std::size_t d = transr.config().entity_dim;
  const std::size_t k = transr.config().relation_dim;

  std::size_t begin = 0;
  while (begin < n_edges) {
    const std::uint32_t r = rels[order[begin]];
    std::size_t end = begin;
    while (end < n_edges && rels[order[end]] == r) ++end;
    const std::size_t group = end - begin;

    nn::Tensor heads(group, d), tails(group, d);
    for (std::size_t i = 0; i < group; ++i) {
      const std::size_t e = order[begin + i];
      auto hrow = entity.row(adjacency.heads()[e]);
      auto trow = entity.row(adjacency.tails()[e]);
      std::copy(hrow.begin(), hrow.end(), heads.row(i).begin());
      std::copy(trow.begin(), trow.end(), tails.row(i).begin());
    }
    const nn::Tensor& w = transr.projection(r).value();
    nn::Tensor head_projected(group, k), tail_projected(group, k);
    nn::gemm(heads, w, head_projected, 1.0f, false, pool);
    nn::gemm(tails, w, tail_projected, 1.0f, false, pool);

    for (std::size_t i = 0; i < group; ++i) {
      auto hp = head_projected.row(i);
      auto tp = tail_projected.row(i);
      auto er = relation.row(r);
      float acc = 0.0f;
      for (std::size_t j = 0; j < k; ++j) {
        acc += tp[j] * std::tanh(hp[j] + er[j]);
      }
      scores[order[begin + i]] = acc;
    }
    begin = end;
  }
  return scores;
}

namespace {

PropagationMatrix coefficients_to_matrix(const graph::Adjacency& adjacency,
                                         std::span<const float> coefficients) {
  PropagationMatrix m;
  m.forward = nn::csr_from_coo(adjacency.n_entities(), adjacency.n_entities(),
                               adjacency.heads(), adjacency.tails(),
                               coefficients);
  m.backward = m.forward.transposed();
  return m;
}

}  // namespace

PropagationMatrix build_attention_matrix(const graph::Adjacency& adjacency,
                                         const TransR& transr,
                                         util::WorkerPool* pool) {
  std::vector<float> scores = raw_attention_scores(adjacency, transr, pool);

  // Per-head softmax (Eq. 5); edges are already sorted by head.
  const auto offsets = adjacency.offsets();
  for (std::size_t h = 0; h + 1 < offsets.size(); ++h) {
    const std::int64_t begin = offsets[h];
    const std::int64_t end = offsets[h + 1];
    if (begin == end) continue;
    float max_score = -std::numeric_limits<float>::infinity();
    for (std::int64_t e = begin; e < end; ++e) {
      max_score = std::max(max_score, scores[e]);
    }
    double denominator = 0.0;
    for (std::int64_t e = begin; e < end; ++e) {
      scores[e] = std::exp(scores[e] - max_score);
      denominator += scores[e];
    }
    for (std::int64_t e = begin; e < end; ++e) {
      scores[e] = static_cast<float>(scores[e] / denominator);
    }
  }
  return coefficients_to_matrix(adjacency, scores);
}

PropagationMatrix build_uniform_matrix(const graph::Adjacency& adjacency) {
  std::vector<float> coefficients(adjacency.n_edges());
  const auto offsets = adjacency.offsets();
  for (std::size_t h = 0; h + 1 < offsets.size(); ++h) {
    const std::int64_t begin = offsets[h];
    const std::int64_t end = offsets[h + 1];
    for (std::int64_t e = begin; e < end; ++e) {
      coefficients[e] = 1.0f / static_cast<float>(end - begin);
    }
  }
  return coefficients_to_matrix(adjacency, coefficients);
}

}  // namespace ckat::core
