#include "nn/optim.hpp"

#include <cmath>
#include <utility>
#include <vector>

#include "util/parallel.hpp"

namespace ckat::nn {

void SgdOptimizer::step(ParamStore& params) {
  for (auto& p : params) {
    if (!p->has_any_grad()) continue;
    if (p->has_dense_grad()) {
      float* v = p->value().data();
      const float* g = p->grad().data();
      for (std::size_t i = 0; i < p->value().size(); ++i) {
        v[i] -= lr_ * g[i];
      }
    } else {
      for (std::uint32_t r : p->touched_rows()) {
        auto vrow = p->value().row(r);
        auto grow = p->grad().row(r);
        for (std::size_t c = 0; c < vrow.size(); ++c) {
          vrow[c] -= lr_ * grow[c];
        }
      }
    }
    p->zero_grad();
  }
}

void AdamOptimizer::update_row(Parameter& p, std::size_t row,
                               float bias_correction1,
                               float bias_correction2) {
  auto vrow = p.value().row(row);
  auto grow = p.grad().row(row);
  auto mrow = p.opt_m.row(row);
  auto v2row = p.opt_v.row(row);
  for (std::size_t c = 0; c < vrow.size(); ++c) {
    const float g = grow[c];
    mrow[c] = beta1_ * mrow[c] + (1.0f - beta1_) * g;
    v2row[c] = beta2_ * v2row[c] + (1.0f - beta2_) * g * g;
    const float m_hat = mrow[c] / bias_correction1;
    const float v_hat = v2row[c] / bias_correction2;
    vrow[c] -= lr_ * m_hat / (std::sqrt(v_hat) + eps_);
  }
}

void AdamOptimizer::step(ParamStore& params) {
  ++t_;
  const float bc1 = 1.0f - std::pow(beta1_, static_cast<float>(t_));
  const float bc2 = 1.0f - std::pow(beta2_, static_cast<float>(t_));
  for (auto& p : params) {
    if (!p->has_any_grad()) continue;
    if (p->opt_m.empty()) {
      p->opt_m.resize_zeroed(p->rows(), p->cols());
      p->opt_v.resize_zeroed(p->rows(), p->cols());
    }
    if (p->has_dense_grad()) {
      for (std::size_t r = 0; r < p->rows(); ++r) {
        update_row(*p, r, bc1, bc2);
      }
    } else {
      for (std::uint32_t r : p->touched_rows()) {
        update_row(*p, r, bc1, bc2);
      }
    }
    p->zero_grad();
  }
}

void AdamOptimizer::step(ParamStore& params, util::WorkerPool& pool) {
  ++t_;
  const float bc1 = 1.0f - std::pow(beta1_, static_cast<float>(t_));
  const float bc2 = 1.0f - std::pow(beta2_, static_cast<float>(t_));

  // Deterministic work list: parameters in creation order, rows in
  // dense or touch order. Built serially so moment buffers are
  // allocated before any worker runs.
  std::vector<std::pair<Parameter*, std::uint32_t>> work;
  for (auto& p : params) {
    if (!p->has_any_grad()) continue;
    if (p->opt_m.empty()) {
      p->opt_m.resize_zeroed(p->rows(), p->cols());
      p->opt_v.resize_zeroed(p->rows(), p->cols());
    }
    if (p->has_dense_grad()) {
      for (std::size_t r = 0; r < p->rows(); ++r) {
        work.emplace_back(p.get(), static_cast<std::uint32_t>(r));
      }
    } else {
      for (std::uint32_t r : p->touched_rows()) {
        work.emplace_back(p.get(), r);
      }
    }
  }

  // Fixed-width chunks: each (param, row) is updated by exactly one
  // worker and rows never share state, so scheduling cannot change any
  // result bit.
  constexpr std::size_t kRowsPerChunk = 64;
  pool.for_chunks(work.size(), kRowsPerChunk,
                  [&](std::size_t begin, std::size_t end) {
                    for (std::size_t i = begin; i < end; ++i) {
                      update_row(*work[i].first, work[i].second, bc1, bc2);
                    }
                  });

  for (auto& p : params) {
    if (p->has_any_grad()) p->zero_grad();
  }
}

}  // namespace ckat::nn
