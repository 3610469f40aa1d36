#include "baselines/bprmf.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "nn/init.hpp"
#include "nn/kernels.hpp"
#include "nn/tape.hpp"

namespace ckat::baselines {

BprmfModel::BprmfModel(const graph::InteractionSet& train, BprmfConfig config)
    : train_(train), config_(config), rng_(config.seed) {
  util::Rng init_rng = rng_.fork(0);
  user_factors_ =
      &params_.create("bprmf.user", train.n_users(), config_.embedding_dim);
  item_factors_ =
      &params_.create("bprmf.item", train.n_items(), config_.embedding_dim);
  nn::xavier_uniform(user_factors_->value(), init_rng);
  nn::xavier_uniform(item_factors_->value(), init_rng);
  optimizer_ = std::make_unique<nn::AdamOptimizer>(config_.learning_rate);
  sampler_ = std::make_unique<core::BprSampler>(train_);
}

float BprmfModel::train_step(util::Rng& rng) {
  const auto batch = sampler_->sample(config_.batch_size, rng);
  std::vector<std::uint32_t> users, positives, negatives;
  users.reserve(batch.size());
  positives.reserve(batch.size());
  negatives.reserve(batch.size());
  for (const core::BprTriple& t : batch) {
    users.push_back(t.user);
    positives.push_back(t.positive);
    negatives.push_back(t.negative);
  }

  nn::Tape tape;
  nn::Var u = tape.gather_param(*user_factors_, users);
  nn::Var p = tape.gather_param(*item_factors_, positives);
  nn::Var n = tape.gather_param(*item_factors_, negatives);

  nn::Var pos_scores = tape.sum_cols(tape.mul(u, p));
  nn::Var neg_scores = tape.sum_cols(tape.mul(u, n));
  nn::Var bpr = tape.reduce_mean(tape.softplus(tape.sub(neg_scores, pos_scores)));
  nn::Var reg = tape.reduce_sum(
      tape.add(tape.add(tape.square(u), tape.square(p)), tape.square(n)));
  nn::Var loss = tape.add(
      bpr, tape.scale(reg, config_.l2_coefficient /
                               static_cast<float>(batch.size())));
  const float loss_value = tape.value(loss)(0, 0);
  tape.backward(loss);
  optimizer_->step(params_);
  return loss_value;
}

void BprmfModel::fit() {
  const std::size_t batches = sampler_->batches_per_epoch(config_.batch_size);
  for (int epoch = 0; epoch < config_.epochs; ++epoch) {
    for (std::size_t b = 0; b < batches; ++b) train_step(rng_);
  }
  fitted_ = true;
}

void BprmfModel::score_items(std::uint32_t user, std::span<float> out) const {
  if (!fitted_) throw std::logic_error("BprmfModel: fit() first");
  if (out.size() != n_items()) {
    throw std::invalid_argument("BprmfModel: output span size mismatch");
  }
  check_user(user);
  auto u = user_factors_->value().row(user);
  for (std::size_t v = 0; v < n_items(); ++v) {
    auto q = item_factors_->value().row(v);
    float acc = 0.0f;
    for (std::size_t c = 0; c < u.size(); ++c) acc += u[c] * q[c];
    out[v] = acc;
  }
}

void BprmfModel::score_batch(std::span<const std::uint32_t> users,
                             std::span<float> out) const {
  if (!fitted_) throw std::logic_error("BprmfModel: fit() first");
  if (out.size() != users.size() * n_items()) {
    throw std::invalid_argument("BprmfModel: output span size mismatch");
  }
  const nn::Tensor& user_table = user_factors_->value();
  const nn::Tensor& item_table = item_factors_->value();
  const std::size_t dim = user_table.cols();
  std::vector<float> user_block(users.size() * dim);
  for (std::size_t i = 0; i < users.size(); ++i) {
    check_user(users[i]);
    const auto user_row = user_table.row(users[i]);
    std::copy(user_row.begin(), user_row.end(),
              user_block.begin() + static_cast<std::ptrdiff_t>(i * dim));
  }
  const std::span<const float> item_panel{item_table.data(),
                                          n_items() * dim};
  nn::gemm_nt_into(user_block, users.size(), dim, item_panel, n_items(), out);
}

}  // namespace ckat::baselines
