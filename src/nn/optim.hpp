// Optimizers. Adam (Kingma & Ba 2014) is the paper's optimizer for all
// models (Sec. VI.D); SGD is provided for tests and ablations.
//
// Embedding parameters whose gradients came only from gathers are
// updated sparsely: only the touched rows pay the moment update, with
// global-step bias correction (the "SparseAdam" convention).
#pragma once

#include "nn/parameter.hpp"

namespace ckat::util {
class WorkerPool;
}  // namespace ckat::util

namespace ckat::nn {

class Optimizer {
 public:
  virtual ~Optimizer() = default;

  /// Applies one update using the gradients accumulated in the store,
  /// then clears them.
  virtual void step(ParamStore& params) = 0;
};

class SgdOptimizer final : public Optimizer {
 public:
  explicit SgdOptimizer(float lr) : lr_(lr) {}
  void step(ParamStore& params) override;

  [[nodiscard]] float learning_rate() const noexcept { return lr_; }

 private:
  float lr_;
};

class AdamOptimizer final : public Optimizer {
 public:
  explicit AdamOptimizer(float lr, float beta1 = 0.9f, float beta2 = 0.999f,
                         float eps = 1e-8f)
      : lr_(lr), beta1_(beta1), beta2_(beta2), eps_(eps) {}

  void step(ParamStore& params) override;

  /// Parallel variant: splits the (parameter, row) work list into
  /// fixed-width chunks across the pool. Each row's moment/value update
  /// touches only that row, so updates are independent and the result
  /// is bit-identical to the serial step() at every pool size -- the
  /// work list is built in deterministic (creation, touch) order, and
  /// no floating-point reduction crosses a row boundary.
  void step(ParamStore& params, util::WorkerPool& pool);

  [[nodiscard]] float learning_rate() const noexcept { return lr_; }
  [[nodiscard]] long step_count() const noexcept { return t_; }

  /// Checkpoint/rollback support: the step count feeds the bias
  /// correction, so restoring parameters and moment buffers without
  /// restoring it would change the effective update scale.
  void set_step_count(long t) noexcept { t_ = t; }
  /// Rollback recovery lowers the learning rate before retrying.
  void set_learning_rate(float lr) noexcept { lr_ = lr; }

 private:
  void update_row(Parameter& p, std::size_t row, float bias_correction1,
                  float bias_correction2);

  float lr_, beta1_, beta2_, eps_;
  long t_ = 0;
};

}  // namespace ckat::nn
