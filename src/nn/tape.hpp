// Tape-based reverse-mode automatic differentiation.
//
// A Tape records a computation graph of Tensor-valued nodes. Ops append
// nodes whose backward closures accumulate gradients into their parents;
// backward() replays the closures in reverse creation order (which is a
// topological order because ops can only reference earlier nodes).
//
// Leaves come in three flavours:
//   * constant(t)            -- no gradient.
//   * param(p)               -- dense leaf aliasing a Parameter's value;
//                               gradients accumulate into p.grad().
//   * gather_param(p, rows)  -- sparse embedding lookup; the backward pass
//                               scatter-adds into p.grad() and records the
//                               touched rows for the sparse optimizer.
//
// The tape is built fresh per training step and clear()ed afterwards. It
// may carry a util::WorkerPool for its gemm/spmm/axpy kernels; leave it
// unset on tapes that already run inside a pool job (slot tapes).
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "nn/kernels.hpp"
#include "nn/parameter.hpp"
#include "nn/tensor.hpp"
#include "util/rng.hpp"

namespace ckat::nn {

/// Lightweight handle to a tape node.
struct Var {
  std::uint32_t idx = std::numeric_limits<std::uint32_t>::max();
  [[nodiscard]] bool valid() const noexcept {
    return idx != std::numeric_limits<std::uint32_t>::max();
  }
};

class Tape {
 public:
  /// `pool` (optional, not owned) must outlive the tape.
  explicit Tape(util::WorkerPool* pool = nullptr) : pool_(pool) {}
  Tape(const Tape&) = delete;
  Tape& operator=(const Tape&) = delete;

  // ---- Leaves ----

  /// Non-differentiable tensor leaf.
  Var constant(Tensor value);

  /// Differentiable tensor leaf owned by the tape itself: gradients
  /// accumulate on the node (read them back with grad() after a
  /// backward pass) instead of flowing into a Parameter. The slot
  /// trainer builds its per-slot pair tapes from these, and the
  /// grad-check harness probes ops through them.
  Var input(Tensor value);

  /// Dense differentiable leaf copying the parameter's current value.
  /// Gradients accumulate into p.grad() and mark the parameter dense.
  Var param(Parameter& p);

  /// Embedding lookup: result row i is table.value().row(rows[i]).
  /// Backward scatter-adds and records touched rows.
  Var gather_param(Parameter& table, std::vector<std::uint32_t> rows);

  // ---- Linear algebra ----

  Var matmul(Var a, Var b);     ///< (m,k) @ (k,n) -> (m,n)
  Var matmul_nt(Var a, Var b);  ///< (m,k) @ (n,k)^T -> (m,n)

  /// Fixed-coefficient sparse matmul: A @ x, with A (and its transpose,
  /// for the backward pass) owned by the caller and treated as constant.
  /// Both references must outlive the tape step.
  Var spmm_fixed(const CsrMatrix& a, const CsrMatrix& a_transposed, Var x);

  // ---- Elementwise ----

  Var add(Var a, Var b);
  Var sub(Var a, Var b);
  Var mul(Var a, Var b);
  Var scale(Var a, float s);
  Var add_scalar(Var a, float s);
  Var square(Var a);
  Var tanh_op(Var a);
  Var sigmoid(Var a);
  Var relu(Var a);
  Var leaky_relu(Var a, float negative_slope = 0.2f);
  Var softplus(Var a);  ///< ln(1 + e^x), numerically stable

  /// Adds a (1,C) bias row to every row of a (R,C) input.
  Var add_rowvec(Var a, Var bias);

  /// Scales row r of a (R,C) input by w(r,0) of a (R,1) weight column.
  Var mul_colvec(Var a, Var w);

  // ---- Shape / gather ----

  Var concat_cols(Var a, Var b);  ///< (R,Ca) || (R,Cb) -> (R,Ca+Cb)
  Var concat_rows(Var a, Var b);  ///< (Ra,C) stacked on (Rb,C) -> (Ra+Rb,C)

  /// Gathers rows of a node's value (differentiable).
  Var rows(Var a, std::vector<std::uint32_t> indices);

  // ---- Reductions & segment ops ----

  Var reduce_sum(Var a);   ///< -> (1,1)
  Var reduce_mean(Var a);  ///< -> (1,1)
  Var sum_cols(Var a);     ///< (R,C) -> (R,1), sums each row

  /// Sums rows of `a` into `n_segments` buckets given per-row segment ids.
  Var segment_sum(Var a, std::vector<std::uint32_t> segment_ids,
                  std::size_t n_segments);

  /// Softmax over rows sharing a segment id; input/output shape (E,1).
  /// Segment ids need not be sorted. Empty segments are permitted.
  Var segment_softmax(Var scores, std::vector<std::uint32_t> segment_ids);

  // ---- Regularization helpers ----

  /// Row-wise L2 normalization (x_r / max(||x_r||, eps)).
  Var l2_normalize_rows(Var a, float eps = 1e-12f);

  /// Inverted dropout; identity when !training or p == 0.
  Var dropout(Var a, float p, util::Rng& rng, bool training);

  // ---- Execution ----

  /// Runs the backward pass from a scalar (1,1) loss node.
  void backward(Var loss);

  /// Runs the backward pass from an arbitrary node, seeding its
  /// gradient with `seed` (same shape as the node's value) instead of
  /// the implicit scalar 1. Gradients accumulate, so a caller may seed
  /// and replay several times; nodes recorded after `from` never
  /// contribute. The slot trainer uses this to push the slot-ordered
  /// batch gradient through the shared propagation stack, and the
  /// grad-check harness to apply its random cotangent.
  void backward_seeded(Var from, const Tensor& seed);

  [[nodiscard]] const Tensor& value(Var v) const;
  [[nodiscard]] const Tensor& grad(Var v) const;
  [[nodiscard]] bool requires_grad(Var v) const;

  /// Number of recorded nodes (diagnostics / tests).
  [[nodiscard]] std::size_t size() const noexcept { return nodes_.size(); }

  /// Releases all nodes. Parameters are untouched.
  void clear();

 private:
  struct Node {
    Tensor value;
    Tensor grad;  // allocated lazily in backward
    bool requires_grad = false;
    bool grad_ready = false;
    std::function<void(Tape&)> backward_fn;  // empty for constants
  };

  Var push(Tensor value, bool requires_grad,
           std::function<void(Tape&)> backward_fn);

  Node& node(Var v);
  const Node& node(Var v) const;

  /// Ensures the node's grad tensor exists (zeroed) and returns it.
  Tensor& ensure_grad(Var v);

  util::WorkerPool* pool_;
  std::vector<Node> nodes_;
};

}  // namespace ckat::nn
