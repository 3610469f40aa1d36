// Exercises the finite-difference harness (nn/gradcheck.hpp) over every
// tape op and over the module-level programs the trainer differentiates:
// the attention score network, both aggregators, the TransR projection
// hinge and the combined CF+KG objective. Also pins the kink-handling
// conventions fixed in the minibatch-training sweep: LeakyReLU's
// subgradient at 0, the l2_normalize clamp branch and segment_softmax
// under fully-masked segments.
#include "nn/gradcheck.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <ostream>
#include <string>
#include <vector>

#include "nn/kernels.hpp"
#include "nn/parameter.hpp"
#include "nn/tape.hpp"
#include "util/rng.hpp"

namespace ckat::nn {
namespace {

/// Values with magnitude in [0.25, 1]: clear of the ReLU-family kink at
/// zero, so smooth-op checks never depend on the Richardson skip.
Tensor kink_safe(std::size_t rows, std::size_t cols, std::uint64_t seed) {
  util::Rng rng(seed);
  Tensor t(rows, cols);
  for (float& v : t.flat()) {
    const float magnitude = 0.25f + 0.75f * rng.uniform_float();
    v = rng.bernoulli(0.5) ? magnitude : -magnitude;
  }
  return t;
}

const CsrMatrix& test_csr() {
  static const CsrMatrix m = csr_from_coo(
      4, 4, std::vector<std::uint32_t>{0, 0, 1, 2, 2, 3},
      std::vector<std::uint32_t>{0, 2, 1, 0, 3, 1},
      std::vector<float>{0.5f, -1.0f, 2.0f, 1.5f, -0.5f, 0.75f});
  return m;
}
const CsrMatrix& test_csr_t() {
  static const CsrMatrix t = test_csr().transposed();
  return t;
}

using Builder = std::function<Var(Tape&, const std::vector<Var>&)>;

struct OpProgram {
  const char* name;
  Builder build;
};

// gtest prints each parameter next to the test name it lists, and CTest
// registers that listing verbatim. The default byte dump would embed
// this run's pointer values; printing the op name keeps test names the
// same from build to build.
void PrintTo(const OpProgram& op, std::ostream* os) { *os << op.name; }

// Inputs: x0 (4,3), x1 (3,5), x2 (4,3).
std::vector<OpProgram> op_programs() {
  return {
      {"matmul",
       [](Tape& t, const std::vector<Var>& in) {
         return t.matmul(in[0], in[1]);
       }},
      {"matmul_nt",
       [](Tape& t, const std::vector<Var>& in) {
         return t.matmul_nt(in[0], in[2]);
       }},
      {"spmm_fixed",
       [](Tape& t, const std::vector<Var>& in) {
         return t.spmm_fixed(test_csr(), test_csr_t(), in[0]);
       }},
      {"add",
       [](Tape& t, const std::vector<Var>& in) { return t.add(in[0], in[2]); }},
      {"sub",
       [](Tape& t, const std::vector<Var>& in) { return t.sub(in[0], in[2]); }},
      {"mul",
       [](Tape& t, const std::vector<Var>& in) { return t.mul(in[0], in[2]); }},
      {"scale",
       [](Tape& t, const std::vector<Var>& in) { return t.scale(in[0], -2.5f); }},
      {"add_scalar",
       [](Tape& t, const std::vector<Var>& in) {
         return t.add_scalar(in[0], 3.0f);
       }},
      {"square",
       [](Tape& t, const std::vector<Var>& in) { return t.square(in[0]); }},
      {"tanh",
       [](Tape& t, const std::vector<Var>& in) { return t.tanh_op(in[0]); }},
      {"sigmoid",
       [](Tape& t, const std::vector<Var>& in) { return t.sigmoid(in[0]); }},
      {"relu",
       [](Tape& t, const std::vector<Var>& in) { return t.relu(in[0]); }},
      {"leaky_relu",
       [](Tape& t, const std::vector<Var>& in) {
         return t.leaky_relu(in[0], 0.2f);
       }},
      {"softplus",
       [](Tape& t, const std::vector<Var>& in) { return t.softplus(in[0]); }},
      {"add_rowvec",
       [](Tape& t, const std::vector<Var>& in) {
         Tensor bias(1, 3);
         for (std::size_t c = 0; c < 3; ++c) {
           bias(0, c) = 0.4f * static_cast<float>(c + 1);
         }
         return t.add_rowvec(in[0], t.input(std::move(bias)));
       }},
      {"mul_colvec",
       [](Tape& t, const std::vector<Var>& in) {
         return t.mul_colvec(in[0], t.sum_cols(in[2]));
       }},
      {"concat_cols",
       [](Tape& t, const std::vector<Var>& in) {
         return t.concat_cols(in[0], in[2]);
       }},
      {"concat_rows",
       [](Tape& t, const std::vector<Var>& in) {
         return t.concat_rows(in[0], in[2]);
       }},
      {"rows",
       [](Tape& t, const std::vector<Var>& in) {
         return t.rows(in[0], {2, 0, 2, 3});
       }},
      {"reduce_sum",
       [](Tape& t, const std::vector<Var>& in) {
         return t.reduce_sum(t.square(in[0]));
       }},
      {"reduce_mean",
       [](Tape& t, const std::vector<Var>& in) {
         return t.reduce_mean(t.square(in[0]));
       }},
      {"sum_cols",
       [](Tape& t, const std::vector<Var>& in) { return t.sum_cols(in[0]); }},
      {"segment_sum",
       [](Tape& t, const std::vector<Var>& in) {
         return t.segment_sum(in[0], {1, 0, 1, 2}, 3);
       }},
      {"segment_softmax",
       [](Tape& t, const std::vector<Var>& in) {
         return t.segment_softmax(t.sum_cols(in[0]), {0, 1, 0, 1});
       }},
      {"l2_normalize_rows",
       [](Tape& t, const std::vector<Var>& in) {
         return t.l2_normalize_rows(in[0]);
       }},
      {"dropout_training_fixed_mask",
       [](Tape& t, const std::vector<Var>& in) {
         util::Rng rng(42);  // identical mask on every rebuild
         return t.dropout(in[0], 0.3f, rng, true);
       }},
      {"composite_mlp",
       [](Tape& t, const std::vector<Var>& in) {
         Var hidden = t.tanh_op(t.matmul(in[0], in[1]));
         Var mixed = t.mul(t.rows(hidden, {0, 1, 2, 3}),
                           t.sigmoid(t.matmul(in[2], in[1])));
         return t.l2_normalize_rows(mixed);
       }},
  };
}

class GradCheckOps : public ::testing::TestWithParam<OpProgram> {};

TEST_P(GradCheckOps, EveryOpMatchesFiniteDifferences) {
  const std::vector<Tensor> inputs = {kink_safe(4, 3, 11), kink_safe(3, 5, 22),
                                      kink_safe(4, 3, 33)};
  const GradCheckResult result =
      check_gradients(inputs, GetParam().build, GradCheckConfig{});
  EXPECT_TRUE(result.passed) << GetParam().name << ": " << result.worst;
  EXPECT_LT(result.max_rel_error, 1e-4) << result.worst;
  EXPECT_GT(result.checked, 0u);
}

INSTANTIATE_TEST_SUITE_P(AllOps, GradCheckOps,
                         ::testing::ValuesIn(op_programs()),
                         [](const ::testing::TestParamInfo<OpProgram>& info) {
                           return std::string(info.param.name);
                         });

// gather_param with duplicate indices goes through the Parameter API:
// duplicate rows must accumulate, which check_parameter_gradients reads
// straight off Parameter::grad().
TEST(GradCheck, GatherParamWithDuplicatesAccumulates) {
  Parameter table("table", 4, 3);
  table.value() = kink_safe(4, 3, 44);
  const GradCheckResult result = check_parameter_gradients(
      {&table},
      [&](Tape& t) { return t.gather_param(table, {1, 1, 0, 3, 1}); });
  EXPECT_TRUE(result.passed) << result.worst;
  EXPECT_LT(result.max_rel_error, 1e-4) << result.worst;
}

// ---- Harness mechanics ----

// A deterministic program whose analytic gradient is wrong by
// construction: the forward adds the input twice (once through a
// constant snapshot of the leaf's current value), so f(x) = 2x but the
// tape only sees df/dx = 1. The checker must fail, not skip.
TEST(GradCheck, DetectsWrongAnalyticGradient) {
  const std::vector<Tensor> inputs = {kink_safe(2, 2, 55)};
  const GradCheckResult result = check_gradients(
      inputs, [](Tape& t, const std::vector<Var>& in) {
        Tensor snapshot = t.value(in[0]);
        return t.add(in[0], t.constant(std::move(snapshot)));
      });
  EXPECT_FALSE(result.passed);
  EXPECT_GT(result.max_rel_error, 0.1);
  EXPECT_FALSE(result.worst.empty());
}

// A coordinate sitting just off the ReLU corner: the h and h/2 stencils
// land on different mixtures of the two branches, so the Richardson test
// must skip it rather than fail the run.
TEST(GradCheck, SkipsKinkStraddlingCoordinates) {
  Tensor x(1, 1);
  x(0, 0) = 0.002f;  // within the snapped step h = 2^-7 of the corner
  const GradCheckResult result = check_gradients(
      {x}, [](Tape& t, const std::vector<Var>& in) { return t.relu(in[0]); });
  EXPECT_TRUE(result.passed);
  EXPECT_EQ(result.skipped, 1u);
  EXPECT_EQ(result.checked, 0u);
}

TEST(GradCheck, MergeKeepsWorstAndSums) {
  GradCheckResult a;
  a.checked = 3;
  a.max_rel_error = 1e-6;
  a.worst = "a";
  GradCheckResult b;
  b.checked = 2;
  b.skipped = 1;
  b.max_rel_error = 1e-3;
  b.worst = "b";
  b.passed = false;
  a.merge(b);
  EXPECT_EQ(a.checked, 5u);
  EXPECT_EQ(a.skipped, 1u);
  EXPECT_FALSE(a.passed);
  EXPECT_EQ(a.worst, "b");
  EXPECT_DOUBLE_EQ(a.max_rel_error, 1e-3);
}

// ---- Module-level programs (the shapes the trainer differentiates) ----

/// The attention score network of Eq. 4-5 on the tape: fa(h,r,t) =
/// (W_r e_t)^T tanh(W_r e_h + e_r), softmax-normalized per head segment.
TEST(GradCheck, AttentionScoreNetwork) {
  Parameter entities("entities", 5, 3);
  Parameter projection("W_r", 3, 2);
  Parameter relation("e_r", 1, 2);
  entities.value() = kink_safe(5, 3, 66);
  projection.value() = kink_safe(3, 2, 77);
  relation.value() = kink_safe(1, 2, 88);
  const std::vector<std::uint32_t> heads = {0, 0, 1, 1, 2};
  const std::vector<std::uint32_t> tails = {1, 2, 3, 4, 0};

  const GradCheckResult result = check_parameter_gradients(
      {&entities, &projection, &relation}, [&](Tape& t) {
        Var w = t.param(projection);
        Var head_rows = t.gather_param(entities, heads);
        Var tail_rows = t.gather_param(entities, tails);
        Var head_projected =
            t.add_rowvec(t.matmul(head_rows, w), t.param(relation));
        Var tail_projected = t.matmul(tail_rows, w);
        Var scores =
            t.sum_cols(t.mul(tail_projected, t.tanh_op(head_projected)));
        return t.segment_softmax(scores, heads);
      });
  EXPECT_TRUE(result.passed) << result.worst;
  EXPECT_LT(result.max_rel_error, 1e-4) << result.worst;
}

/// One propagation layer exactly as CkatModel::propagate wires it, for
/// both aggregators of Eq. 6-7 (spmm -> combine -> leaky_relu ->
/// per-row L2 normalization -> layer-wise concat).
void check_aggregator(bool concat) {
  Parameter entities("entities", 4, 3);
  Parameter weights("W1", concat ? 6 : 3, 2);
  entities.value() = kink_safe(4, 3, 99);
  weights.value() = kink_safe(weights.value().rows(), 2, 111);

  const GradCheckResult result = check_parameter_gradients(
      {&entities, &weights}, [&](Tape& t) {
        Var current = t.param(entities);
        Var neighborhood = t.spmm_fixed(test_csr(), test_csr_t(), current);
        Var combined = concat ? t.concat_cols(current, neighborhood)
                              : t.add(current, neighborhood);
        Var transformed =
            t.leaky_relu(t.matmul(combined, t.param(weights)), 0.2f);
        return t.concat_cols(current, t.l2_normalize_rows(transformed));
      });
  EXPECT_TRUE(result.passed) << result.worst;
  EXPECT_LT(result.max_rel_error, 1e-4) << result.worst;
}

TEST(GradCheck, ConcatAggregatorLayer) { check_aggregator(/*concat=*/true); }
TEST(GradCheck, SumAggregatorLayer) { check_aggregator(/*concat=*/false); }

/// TransR margin loss (Eq. 2): relu(margin + ||W e_h + e_r - W e_t||^2
///                                        - ||W e_h + e_r - W e_n||^2).
TEST(GradCheck, TransRProjectionHinge) {
  Parameter entities("entities", 6, 3);
  Parameter projection("W_r", 3, 2);
  Parameter relation("e_r", 1, 2);
  entities.value() = kink_safe(6, 3, 123);
  projection.value() = kink_safe(3, 2, 134);
  relation.value() = kink_safe(1, 2, 145);
  const std::vector<std::uint32_t> heads = {0, 1, 2};
  const std::vector<std::uint32_t> tails = {3, 4, 5};
  const std::vector<std::uint32_t> negatives = {5, 3, 4};

  const GradCheckResult result = check_parameter_gradients(
      {&entities, &projection, &relation}, [&](Tape& t) {
        Var w = t.param(projection);
        Var head_projected =
            t.add_rowvec(t.matmul(t.gather_param(entities, heads), w),
                         t.param(relation));
        Var pos = t.sum_cols(t.square(
            t.sub(head_projected, t.matmul(t.gather_param(entities, tails), w))));
        Var neg = t.sum_cols(t.square(t.sub(
            head_projected, t.matmul(t.gather_param(entities, negatives), w))));
        return t.reduce_sum(t.relu(t.add_scalar(t.sub(pos, neg), 1.0f)));
      });
  EXPECT_TRUE(result.passed) << result.worst;
  EXPECT_LT(result.max_rel_error, 1e-4) << result.worst;
}

/// The combined objective of Eq. 13: BPR over propagated representations
/// plus the TransR hinge plus L2 regularization, differentiated through
/// every parameter at once -- the exact program the minibatch trainer
/// splits into slots.
TEST(GradCheck, FullCfKgObjective) {
  Parameter entities("entities", 6, 3);
  Parameter weights("W1", 6, 2);
  Parameter projection("W_r", 3, 2);
  Parameter relation("e_r", 1, 2);
  entities.value() = kink_safe(6, 3, 156);
  weights.value() = kink_safe(6, 2, 167);
  projection.value() = kink_safe(3, 2, 178);
  relation.value() = kink_safe(1, 2, 189);
  const CsrMatrix forward = csr_from_coo(
      6, 6, std::vector<std::uint32_t>{0, 1, 2, 3, 4, 5},
      std::vector<std::uint32_t>{1, 2, 3, 4, 5, 0},
      std::vector<float>{1.0f, 1.0f, 1.0f, 1.0f, 1.0f, 1.0f});
  const CsrMatrix backward = forward.transposed();
  const std::vector<std::uint32_t> users = {0, 1};
  const std::vector<std::uint32_t> positives = {3, 4};
  const std::vector<std::uint32_t> negatives = {5, 2};

  const GradCheckResult result = check_parameter_gradients(
      {&entities, &weights, &projection, &relation}, [&](Tape& t) {
        // CF branch: one propagation layer, BPR over (user, pos, neg).
        Var current = t.param(entities);
        Var combined =
            t.concat_cols(current, t.spmm_fixed(forward, backward, current));
        Var representation = t.concat_cols(
            current, t.l2_normalize_rows(t.leaky_relu(
                         t.matmul(combined, t.param(weights)), 0.2f)));
        Var u = t.rows(representation, users);
        Var p = t.rows(representation, positives);
        Var n = t.rows(representation, negatives);
        Var pos_scores = t.sum_cols(t.mul(u, p));
        Var neg_scores = t.sum_cols(t.mul(u, n));
        Var bpr = t.reduce_sum(t.softplus(t.sub(neg_scores, pos_scores)));
        Var reg = t.scale(
            t.add(t.reduce_sum(t.square(u)),
                  t.add(t.reduce_sum(t.square(p)), t.reduce_sum(t.square(n)))),
            1e-3f);
        // KG branch: TransR hinge over one relation.
        Var w = t.param(projection);
        Var head_projected = t.add_rowvec(
            t.matmul(t.gather_param(entities, {0, 1}), w), t.param(relation));
        Var pos_d = t.sum_cols(t.square(t.sub(
            head_projected, t.matmul(t.gather_param(entities, {2, 3}), w))));
        Var neg_d = t.sum_cols(t.square(t.sub(
            head_projected, t.matmul(t.gather_param(entities, {4, 5}), w))));
        Var hinge =
            t.reduce_sum(t.relu(t.add_scalar(t.sub(pos_d, neg_d), 1.0f)));
        return t.add(bpr, t.add(reg, hinge));
      });
  EXPECT_TRUE(result.passed) << result.worst;
  EXPECT_LT(result.max_rel_error, 1e-4) << result.worst;
}

// ---- Kink-convention regression pins (minibatch-training sweep) ----

// LeakyReLU at exactly 0: forward emits 0 and backward uses the identity
// branch (slope 1), matching the right-derivative the forward pass
// implements (x >= 0 is the identity branch).
TEST(GradCheck, LeakyReluAtZeroUsesIdentitySubgradient) {
  Tape tape;
  Tensor x(1, 2);
  x(0, 0) = 0.0f;
  x(0, 1) = -0.5f;
  Var in = tape.input(std::move(x));
  Var out = tape.leaky_relu(in, 0.2f);
  EXPECT_EQ(tape.value(out)(0, 0), 0.0f);
  Tensor seed(1, 2, 1.0f);
  tape.backward_seeded(out, seed);
  EXPECT_FLOAT_EQ(tape.grad(in)(0, 0), 1.0f);
  EXPECT_FLOAT_EQ(tape.grad(in)(0, 1), 0.2f);
}

// A row whose norm falls below eps takes the clamp branch y = x / eps;
// its Jacobian is diag(1/eps) with no projection term. The analytic
// backward must match finite differences *on the clamped branch* -- the
// pre-sweep code differentiated the unclamped formula there.
TEST(GradCheck, L2NormalizeClampedRowHasDiagonalJacobian) {
  Tensor x(2, 2);
  x(0, 0) = 0.18f;  // row norm 0.3 < eps
  x(0, 1) = 0.24f;
  x(1, 0) = 0.8f;  // row norm 1.0 > eps: regular branch alongside
  x(1, 1) = -0.6f;
  const float eps = 0.5f;
  const GradCheckResult result = check_gradients(
      {x}, [eps](Tape& t, const std::vector<Var>& in) {
        return t.l2_normalize_rows(in[0], eps);
      });
  EXPECT_TRUE(result.passed) << result.worst;

  // Direct pin of the clamp-branch Jacobian.
  Tape tape;
  Var in = tape.input(x);
  Var out = tape.l2_normalize_rows(in, eps);
  EXPECT_FLOAT_EQ(tape.value(out)(0, 0), 0.18f / eps);
  Tensor seed(2, 2);
  seed(0, 0) = 1.0f;  // only the clamped row's first coordinate
  tape.backward_seeded(out, seed);
  EXPECT_FLOAT_EQ(tape.grad(in)(0, 0), 1.0f / eps);
  EXPECT_FLOAT_EQ(tape.grad(in)(0, 1), 0.0f);  // no projection coupling
}

// A segment whose scores are all -inf (a fully masked attention head)
// must produce zeros -- not NaN -- in both passes.
TEST(GradCheck, SegmentSoftmaxFullyMaskedSegmentIsZeroNotNan) {
  const float inf = std::numeric_limits<float>::infinity();
  Tape tape;
  Tensor scores(4, 1);
  scores(0, 0) = 0.5f;
  scores(1, 0) = -inf;  // segment 1 fully masked
  scores(2, 0) = 1.5f;
  scores(3, 0) = -inf;
  Var in = tape.input(std::move(scores));
  Var out = tape.segment_softmax(in, {0, 1, 0, 1});
  const Tensor& y = tape.value(out);
  EXPECT_NEAR(y(0, 0) + y(2, 0), 1.0f, 1e-6f);
  EXPECT_EQ(y(1, 0), 0.0f);
  EXPECT_EQ(y(3, 0), 0.0f);
  Tensor seed(4, 1, 1.0f);
  tape.backward_seeded(out, seed);
  const Tensor& g = tape.grad(in);
  for (std::size_t r = 0; r < 4; ++r) {
    EXPECT_TRUE(std::isfinite(g(r, 0))) << "row " << r;
  }
  EXPECT_EQ(g(1, 0), 0.0f);
  EXPECT_EQ(g(3, 0), 0.0f);
}

}  // namespace
}  // namespace ckat::nn
