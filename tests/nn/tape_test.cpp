// Tape op tests: forward-value checks plus a parameterized gradient
// check of every differentiable op against central finite differences.
#include "nn/tape.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <ostream>

#include "nn/kernels.hpp"
#include "util/rng.hpp"

namespace ckat::nn {
namespace {

/// Fills a tensor with values whose magnitude stays >= 0.25 (clear of
/// the ReLU/LeakyReLU kink at 0, where finite differences are invalid).
void kink_safe_init(Tensor& t, util::Rng& rng) {
  for (float& v : t.flat()) {
    const float magnitude = 0.25f + 0.75f * rng.uniform_float();
    v = rng.bernoulli(0.5) ? magnitude : -magnitude;
  }
}

/// A differentiable scenario: given a fresh tape and the shared
/// parameters, build a scalar loss.
using LossBuilder =
    std::function<Var(Tape&, Parameter&, Parameter&, Parameter&)>;

struct OpCase {
  const char* name;
  LossBuilder build;
};

// Printed by name, not as a byte dump holding this run's pointer values,
// so the test names gtest lists and CTest registers are stable.
void PrintTo(const OpCase& op, std::ostream* os) { *os << op.name; }

/// Shared sparse matrix (3x4) for spmm cases.
const CsrMatrix& test_csr() {
  static const CsrMatrix m = csr_from_coo(
      3, 4, std::vector<std::uint32_t>{0, 0, 1, 2, 2},
      std::vector<std::uint32_t>{0, 2, 1, 0, 3},
      std::vector<float>{0.5f, -1.0f, 2.0f, 1.5f, -0.5f});
  return m;
}
const CsrMatrix& test_csr_t() {
  static const CsrMatrix t = test_csr().transposed();
  return t;
}

/// Weighted scalar readout keeps gradients dense and asymmetric.
Var readout(Tape& tape, Var v) {
  const Tensor& value = tape.value(v);
  Tensor weights(value.rows(), value.cols());
  for (std::size_t i = 0; i < weights.size(); ++i) {
    weights.data()[i] = 0.3f + 0.05f * static_cast<float>(i % 13);
  }
  return tape.reduce_sum(tape.mul(v, tape.constant(std::move(weights))));
}

std::vector<OpCase> op_cases() {
  // Parameter shapes: A (4,3), B (3,5), C (4,3).
  return {
      {"matmul",
       [](Tape& t, Parameter& a, Parameter& b, Parameter&) {
         return readout(t, t.matmul(t.param(a), t.param(b)));
       }},
      {"matmul_nt",
       [](Tape& t, Parameter& a, Parameter&, Parameter& c) {
         return readout(t, t.matmul_nt(t.param(a), t.param(c)));
       }},
      {"spmm_fixed",
       [](Tape& t, Parameter& a, Parameter&, Parameter&) {
         return readout(t, t.spmm_fixed(test_csr(), test_csr_t(), t.param(a)));
       }},
      {"add",
       [](Tape& t, Parameter& a, Parameter&, Parameter& c) {
         return readout(t, t.add(t.param(a), t.param(c)));
       }},
      {"sub",
       [](Tape& t, Parameter& a, Parameter&, Parameter& c) {
         return readout(t, t.sub(t.param(a), t.param(c)));
       }},
      {"mul",
       [](Tape& t, Parameter& a, Parameter&, Parameter& c) {
         return readout(t, t.mul(t.param(a), t.param(c)));
       }},
      {"scale",
       [](Tape& t, Parameter& a, Parameter&, Parameter&) {
         return readout(t, t.scale(t.param(a), -2.5f));
       }},
      {"add_scalar",
       [](Tape& t, Parameter& a, Parameter&, Parameter&) {
         return readout(t, t.add_scalar(t.param(a), 3.0f));
       }},
      {"square",
       [](Tape& t, Parameter& a, Parameter&, Parameter&) {
         return readout(t, t.square(t.param(a)));
       }},
      {"tanh",
       [](Tape& t, Parameter& a, Parameter&, Parameter&) {
         return readout(t, t.tanh_op(t.param(a)));
       }},
      {"sigmoid",
       [](Tape& t, Parameter& a, Parameter&, Parameter&) {
         return readout(t, t.sigmoid(t.param(a)));
       }},
      {"relu",
       [](Tape& t, Parameter& a, Parameter&, Parameter&) {
         return readout(t, t.relu(t.param(a)));
       }},
      {"leaky_relu",
       [](Tape& t, Parameter& a, Parameter&, Parameter&) {
         return readout(t, t.leaky_relu(t.param(a), 0.2f));
       }},
      {"softplus",
       [](Tape& t, Parameter& a, Parameter&, Parameter&) {
         return readout(t, t.softplus(t.param(a)));
       }},
      {"add_rowvec",
       [](Tape& t, Parameter& a, Parameter&, Parameter&) {
         Tensor bias_value(1, 3);
         for (std::size_t c = 0; c < 3; ++c) {
           bias_value(0, c) = 0.4f * static_cast<float>(c + 1);
         }
         static Parameter bias("bias", 1, 3);
         bias.value() = bias_value;
         bias.zero_grad();
         return readout(t, t.add_rowvec(t.param(a), t.param(bias)));
       }},
      {"mul_colvec",
       [](Tape& t, Parameter& a, Parameter&, Parameter& c) {
         Var w = t.sum_cols(t.param(c));  // (4,1) derived weight column
         return readout(t, t.mul_colvec(t.param(a), w));
       }},
      {"concat_cols",
       [](Tape& t, Parameter& a, Parameter&, Parameter& c) {
         return readout(t, t.concat_cols(t.param(a), t.param(c)));
       }},
      {"concat_rows",
       [](Tape& t, Parameter& a, Parameter&, Parameter& c) {
         return readout(t, t.concat_rows(t.param(a), t.param(c)));
       }},
      {"rows",
       [](Tape& t, Parameter& a, Parameter&, Parameter&) {
         return readout(t, t.rows(t.param(a), {2, 0, 2, 3}));
       }},
      {"gather_param_with_duplicates",
       [](Tape& t, Parameter& a, Parameter&, Parameter&) {
         return readout(t, t.gather_param(a, {1, 1, 0, 3, 1}));
       }},
      {"segment_sum",
       [](Tape& t, Parameter& a, Parameter&, Parameter&) {
         return readout(t, t.segment_sum(t.param(a), {1, 0, 1, 2}, 3));
       }},
      {"segment_softmax",
       [](Tape& t, Parameter& a, Parameter&, Parameter&) {
         Var scores = t.sum_cols(t.param(a));  // (4,1)
         return readout(t, t.segment_softmax(scores, {0, 1, 0, 1}));
       }},
      {"sum_cols",
       [](Tape& t, Parameter& a, Parameter&, Parameter&) {
         return readout(t, t.sum_cols(t.param(a)));
       }},
      {"reduce_mean",
       [](Tape& t, Parameter& a, Parameter&, Parameter&) {
         return t.reduce_mean(t.square(t.param(a)));
       }},
      {"l2_normalize_rows",
       [](Tape& t, Parameter& a, Parameter&, Parameter&) {
         return readout(t, t.l2_normalize_rows(t.param(a)));
       }},
      {"dropout_training_fixed_mask",
       [](Tape& t, Parameter& a, Parameter&, Parameter&) {
         util::Rng rng(42);  // identical mask on every rebuild
         return readout(t, t.dropout(t.param(a), 0.3f, rng, true));
       }},
      {"composite_mlp",
       [](Tape& t, Parameter& a, Parameter& b, Parameter& c) {
         Var hidden = t.tanh_op(t.matmul(t.param(a), t.param(b)));
         Var mixed = t.mul(t.rows(hidden, {0, 1, 2, 3}),
                           t.sigmoid(t.matmul(t.param(c), t.param(b))));
         return readout(t, t.l2_normalize_rows(mixed));
       }},
  };
}

class TapeGradCheck : public ::testing::TestWithParam<OpCase> {};

TEST_P(TapeGradCheck, MatchesFiniteDifferences) {
  const OpCase& op = GetParam();
  util::Rng rng(1234);
  Parameter a("A", 4, 3), b("B", 3, 5), c("C", 4, 3);
  kink_safe_init(a.value(), rng);
  kink_safe_init(b.value(), rng);
  kink_safe_init(c.value(), rng);

  auto loss_value = [&]() {
    Tape tape;
    Var loss = op.build(tape, a, b, c);
    return static_cast<double>(tape.value(loss)(0, 0));
  };

  // Analytic gradients.
  a.zero_grad();
  b.zero_grad();
  c.zero_grad();
  {
    Tape tape;
    Var loss = op.build(tape, a, b, c);
    tape.backward(loss);
  }

  const double eps = 5e-3;
  for (Parameter* p : {&a, &b, &c}) {
    for (std::size_t i = 0; i < p->value().size(); ++i) {
      const float original = p->value().data()[i];
      p->value().data()[i] = original + static_cast<float>(eps);
      const double plus = loss_value();
      p->value().data()[i] = original - static_cast<float>(eps);
      const double minus = loss_value();
      p->value().data()[i] = original;
      const double numeric = (plus - minus) / (2.0 * eps);
      const double analytic = p->grad().data()[i];
      const double scale =
          std::max({1.0, std::fabs(numeric), std::fabs(analytic)});
      EXPECT_NEAR(analytic, numeric, 2e-2 * scale)
          << op.name << " param " << p->name() << " element " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllOps, TapeGradCheck,
                         ::testing::ValuesIn(op_cases()),
                         [](const ::testing::TestParamInfo<OpCase>& info) {
                           return std::string(info.param.name);
                         });

// ---- Forward-value and error-handling tests ----

TEST(Tape, ConstantHasNoGrad) {
  Tape tape;
  Var v = tape.constant(Tensor(2, 2, 1.0f));
  EXPECT_FALSE(tape.requires_grad(v));
}

TEST(Tape, BackwardRequiresScalar) {
  Tape tape;
  Parameter p("p", 2, 2);
  p.value().fill(1.0f);
  Var v = tape.param(p);
  EXPECT_THROW(tape.backward(v), std::invalid_argument);
}

TEST(Tape, BackwardRequiresGradPath) {
  Tape tape;
  Var v = tape.reduce_sum(tape.constant(Tensor(2, 2, 1.0f)));
  EXPECT_THROW(tape.backward(v), std::invalid_argument);
}

TEST(Tape, SegmentSoftmaxSumsToOnePerSegment) {
  Tape tape;
  Tensor scores = Tensor::from_values(5, 1, {1, 2, 3, 4, 5});
  Var v = tape.segment_softmax(tape.constant(std::move(scores)),
                               {0, 0, 1, 1, 1});
  const Tensor& out = tape.value(v);
  EXPECT_NEAR(out(0, 0) + out(1, 0), 1.0f, 1e-5f);
  EXPECT_NEAR(out(2, 0) + out(3, 0) + out(4, 0), 1.0f, 1e-5f);
  EXPECT_GT(out(1, 0), out(0, 0));  // higher score, higher weight
}

TEST(Tape, SegmentSoftmaxNumericallyStable) {
  Tape tape;
  Tensor scores = Tensor::from_values(2, 1, {1000.0f, 1001.0f});
  Var v = tape.segment_softmax(tape.constant(std::move(scores)), {0, 0});
  const Tensor& out = tape.value(v);
  EXPECT_FALSE(std::isnan(out(0, 0)));
  EXPECT_NEAR(out(0, 0) + out(1, 0), 1.0f, 1e-5f);
}

TEST(Tape, DropoutInferenceIsIdentity) {
  Tape tape;
  util::Rng rng(1);
  Parameter p("p", 2, 3);
  p.value().fill(2.0f);
  Var v = tape.dropout(tape.param(p), 0.5f, rng, /*training=*/false);
  for (float x : tape.value(v).flat()) EXPECT_FLOAT_EQ(x, 2.0f);
}

TEST(Tape, DropoutZeroProbabilityIsIdentity) {
  Tape tape;
  util::Rng rng(1);
  Parameter p("p", 2, 3);
  p.value().fill(2.0f);
  Var v = tape.dropout(tape.param(p), 0.0f, rng, /*training=*/true);
  for (float x : tape.value(v).flat()) EXPECT_FLOAT_EQ(x, 2.0f);
}

TEST(Tape, DropoutPreservesExpectedValue) {
  Tape tape;
  util::Rng rng(5);
  Parameter p("p", 100, 20);
  p.value().fill(1.0f);
  Var v = tape.dropout(tape.param(p), 0.4f, rng, /*training=*/true);
  EXPECT_NEAR(tape.value(v).sum() / 2000.0, 1.0, 0.05);
}

TEST(Tape, L2NormalizeMakesUnitRows) {
  Tape tape;
  Tensor x = Tensor::from_values(2, 2, {3, 4, 6, 8});
  Var v = tape.l2_normalize_rows(tape.constant(std::move(x)));
  const Tensor& out = tape.value(v);
  EXPECT_NEAR(out(0, 0), 0.6f, 1e-5f);
  EXPECT_NEAR(out(0, 1), 0.8f, 1e-5f);
  EXPECT_NEAR(out(1, 0), 0.6f, 1e-5f);
}

TEST(Tape, GatherParamRejectsOutOfRange) {
  Tape tape;
  Parameter p("p", 2, 2);
  EXPECT_THROW(tape.gather_param(p, {5}), std::out_of_range);
}

TEST(Tape, RowsRejectsOutOfRange) {
  Tape tape;
  Var v = tape.constant(Tensor(2, 2, 1.0f));
  EXPECT_THROW(tape.rows(v, {7}), std::out_of_range);
}

TEST(Tape, GatherMarksTouchedRowsOnly) {
  Parameter p("p", 10, 2);
  p.value().fill(1.0f);
  Tape tape;
  Var loss = tape.reduce_sum(tape.gather_param(p, {3, 7, 3}));
  tape.backward(loss);
  EXPECT_FALSE(p.has_dense_grad());
  EXPECT_EQ(p.touched_rows().size(), 2u);
  // Row 3 gathered twice: gradient accumulates to 2 per element.
  EXPECT_FLOAT_EQ(p.grad()(3, 0), 2.0f);
  EXPECT_FLOAT_EQ(p.grad()(7, 0), 1.0f);
  EXPECT_FLOAT_EQ(p.grad()(0, 0), 0.0f);
}

TEST(Tape, ParamLeafMarksDense) {
  Parameter p("p", 2, 2);
  p.value().fill(1.0f);
  Tape tape;
  Var loss = tape.reduce_sum(tape.param(p));
  tape.backward(loss);
  EXPECT_TRUE(p.has_dense_grad());
  EXPECT_FLOAT_EQ(p.grad()(1, 1), 1.0f);
}

TEST(Tape, ReuseOfNodeAccumulatesGradient) {
  // loss = sum(x * x_alias): d/dx = 2x.
  Parameter p("p", 1, 2);
  p.value()(0, 0) = 2.0f;
  p.value()(0, 1) = -3.0f;
  Tape tape;
  Var x = tape.param(p);
  Var loss = tape.reduce_sum(tape.mul(x, x));
  tape.backward(loss);
  EXPECT_FLOAT_EQ(p.grad()(0, 0), 4.0f);
  EXPECT_FLOAT_EQ(p.grad()(0, 1), -6.0f);
}

TEST(Tape, ClearDropsNodes) {
  Tape tape;
  tape.constant(Tensor(2, 2));
  EXPECT_EQ(tape.size(), 1u);
  tape.clear();
  EXPECT_EQ(tape.size(), 0u);
}

}  // namespace
}  // namespace ckat::nn
