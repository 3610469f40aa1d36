#include "nn/kernels.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <tuple>
#include <vector>

#include "nn/init.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace ckat::nn {
namespace {

/// Reference dense matmul with explicit transpose flags.
Tensor naive_matmul(const Tensor& a, const Tensor& b, bool ta, bool tb,
                    float alpha = 1.0f) {
  const std::size_t m = ta ? a.cols() : a.rows();
  const std::size_t k = ta ? a.rows() : a.cols();
  const std::size_t n = tb ? b.rows() : b.cols();
  Tensor out(m, n);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::size_t kk = 0; kk < k; ++kk) {
        const float av = ta ? a(kk, i) : a(i, kk);
        const float bv = tb ? b(j, kk) : b(kk, j);
        acc += static_cast<double>(av) * bv;
      }
      out(i, j) = alpha * static_cast<float>(acc);
    }
  }
  return out;
}

void expect_near(const Tensor& actual, const Tensor& expected,
                 float tol = 1e-4f) {
  ASSERT_TRUE(actual.same_shape(expected));
  for (std::size_t i = 0; i < actual.size(); ++i) {
    EXPECT_NEAR(actual.data()[i], expected.data()[i], tol) << "index " << i;
  }
}

class GemmShapes : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(GemmShapes, MatchesNaive) {
  const auto [m, k, n] = GetParam();
  util::Rng rng(m * 131 + k * 17 + n);
  Tensor a(m, k), b(k, n), bt(n, k), at(k, m);
  uniform_init(a, rng, -1.0, 1.0);
  uniform_init(b, rng, -1.0, 1.0);
  uniform_init(bt, rng, -1.0, 1.0);
  uniform_init(at, rng, -1.0, 1.0);

  Tensor out(m, n);
  gemm(a, b, out);
  expect_near(out, naive_matmul(a, b, false, false));

  gemm_nt(a, bt, out);
  expect_near(out, naive_matmul(a, bt, false, true));

  gemm_tn(at, b, out);
  expect_near(out, naive_matmul(at, b, true, false));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, GemmShapes,
    ::testing::Values(std::tuple{1, 1, 1}, std::tuple{2, 3, 4},
                      std::tuple{4, 4, 4}, std::tuple{7, 5, 3},
                      std::tuple{16, 8, 32}, std::tuple{33, 65, 17},
                      std::tuple{1, 64, 1}, std::tuple{128, 2, 128}));

TEST(Gemm, AccumulateAddsToExisting) {
  Tensor a = Tensor::from_values(1, 2, {1, 2});
  Tensor b = Tensor::from_values(2, 1, {3, 4});
  Tensor out(1, 1, 100.0f);
  gemm(a, b, out, 1.0f, /*accumulate=*/true);
  EXPECT_FLOAT_EQ(out(0, 0), 111.0f);
}

TEST(Gemm, AlphaScales) {
  Tensor a = Tensor::from_values(1, 1, {2});
  Tensor b = Tensor::from_values(1, 1, {3});
  Tensor out(1, 1);
  gemm(a, b, out, 0.5f);
  EXPECT_FLOAT_EQ(out(0, 0), 3.0f);
}

TEST(Gemm, RejectsShapeMismatch) {
  Tensor a(2, 3), b(4, 2), out(2, 2);
  EXPECT_THROW(gemm(a, b, out), std::invalid_argument);
  Tensor b2(3, 2), out_bad(3, 2);
  EXPECT_THROW(gemm(a, b2, out_bad), std::invalid_argument);
}

TEST(Axpy, AddsScaled) {
  Tensor x = Tensor::from_values(1, 3, {1, 2, 3});
  Tensor y = Tensor::from_values(1, 3, {10, 10, 10});
  axpy(2.0f, x, y);
  EXPECT_FLOAT_EQ(y(0, 0), 12.0f);
  EXPECT_FLOAT_EQ(y(0, 2), 16.0f);
}

TEST(Axpy, RejectsShapeMismatch) {
  Tensor x(1, 3), y(3, 1);
  EXPECT_THROW(axpy(1.0f, x, y), std::invalid_argument);
}

TEST(Csr, FromCooSortsAndMergesDuplicates) {
  std::vector<std::uint32_t> rows = {1, 0, 1, 1};
  std::vector<std::uint32_t> cols = {2, 1, 0, 2};
  std::vector<float> vals = {1.0f, 2.0f, 3.0f, 4.0f};
  CsrMatrix m = csr_from_coo(3, 3, rows, cols, vals);
  EXPECT_EQ(m.nnz(), 3u);  // (1,2) entries merged
  EXPECT_EQ(m.row_offsets[0], 0);
  EXPECT_EQ(m.row_offsets[1], 1);
  EXPECT_EQ(m.row_offsets[2], 3);
  EXPECT_EQ(m.row_offsets[3], 3);
  // Row 1 entries sorted by column: (1,0)=3, (1,2)=5.
  EXPECT_EQ(m.col_indices[1], 0u);
  EXPECT_FLOAT_EQ(m.values[1], 3.0f);
  EXPECT_EQ(m.col_indices[2], 2u);
  EXPECT_FLOAT_EQ(m.values[2], 5.0f);
}

TEST(Csr, FromCooRejectsOutOfRange) {
  std::vector<std::uint32_t> rows = {5};
  std::vector<std::uint32_t> cols = {0};
  std::vector<float> vals = {1.0f};
  EXPECT_THROW(csr_from_coo(3, 3, rows, cols, vals), std::invalid_argument);
}

TEST(Csr, TransposeRoundTrip) {
  util::Rng rng(99);
  std::vector<std::uint32_t> rows, cols;
  std::vector<float> vals;
  for (int i = 0; i < 50; ++i) {
    rows.push_back(static_cast<std::uint32_t>(rng.uniform_index(10)));
    cols.push_back(static_cast<std::uint32_t>(rng.uniform_index(7)));
    vals.push_back(rng.uniform_float());
  }
  CsrMatrix m = csr_from_coo(10, 7, rows, cols, vals);
  CsrMatrix tt = m.transposed().transposed();
  EXPECT_EQ(tt.n_rows, m.n_rows);
  EXPECT_EQ(tt.nnz(), m.nnz());
  EXPECT_EQ(tt.row_offsets, m.row_offsets);
  EXPECT_EQ(tt.col_indices, m.col_indices);
  for (std::size_t i = 0; i < m.nnz(); ++i) {
    EXPECT_FLOAT_EQ(tt.values[i], m.values[i]);
  }
}

TEST(Csr, SpmmMatchesDense) {
  util::Rng rng(7);
  std::vector<std::uint32_t> rows, cols;
  std::vector<float> vals;
  Tensor dense(6, 5);
  for (int i = 0; i < 12; ++i) {
    const auto r = static_cast<std::uint32_t>(rng.uniform_index(6));
    const auto c = static_cast<std::uint32_t>(rng.uniform_index(5));
    const float v = rng.uniform_float();
    rows.push_back(r);
    cols.push_back(c);
    vals.push_back(v);
    dense(r, c) += v;
  }
  CsrMatrix sparse = csr_from_coo(6, 5, rows, cols, vals);

  Tensor x(5, 4);
  uniform_init(x, rng, -1.0, 1.0);
  Tensor expected(6, 4);
  gemm(dense, x, expected);
  Tensor actual(6, 4);
  spmm(sparse, x, actual);
  expect_near(actual, expected);
}

TEST(Csr, ValidateCatchesBadOffsets) {
  CsrMatrix m;
  m.n_rows = 2;
  m.n_cols = 2;
  m.row_offsets = {0, 2};  // wrong size (needs n_rows + 1 = 3)
  m.col_indices = {0, 1};
  m.values = {1.0f, 1.0f};
  EXPECT_THROW(m.validate(), std::invalid_argument);
}

TEST(Csr, SpmmRejectsShapeMismatch) {
  CsrMatrix m = csr_from_coo(2, 2, std::vector<std::uint32_t>{0},
                             std::vector<std::uint32_t>{1},
                             std::vector<float>{1.0f});
  Tensor x(3, 2), out(2, 2);
  EXPECT_THROW(spmm(m, x, out), std::invalid_argument);
}

// Above their fan-out thresholds the kernels split rows across the
// pool; every row is still computed whole by one thread, so the result
// must be bit-identical to the pool-less call (shapes chosen so the last
// chunk is partial).
TEST(KernelPool, PooledKernelsBitIdenticalToSerial) {
  util::Rng rng(99);
  Tensor a(203, 40), b(40, 37), bt(37, 40), at(40, 203), x(203, 37);
  for (Tensor* t : {&a, &b, &bt, &at, &x}) uniform_init(*t, rng, -1.0, 1.0);
  Tensor big_x(1000, 70), big_y(1000, 70);
  uniform_init(big_x, rng, -1.0, 1.0);
  uniform_init(big_y, rng, -1.0, 1.0);
  std::vector<std::uint32_t> rows, cols;
  std::vector<float> vals;
  for (int i = 0; i < 4000; ++i) {
    rows.push_back(static_cast<std::uint32_t>(rng.uniform_index(203)));
    cols.push_back(static_cast<std::uint32_t>(rng.uniform_index(203)));
    vals.push_back(rng.uniform_float());
  }
  const CsrMatrix sparse = csr_from_coo(203, 203, rows, cols, vals);

  const auto run_all = [&](util::WorkerPool* pool) {
    std::vector<Tensor> out = {Tensor(203, 37), Tensor(203, 37),
                               Tensor(203, 37), Tensor(203, 37), big_y};
    gemm(a, b, out[0], 0.5f, false, pool);
    gemm_nt(a, bt, out[1], 1.0f, false, pool);
    gemm_tn(at, b, out[2], 1.0f, false, pool);
    spmm(sparse, x, out[3], false, pool);
    axpy(-0.25f, big_x, out[4], pool);
    return out;
  };
  const std::vector<Tensor> serial = run_all(nullptr);
  for (const std::size_t threads : {1u, 2u, 4u}) {
    util::WorkerPool pool(threads);
    const std::vector<Tensor> pooled = run_all(&pool);
    for (std::size_t op = 0; op < serial.size(); ++op) {
      ASSERT_EQ(std::memcmp(pooled[op].data(), serial[op].data(),
                            serial[op].size() * sizeof(float)),
                0)
          << "op " << op << " threads " << threads;
    }
  }
}

// ---- ISA dispatch for the tiled gemm_nt_into kernel ----

/// Restores the default auto-dispatch however the test exits.
struct IsaGuard {
  ~IsaGuard() { set_gemm_isa(GemmIsa::kAuto); }
};

/// The ISAs this host can actually run (kScalar always; wider paths
/// only when set_gemm_isa accepts them).
std::vector<GemmIsa> supported_isas() {
  std::vector<GemmIsa> isas = {GemmIsa::kScalar};
  for (GemmIsa isa : {GemmIsa::kSse2, GemmIsa::kAvx2}) {
    try {
      set_gemm_isa(isa);
      isas.push_back(isa);
    } catch (const std::invalid_argument&) {
    }
  }
  set_gemm_isa(GemmIsa::kAuto);
  return isas;
}

TEST(GemmIsa, SetAndQueryRoundTrip) {
  IsaGuard guard;
  set_gemm_isa(GemmIsa::kScalar);
  EXPECT_EQ(active_gemm_isa(), GemmIsa::kScalar);
  set_gemm_isa(GemmIsa::kAuto);
  EXPECT_NE(active_gemm_isa(), GemmIsa::kAuto);  // resolved, never kAuto
}

TEST(GemmIsa, UnsupportedRequestThrowsAndKeepsPriorMode) {
  IsaGuard guard;
  set_gemm_isa(GemmIsa::kScalar);
  const std::vector<GemmIsa> isas = supported_isas();
  set_gemm_isa(GemmIsa::kScalar);
  if (std::find(isas.begin(), isas.end(), GemmIsa::kAvx2) == isas.end()) {
    EXPECT_THROW(set_gemm_isa(GemmIsa::kAvx2), std::invalid_argument);
    EXPECT_EQ(active_gemm_isa(), GemmIsa::kScalar);
  }
}

// The determinism contract the trainer and BatchRanker rely on: every
// ISA path accumulates each output lane in plain kk order, so results
// are bit-identical across scalar / SSE2 / AVX2 -- including shapes
// whose column count is not a multiple of the vector tile.
TEST(GemmIsa, AllPathsBitIdentical) {
  IsaGuard guard;
  const std::vector<GemmIsa> isas = supported_isas();
  util::Rng rng(2024);
  for (const auto [m, k, n] :
       {std::tuple<std::size_t, std::size_t, std::size_t>{3, 7, 16},
        {5, 13, 33},
        {1, 64, 5},
        {4, 3, 100},
        {8, 17, 47}}) {
    std::vector<float> a(m * k);
    std::vector<float> b(n * k);
    for (float& v : a) v = 2.0f * rng.uniform_float() - 1.0f;
    for (float& v : b) v = 2.0f * rng.uniform_float() - 1.0f;

    set_gemm_isa(GemmIsa::kScalar);
    std::vector<float> reference(m * n);
    gemm_nt_into(a, m, k, b, n, reference);

    for (GemmIsa isa : isas) {
      set_gemm_isa(isa);
      std::vector<float> out(m * n, -7.0f);
      gemm_nt_into(a, m, k, b, n, out);
      for (std::size_t i = 0; i < out.size(); ++i) {
        ASSERT_EQ(out[i], reference[i])
            << "isa " << static_cast<int>(isa) << " shape (" << m << "," << k
            << "," << n << ") index " << i;
      }
    }
  }
}

// ---- Packed item panel (PackedRows + gemm_nt_packed) ----

/// acc += a[kk] * b[kk] over kk: the scalar loop every tile lane must
/// reproduce bit for bit.
std::vector<float> scalar_dots(const std::vector<float>& a, std::size_t m,
                               std::size_t k, const std::vector<float>& b,
                               std::size_t n) {
  std::vector<float> out(m * n);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      float acc = 0.0f;
      for (std::size_t kk = 0; kk < k; ++kk) {
        acc += a[i * k + kk] * b[j * k + kk];
      }
      out[i * n + j] = acc;
    }
  }
  return out;
}

/// Runs gemm_nt_into and gemm_nt_packed at `isa` and requires both to
/// match `reference` bytewise. Each output span sits between sentinel
/// guards so a padded-lane write past the last real row would show.
void expect_packed_matches(GemmIsa isa, const std::vector<float>& a,
                           std::size_t m, std::size_t k,
                           const std::vector<float>& b, std::size_t n,
                           const std::vector<float>& reference) {
  constexpr float kSentinel = -12345.0f;
  constexpr std::size_t kGuard = PackedRows::kTile;
  set_gemm_isa(isa);
  const PackedRows panel(b, n, k);
  ASSERT_EQ(panel.rows(), n);
  ASSERT_EQ(panel.cols(), k);
  for (const bool packed : {false, true}) {
    std::vector<float> buffer(kGuard + m * n + kGuard, kSentinel);
    const std::span<float> out(buffer.data() + kGuard, m * n);
    if (packed) {
      gemm_nt_packed(a, m, panel, out);
    } else {
      gemm_nt_into(a, m, k, b, n, out);
    }
    EXPECT_EQ(std::memcmp(out.data(), reference.data(),
                          reference.size() * sizeof(float)),
              0)
        << (packed ? "gemm_nt_packed" : "gemm_nt_into") << " isa "
        << static_cast<int>(isa) << " n " << n << " k " << k;
    for (std::size_t g = 0; g < kGuard; ++g) {
      ASSERT_EQ(buffer[g], kSentinel);
      ASSERT_EQ(buffer[kGuard + m * n + g], kSentinel);
    }
  }
}

TEST(PackedRows, BitIdenticalToGemmAndScalarAtEveryIsa) {
  IsaGuard guard;
  const std::vector<GemmIsa> isas = supported_isas();
  util::Rng rng(77);
  constexpr std::size_t kM = 3;
  for (const std::size_t n : {1, 15, 16, 17, 63, 64, 65, 563}) {
    for (const std::size_t k : {1, 16, 176}) {
      std::vector<float> a(kM * k);
      std::vector<float> b(n * k);
      for (float& v : a) v = 2.0f * rng.uniform_float() - 1.0f;
      for (float& v : b) v = 2.0f * rng.uniform_float() - 1.0f;
      const std::vector<float> reference = scalar_dots(a, kM, k, b, n);
      for (const GemmIsa isa : isas) {
        expect_packed_matches(isa, a, kM, k, b, n, reference);
      }
    }
  }
}

// Infinities in A turn the zero-padded lanes of the last tile into
// 0 * inf = NaN; none of that may reach `out`, and the real lanes must
// still match the scalar loop bit for bit. The only NaN fed in is the
// one x86 itself produces for inf - inf (sign bit set), so every NaN
// in the computation has the same bits whichever operand propagates.
TEST(PackedRows, NonFiniteInputsNeverLeakFromPaddedLanes) {
  IsaGuard guard;
  const std::vector<GemmIsa> isas = supported_isas();
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = -std::numeric_limits<float>::quiet_NaN();
  util::Rng rng(78);
  constexpr std::size_t kM = 4;
  for (const std::size_t n : {1, 15, 17, 65}) {
    for (const std::size_t k : {1, 16, 176}) {
      std::vector<float> a(kM * k);
      std::vector<float> b(n * k);
      for (float& v : a) v = 2.0f * rng.uniform_float() - 1.0f;
      for (float& v : b) v = 2.0f * rng.uniform_float() - 1.0f;
      a[0] = inf;                  // row 0: +inf against every B row
      a[k] = -inf;                 // row 1: -inf
      a[2 * k + k / 2] = nan;      // row 2: NaN
      b[(n - 1) * k] = inf;        // the last real row carries +inf
      if (n > 1) b[(n / 2) * k + k - 1] = nan;
      const std::vector<float> reference = scalar_dots(a, kM, k, b, n);
      for (const GemmIsa isa : isas) {
        expect_packed_matches(isa, a, kM, k, b, n, reference);
      }
    }
  }
}

TEST(PackedRows, EmptyAndMismatchedShapes) {
  const PackedRows empty({}, 0, 8);
  std::vector<float> a(2 * 8, 1.0f);
  std::vector<float> out;
  gemm_nt_packed(a, 2, empty, out);  // n == 0: nothing to write

  std::vector<float> rows(5 * 4, 1.0f);
  EXPECT_THROW(PackedRows(rows, 6, 4), std::invalid_argument);
  const PackedRows panel(rows, 5, 4);
  std::vector<float> scores(5);
  std::vector<float> short_a(3);
  EXPECT_THROW(gemm_nt_packed(short_a, 1, panel, scores),
               std::invalid_argument);
  std::vector<float> long_out(6);
  EXPECT_THROW(gemm_nt_packed(std::vector<float>(4), 1, panel, long_out),
               std::invalid_argument);
}

}  // namespace
}  // namespace ckat::nn
