#include "nn/kernels.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

// The AVX2 tile kernel is compiled per-function via
// __attribute__((target("avx2"))) and selected at runtime behind a
// cpuid check, so the translation unit itself needs no -mavx2 (and the
// binary still runs on SSE2-only hosts). Only GCC/Clang on x86-64
// support that combination.
#if defined(__x86_64__) && defined(__GNUC__) && defined(__SSE2__)
#define CKAT_GEMM_HAS_AVX2 1
#include <immintrin.h>
#else
#define CKAT_GEMM_HAS_AVX2 0
#endif

#include <atomic>

#include "util/parallel.hpp"

namespace ckat::nn {

namespace {
void check_gemm_shapes(std::size_t am, std::size_t ak, std::size_t bk,
                       std::size_t bn, const Tensor& out, const char* name) {
  if (ak != bk) {
    throw std::invalid_argument(std::string(name) + ": inner dim mismatch");
  }
  if (out.rows() != am || out.cols() != bn) {
    throw std::invalid_argument(std::string(name) + ": output shape mismatch");
  }
}

// Chunk widths for the pool fan-out. Constants, never derived from the
// pool size: every output row (element, for axpy) is computed whole by
// one thread, so the width sets only the scheduling grain.
constexpr std::size_t kGemmRowChunk = 16;
constexpr std::size_t kSpmmRowChunk = 64;
constexpr std::size_t kAxpyChunk = 16384;

// Runs fn over [0, n) in `chunk`-wide pieces on `pool`, or in one
// serial call when there is no pool or the work is not `worth` it.
void for_rows(util::WorkerPool* pool, bool worth, std::size_t n,
              std::size_t chunk,
              const std::function<void(std::size_t, std::size_t)>& fn) {
  if (pool != nullptr && worth) {
    pool->for_chunks(n, chunk, fn);
  } else {
    fn(0, n);
  }
}
}  // namespace

void gemm(const Tensor& a, const Tensor& b, Tensor& out, float alpha,
          bool accumulate, util::WorkerPool* pool) {
  const std::size_t m = a.rows(), k = a.cols(), n = b.cols();
  check_gemm_shapes(m, k, b.rows(), n, out, "gemm");
  if (!accumulate) out.zero();
  const float* pa = a.data();
  const float* pb = b.data();
  float* po = out.data();
  for_rows(pool, m * n * k > 16384, m, kGemmRowChunk,
           [&](std::size_t begin, std::size_t end) {
             for (std::size_t i = begin; i < end; ++i) {
               float* orow = po + i * n;
               const float* arow = pa + i * k;
               // i-k-j loop order streams B rows; the j-loop vectorizes.
               for (std::size_t kk = 0; kk < k; ++kk) {
                 const float aik = alpha * arow[kk];
                 if (aik == 0.0f) continue;
                 const float* brow = pb + kk * n;
                 for (std::size_t j = 0; j < n; ++j) orow[j] += aik * brow[j];
               }
             }
           });
}

void gemm_nt(const Tensor& a, const Tensor& b, Tensor& out, float alpha,
             bool accumulate, util::WorkerPool* pool) {
  const std::size_t m = a.rows(), k = a.cols(), n = b.rows();
  check_gemm_shapes(m, k, b.cols(), n, out, "gemm_nt");
  if (!accumulate) out.zero();
  const float* pa = a.data();
  const float* pb = b.data();
  float* po = out.data();
  for_rows(pool, m * n * k > 16384, m, kGemmRowChunk,
           [&](std::size_t begin, std::size_t end) {
             for (std::size_t i = begin; i < end; ++i) {
               const float* arow = pa + i * k;
               float* orow = po + i * n;
               for (std::size_t j = 0; j < n; ++j) {
                 const float* brow = pb + j * k;
                 float acc = 0.0f;
                 for (std::size_t kk = 0; kk < k; ++kk) {
                   acc += arow[kk] * brow[kk];
                 }
                 orow[j] += alpha * acc;
               }
             }
           });
}

namespace {

#if CKAT_GEMM_HAS_AVX2
// 16-lane tile step in two 256-bit accumulators. Lane r still sums item
// j0+r's products in plain kk order, and target("avx2") deliberately
// does NOT enable FMA, so vmulps+vaddps round exactly like the SSE2 and
// scalar paths -- the wider registers only buy throughput.
__attribute__((target("avx2"))) void gemm_tile16_avx2(const float* arow,
                                                      const float* ptile,
                                                      std::size_t k,
                                                      float* orow) {
  __m256 acc0 = _mm256_setzero_ps();
  __m256 acc1 = _mm256_setzero_ps();
  for (std::size_t kk = 0; kk < k; ++kk) {
    const __m256 av = _mm256_set1_ps(arow[kk]);
    const float* bp = ptile + kk * 16;
    acc0 = _mm256_add_ps(acc0, _mm256_mul_ps(av, _mm256_loadu_ps(bp)));
    acc1 = _mm256_add_ps(acc1, _mm256_mul_ps(av, _mm256_loadu_ps(bp + 8)));
  }
  _mm256_storeu_ps(orow, acc0);
  _mm256_storeu_ps(orow + 8, acc1);
}

bool host_has_avx2() {
  static const bool supported = __builtin_cpu_supports("avx2");
  return supported;
}
#else
bool host_has_avx2() { return false; }
#endif

GemmIsa best_supported_isa() {
#if defined(__SSE2__)
  return host_has_avx2() ? GemmIsa::kAvx2 : GemmIsa::kSse2;
#else
  return GemmIsa::kScalar;
#endif
}

std::atomic<GemmIsa> g_gemm_isa{GemmIsa::kAuto};

}  // namespace

void set_gemm_isa(GemmIsa isa) {
  if (isa == GemmIsa::kAvx2 && !host_has_avx2()) {
    throw std::invalid_argument("set_gemm_isa: host does not support AVX2");
  }
#if !defined(__SSE2__)
  if (isa == GemmIsa::kSse2) {
    throw std::invalid_argument("set_gemm_isa: build has no SSE2 path");
  }
#endif
  // NOLINTNEXTLINE(ckat-relaxed-atomic): isolated mode flag; publishes no other state
  g_gemm_isa.store(isa, std::memory_order_relaxed);
}

GemmIsa active_gemm_isa() noexcept {
  // NOLINTNEXTLINE(ckat-relaxed-atomic): isolated mode flag; gates no other memory
  const GemmIsa forced = g_gemm_isa.load(std::memory_order_relaxed);
  return forced == GemmIsa::kAuto ? best_supported_isa() : forced;
}

void gemm_nt_into(std::span<const float> a, std::size_t m, std::size_t k,
                  std::span<const float> b, std::size_t n,
                  std::span<float> out) {
  if (a.size() != m * k || b.size() != n * k) {
    throw std::invalid_argument("gemm_nt_into: input size mismatch");
  }
  if (out.size() != m * n) {
    throw std::invalid_argument("gemm_nt_into: output size mismatch");
  }
  if (m == 0 || n == 0) return;
  const float* pa = a.data();
  const float* pb = b.data();
  float* po = out.data();
  if (k == 0) {
    std::fill(out.begin(), out.end(), 0.0f);
    return;
  }
  // kNr B rows per tile, re-packed k-major (ptile[kk * kNr + r] = row
  // j0+r, coord kk) once per tile and reused across all m A rows.
  //
  // Why this shape: a single dot product is a sequential dependency
  // chain the bit-identity contract forbids reassociating, so per-dot
  // throughput is capped by FP-add latency and no amount of -O3 helps.
  // The kNr lanes here are *independent* chains — lane r sums item
  // j0+r's products in plain kk order, exactly like the scalar loop —
  // so each step is broadcast(a[kk]) * contiguous lane load, and the
  // four accumulator vectors overlap the FP-add latency of each other.
  //
  // The hot loop is written with SSE2 intrinsics rather than left to
  // the auto-vectorizer: GCC 12 SLP-vectorizes the equivalent scalar
  // lane loop *across kk* and emits a shuffle-bound in-register
  // transpose that runs slower than the plain per-user loop. SSE2 is
  // part of the x86-64 baseline ABI, so the guard only ever falls back
  // on non-x86 targets. Bit-identity holds in both paths: packed
  // mulps/addps round each lane exactly like scalar mulss/addss, and
  // neither path can contract to FMA (the baseline ISA has no FMA
  // instruction, and the fallback writes `a * b` then `+=` as separate
  // expressions).
  constexpr std::size_t kNr = 16;
  const GemmIsa isa = active_gemm_isa();
  std::vector<float> ptile(kNr * k);
  for (std::size_t j0 = 0; j0 + kNr <= n; j0 += kNr) {
    for (std::size_t r = 0; r < kNr; ++r) {
      const float* brow = pb + (j0 + r) * k;
      for (std::size_t kk = 0; kk < k; ++kk) {
        ptile[kk * kNr + r] = brow[kk];
      }
    }
    for (std::size_t i = 0; i < m; ++i) {
      const float* arow = pa + i * k;
      float* orow = po + i * n + j0;
#if CKAT_GEMM_HAS_AVX2
      if (isa == GemmIsa::kAvx2) {
        gemm_tile16_avx2(arow, ptile.data(), k, orow);
        continue;
      }
#endif
#if defined(__SSE2__)
      if (isa != GemmIsa::kScalar) {
        __m128 acc0 = _mm_setzero_ps();
        __m128 acc1 = _mm_setzero_ps();
        __m128 acc2 = _mm_setzero_ps();
        __m128 acc3 = _mm_setzero_ps();
        for (std::size_t kk = 0; kk < k; ++kk) {
          const __m128 av = _mm_set1_ps(arow[kk]);
          const float* bp = ptile.data() + kk * kNr;
          acc0 = _mm_add_ps(acc0, _mm_mul_ps(av, _mm_loadu_ps(bp)));
          acc1 = _mm_add_ps(acc1, _mm_mul_ps(av, _mm_loadu_ps(bp + 4)));
          acc2 = _mm_add_ps(acc2, _mm_mul_ps(av, _mm_loadu_ps(bp + 8)));
          acc3 = _mm_add_ps(acc3, _mm_mul_ps(av, _mm_loadu_ps(bp + 12)));
        }
        _mm_storeu_ps(orow, acc0);
        _mm_storeu_ps(orow + 4, acc1);
        _mm_storeu_ps(orow + 8, acc2);
        _mm_storeu_ps(orow + 12, acc3);
        continue;
      }
#endif
      float acc[kNr] = {};
      for (std::size_t kk = 0; kk < k; ++kk) {
        const float av = arow[kk];
        const float* bp = ptile.data() + kk * kNr;
        for (std::size_t r = 0; r < kNr; ++r) acc[r] += av * bp[r];
      }
      for (std::size_t r = 0; r < kNr; ++r) orow[r] = acc[r];
    }
  }
  // Remainder rows (n % kNr): plain scalar dots, same element order.
  for (std::size_t j = n - n % kNr; j < n; ++j) {
    const float* brow = pb + j * k;
    for (std::size_t i = 0; i < m; ++i) {
      const float* arow = pa + i * k;
      float acc = 0.0f;
      for (std::size_t kk = 0; kk < k; ++kk) acc += arow[kk] * brow[kk];
      po[i * n + j] = acc;
    }
  }
}

void gemm_tn(const Tensor& a, const Tensor& b, Tensor& out, float alpha,
             bool accumulate, util::WorkerPool* pool) {
  const std::size_t k = a.rows(), m = a.cols(), n = b.cols();
  check_gemm_shapes(m, k, b.rows(), n, out, "gemm_tn");
  if (!accumulate) out.zero();
  const float* pa = a.data();
  const float* pb = b.data();
  float* po = out.data();
  // Serial over k with rank-1 updates; rows of out are touched by every
  // k-step, so parallelism here goes over output rows via chunking m.
  for_rows(pool, m * n * k > 16384, m, kGemmRowChunk,
           [&](std::size_t begin, std::size_t end) {
             for (std::size_t i = begin; i < end; ++i) {
               float* orow = po + i * n;
               for (std::size_t kk = 0; kk < k; ++kk) {
                 const float aki = alpha * pa[kk * m + i];
                 if (aki == 0.0f) continue;
                 const float* brow = pb + kk * n;
                 for (std::size_t j = 0; j < n; ++j) orow[j] += aki * brow[j];
               }
             }
           });
}

void axpy(float alpha, const Tensor& x, Tensor& y, util::WorkerPool* pool) {
  if (!x.same_shape(y)) throw std::invalid_argument("axpy: shape mismatch");
  const float* px = x.data();
  float* py = y.data();
  const std::size_t n = x.size();
  for_rows(pool, n > 65536, n, kAxpyChunk,
           [px, py, alpha](std::size_t begin, std::size_t end) {
             const float a = alpha;  // a local the stores cannot alias
             for (std::size_t i = begin; i < end; ++i) py[i] += a * px[i];
           });
}

CsrMatrix CsrMatrix::transposed() const {
  CsrMatrix t;
  t.n_rows = n_cols;
  t.n_cols = n_rows;
  t.row_offsets.assign(n_cols + 1, 0);
  t.col_indices.resize(nnz());
  t.values.resize(nnz());
  for (std::uint32_t c : col_indices) t.row_offsets[c + 1]++;
  std::partial_sum(t.row_offsets.begin(), t.row_offsets.end(),
                   t.row_offsets.begin());
  std::vector<std::int64_t> cursor(t.row_offsets.begin(),
                                   t.row_offsets.end() - 1);
  for (std::size_t r = 0; r < n_rows; ++r) {
    for (std::int64_t k = row_offsets[r]; k < row_offsets[r + 1]; ++k) {
      const std::uint32_t c = col_indices[k];
      const std::int64_t pos = cursor[c]++;
      t.col_indices[pos] = static_cast<std::uint32_t>(r);
      t.values[pos] = values[k];
    }
  }
  return t;
}

void CsrMatrix::validate() const {
  if (row_offsets.size() != n_rows + 1) {
    throw std::invalid_argument("CsrMatrix: row_offsets size mismatch");
  }
  if (row_offsets.front() != 0 ||
      row_offsets.back() != static_cast<std::int64_t>(nnz())) {
    throw std::invalid_argument("CsrMatrix: row_offsets endpoints invalid");
  }
  if (col_indices.size() != values.size()) {
    throw std::invalid_argument("CsrMatrix: col/value size mismatch");
  }
  for (std::size_t r = 0; r < n_rows; ++r) {
    if (row_offsets[r] > row_offsets[r + 1]) {
      throw std::invalid_argument("CsrMatrix: row_offsets not monotone");
    }
  }
  for (std::uint32_t c : col_indices) {
    if (c >= n_cols) throw std::invalid_argument("CsrMatrix: col out of range");
  }
}

CsrMatrix csr_from_coo(std::size_t n_rows, std::size_t n_cols,
                       std::span<const std::uint32_t> rows,
                       std::span<const std::uint32_t> cols,
                       std::span<const float> values) {
  if (rows.size() != cols.size() || rows.size() != values.size()) {
    throw std::invalid_argument("csr_from_coo: triplet arrays differ in size");
  }
  const std::size_t nnz = rows.size();
  std::vector<std::size_t> order(nnz);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t x, std::size_t y) {
    if (rows[x] != rows[y]) return rows[x] < rows[y];
    return cols[x] < cols[y];
  });

  CsrMatrix m;
  m.n_rows = n_rows;
  m.n_cols = n_cols;
  m.col_indices.reserve(nnz);
  m.values.reserve(nnz);
  std::vector<std::uint32_t> kept_rows;
  kept_rows.reserve(nnz);
  for (std::size_t idx : order) {
    if (rows[idx] >= n_rows || cols[idx] >= n_cols) {
      throw std::invalid_argument("csr_from_coo: index out of range");
    }
    if (!kept_rows.empty() && kept_rows.back() == rows[idx] &&
        m.col_indices.back() == cols[idx]) {
      m.values.back() += values[idx];  // merge duplicate (row, col)
      continue;
    }
    kept_rows.push_back(rows[idx]);
    m.col_indices.push_back(cols[idx]);
    m.values.push_back(values[idx]);
  }
  m.row_offsets.assign(n_rows + 1, 0);
  for (std::uint32_t r : kept_rows) m.row_offsets[r + 1]++;
  std::partial_sum(m.row_offsets.begin(), m.row_offsets.end(),
                   m.row_offsets.begin());
  m.validate();
  return m;
}

void spmm(const CsrMatrix& a, const Tensor& x, Tensor& out, bool accumulate,
          util::WorkerPool* pool) {
  if (x.rows() != a.n_cols) {
    throw std::invalid_argument("spmm: X rows must equal A cols");
  }
  if (out.rows() != a.n_rows || out.cols() != x.cols()) {
    throw std::invalid_argument("spmm: output shape mismatch");
  }
  if (!accumulate) out.zero();
  const std::size_t d = x.cols();
  const float* px = x.data();
  float* po = out.data();
  for_rows(pool, a.nnz() * d > 65536, a.n_rows, kSpmmRowChunk,
           [&](std::size_t begin, std::size_t end) {
             for (std::size_t r = begin; r < end; ++r) {
               float* orow = po + r * d;
               for (std::int64_t k = a.row_offsets[r];
                    k < a.row_offsets[r + 1]; ++k) {
                 const float v = a.values[k];
                 const float* xrow =
                     px + static_cast<std::size_t>(a.col_indices[k]) * d;
                 for (std::size_t j = 0; j < d; ++j) orow[j] += v * xrow[j];
               }
             }
           });
}

}  // namespace ckat::nn
