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

// The 16-lane tile micro-kernel, one body per ISA:
//   out16[r] = sum over kk of arow[kk] * ptile[kk * 16 + r]
// over one k-major tile. Lane r sums its products in plain kk order,
// exactly like the scalar dot loop, and no path contracts to FMA, so
// every ISA rounds each lane identically (see gemm_nt_into in the
// header for why the lanes run across rows rather than along k).
using TileKernel = void (*)(const float* arow, const float* ptile,
                            std::size_t k, float* out16);

constexpr std::size_t kNr = PackedRows::kTile;

void tile16_scalar(const float* arow, const float* ptile, std::size_t k,
                   float* out16) {
  float acc[kNr] = {};
  for (std::size_t kk = 0; kk < k; ++kk) {
    const float av = arow[kk];
    const float* bp = ptile + kk * kNr;
    for (std::size_t r = 0; r < kNr; ++r) acc[r] += av * bp[r];
  }
  for (std::size_t r = 0; r < kNr; ++r) out16[r] = acc[r];
}

#if defined(__SSE2__)
// Written with intrinsics rather than left to the auto-vectorizer:
// GCC 12 SLP-vectorizes the scalar lane loop *across kk* and emits a
// shuffle-bound in-register transpose that runs slower than a plain
// per-row dot loop. SSE2 is part of the x86-64 baseline ABI, which has
// no FMA instruction, so mulps+addps here cannot be contracted.
void tile16_sse2(const float* arow, const float* ptile, std::size_t k,
                 float* out16) {
  __m128 acc0 = _mm_setzero_ps();
  __m128 acc1 = _mm_setzero_ps();
  __m128 acc2 = _mm_setzero_ps();
  __m128 acc3 = _mm_setzero_ps();
  for (std::size_t kk = 0; kk < k; ++kk) {
    const __m128 av = _mm_set1_ps(arow[kk]);
    const float* bp = ptile + kk * kNr;
    acc0 = _mm_add_ps(acc0, _mm_mul_ps(av, _mm_loadu_ps(bp)));
    acc1 = _mm_add_ps(acc1, _mm_mul_ps(av, _mm_loadu_ps(bp + 4)));
    acc2 = _mm_add_ps(acc2, _mm_mul_ps(av, _mm_loadu_ps(bp + 8)));
    acc3 = _mm_add_ps(acc3, _mm_mul_ps(av, _mm_loadu_ps(bp + 12)));
  }
  _mm_storeu_ps(out16, acc0);
  _mm_storeu_ps(out16 + 4, acc1);
  _mm_storeu_ps(out16 + 8, acc2);
  _mm_storeu_ps(out16 + 12, acc3);
}
#endif

#if CKAT_GEMM_HAS_AVX2
// Two 256-bit accumulators; target("avx2") deliberately does NOT enable
// FMA, so vmulps+vaddps round exactly like the SSE2 and scalar paths --
// the wider registers only buy throughput.
__attribute__((target("avx2"))) void tile16_avx2(const float* arow,
                                                 const float* ptile,
                                                 std::size_t k,
                                                 float* out16) {
  __m256 acc0 = _mm256_setzero_ps();
  __m256 acc1 = _mm256_setzero_ps();
  for (std::size_t kk = 0; kk < k; ++kk) {
    const __m256 av = _mm256_set1_ps(arow[kk]);
    const float* bp = ptile + kk * kNr;
    acc0 = _mm256_add_ps(acc0, _mm256_mul_ps(av, _mm256_loadu_ps(bp)));
    acc1 = _mm256_add_ps(acc1, _mm256_mul_ps(av, _mm256_loadu_ps(bp + 8)));
  }
  _mm256_storeu_ps(out16, acc0);
  _mm256_storeu_ps(out16 + 8, acc1);
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

TileKernel tile_kernel(GemmIsa isa) {
#if CKAT_GEMM_HAS_AVX2
  if (isa == GemmIsa::kAvx2) return tile16_avx2;
#endif
#if defined(__SSE2__)
  if (isa != GemmIsa::kScalar) return tile16_sse2;
#endif
  return tile16_scalar;
}

// Copies `width` (<= kNr) rows of length k into one k-major tile,
// zero-filling lanes [width, kNr).
void pack_tile(const float* rows, std::size_t width, std::size_t k,
               float* ptile) {
  if (width < kNr) std::fill_n(ptile, kNr * k, 0.0f);
  for (std::size_t r = 0; r < width; ++r) {
    const float* row = rows + r * k;
    for (std::size_t kk = 0; kk < k; ++kk) ptile[kk * kNr + r] = row[kk];
  }
}

// Scores m A rows against one tile holding `width` real rows, writing
// out[i * ldo + r] for r < width. A partial tile is computed into a
// stack buffer and only its real lanes are copied out, so padded lanes
// (0 * inf = NaN is possible there) never reach `out`.
void score_tile(TileKernel kernel, const float* a, std::size_t m,
                std::size_t k, const float* ptile, std::size_t width,
                float* out, std::size_t ldo) {
  for (std::size_t i = 0; i < m; ++i) {
    const float* arow = a + i * k;
    float* orow = out + i * ldo;
    if (width == kNr) {
      kernel(arow, ptile, k, orow);
    } else {
      float tail[kNr];
      kernel(arow, ptile, k, tail);
      std::copy_n(tail, width, orow);
    }
  }
}

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
  // One tile of B rows packed at a time and reused across all m A rows.
  const TileKernel kernel = tile_kernel(active_gemm_isa());
  std::vector<float> ptile(kNr * k);
  for (std::size_t j0 = 0; j0 < n; j0 += kNr) {
    const std::size_t width = std::min(kNr, n - j0);
    pack_tile(b.data() + j0 * k, width, k, ptile.data());
    score_tile(kernel, a.data(), m, k, ptile.data(), width, out.data() + j0,
               n);
  }
}

PackedRows::PackedRows(std::span<const float> rows, std::size_t n,
                       std::size_t k)
    : data_(((n + kTile - 1) / kTile) * kTile * k), n_(n), k_(k) {
  if (rows.size() != n * k) {
    throw std::invalid_argument("PackedRows: input size mismatch");
  }
  for (std::size_t j0 = 0; j0 < n; j0 += kTile) {
    pack_tile(rows.data() + j0 * k, std::min(kTile, n - j0), k,
              data_.data() + j0 * k);
  }
}

void gemm_nt_packed(std::span<const float> a, std::size_t m,
                    const PackedRows& b, std::span<float> out) {
  const std::size_t k = b.cols(), n = b.rows();
  if (a.size() != m * k) {
    throw std::invalid_argument("gemm_nt_packed: input size mismatch");
  }
  if (out.size() != m * n) {
    throw std::invalid_argument("gemm_nt_packed: output size mismatch");
  }
  const TileKernel kernel = tile_kernel(active_gemm_isa());
  for (std::size_t j0 = 0; j0 < n; j0 += kNr) {
    score_tile(kernel, a.data(), m, k, b.data() + j0 * k,
               std::min(kNr, n - j0), out.data() + j0, n);
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
