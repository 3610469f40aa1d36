// Numeric kernels shared by forward and backward passes. gemm, gemm_nt,
// gemm_tn, axpy and spmm split their output rows across an optional
// util::WorkerPool when the work justifies it; each output element is
// computed whole by one thread, so the pool never changes a bit.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "nn/tensor.hpp"

namespace ckat::util {
class WorkerPool;
}  // namespace ckat::util

namespace ckat::nn {

/// out (+)= alpha * A @ B.  A: (m,k), B: (k,n), out: (m,n).
/// If accumulate is false, out is overwritten.
void gemm(const Tensor& a, const Tensor& b, Tensor& out, float alpha = 1.0f,
          bool accumulate = false, util::WorkerPool* pool = nullptr);

/// out (+)= alpha * A @ B^T.  A: (m,k), B: (n,k), out: (m,n).
void gemm_nt(const Tensor& a, const Tensor& b, Tensor& out,
             float alpha = 1.0f, bool accumulate = false,
             util::WorkerPool* pool = nullptr);

/// Instruction set used by the tiled gemm_nt_into kernel. kAuto picks
/// the widest path the host supports (detected once via cpuid). Every
/// path accumulates each output lane in plain kk order with separate
/// multiply and add (no FMA contraction), so switching ISA never
/// changes a single bit of the result -- the dispatch is pure
/// throughput. set_gemm_isa exists so tests and benches can pin or
/// cross-check paths; it throws std::invalid_argument if the host
/// cannot execute the requested ISA.
enum class GemmIsa { kAuto, kScalar, kSse2, kAvx2 };

void set_gemm_isa(GemmIsa isa);

/// The ISA gemm_nt_into will actually use (never kAuto).
[[nodiscard]] GemmIsa active_gemm_isa() noexcept;

/// out = A @ B^T written straight into a caller-owned row-major buffer:
/// out[i*n + j] = dot(A row i, B row j). The batched ranking engine
/// (eval/ranker.hpp) scores a block of users against the item-embedding
/// table with this: A is the gathered user block (m,k), B the item
/// table (n,k). Tiled over B rows so the item panel is streamed from
/// memory once per *block* instead of once per user; each output is an
/// independent dot product accumulated in index order, so results are
/// bit-identical to a per-user score_items loop. Deliberately serial:
/// callers parallelize across user blocks (see BatchRanker), which
/// already occupy every worker.
void gemm_nt_into(std::span<const float> a, std::size_t m, std::size_t k,
                  std::span<const float> b, std::size_t n,
                  std::span<float> out);

/// out (+)= alpha * A^T @ B.  A: (k,m), B: (k,n), out: (m,n).
void gemm_tn(const Tensor& a, const Tensor& b, Tensor& out,
             float alpha = 1.0f, bool accumulate = false,
             util::WorkerPool* pool = nullptr);

/// y += alpha * x (shapes must match).
void axpy(float alpha, const Tensor& x, Tensor& y,
          util::WorkerPool* pool = nullptr);

/// Compressed sparse row matrix with float coefficients. Used for the
/// attention-weighted propagation (A_att @ E) in CKAT and for uniform
/// neighborhood averaging in the no-attention ablation.
struct CsrMatrix {
  std::size_t n_rows = 0;
  std::size_t n_cols = 0;
  std::vector<std::int64_t> row_offsets;  // size n_rows + 1
  std::vector<std::uint32_t> col_indices;
  std::vector<float> values;

  [[nodiscard]] std::size_t nnz() const noexcept { return values.size(); }

  /// Builds the transpose (needed for the backward pass of spmm).
  [[nodiscard]] CsrMatrix transposed() const;

  /// Validates internal invariants; throws std::invalid_argument.
  void validate() const;
};

/// Builds a CSR matrix from unsorted COO triplets. Duplicate (row,col)
/// entries are summed.
CsrMatrix csr_from_coo(std::size_t n_rows, std::size_t n_cols,
                       std::span<const std::uint32_t> rows,
                       std::span<const std::uint32_t> cols,
                       std::span<const float> values);

/// out (+)= A @ X where A is sparse (n_rows, n_cols) and X is (n_cols, d).
void spmm(const CsrMatrix& a, const Tensor& x, Tensor& out,
          bool accumulate = false, util::WorkerPool* pool = nullptr);

}  // namespace ckat::nn
