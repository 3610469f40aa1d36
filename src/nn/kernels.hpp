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

/// Instruction set of the 16-lane tile micro-kernel behind gemm_nt_into
/// and gemm_nt_packed. kAuto picks the widest path the host supports
/// (detected once via cpuid). Every path accumulates each output lane
/// in plain kk order with separate multiply and add (no FMA
/// contraction), so switching ISA never changes a single bit of the
/// result -- the dispatch is pure throughput. set_gemm_isa exists so
/// tests and benches can pin or cross-check paths; it throws
/// std::invalid_argument if the host cannot execute the requested ISA.
enum class GemmIsa { kAuto, kScalar, kSse2, kAvx2 };

void set_gemm_isa(GemmIsa isa);

/// The ISA the tile micro-kernel will actually use (never kAuto).
[[nodiscard]] GemmIsa active_gemm_isa() noexcept;

/// out = A @ B^T written straight into a caller-owned row-major buffer:
/// out[i*n + j] = dot(A row i, B row j). A is (m,k), B is (n,k).
///
/// B is packed one tile of 16 rows at a time, k-major
/// (tile[kk * 16 + r] = row j0+r, coord kk), and each tile is reused
/// across all m A rows, so B is streamed from memory once per call
/// instead of once per A row. A single dot product is a sequential
/// dependency chain the bit-identity contract forbids reassociating;
/// the 16 lanes of a tile are *independent* chains -- lane r sums row
/// j0+r's products in plain kk order, exactly like a scalar dot loop --
/// so every output is bit-identical to `acc += a[kk] * b[kk]` over kk.
/// Deliberately serial: callers parallelize across user blocks (see
/// BatchRanker), which already occupy every worker.
void gemm_nt_into(std::span<const float> a, std::size_t m, std::size_t k,
                  std::span<const float> b, std::size_t n,
                  std::span<float> out);

/// B rows (n,k) packed once into the tile layout gemm_nt_into builds per
/// call: ceil(n/16) tiles of 16 rows, each stored k-major, the last one
/// zero-padded. Costs ceil(n/16) * 16 * k floats. A fitted model packs
/// its item table once and scores every request against it
/// (CkatModel::score_items / score_batch) with no per-call packing.
class PackedRows {
 public:
  static constexpr std::size_t kTile = 16;

  PackedRows() = default;
  /// Packs `rows`, row-major (n,k); throws std::invalid_argument when
  /// rows.size() != n * k.
  PackedRows(std::span<const float> rows, std::size_t n, std::size_t k);

  [[nodiscard]] std::size_t rows() const noexcept { return n_; }
  [[nodiscard]] std::size_t cols() const noexcept { return k_; }
  [[nodiscard]] const float* data() const noexcept { return data_.data(); }

 private:
  std::vector<float> data_;
  std::size_t n_ = 0;
  std::size_t k_ = 0;
};

/// out = A @ B^T against a packed B: out[i*n + j] = dot(A row i, B row
/// j), bit-identical to gemm_nt_into on the unpacked rows (the same
/// micro-kernel runs over the same tiles). Serial and allocation-free:
/// the padded last tile is computed into a stack buffer and only its
/// real lanes are copied to `out`. m == 1 is the single-user path.
void gemm_nt_packed(std::span<const float> a, std::size_t m,
                    const PackedRows& b, std::span<float> out);

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
