// Knowledge-aware attention (Sec. V.B, Eq. 4-5).
//
// For every CKG edge (h, r, t) the attention score is
//   fa(h,r,t) = (W_r e_t)^T tanh(W_r e_h + e_r),
// normalized by softmax over each head's edge set. The resulting
// coefficients form a sparse propagation matrix A (rows = heads,
// cols = tails) that the CKAT layers multiply by the entity matrix
// (Eq. 3). Following the KGAT training schedule, the matrix is
// recomputed from the TransR parameters between epochs and held fixed
// during CF backpropagation.
#pragma once

#include "core/transr.hpp"
#include "graph/adjacency.hpp"
#include "nn/kernels.hpp"

namespace ckat::core {

/// Propagation matrix plus its transpose (needed by the backward pass).
struct PropagationMatrix {
  nn::CsrMatrix forward;
  nn::CsrMatrix backward;
};

/// Computes attention-weighted propagation coefficients from the current
/// TransR parameters (Eq. 4-5). `pool` (optional) runs the projection
/// GEMMs.
PropagationMatrix build_attention_matrix(const graph::Adjacency& adjacency,
                                         const TransR& transr,
                                         util::WorkerPool* pool = nullptr);

/// Uniform coefficients 1/|N_h| -- the "w/o Att" ablation of Table IV.
PropagationMatrix build_uniform_matrix(const graph::Adjacency& adjacency);

/// Raw (pre-softmax) attention scores per edge, in adjacency edge order.
/// Exposed for tests and diagnostics.
std::vector<float> raw_attention_scores(const graph::Adjacency& adjacency,
                                        const TransR& transr,
                                        util::WorkerPool* pool = nullptr);

}  // namespace ckat::core
