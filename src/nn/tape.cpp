#include "nn/tape.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace ckat::nn {

namespace {
void check_same_shape(const Tensor& a, const Tensor& b, const char* op) {
  if (!a.same_shape(b)) {
    throw std::invalid_argument(std::string(op) + ": shape mismatch " +
                                a.shape_str() + " vs " + b.shape_str());
  }
}
}  // namespace

Var Tape::push(Tensor value, bool requires_grad,
               std::function<void(Tape&)> backward_fn) {
  Node n;
  n.value = std::move(value);
  n.requires_grad = requires_grad;
  n.backward_fn = std::move(backward_fn);
  nodes_.push_back(std::move(n));
  return Var{static_cast<std::uint32_t>(nodes_.size() - 1)};
}

Tape::Node& Tape::node(Var v) {
  if (!v.valid() || v.idx >= nodes_.size()) {
    throw std::out_of_range("Tape: invalid Var");
  }
  return nodes_[v.idx];
}

const Tape::Node& Tape::node(Var v) const {
  if (!v.valid() || v.idx >= nodes_.size()) {
    throw std::out_of_range("Tape: invalid Var");
  }
  return nodes_[v.idx];
}

Tensor& Tape::ensure_grad(Var v) {
  Node& n = node(v);
  if (!n.grad_ready) {
    n.grad.resize_zeroed(n.value.rows(), n.value.cols());
    n.grad_ready = true;
  }
  return n.grad;
}

const Tensor& Tape::value(Var v) const { return node(v).value; }

const Tensor& Tape::grad(Var v) const {
  const Node& n = node(v);
  if (!n.grad_ready) throw std::logic_error("Tape::grad: no gradient present");
  return n.grad;
}

bool Tape::requires_grad(Var v) const { return node(v).requires_grad; }

void Tape::clear() { nodes_.clear(); }

// ---------------------------------------------------------------- leaves

Var Tape::constant(Tensor value) { return push(std::move(value), false, {}); }

Var Tape::input(Tensor value) {
  // A leaf with no backward closure: the accumulated gradient simply
  // stays on the node for the caller to read.
  return push(std::move(value), true, {});
}

Var Tape::param(Parameter& p) {
  Tensor copy = p.value();
  Parameter* pp = &p;
  Var out{static_cast<std::uint32_t>(nodes_.size())};
  return push(std::move(copy), true, [out, pp](Tape& t) {
    axpy(1.0f, t.node(out).grad, pp->grad(), t.pool_);
    pp->mark_dense();
  });
}

Var Tape::gather_param(Parameter& table, std::vector<std::uint32_t> rows) {
  const std::size_t d = table.cols();
  Tensor out_value(rows.size(), d);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (rows[i] >= table.rows()) {
      throw std::out_of_range("gather_param: row index out of range");
    }
    auto src = table.value().row(rows[i]);
    std::copy(src.begin(), src.end(), out_value.row(i).begin());
  }
  Parameter* pp = &table;
  Var out{static_cast<std::uint32_t>(nodes_.size())};
  return push(std::move(out_value), true,
              [out, pp, idx = std::move(rows)](Tape& t) {
                const Tensor& g = t.node(out).grad;
                for (std::size_t i = 0; i < idx.size(); ++i) {
                  auto dst = pp->grad().row(idx[i]);
                  auto src = g.row(i);
                  for (std::size_t c = 0; c < dst.size(); ++c) {
                    dst[c] += src[c];
                  }
                  pp->mark_row(idx[i]);
                }
              });
}

// ---------------------------------------------------------- linear algebra

Var Tape::matmul(Var a, Var b) {
  const Tensor& av = node(a).value;
  const Tensor& bv = node(b).value;
  Tensor out_value(av.rows(), bv.cols());
  gemm(av, bv, out_value, 1.0f, false, pool_);
  const bool rg = node(a).requires_grad || node(b).requires_grad;
  Var out{static_cast<std::uint32_t>(nodes_.size())};
  return push(std::move(out_value), rg, [out, a, b](Tape& t) {
    const Tensor& g = t.node(out).grad;
    if (t.node(a).requires_grad) {
      gemm_nt(g, t.node(b).value, t.ensure_grad(a), 1.0f, true, t.pool_);
    }
    if (t.node(b).requires_grad) {
      gemm_tn(t.node(a).value, g, t.ensure_grad(b), 1.0f, true, t.pool_);
    }
  });
}

Var Tape::matmul_nt(Var a, Var b) {
  const Tensor& av = node(a).value;
  const Tensor& bv = node(b).value;
  Tensor out_value(av.rows(), bv.rows());
  gemm_nt(av, bv, out_value, 1.0f, false, pool_);
  const bool rg = node(a).requires_grad || node(b).requires_grad;
  Var out{static_cast<std::uint32_t>(nodes_.size())};
  return push(std::move(out_value), rg, [out, a, b](Tape& t) {
    const Tensor& g = t.node(out).grad;  // (m,n); a:(m,k) b:(n,k)
    if (t.node(a).requires_grad) {
      gemm(g, t.node(b).value, t.ensure_grad(a), 1.0f, true, t.pool_);
    }
    if (t.node(b).requires_grad) {
      gemm_tn(g, t.node(a).value, t.ensure_grad(b), 1.0f, true, t.pool_);
    }
  });
}

Var Tape::spmm_fixed(const CsrMatrix& a, const CsrMatrix& a_transposed,
                     Var x) {
  const Tensor& xv = node(x).value;
  Tensor out_value(a.n_rows, xv.cols());
  spmm(a, xv, out_value, false, pool_);
  const bool rg = node(x).requires_grad;
  const CsrMatrix* at = &a_transposed;
  Var out{static_cast<std::uint32_t>(nodes_.size())};
  return push(std::move(out_value), rg, [out, x, at](Tape& t) {
    if (t.node(x).requires_grad) {
      spmm(*at, t.node(out).grad, t.ensure_grad(x), /*accumulate=*/true,
           t.pool_);
    }
  });
}

// -------------------------------------------------------------- elementwise

Var Tape::add(Var a, Var b) {
  const Tensor& av = node(a).value;
  const Tensor& bv = node(b).value;
  check_same_shape(av, bv, "add");
  Tensor out_value = av;
  axpy(1.0f, bv, out_value, pool_);
  const bool rg = node(a).requires_grad || node(b).requires_grad;
  Var out{static_cast<std::uint32_t>(nodes_.size())};
  return push(std::move(out_value), rg, [out, a, b](Tape& t) {
    const Tensor& g = t.node(out).grad;
    if (t.node(a).requires_grad) axpy(1.0f, g, t.ensure_grad(a), t.pool_);
    if (t.node(b).requires_grad) axpy(1.0f, g, t.ensure_grad(b), t.pool_);
  });
}

Var Tape::sub(Var a, Var b) {
  const Tensor& av = node(a).value;
  const Tensor& bv = node(b).value;
  check_same_shape(av, bv, "sub");
  Tensor out_value = av;
  axpy(-1.0f, bv, out_value, pool_);
  const bool rg = node(a).requires_grad || node(b).requires_grad;
  Var out{static_cast<std::uint32_t>(nodes_.size())};
  return push(std::move(out_value), rg, [out, a, b](Tape& t) {
    const Tensor& g = t.node(out).grad;
    if (t.node(a).requires_grad) axpy(1.0f, g, t.ensure_grad(a), t.pool_);
    if (t.node(b).requires_grad) axpy(-1.0f, g, t.ensure_grad(b), t.pool_);
  });
}

Var Tape::mul(Var a, Var b) {
  const Tensor& av = node(a).value;
  const Tensor& bv = node(b).value;
  check_same_shape(av, bv, "mul");
  Tensor out_value = av;
  for (std::size_t i = 0; i < out_value.size(); ++i) {
    out_value.data()[i] *= bv.data()[i];
  }
  const bool rg = node(a).requires_grad || node(b).requires_grad;
  Var out{static_cast<std::uint32_t>(nodes_.size())};
  return push(std::move(out_value), rg, [out, a, b](Tape& t) {
    const Tensor& g = t.node(out).grad;
    if (t.node(a).requires_grad) {
      Tensor& ga = t.ensure_grad(a);
      const Tensor& bv2 = t.node(b).value;
      for (std::size_t i = 0; i < g.size(); ++i) {
        ga.data()[i] += g.data()[i] * bv2.data()[i];
      }
    }
    if (t.node(b).requires_grad) {
      Tensor& gb = t.ensure_grad(b);
      const Tensor& av2 = t.node(a).value;
      for (std::size_t i = 0; i < g.size(); ++i) {
        gb.data()[i] += g.data()[i] * av2.data()[i];
      }
    }
  });
}

Var Tape::scale(Var a, float s) {
  Tensor out_value = node(a).value;
  for (float& v : out_value.flat()) v *= s;
  const bool rg = node(a).requires_grad;
  Var out{static_cast<std::uint32_t>(nodes_.size())};
  return push(std::move(out_value), rg, [out, a, s](Tape& t) {
    if (t.node(a).requires_grad) {
      axpy(s, t.node(out).grad, t.ensure_grad(a), t.pool_);
    }
  });
}

Var Tape::add_scalar(Var a, float s) {
  Tensor out_value = node(a).value;
  for (float& v : out_value.flat()) v += s;
  const bool rg = node(a).requires_grad;
  Var out{static_cast<std::uint32_t>(nodes_.size())};
  return push(std::move(out_value), rg, [out, a](Tape& t) {
    if (t.node(a).requires_grad) {
      axpy(1.0f, t.node(out).grad, t.ensure_grad(a), t.pool_);
    }
  });
}

Var Tape::square(Var a) {
  Tensor out_value = node(a).value;
  for (float& v : out_value.flat()) v *= v;
  const bool rg = node(a).requires_grad;
  Var out{static_cast<std::uint32_t>(nodes_.size())};
  return push(std::move(out_value), rg, [out, a](Tape& t) {
    if (!t.node(a).requires_grad) return;
    const Tensor& g = t.node(out).grad;
    const Tensor& av = t.node(a).value;
    Tensor& ga = t.ensure_grad(a);
    for (std::size_t i = 0; i < g.size(); ++i) {
      ga.data()[i] += 2.0f * av.data()[i] * g.data()[i];
    }
  });
}

Var Tape::tanh_op(Var a) {
  Tensor out_value = node(a).value;
  for (float& v : out_value.flat()) v = std::tanh(v);
  const bool rg = node(a).requires_grad;
  Var out{static_cast<std::uint32_t>(nodes_.size())};
  return push(std::move(out_value), rg, [out, a](Tape& t) {
    if (!t.node(a).requires_grad) return;
    const Tensor& g = t.node(out).grad;
    const Tensor& y = t.node(out).value;
    Tensor& ga = t.ensure_grad(a);
    for (std::size_t i = 0; i < g.size(); ++i) {
      const float yi = y.data()[i];
      ga.data()[i] += g.data()[i] * (1.0f - yi * yi);
    }
  });
}

Var Tape::sigmoid(Var a) {
  Tensor out_value = node(a).value;
  for (float& v : out_value.flat()) {
    v = v >= 0.0f ? 1.0f / (1.0f + std::exp(-v))
                  : std::exp(v) / (1.0f + std::exp(v));
  }
  const bool rg = node(a).requires_grad;
  Var out{static_cast<std::uint32_t>(nodes_.size())};
  return push(std::move(out_value), rg, [out, a](Tape& t) {
    if (!t.node(a).requires_grad) return;
    const Tensor& g = t.node(out).grad;
    const Tensor& y = t.node(out).value;
    Tensor& ga = t.ensure_grad(a);
    for (std::size_t i = 0; i < g.size(); ++i) {
      const float yi = y.data()[i];
      ga.data()[i] += g.data()[i] * yi * (1.0f - yi);
    }
  });
}

Var Tape::relu(Var a) { return leaky_relu(a, 0.0f); }

Var Tape::leaky_relu(Var a, float negative_slope) {
  Tensor out_value = node(a).value;
  for (float& v : out_value.flat()) {
    if (v < 0.0f) v *= negative_slope;
  }
  const bool rg = node(a).requires_grad;
  Var out{static_cast<std::uint32_t>(nodes_.size())};
  return push(std::move(out_value), rg, [out, a, negative_slope](Tape& t) {
    if (!t.node(a).requires_grad) return;
    const Tensor& g = t.node(out).grad;
    const Tensor& x = t.node(a).value;
    Tensor& ga = t.ensure_grad(a);
    for (std::size_t i = 0; i < g.size(); ++i) {
      ga.data()[i] +=
          g.data()[i] * (x.data()[i] >= 0.0f ? 1.0f : negative_slope);
    }
  });
}

Var Tape::softplus(Var a) {
  Tensor out_value = node(a).value;
  for (float& v : out_value.flat()) {
    // ln(1+e^x) = max(x,0) + log1p(e^{-|x|})
    v = std::max(v, 0.0f) + std::log1p(std::exp(-std::fabs(v)));
  }
  const bool rg = node(a).requires_grad;
  Var out{static_cast<std::uint32_t>(nodes_.size())};
  return push(std::move(out_value), rg, [out, a](Tape& t) {
    if (!t.node(a).requires_grad) return;
    const Tensor& g = t.node(out).grad;
    const Tensor& x = t.node(a).value;
    Tensor& ga = t.ensure_grad(a);
    for (std::size_t i = 0; i < g.size(); ++i) {
      const float xi = x.data()[i];
      const float sig = xi >= 0.0f ? 1.0f / (1.0f + std::exp(-xi))
                                   : std::exp(xi) / (1.0f + std::exp(xi));
      ga.data()[i] += g.data()[i] * sig;
    }
  });
}

Var Tape::add_rowvec(Var a, Var bias) {
  const Tensor& av = node(a).value;
  const Tensor& bv = node(bias).value;
  if (bv.rows() != 1 || bv.cols() != av.cols()) {
    throw std::invalid_argument("add_rowvec: bias must be (1, cols)");
  }
  Tensor out_value = av;
  for (std::size_t r = 0; r < av.rows(); ++r) {
    auto row = out_value.row(r);
    for (std::size_t c = 0; c < av.cols(); ++c) row[c] += bv(0, c);
  }
  const bool rg = node(a).requires_grad || node(bias).requires_grad;
  Var out{static_cast<std::uint32_t>(nodes_.size())};
  return push(std::move(out_value), rg, [out, a, bias](Tape& t) {
    const Tensor& g = t.node(out).grad;
    if (t.node(a).requires_grad) axpy(1.0f, g, t.ensure_grad(a), t.pool_);
    if (t.node(bias).requires_grad) {
      Tensor& gb = t.ensure_grad(bias);
      for (std::size_t r = 0; r < g.rows(); ++r) {
        auto row = g.row(r);
        for (std::size_t c = 0; c < g.cols(); ++c) gb(0, c) += row[c];
      }
    }
  });
}

Var Tape::mul_colvec(Var a, Var w) {
  const Tensor& av = node(a).value;
  const Tensor& wv = node(w).value;
  if (wv.cols() != 1 || wv.rows() != av.rows()) {
    throw std::invalid_argument("mul_colvec: weight must be (rows, 1)");
  }
  Tensor out_value = av;
  for (std::size_t r = 0; r < av.rows(); ++r) {
    const float s = wv(r, 0);
    auto row = out_value.row(r);
    for (float& v : row) v *= s;
  }
  const bool rg = node(a).requires_grad || node(w).requires_grad;
  Var out{static_cast<std::uint32_t>(nodes_.size())};
  return push(std::move(out_value), rg, [out, a, w](Tape& t) {
    const Tensor& g = t.node(out).grad;
    const Tensor& av2 = t.node(a).value;
    const Tensor& wv2 = t.node(w).value;
    if (t.node(a).requires_grad) {
      Tensor& ga = t.ensure_grad(a);
      for (std::size_t r = 0; r < g.rows(); ++r) {
        const float s = wv2(r, 0);
        auto grow = g.row(r);
        auto garow = ga.row(r);
        for (std::size_t c = 0; c < g.cols(); ++c) garow[c] += s * grow[c];
      }
    }
    if (t.node(w).requires_grad) {
      Tensor& gw = t.ensure_grad(w);
      for (std::size_t r = 0; r < g.rows(); ++r) {
        auto grow = g.row(r);
        auto arow = av2.row(r);
        float acc = 0.0f;
        for (std::size_t c = 0; c < g.cols(); ++c) acc += grow[c] * arow[c];
        gw(r, 0) += acc;
      }
    }
  });
}

// ----------------------------------------------------------- shape / gather

Var Tape::concat_cols(Var a, Var b) {
  const Tensor& av = node(a).value;
  const Tensor& bv = node(b).value;
  if (av.rows() != bv.rows()) {
    throw std::invalid_argument("concat_cols: row count mismatch");
  }
  Tensor out_value(av.rows(), av.cols() + bv.cols());
  for (std::size_t r = 0; r < av.rows(); ++r) {
    auto dst = out_value.row(r);
    auto ra = av.row(r);
    auto rb = bv.row(r);
    std::copy(ra.begin(), ra.end(), dst.begin());
    std::copy(rb.begin(), rb.end(), dst.begin() + av.cols());
  }
  const bool rg = node(a).requires_grad || node(b).requires_grad;
  const std::size_t ca = av.cols();
  Var out{static_cast<std::uint32_t>(nodes_.size())};
  return push(std::move(out_value), rg, [out, a, b, ca](Tape& t) {
    const Tensor& g = t.node(out).grad;
    if (t.node(a).requires_grad) {
      Tensor& ga = t.ensure_grad(a);
      for (std::size_t r = 0; r < g.rows(); ++r) {
        auto grow = g.row(r);
        auto garow = ga.row(r);
        for (std::size_t c = 0; c < ca; ++c) garow[c] += grow[c];
      }
    }
    if (t.node(b).requires_grad) {
      Tensor& gb = t.ensure_grad(b);
      for (std::size_t r = 0; r < g.rows(); ++r) {
        auto grow = g.row(r);
        auto gbrow = gb.row(r);
        for (std::size_t c = 0; c < gbrow.size(); ++c) {
          gbrow[c] += grow[ca + c];
        }
      }
    }
  });
}

Var Tape::concat_rows(Var a, Var b) {
  const Tensor& av = node(a).value;
  const Tensor& bv = node(b).value;
  if (av.cols() != bv.cols()) {
    throw std::invalid_argument("concat_rows: column count mismatch");
  }
  Tensor out_value(av.rows() + bv.rows(), av.cols());
  std::copy(av.flat().begin(), av.flat().end(), out_value.flat().begin());
  std::copy(bv.flat().begin(), bv.flat().end(),
            out_value.flat().begin() + static_cast<std::ptrdiff_t>(av.size()));
  const bool rg = node(a).requires_grad || node(b).requires_grad;
  const std::size_t ra = av.rows();
  Var out{static_cast<std::uint32_t>(nodes_.size())};
  return push(std::move(out_value), rg, [out, a, b, ra](Tape& t) {
    const Tensor& g = t.node(out).grad;
    if (t.node(a).requires_grad) {
      Tensor& ga = t.ensure_grad(a);
      for (std::size_t i = 0; i < ga.size(); ++i) {
        ga.data()[i] += g.data()[i];
      }
    }
    if (t.node(b).requires_grad) {
      Tensor& gb = t.ensure_grad(b);
      const std::size_t offset = ra * g.cols();
      for (std::size_t i = 0; i < gb.size(); ++i) {
        gb.data()[i] += g.data()[offset + i];
      }
    }
  });
}

Var Tape::rows(Var a, std::vector<std::uint32_t> indices) {
  const Tensor& av = node(a).value;
  Tensor out_value(indices.size(), av.cols());
  for (std::size_t i = 0; i < indices.size(); ++i) {
    if (indices[i] >= av.rows()) {
      throw std::out_of_range("rows: index out of range");
    }
    auto src = av.row(indices[i]);
    std::copy(src.begin(), src.end(), out_value.row(i).begin());
  }
  const bool rg = node(a).requires_grad;
  Var out{static_cast<std::uint32_t>(nodes_.size())};
  return push(std::move(out_value), rg,
              [out, a, idx = std::move(indices)](Tape& t) {
                if (!t.node(a).requires_grad) return;
                const Tensor& g = t.node(out).grad;
                Tensor& ga = t.ensure_grad(a);
                for (std::size_t i = 0; i < idx.size(); ++i) {
                  auto dst = ga.row(idx[i]);
                  auto src = g.row(i);
                  for (std::size_t c = 0; c < dst.size(); ++c) {
                    dst[c] += src[c];
                  }
                }
              });
}

// ------------------------------------------------------ reductions/segments

Var Tape::reduce_sum(Var a) {
  Tensor out_value(1, 1);
  out_value(0, 0) = static_cast<float>(node(a).value.sum());
  const bool rg = node(a).requires_grad;
  Var out{static_cast<std::uint32_t>(nodes_.size())};
  return push(std::move(out_value), rg, [out, a](Tape& t) {
    if (!t.node(a).requires_grad) return;
    const float g = t.node(out).grad(0, 0);
    Tensor& ga = t.ensure_grad(a);
    for (float& v : ga.flat()) v += g;
  });
}

Var Tape::reduce_mean(Var a) {
  const std::size_t n = node(a).value.size();
  if (n == 0) throw std::invalid_argument("reduce_mean: empty input");
  Var total = reduce_sum(a);
  return scale(total, 1.0f / static_cast<float>(n));
}

Var Tape::sum_cols(Var a) {
  const Tensor& av = node(a).value;
  Tensor out_value(av.rows(), 1);
  for (std::size_t r = 0; r < av.rows(); ++r) {
    double acc = 0.0;
    for (float v : av.row(r)) acc += v;
    out_value(r, 0) = static_cast<float>(acc);
  }
  const bool rg = node(a).requires_grad;
  Var out{static_cast<std::uint32_t>(nodes_.size())};
  return push(std::move(out_value), rg, [out, a](Tape& t) {
    if (!t.node(a).requires_grad) return;
    const Tensor& g = t.node(out).grad;
    Tensor& ga = t.ensure_grad(a);
    for (std::size_t r = 0; r < ga.rows(); ++r) {
      const float gr = g(r, 0);
      for (float& v : ga.row(r)) v += gr;
    }
  });
}

Var Tape::segment_sum(Var a, std::vector<std::uint32_t> segment_ids,
                      std::size_t n_segments) {
  const Tensor& av = node(a).value;
  if (segment_ids.size() != av.rows()) {
    throw std::invalid_argument("segment_sum: one segment id per row");
  }
  Tensor out_value(n_segments, av.cols());
  for (std::size_t r = 0; r < av.rows(); ++r) {
    if (segment_ids[r] >= n_segments) {
      throw std::out_of_range("segment_sum: segment id out of range");
    }
    auto dst = out_value.row(segment_ids[r]);
    auto src = av.row(r);
    for (std::size_t c = 0; c < dst.size(); ++c) dst[c] += src[c];
  }
  const bool rg = node(a).requires_grad;
  Var out{static_cast<std::uint32_t>(nodes_.size())};
  return push(std::move(out_value), rg,
              [out, a, ids = std::move(segment_ids)](Tape& t) {
                if (!t.node(a).requires_grad) return;
                const Tensor& g = t.node(out).grad;
                Tensor& ga = t.ensure_grad(a);
                for (std::size_t r = 0; r < ga.rows(); ++r) {
                  auto src = g.row(ids[r]);
                  auto dst = ga.row(r);
                  for (std::size_t c = 0; c < dst.size(); ++c) {
                    dst[c] += src[c];
                  }
                }
              });
}

Var Tape::segment_softmax(Var scores, std::vector<std::uint32_t> segment_ids) {
  const Tensor& sv = node(scores).value;
  if (sv.cols() != 1) {
    throw std::invalid_argument("segment_softmax: scores must be (E,1)");
  }
  if (segment_ids.size() != sv.rows()) {
    throw std::invalid_argument("segment_softmax: one segment id per row");
  }
  std::uint32_t max_seg = 0;
  for (std::uint32_t s : segment_ids) max_seg = std::max(max_seg, s);
  const std::size_t n_segments = segment_ids.empty() ? 0 : max_seg + 1;

  // Numerically stable per-segment softmax.
  std::vector<float> seg_max(n_segments, -std::numeric_limits<float>::infinity());
  for (std::size_t r = 0; r < sv.rows(); ++r) {
    seg_max[segment_ids[r]] = std::max(seg_max[segment_ids[r]], sv(r, 0));
  }
  std::vector<double> seg_denominator(n_segments, 0.0);
  Tensor out_value(sv.rows(), 1);
  for (std::size_t r = 0; r < sv.rows(); ++r) {
    // A fully masked segment has seg_max == -inf; exp(-inf - -inf) is NaN,
    // so treat every entry of such a segment as weight zero instead.
    const float m = seg_max[segment_ids[r]];
    const float e =
        std::isinf(m) ? 0.0f : std::exp(sv(r, 0) - m);
    out_value(r, 0) = e;
    seg_denominator[segment_ids[r]] += e;
  }
  for (std::size_t r = 0; r < sv.rows(); ++r) {
    const double d = seg_denominator[segment_ids[r]];
    out_value(r, 0) =
        d == 0.0 ? 0.0f : static_cast<float>(out_value(r, 0) / d);
  }

  const bool rg = node(scores).requires_grad;
  Var out{static_cast<std::uint32_t>(nodes_.size())};
  return push(std::move(out_value), rg,
              [out, scores, ids = std::move(segment_ids), n_segments](Tape& t) {
                if (!t.node(scores).requires_grad) return;
                const Tensor& g = t.node(out).grad;
                const Tensor& y = t.node(out).value;
                Tensor& gs = t.ensure_grad(scores);
                // dL/dx_i = y_i * (g_i - sum_j in segment g_j * y_j)
                std::vector<double> seg_dot(n_segments, 0.0);
                for (std::size_t r = 0; r < y.rows(); ++r) {
                  seg_dot[ids[r]] +=
                      static_cast<double>(g(r, 0)) * y(r, 0);
                }
                for (std::size_t r = 0; r < y.rows(); ++r) {
                  gs(r, 0) += y(r, 0) * (g(r, 0) -
                                         static_cast<float>(seg_dot[ids[r]]));
                }
              });
}

// ------------------------------------------------------------ regularizers

Var Tape::l2_normalize_rows(Var a, float eps) {
  const Tensor& av = node(a).value;
  Tensor out_value = av;
  std::vector<float> norms(av.rows());
  std::vector<std::uint8_t> clamped(av.rows());
  for (std::size_t r = 0; r < av.rows(); ++r) {
    double acc = 0.0;
    for (float v : av.row(r)) acc += static_cast<double>(v) * v;
    const float raw = static_cast<float>(std::sqrt(acc));
    clamped[r] = raw < eps ? 1 : 0;
    norms[r] = clamped[r] ? eps : raw;
    for (float& v : out_value.row(r)) v /= norms[r];
  }
  const bool rg = node(a).requires_grad;
  Var out{static_cast<std::uint32_t>(nodes_.size())};
  return push(std::move(out_value), rg,
              [out, a, n = std::move(norms), cl = std::move(clamped)](Tape& t) {
                if (!t.node(a).requires_grad) return;
                const Tensor& g = t.node(out).grad;
                const Tensor& y = t.node(out).value;
                Tensor& ga = t.ensure_grad(a);
                for (std::size_t r = 0; r < y.rows(); ++r) {
                  auto grow = g.row(r);
                  auto yrow = y.row(r);
                  auto garow = ga.row(r);
                  if (cl[r]) {
                    // Clamped branch: y = x / eps with eps constant, so
                    // the Jacobian is diag(1/eps) -- no projection term.
                    for (std::size_t c = 0; c < grow.size(); ++c) {
                      garow[c] += grow[c] / n[r];
                    }
                    continue;
                  }
                  float dot = 0.0f;
                  for (std::size_t c = 0; c < grow.size(); ++c) {
                    dot += grow[c] * yrow[c];
                  }
                  for (std::size_t c = 0; c < grow.size(); ++c) {
                    garow[c] += (grow[c] - yrow[c] * dot) / n[r];
                  }
                }
              });
}

Var Tape::dropout(Var a, float p, util::Rng& rng, bool training) {
  if (!training || p <= 0.0f) {
    // Identity pass-through node keeps graph structure uniform.
    return scale(a, 1.0f);
  }
  if (p >= 1.0f) throw std::invalid_argument("dropout: p must be < 1");
  const Tensor& av = node(a).value;
  const float keep_inverse = 1.0f / (1.0f - p);
  std::vector<std::uint8_t> mask(av.size());
  Tensor out_value = av;
  for (std::size_t i = 0; i < av.size(); ++i) {
    mask[i] = rng.uniform_float() >= p ? 1 : 0;
    out_value.data()[i] = mask[i] ? av.data()[i] * keep_inverse : 0.0f;
  }
  const bool rg = node(a).requires_grad;
  Var out{static_cast<std::uint32_t>(nodes_.size())};
  return push(std::move(out_value), rg,
              [out, a, m = std::move(mask), keep_inverse](Tape& t) {
                if (!t.node(a).requires_grad) return;
                const Tensor& g = t.node(out).grad;
                Tensor& ga = t.ensure_grad(a);
                for (std::size_t i = 0; i < g.size(); ++i) {
                  if (m[i]) ga.data()[i] += g.data()[i] * keep_inverse;
                }
              });
}

// --------------------------------------------------------------- execution

void Tape::backward(Var loss) {
  const Node& ln = node(loss);
  if (ln.value.rows() != 1 || ln.value.cols() != 1) {
    throw std::invalid_argument("backward: loss must be a (1,1) scalar");
  }
  Tensor seed(1, 1);
  seed(0, 0) = 1.0f;
  backward_seeded(loss, seed);
}

void Tape::backward_seeded(Var from, const Tensor& seed) {
  Node& fn = node(from);
  if (!fn.requires_grad) {
    throw std::invalid_argument(
        "backward_seeded: node does not require gradients");
  }
  check_same_shape(fn.value, seed, "backward_seeded");
  axpy(1.0f, seed, ensure_grad(from), pool_);
  for (std::size_t i = static_cast<std::size_t>(from.idx) + 1; i-- > 0;) {
    Node& n = nodes_[i];
    if (n.requires_grad && n.grad_ready && n.backward_fn) {
      n.backward_fn(*this);
    }
  }
}

}  // namespace ckat::nn
