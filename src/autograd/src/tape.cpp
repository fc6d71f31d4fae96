#include "nvcim/autograd/tape.hpp"

#include <cmath>

namespace nvcim::autograd {

const Matrix& Var::value() const { return tape_->value(*this); }
const Matrix& Var::grad() const { return tape_->grad(*this); }

const Matrix& Tape::value(Var v) const {
  NVCIM_CHECK(v.valid() && v.index() < nodes_.size());
  return nodes_[v.index()].value;
}

const Matrix& Tape::grad(Var v) const {
  NVCIM_CHECK(v.valid() && v.index() < nodes_.size());
  const Node& n = nodes_[v.index()];
  NVCIM_CHECK_MSG(n.grad_alloc, "gradient was never computed for this node");
  return n.grad;
}

bool Tape::has_grad(Var v) const {
  NVCIM_CHECK(v.valid() && v.index() < nodes_.size());
  return nodes_[v.index()].grad_alloc;
}

Var Tape::leaf(Matrix value, bool requires_grad) {
  return make(std::move(value), requires_grad, {});
}

void Tape::clear() { nodes_.clear(); }

Var Tape::make(Matrix value, bool requires_grad, std::function<void()> backward_fn) {
  Node n;
  n.value = std::move(value);
  n.requires_grad = requires_grad;
  n.backward_fn = std::move(backward_fn);
  nodes_.push_back(std::move(n));
  return Var(this, nodes_.size() - 1);
}

Matrix& Tape::grad_ref(std::size_t idx) {
  Node& n = nodes_[idx];
  if (!n.grad_alloc) {
    n.grad = Matrix(n.value.rows(), n.value.cols(), 0.0f);
    n.grad_alloc = true;
  }
  return n.grad;
}

void Tape::accumulate(std::size_t idx, const Matrix& g) {
  if (!nodes_[idx].requires_grad) return;
  grad_ref(idx) += g;
}

void Tape::backward(Var result) {
  NVCIM_CHECK(result.valid() && result.tape() == this);
  NVCIM_CHECK_MSG(value(result).size() == 1, "backward() requires a scalar (1x1) result");
  for (Node& n : nodes_) n.grad_alloc = false;
  grad_ref(result.index()).fill(1.0f);
  for (std::size_t i = result.index() + 1; i-- > 0;) {
    Node& n = nodes_[i];
    if (!n.requires_grad || !n.grad_alloc || !n.backward_fn) continue;
    n.backward_fn();
    // Every consumer of node i sits later on the tape and has already run,
    // so nothing reads this gradient again: release it. Leaves keep theirs.
    n.grad = Matrix();
    n.grad_alloc = false;
  }
}

// ---------------------------------------------------------------------------
// elementwise
// ---------------------------------------------------------------------------

Var Tape::add(Var a, Var b) {
  const std::size_t ia = a.index(), ib = b.index();
  const bool rg = nodes_[ia].requires_grad || nodes_[ib].requires_grad;
  Matrix out = nodes_[ia].value + nodes_[ib].value;
  Var v = make(std::move(out), rg, {});
  const std::size_t io = v.index();
  nodes_[io].backward_fn = [this, ia, ib, io] {
    const Matrix& g = nodes_[io].grad;
    accumulate(ia, g);
    accumulate(ib, g);
  };
  return v;
}

Var Tape::sub(Var a, Var b) {
  const std::size_t ia = a.index(), ib = b.index();
  const bool rg = nodes_[ia].requires_grad || nodes_[ib].requires_grad;
  Var v = make(nodes_[ia].value - nodes_[ib].value, rg, {});
  const std::size_t io = v.index();
  nodes_[io].backward_fn = [this, ia, ib, io] {
    const Matrix& g = nodes_[io].grad;
    accumulate(ia, g);
    if (nodes_[ib].requires_grad) grad_ref(ib).add_scaled(g, -1.0f);
  };
  return v;
}

Var Tape::mul(Var a, Var b) {
  const std::size_t ia = a.index(), ib = b.index();
  const bool rg = nodes_[ia].requires_grad || nodes_[ib].requires_grad;
  Var v = make(hadamard(nodes_[ia].value, nodes_[ib].value), rg, {});
  const std::size_t io = v.index();
  nodes_[io].backward_fn = [this, ia, ib, io] {
    const Matrix& g = nodes_[io].grad;
    if (nodes_[ia].requires_grad) accumulate(ia, hadamard(g, nodes_[ib].value));
    if (nodes_[ib].requires_grad) accumulate(ib, hadamard(g, nodes_[ia].value));
  };
  return v;
}

Var Tape::scale(Var a, float s) {
  const std::size_t ia = a.index();
  Var v = make(nodes_[ia].value * s, nodes_[ia].requires_grad, {});
  const std::size_t io = v.index();
  nodes_[io].backward_fn = [this, ia, io, s] {
    if (nodes_[ia].requires_grad) grad_ref(ia).add_scaled(nodes_[io].grad, s);
  };
  return v;
}

Var Tape::add_const(Var a, Matrix c) {
  const std::size_t ia = a.index();
  Var v = make(nodes_[ia].value + c, nodes_[ia].requires_grad, {});
  const std::size_t io = v.index();
  nodes_[io].backward_fn = [this, ia, io] { accumulate(ia, nodes_[io].grad); };
  return v;
}

Var Tape::relu(Var a) {
  const std::size_t ia = a.index();
  Matrix out = nodes_[ia].value;
  for (std::size_t i = 0; i < out.size(); ++i)
    if (out.at_flat(i) < 0.0f) out.at_flat(i) = 0.0f;
  Var v = make(std::move(out), nodes_[ia].requires_grad, {});
  const std::size_t io = v.index();
  nodes_[io].backward_fn = [this, ia, io] {
    if (!nodes_[ia].requires_grad) return;
    const Matrix& g = nodes_[io].grad;
    const Matrix& x = nodes_[ia].value;
    Matrix gx = g;
    for (std::size_t i = 0; i < gx.size(); ++i)
      if (x.at_flat(i) <= 0.0f) gx.at_flat(i) = 0.0f;
    grad_ref(ia) += gx;
  };
  return v;
}

Var Tape::gelu(Var a) {
  const std::size_t ia = a.index();
  Matrix out = nodes_[ia].value;
  for (std::size_t i = 0; i < out.size(); ++i) out.at_flat(i) = gelu_value(out.at_flat(i));
  Var v = make(std::move(out), nodes_[ia].requires_grad, {});
  const std::size_t io = v.index();
  nodes_[io].backward_fn = [this, ia, io] {
    if (!nodes_[ia].requires_grad) return;
    const Matrix& g = nodes_[io].grad;
    const Matrix& xm = nodes_[ia].value;
    Matrix gx(xm.rows(), xm.cols());
    for (std::size_t i = 0; i < gx.size(); ++i) {
      const float x = xm.at_flat(i);
      const float u = kGeluC * (x + kGeluA * x * x * x);
      const float t = std::tanh(u);
      const float du = kGeluC * (1.0f + 3.0f * kGeluA * x * x);
      const float dy = 0.5f * (1.0f + t) + 0.5f * x * (1.0f - t * t) * du;
      gx.at_flat(i) = g.at_flat(i) * dy;
    }
    grad_ref(ia) += gx;
  };
  return v;
}

Var Tape::tanh_op(Var a) {
  const std::size_t ia = a.index();
  Matrix out = nodes_[ia].value;
  for (std::size_t i = 0; i < out.size(); ++i) out.at_flat(i) = std::tanh(out.at_flat(i));
  Var v = make(std::move(out), nodes_[ia].requires_grad, {});
  const std::size_t io = v.index();
  nodes_[io].backward_fn = [this, ia, io] {
    if (!nodes_[ia].requires_grad) return;
    const Matrix& g = nodes_[io].grad;
    const Matrix& y = nodes_[io].value;
    Matrix gx(y.rows(), y.cols());
    for (std::size_t i = 0; i < gx.size(); ++i) {
      const float t = y.at_flat(i);
      gx.at_flat(i) = g.at_flat(i) * (1.0f - t * t);
    }
    grad_ref(ia) += gx;
  };
  return v;
}

Var Tape::square(Var a) {
  const std::size_t ia = a.index();
  Var v = make(hadamard(nodes_[ia].value, nodes_[ia].value), nodes_[ia].requires_grad, {});
  const std::size_t io = v.index();
  nodes_[io].backward_fn = [this, ia, io] {
    if (!nodes_[ia].requires_grad) return;
    Matrix gx = hadamard(nodes_[io].grad, nodes_[ia].value);
    gx *= 2.0f;
    grad_ref(ia) += gx;
  };
  return v;
}

// ---------------------------------------------------------------------------
// linear algebra
// ---------------------------------------------------------------------------

Var Tape::matmul(Var a, Var b) {
  const std::size_t ia = a.index(), ib = b.index();
  const bool rg = nodes_[ia].requires_grad || nodes_[ib].requires_grad;
  Var v = make(nvcim::matmul(nodes_[ia].value, nodes_[ib].value), rg, {});
  const std::size_t io = v.index();
  nodes_[io].backward_fn = [this, ia, ib, io] {
    const Matrix& g = nodes_[io].grad;
    if (nodes_[ia].requires_grad) accumulate(ia, nvcim::matmul_nt(g, nodes_[ib].value));
    if (nodes_[ib].requires_grad) accumulate(ib, nvcim::matmul_tn(nodes_[ia].value, g));
  };
  return v;
}

Var Tape::matmul_nt(Var a, Var b) {
  const std::size_t ia = a.index(), ib = b.index();
  const bool rg = nodes_[ia].requires_grad || nodes_[ib].requires_grad;
  Var v = make(nvcim::matmul_nt(nodes_[ia].value, nodes_[ib].value), rg, {});
  const std::size_t io = v.index();
  nodes_[io].backward_fn = [this, ia, ib, io] {
    const Matrix& g = nodes_[io].grad;
    if (nodes_[ia].requires_grad) accumulate(ia, nvcim::matmul(g, nodes_[ib].value));
    if (nodes_[ib].requires_grad) accumulate(ib, nvcim::matmul_tn(g, nodes_[ia].value));
  };
  return v;
}

Var Tape::add_row_broadcast(Var a, Var bias) {
  const std::size_t ia = a.index(), ib = bias.index();
  const Matrix& av = nodes_[ia].value;
  const Matrix& bv = nodes_[ib].value;
  NVCIM_CHECK_MSG(bv.rows() == 1 && bv.cols() == av.cols(), "bias must be 1 x cols");
  Matrix out = av;
  for (std::size_t r = 0; r < out.rows(); ++r)
    for (std::size_t c = 0; c < out.cols(); ++c) out(r, c) += bv(0, c);
  const bool rg = nodes_[ia].requires_grad || nodes_[ib].requires_grad;
  Var v = make(std::move(out), rg, {});
  const std::size_t io = v.index();
  nodes_[io].backward_fn = [this, ia, ib, io] {
    const Matrix& g = nodes_[io].grad;
    accumulate(ia, g);
    if (nodes_[ib].requires_grad) {
      Matrix& gb = grad_ref(ib);
      for (std::size_t r = 0; r < g.rows(); ++r)
        for (std::size_t c = 0; c < g.cols(); ++c) gb(0, c) += g(r, c);
    }
  };
  return v;
}

// ---------------------------------------------------------------------------
// shape
// ---------------------------------------------------------------------------

Var Tape::concat_rows(Var top, Var bottom) {
  const std::size_t it = top.index(), ib = bottom.index();
  const bool rg = nodes_[it].requires_grad || nodes_[ib].requires_grad;
  const std::size_t top_rows = nodes_[it].value.rows();
  Var v = make(vconcat(nodes_[it].value, nodes_[ib].value), rg, {});
  const std::size_t io = v.index();
  nodes_[io].backward_fn = [this, it, ib, io, top_rows] {
    const Matrix& g = nodes_[io].grad;
    if (nodes_[it].requires_grad) accumulate(it, g.row_slice(0, top_rows));
    if (nodes_[ib].requires_grad) accumulate(ib, g.row_slice(top_rows, g.rows()));
  };
  return v;
}

Var Tape::concat_cols(Var left, Var right) {
  const std::size_t il = left.index(), ir = right.index();
  const bool rg = nodes_[il].requires_grad || nodes_[ir].requires_grad;
  const std::size_t left_cols = nodes_[il].value.cols();
  Var v = make(hconcat(nodes_[il].value, nodes_[ir].value), rg, {});
  const std::size_t io = v.index();
  nodes_[io].backward_fn = [this, il, ir, io, left_cols] {
    const Matrix& g = nodes_[io].grad;
    if (nodes_[il].requires_grad) accumulate(il, g.col_slice(0, left_cols));
    if (nodes_[ir].requires_grad) accumulate(ir, g.col_slice(left_cols, g.cols()));
  };
  return v;
}

Var Tape::slice_cols(Var a, std::size_t begin, std::size_t end) {
  const std::size_t ia = a.index();
  Var v = make(nodes_[ia].value.col_slice(begin, end), nodes_[ia].requires_grad, {});
  const std::size_t io = v.index();
  nodes_[io].backward_fn = [this, ia, io, begin] {
    if (!nodes_[ia].requires_grad) return;
    const Matrix& g = nodes_[io].grad;
    Matrix& ga = grad_ref(ia);
    for (std::size_t r = 0; r < g.rows(); ++r)
      for (std::size_t c = 0; c < g.cols(); ++c) ga(r, begin + c) += g(r, c);
  };
  return v;
}

Var Tape::slice_rows(Var a, std::size_t begin, std::size_t end) {
  const std::size_t ia = a.index();
  Var v = make(nodes_[ia].value.row_slice(begin, end), nodes_[ia].requires_grad, {});
  const std::size_t io = v.index();
  nodes_[io].backward_fn = [this, ia, io, begin] {
    if (!nodes_[ia].requires_grad) return;
    const Matrix& g = nodes_[io].grad;
    Matrix& ga = grad_ref(ia);
    for (std::size_t r = 0; r < g.rows(); ++r)
      for (std::size_t c = 0; c < g.cols(); ++c) ga(begin + r, c) += g(r, c);
  };
  return v;
}

Var Tape::reshape(Var a, std::size_t rows, std::size_t cols) {
  const std::size_t ia = a.index();
  Var v = make(nodes_[ia].value.reshaped(rows, cols), nodes_[ia].requires_grad, {});
  const std::size_t io = v.index();
  nodes_[io].backward_fn = [this, ia, io] {
    if (!nodes_[ia].requires_grad) return;
    const Matrix& src = nodes_[ia].value;
    accumulate(ia, nodes_[io].grad.reshaped(src.rows(), src.cols()));
  };
  return v;
}

// ---------------------------------------------------------------------------
// nn primitives
// ---------------------------------------------------------------------------

Var Tape::row_softmax(Var a) {
  const std::size_t ia = a.index();
  const Matrix& x = nodes_[ia].value;
  Matrix y(x.rows(), x.cols());
  for (std::size_t r = 0; r < x.rows(); ++r) {
    float mx = -1e30f;
    for (std::size_t c = 0; c < x.cols(); ++c) mx = std::max(mx, x(r, c));
    double denom = 0.0;
    for (std::size_t c = 0; c < x.cols(); ++c) denom += std::exp(static_cast<double>(x(r, c) - mx));
    for (std::size_t c = 0; c < x.cols(); ++c)
      y(r, c) = static_cast<float>(std::exp(static_cast<double>(x(r, c) - mx)) / denom);
  }
  Var v = make(std::move(y), nodes_[ia].requires_grad, {});
  const std::size_t io = v.index();
  nodes_[io].backward_fn = [this, ia, io] {
    if (!nodes_[ia].requires_grad) return;
    const Matrix& g = nodes_[io].grad;
    const Matrix& yv = nodes_[io].value;
    Matrix gx(yv.rows(), yv.cols());
    for (std::size_t r = 0; r < yv.rows(); ++r) {
      double s = 0.0;
      for (std::size_t c = 0; c < yv.cols(); ++c)
        s += static_cast<double>(g(r, c)) * yv(r, c);
      for (std::size_t c = 0; c < yv.cols(); ++c)
        gx(r, c) = yv(r, c) * (g(r, c) - static_cast<float>(s));
    }
    grad_ref(ia) += gx;
  };
  return v;
}

Var Tape::layernorm(Var a, Var gain, Var bias, float eps) {
  const std::size_t ia = a.index(), ig = gain.index(), ib = bias.index();
  const Matrix& x = nodes_[ia].value;
  const Matrix& gn = nodes_[ig].value;
  const Matrix& bs = nodes_[ib].value;
  NVCIM_CHECK(gn.rows() == 1 && gn.cols() == x.cols());
  NVCIM_CHECK(bs.rows() == 1 && bs.cols() == x.cols());
  const std::size_t R = x.rows(), C = x.cols();
  Matrix xhat(R, C), y(R, C);
  std::vector<float> inv_std(R);
  for (std::size_t r = 0; r < R; ++r) {
    double mu = 0.0;
    for (std::size_t c = 0; c < C; ++c) mu += x(r, c);
    mu /= static_cast<double>(C);
    double var = 0.0;
    for (std::size_t c = 0; c < C; ++c) {
      const double d = x(r, c) - mu;
      var += d * d;
    }
    var /= static_cast<double>(C);
    const float istd = static_cast<float>(1.0 / std::sqrt(var + eps));
    inv_std[r] = istd;
    for (std::size_t c = 0; c < C; ++c) {
      xhat(r, c) = (x(r, c) - static_cast<float>(mu)) * istd;
      y(r, c) = gn(0, c) * xhat(r, c) + bs(0, c);
    }
  }
  const bool rg =
      nodes_[ia].requires_grad || nodes_[ig].requires_grad || nodes_[ib].requires_grad;
  Var v = make(std::move(y), rg, {});
  const std::size_t io = v.index();
  nodes_[io].backward_fn = [this, ia, ig, ib, io, xhat, inv_std] {
    const Matrix& g = nodes_[io].grad;
    const std::size_t R = g.rows(), C = g.cols();
    if (nodes_[ib].requires_grad) {
      Matrix& gb = grad_ref(ib);
      for (std::size_t r = 0; r < R; ++r)
        for (std::size_t c = 0; c < C; ++c) gb(0, c) += g(r, c);
    }
    if (nodes_[ig].requires_grad) {
      Matrix& gg = grad_ref(ig);
      for (std::size_t r = 0; r < R; ++r)
        for (std::size_t c = 0; c < C; ++c) gg(0, c) += g(r, c) * xhat(r, c);
    }
    if (nodes_[ia].requires_grad) {
      const Matrix& gn = nodes_[ig].value;
      Matrix gx(R, C);
      for (std::size_t r = 0; r < R; ++r) {
        double m1 = 0.0, m2 = 0.0;
        for (std::size_t c = 0; c < C; ++c) {
          const double gh = static_cast<double>(g(r, c)) * gn(0, c);
          m1 += gh;
          m2 += gh * xhat(r, c);
        }
        m1 /= static_cast<double>(C);
        m2 /= static_cast<double>(C);
        for (std::size_t c = 0; c < C; ++c) {
          const double gh = static_cast<double>(g(r, c)) * gn(0, c);
          gx(r, c) = static_cast<float>(inv_std[r] *
                                        (gh - m1 - static_cast<double>(xhat(r, c)) * m2));
        }
      }
      grad_ref(ia) += gx;
    }
  };
  return v;
}

Var Tape::embedding(Var table, const std::vector<int>& ids) {
  const std::size_t it = table.index();
  const Matrix& tb = nodes_[it].value;
  Matrix out(ids.size(), tb.cols());
  for (std::size_t r = 0; r < ids.size(); ++r) {
    NVCIM_CHECK_MSG(ids[r] >= 0 && static_cast<std::size_t>(ids[r]) < tb.rows(),
                    "token id " << ids[r] << " out of vocab " << tb.rows());
    for (std::size_t c = 0; c < tb.cols(); ++c)
      out(r, c) = tb(static_cast<std::size_t>(ids[r]), c);
  }
  Var v = make(std::move(out), nodes_[it].requires_grad, {});
  const std::size_t io = v.index();
  nodes_[io].backward_fn = [this, it, io, ids] {
    if (!nodes_[it].requires_grad) return;
    const Matrix& g = nodes_[io].grad;
    Matrix& gt = grad_ref(it);
    for (std::size_t r = 0; r < ids.size(); ++r)
      for (std::size_t c = 0; c < g.cols(); ++c)
        gt(static_cast<std::size_t>(ids[r]), c) += g(r, c);
  };
  return v;
}

Var Tape::mean_all(Var a) {
  const std::size_t ia = a.index();
  Matrix out(1, 1, nodes_[ia].value.mean());
  Var v = make(std::move(out), nodes_[ia].requires_grad, {});
  const std::size_t io = v.index();
  nodes_[io].backward_fn = [this, ia, io] {
    if (!nodes_[ia].requires_grad) return;
    const float g = nodes_[io].grad(0, 0) / static_cast<float>(nodes_[ia].value.size());
    Matrix& ga = grad_ref(ia);
    for (std::size_t i = 0; i < ga.size(); ++i) ga.at_flat(i) += g;
  };
  return v;
}

Var Tape::cross_entropy(Var logits, const std::vector<int>& targets) {
  const std::size_t il = logits.index();
  const Matrix& z = nodes_[il].value;
  NVCIM_CHECK_MSG(targets.size() == z.rows(), "one target per logits row");
  const std::size_t R = z.rows(), C = z.cols();
  Matrix probs(R, C);
  double loss = 0.0;
  std::size_t valid = 0;
  for (std::size_t r = 0; r < R; ++r) {
    float mx = -1e30f;
    for (std::size_t c = 0; c < C; ++c) mx = std::max(mx, z(r, c));
    double denom = 0.0;
    for (std::size_t c = 0; c < C; ++c) denom += std::exp(static_cast<double>(z(r, c) - mx));
    for (std::size_t c = 0; c < C; ++c)
      probs(r, c) = static_cast<float>(std::exp(static_cast<double>(z(r, c) - mx)) / denom);
    if (targets[r] >= 0) {
      NVCIM_CHECK(static_cast<std::size_t>(targets[r]) < C);
      loss -= std::log(std::max(1e-12, static_cast<double>(
                                           probs(r, static_cast<std::size_t>(targets[r])))));
      ++valid;
    }
  }
  NVCIM_CHECK_MSG(valid > 0, "cross_entropy: no valid (non-negative) targets");
  Matrix out(1, 1, static_cast<float>(loss / static_cast<double>(valid)));
  Var v = make(std::move(out), nodes_[il].requires_grad, {});
  const std::size_t io = v.index();
  nodes_[io].backward_fn = [this, il, io, probs, targets, valid] {
    if (!nodes_[il].requires_grad) return;
    const float g = nodes_[io].grad(0, 0) / static_cast<float>(valid);
    Matrix& gl = grad_ref(il);
    for (std::size_t r = 0; r < probs.rows(); ++r) {
      if (targets[r] < 0) continue;
      for (std::size_t c = 0; c < probs.cols(); ++c) gl(r, c) += g * probs(r, c);
      gl(r, static_cast<std::size_t>(targets[r])) -= g;
    }
  };
  return v;
}

Var Tape::mse(Var pred, Matrix target) {
  const std::size_t ip = pred.index();
  const Matrix& p = nodes_[ip].value;
  NVCIM_CHECK_MSG(p.same_shape(target), "mse shape mismatch");
  double s = 0.0;
  for (std::size_t i = 0; i < p.size(); ++i) {
    const double d = static_cast<double>(p.at_flat(i)) - target.at_flat(i);
    s += d * d;
  }
  Matrix out(1, 1, static_cast<float>(s / static_cast<double>(p.size())));
  Var v = make(std::move(out), nodes_[ip].requires_grad, {});
  const std::size_t io = v.index();
  nodes_[io].backward_fn = [this, ip, io, target] {
    if (!nodes_[ip].requires_grad) return;
    const Matrix& p = nodes_[ip].value;
    const float g = 2.0f * nodes_[io].grad(0, 0) / static_cast<float>(p.size());
    Matrix& gp = grad_ref(ip);
    for (std::size_t i = 0; i < p.size(); ++i)
      gp.at_flat(i) += g * (p.at_flat(i) - target.at_flat(i));
  };
  return v;
}

}  // namespace nvcim::autograd
