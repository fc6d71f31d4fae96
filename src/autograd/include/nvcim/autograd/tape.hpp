#pragma once

#include <cmath>
#include <cstddef>
#include <functional>
#include <vector>

#include "nvcim/tensor/matrix.hpp"

namespace nvcim::autograd {

class Tape;

// tanh-approximation GELU constants, shared by the tape op and the tape-free
// inference kernels (e.g. compress::Autoencoder) so both paths are
// bit-identical.
inline constexpr float kGeluC = 0.7978845608028654f;  // sqrt(2/pi)
inline constexpr float kGeluA = 0.044715f;

inline float gelu_value(float x) {
  const float u = kGeluC * (x + kGeluA * x * x * x);
  return 0.5f * x * (1.0f + std::tanh(u));
}

/// Lightweight handle to a node on a Tape. Vars are only valid for the
/// lifetime of the tape that created them and become dangling after
/// Tape::clear().
class Var {
 public:
  Var() = default;
  Var(Tape* tape, std::size_t index) : tape_(tape), index_(index) {}

  bool valid() const { return tape_ != nullptr; }
  std::size_t index() const { return index_; }
  Tape* tape() const { return tape_; }

  const Matrix& value() const;
  const Matrix& grad() const;

 private:
  Tape* tape_ = nullptr;
  std::size_t index_ = 0;
};

/// Reverse-mode automatic differentiation over Matrix values.
///
/// Usage: create leaves with Tape::leaf(), compose with the op methods, call
/// backward() on a scalar (1×1) result, then read gradients from the leaves.
/// The tape is rebuilt every training step (define-by-run); call clear()
/// between steps to release the graph.
class Tape {
 public:
  Tape() = default;
  Tape(const Tape&) = delete;
  Tape& operator=(const Tape&) = delete;

  /// Register a leaf. requires_grad leaves accumulate gradients in backward().
  Var leaf(Matrix value, bool requires_grad = false);

  /// Drop all nodes (invalidates outstanding Vars).
  void clear();
  std::size_t node_count() const { return nodes_.size(); }

  // ---- elementwise / scalar ----
  Var add(Var a, Var b);
  Var sub(Var a, Var b);
  Var mul(Var a, Var b);              ///< Hadamard product
  Var scale(Var a, float s);
  Var add_const(Var a, Matrix c);     ///< a + constant (e.g. causal mask)
  Var relu(Var a);
  Var gelu(Var a);                    ///< tanh-approximation GELU
  Var tanh_op(Var a);
  Var square(Var a);

  // ---- linear algebra ----
  Var matmul(Var a, Var b);           ///< A·B
  Var matmul_nt(Var a, Var b);        ///< A·Bᵀ (attention scores)
  Var add_row_broadcast(Var a, Var bias);  ///< bias is 1×cols, added to each row

  // ---- shape ----
  Var concat_rows(Var top, Var bottom);
  Var concat_cols(Var left, Var right);
  Var slice_rows(Var a, std::size_t begin, std::size_t end);
  Var slice_cols(Var a, std::size_t begin, std::size_t end);
  Var reshape(Var a, std::size_t rows, std::size_t cols);

  // ---- nn primitives ----
  /// Row-wise softmax.
  Var row_softmax(Var a);
  /// Row-wise layer normalization with learnable 1×cols gain and bias.
  Var layernorm(Var a, Var gain, Var bias, float eps = 1e-5f);
  /// Gather rows of `table` at `ids` (embedding lookup).
  Var embedding(Var table, const std::vector<int>& ids);
  /// Mean over all elements -> 1×1.
  Var mean_all(Var a);
  /// Mean softmax cross-entropy of row logits vs integer targets -> 1×1.
  /// Rows whose target is negative are ignored (masked positions).
  Var cross_entropy(Var logits, const std::vector<int>& targets);
  /// Mean squared error against a constant target -> 1×1.
  Var mse(Var pred, Matrix target);

  /// Accumulate gradients of `result` (must be 1×1) into every
  /// requires_grad node reachable from it. Gradients are zeroed first.
  /// Only leaves keep their gradients after backward(): an op node's
  /// gradient is released once it has been propagated to its inputs.
  void backward(Var result);

  const Matrix& value(Var v) const;
  const Matrix& grad(Var v) const;
  /// True if backward() left a gradient on this node (leaves only).
  bool has_grad(Var v) const;

 private:
  struct Node {
    Matrix value;
    Matrix grad;               // lazily sized on backward
    bool requires_grad = false;
    bool grad_alloc = false;
    std::function<void()> backward_fn;  // empty for leaves
  };

  Var make(Matrix value, bool requires_grad, std::function<void()> backward_fn);
  Matrix& grad_ref(std::size_t idx);
  void accumulate(std::size_t idx, const Matrix& g);

  std::vector<Node> nodes_;
};

}  // namespace nvcim::autograd
