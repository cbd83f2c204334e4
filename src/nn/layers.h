// The Q-network: a stack of Linear layers with an activation between them,
// ending in a plain Linear or a DuelingHead. Mlp owns every layer by value
// and applies the activation itself.
//
// Forward passes keep what backward needs in Mlp's persistent workspace (the
// network input, each hidden layer's pre-activation and output), and every
// layer writes into caller-owned buffers, so steady-state training and
// inference perform no heap allocation.
#pragma once

#include <iosfwd>
#include <variant>
#include <vector>

#include "nn/matrix.h"
#include "util/rng.h"

namespace drlnoc::nn {

/// Widest layer and largest layer count an Mlp accepts. The constructor and
/// Mlp::load() check both, so every network that can be built can be saved
/// and read back.
inline constexpr std::size_t kMaxLayerWidth = std::size_t{1} << 20;
inline constexpr std::size_t kMaxLayers = 64;

/// Fully connected: y = x W + b, W is (in, out), b is (1, out). Backward takes
/// the forward input `x` again (the Mlp keeps it), so the layer caches nothing.
class Linear {
 public:
  Linear() = default;
  Linear(std::size_t in, std::size_t out);
  /// He-uniform initialisation (good default for ReLU nets).
  void init_he(util::Rng& rng);
  /// Xavier-uniform initialisation (tanh nets).
  void init_xavier(util::Rng& rng);

  /// x: (batch, in) -> y: (batch, out). `y` must not alias `x`.
  void forward_into(const Matrix& x, Matrix& y) const;
  /// Accumulates the parameter gradients of the forward pass on `x` and
  /// writes the gradient wrt `x` into `grad_in` (must not alias `grad_out`).
  void backward_into(const Matrix& x, const Matrix& grad_out, Matrix& grad_in);
  /// backward_into without the input-gradient matmul, for the first layer
  /// of a network, whose input gradient nobody consumes.
  void backward_params_only(const Matrix& x, const Matrix& grad_out);
  void zero_grads();

  Matrix& weights() { return w_; }
  const Matrix& weights() const { return w_; }
  Matrix& bias() { return b_; }
  const Matrix& bias() const { return b_; }
  Matrix& weight_grads() { return gw_; }
  Matrix& bias_grads() { return gb_; }

 private:
  Matrix w_, b_, gw_, gb_;
  // Gradient staging: matmul results land here, then accumulate into
  // gw_/gb_ by element-wise add, so gradients accumulated across several
  // backward calls round exactly as `gw_ += xᵀ·g` does.
  Matrix gw_stage_, gb_stage_;
  // Wᵀ scratch: the input gradient grad_out·Wᵀ runs through the
  // vectorisable row-major matmul kernel instead of scalar dot products.
  // Bit-identical to matmul_nt: each element's terms stay in ascending-k
  // order, and the kernel's ±0-term skip cannot change a +0-seeded
  // accumulator (x + ±0 == x for every x the skip path can see).
  Matrix w_t_;
};

/// Dueling head (Wang et al. 2016): splits the representation into a state
/// value V and advantages A, combining as Q = V + A - mean(A). Drop-in last
/// layer replacement for the plain Linear output in a Q-network.
class DuelingHead {
 public:
  DuelingHead() = default;
  DuelingHead(std::size_t in, std::size_t actions);
  void init_he(util::Rng& rng);

  void forward_into(const Matrix& x, Matrix& y);
  void backward_into(const Matrix& x, const Matrix& grad_out, Matrix& grad_in);
  void backward_params_only(const Matrix& x, const Matrix& grad_out);
  void zero_grads();

  const Linear& value() const { return value_; }
  const Linear& advantage() const { return advantage_; }

 private:
  /// Splits dL/dq into the value gradient (dv_ws_) and the mean-centred
  /// advantage gradient (da_ws_): dv_r = Σ_c dq_rc, da_rc = dq_rc - mean.
  void split_grad(const Matrix& grad_out);

  Linear value_;      ///< in -> 1
  Linear advantage_;  ///< in -> actions
  // Workspace for the allocation-free paths.
  Matrix v_ws_, a_ws_, dv_ws_, da_ws_, dx_ws_;
};

/// Hidden-layer nonlinearity. Both stay: the drlpol checkpoint format
/// records `activation relu|tanh`, and pinned checkpoints use each.
enum class Activation { kReLU, kTanh };

/// h = act(z), element-wise. `h` must not alias `z`.
void activate_into(Activation act, const Matrix& z, Matrix& h);

/// Multi-layer perceptron: Linear layers with the activation between them;
/// the last layer has no activation (Q-values are unbounded).
class Mlp {
 public:
  Mlp() = default;
  /// sizes = {in, hidden..., out}, each 1..kMaxLayerWidth, at most
  /// kMaxLayers of them. With `dueling`, the final layer is a DuelingHead
  /// instead of a plain Linear.
  Mlp(const std::vector<std::size_t>& sizes, Activation act, util::Rng& rng,
      bool dueling = false);

  /// Forward pass keeping what backward_ws needs. The returned reference is
  /// valid until the next *_ws call on this Mlp.
  const Matrix& forward_ws(const Matrix& x);
  /// Gradient wrt network input (parameter grads accumulated inside).
  const Matrix& backward_ws(const Matrix& grad_out);
  /// Inference-only forward: same values as forward_ws, but the state
  /// backward_ws reads is left untouched (safe for target nets / greedy eval).
  const Matrix& infer_ws(const Matrix& x);
  /// backward_ws minus the first layer's input-gradient matmul — for
  /// training steps that never consume the gradient wrt the network input.
  void backward_params_ws(const Matrix& grad_out);

  void zero_grads();

  /// Parameter slots in their one fixed order: W then b of each hidden
  /// Linear, then W, b of a plain head, or value W, value b, advantage W,
  /// advantage b of a dueling head. save(), load(), copy_weights_from() and
  /// Adam's per-slot moments all rely on this order.
  std::size_t num_param_slots() const { return 2 * num_linears(); }
  Matrix& param(std::size_t slot);
  const Matrix& param(std::size_t slot) const;
  Matrix& grad(std::size_t slot);

  /// Hard copy of all weights (target-network sync).
  void copy_weights_from(const Mlp& other);

  /// Global L2 gradient-norm clipping; returns the pre-clip norm.
  double clip_grad_norm(double max_norm);

  void save(std::ostream& os) const;
  /// Deserializes a save() blob. Strict: unknown activation/head tokens,
  /// implausible layer counts or widths, and truncated or reshaped parameter
  /// matrices are all rejected with errors naming the offending token or
  /// parameter index — a corrupt file never silently becomes a ReLU net.
  static Mlp load(std::istream& is);

  std::size_t input_size() const { return sizes_.empty() ? 0 : sizes_.front(); }
  std::size_t output_size() const { return sizes_.empty() ? 0 : sizes_.back(); }
  /// {in, hidden..., out} as passed at construction.
  const std::vector<std::size_t>& sizes() const { return sizes_; }
  Activation activation() const { return activation_; }
  bool dueling() const { return std::holds_alternative<DuelingHead>(head_); }

 private:
  /// Linear layers in slot order (a dueling head contributes two).
  std::size_t num_linears() const {
    if (sizes_.empty()) return 0;
    return hidden_.size() + (dueling() ? 2 : 1);
  }
  Linear& linear(std::size_t k);
  const Linear& linear(std::size_t k) const;
  /// Shared body of backward_ws / backward_params_ws; returns the input
  /// gradient when `input_grad`, otherwise the first layer skips it.
  const Matrix* backward(const Matrix& grad_out, bool input_grad);

  std::vector<Linear> hidden_;
  std::variant<Linear, DuelingHead> head_;
  Activation activation_ = Activation::kReLU;
  std::vector<std::size_t> sizes_;
  // Training workspace: the network input and each hidden layer's
  // pre-activation and output, written by forward_ws and read by backward.
  // The ReLU mask reads the pre-activation, the tanh derivative the output.
  Matrix x_, out_;
  std::vector<Matrix> pre_, post_;
  // Inference buffers: a hidden layer's pre-activation and output, and the
  // head's output, so no buffer changes width from call to call.
  Matrix infer_z_, infer_h_, infer_out_;
  // Gradient buffers, ping-ponged layer to layer.
  Matrix grad_ping_, grad_pong_;
};

}  // namespace drlnoc::nn
