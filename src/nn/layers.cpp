#include "nn/layers.h"

#include <cassert>
#include <cmath>
#include <cstdint>
#include <istream>
#include <limits>
#include <ostream>
#include <stdexcept>
#include <string>
#include <utility>

namespace drlnoc::nn {

Linear::Linear(std::size_t in, std::size_t out)
    : w_(in, out), b_(1, out), gw_(in, out), gb_(1, out) {}

void Linear::init_he(util::Rng& rng) {
  const double bound = std::sqrt(6.0 / static_cast<double>(w_.rows()));
  for (double& v : w_.raw()) v = rng.uniform(-bound, bound);
  b_.fill(0.0);
}

void Linear::init_xavier(util::Rng& rng) {
  const double bound =
      std::sqrt(6.0 / static_cast<double>(w_.rows() + w_.cols()));
  for (double& v : w_.raw()) v = rng.uniform(-bound, bound);
  b_.fill(0.0);
}

void Linear::forward_into(const Matrix& x, Matrix& y) const {
  assert(x.cols() == w_.rows());
  assert(&x != &y);
  matmul_into(y, x, w_);
  add_row_inplace(y, b_);
}

namespace {

/// Nonzero count (also reports whether every entry is finite); one cheap
/// pass used to pick the cheaper, equally bit-exact formulation of the
/// weight-gradient matmul below.
std::size_t count_nonzero(const Matrix& m, bool& all_finite) {
  std::size_t nnz = 0;
  bool finite = true;
  const double* p = m.data();
  for (std::size_t i = 0; i < m.size(); ++i) {
    nnz += p[i] != 0.0 ? 1 : 0;
    finite &= std::isfinite(p[i]);
  }
  all_finite = finite;
  return nnz;
}

/// stage = xᵀ·g, computed either directly (kernel skips zero x entries) or
/// as (gᵀ·x)ᵀ (kernel skips zero g entries), whichever formulation visits
/// fewer nonzero rank-1 terms. With finite operands both orders sum each
/// output element in ascending batch order over the same nonzero products,
/// so the result bits are identical — the masked DQN loss makes g extremely
/// sparse, and ReLU makes x sparse, so the winner varies per layer. A
/// non-finite entry could make the two skip sets observable (NaN·0), so
/// that case pins the direct (pre-refactor) formulation.
void weight_grad_into(Matrix& stage, Matrix& scratch, const Matrix& x,
                      const Matrix& g) {
  bool x_finite = true, g_finite = true;
  const std::size_t direct_cost = count_nonzero(x, x_finite) * g.cols();
  const std::size_t swapped_cost =
      count_nonzero(g, g_finite) * x.cols() + x.cols() * g.cols();
  if (x_finite && g_finite && swapped_cost < direct_cost) {
    matmul_tn_into(scratch, g, x);
    transpose_into(stage, scratch);
  } else {
    matmul_tn_into(stage, x, g);
  }
}

/// grad_in = grad_out ⊙ act'(z), reading the ReLU mask from the
/// pre-activation `z` and the tanh derivative from the output `h`.
void activation_grad_into(Activation act, const Matrix& grad_out,
                          const Matrix& z, const Matrix& h, Matrix& grad_in) {
  assert(&grad_out != &grad_in);
  grad_in.resize_fast(grad_out.rows(), grad_out.cols());
  const double* __restrict__ pg = grad_out.data();
  double* __restrict__ pi = grad_in.data();
  if (act == Activation::kReLU) {
    const double* __restrict__ pz = z.data();
    for (std::size_t i = 0; i < grad_out.size(); ++i) {
      pi[i] = pz[i] <= 0.0 ? 0.0 : pg[i];
    }
  } else {
    const double* __restrict__ ph = h.data();
    for (std::size_t i = 0; i < grad_out.size(); ++i) {
      pi[i] = pg[i] * (1.0 - ph[i] * ph[i]);
    }
  }
}

/// The one layer-width rule, shared by the constructor (std::invalid_argument)
/// and load() (std::runtime_error).
template <class Error>
void check_width(const char* who, std::size_t width, std::size_t index) {
  if (width < 1 || width > kMaxLayerWidth) {
    throw Error(std::string(who) + ": implausible layer size " +
                std::to_string(width) + " at index " + std::to_string(index) +
                " (expected 1.." + std::to_string(kMaxLayerWidth) + ")");
  }
}

/// Weights and biases of an Mlp of these sizes. Each layer holds at most
/// (kMaxLayerWidth + 1)^2 of them (a dueling head's value stream included),
/// so for checked sizes the count cannot wrap.
std::uint64_t param_count(const std::vector<std::size_t>& sizes,
                          bool dueling) {
  static_assert(kMaxLayers * (kMaxLayerWidth + 1) * (kMaxLayerWidth + 1) <
                std::numeric_limits<std::uint64_t>::max() / 2);
  std::uint64_t n = 0;
  for (std::size_t i = 0; i + 1 < sizes.size(); ++i) {
    n += (sizes[i] + 1) * sizes[i + 1];
  }
  if (dueling) n += sizes[sizes.size() - 2] + 1;  // the value stream
  return n;
}

/// Bytes from the read position of `is` to its end; -1 if it cannot seek.
std::streamoff bytes_left(std::istream& is) {
  std::streambuf* sb = is.rdbuf();
  if (sb == nullptr) return -1;
  const std::streamoff here = sb->pubseekoff(0, std::ios::cur, std::ios::in);
  if (here < 0) return -1;
  const std::streamoff end = sb->pubseekoff(0, std::ios::end, std::ios::in);
  sb->pubseekpos(here, std::ios::in);
  return end < 0 ? -1 : end - here;
}

}  // namespace

void Linear::backward_params_only(const Matrix& x, const Matrix& grad_out) {
  assert(grad_out.rows() == x.rows() && grad_out.cols() == w_.cols());
  weight_grad_into(gw_stage_, w_t_, x, grad_out);
  gw_ += gw_stage_;
  column_sums_into(gb_stage_, grad_out);
  gb_ += gb_stage_;
}

void Linear::backward_into(const Matrix& x, const Matrix& grad_out,
                           Matrix& grad_in) {
  assert(&grad_out != &grad_in);
  backward_params_only(x, grad_out);
  transpose_into(w_t_, w_);
  matmul_into(grad_in, grad_out, w_t_);
}

void Linear::zero_grads() {
  gw_.fill(0.0);
  gb_.fill(0.0);
}

void activate_into(Activation act, const Matrix& z, Matrix& h) {
  assert(&z != &h);
  h.resize_fast(z.rows(), z.cols());
  const double* __restrict__ pz = z.data();
  double* __restrict__ ph = h.data();
  if (act == Activation::kReLU) {
    for (std::size_t i = 0; i < z.size(); ++i) {
      ph[i] = pz[i] > 0.0 ? pz[i] : 0.0;
    }
  } else {
    for (std::size_t i = 0; i < z.size(); ++i) ph[i] = std::tanh(pz[i]);
  }
}

DuelingHead::DuelingHead(std::size_t in, std::size_t actions)
    : value_(in, 1), advantage_(in, actions) {}

void DuelingHead::init_he(util::Rng& rng) {
  value_.init_he(rng);
  advantage_.init_he(rng);
}

void DuelingHead::forward_into(const Matrix& x, Matrix& y) {
  assert(&x != &y);
  value_.forward_into(x, v_ws_);      // (batch, 1)
  advantage_.forward_into(x, a_ws_);  // (batch, n)
  y.resize_fast(a_ws_.rows(), a_ws_.cols());
  const auto n = static_cast<double>(a_ws_.cols());
  for (std::size_t r = 0; r < a_ws_.rows(); ++r) {
    double mean = 0.0;
    for (std::size_t c = 0; c < a_ws_.cols(); ++c) mean += a_ws_.at(r, c);
    mean /= n;
    for (std::size_t c = 0; c < a_ws_.cols(); ++c) {
      y.at(r, c) = v_ws_.at(r, 0) + a_ws_.at(r, c) - mean;
    }
  }
}

void DuelingHead::split_grad(const Matrix& grad_out) {
  // q_rc = v_r + a_rc - mean_c(a_r) =>
  //   dv_r  = sum_c dq_rc
  //   da_rc = dq_rc - mean_c(dq_r)
  dv_ws_.resize(grad_out.rows(), 1);
  da_ws_ = grad_out;
  const auto n = static_cast<double>(grad_out.cols());
  for (std::size_t r = 0; r < grad_out.rows(); ++r) {
    double total = 0.0;
    for (std::size_t c = 0; c < grad_out.cols(); ++c)
      total += grad_out.at(r, c);
    dv_ws_.at(r, 0) = total;
    const double mean = total / n;
    for (std::size_t c = 0; c < grad_out.cols(); ++c)
      da_ws_.at(r, c) = grad_out.at(r, c) - mean;
  }
}

void DuelingHead::backward_into(const Matrix& x, const Matrix& grad_out,
                                Matrix& grad_in) {
  assert(&grad_out != &grad_in);
  split_grad(grad_out);
  value_.backward_into(x, dv_ws_, grad_in);
  advantage_.backward_into(x, da_ws_, dx_ws_);
  grad_in += dx_ws_;
}

void DuelingHead::backward_params_only(const Matrix& x,
                                       const Matrix& grad_out) {
  split_grad(grad_out);
  value_.backward_params_only(x, dv_ws_);
  advantage_.backward_params_only(x, da_ws_);
}

void DuelingHead::zero_grads() {
  value_.zero_grads();
  advantage_.zero_grads();
}

Mlp::Mlp(const std::vector<std::size_t>& sizes, Activation act,
         util::Rng& rng, bool dueling)
    : activation_(act), sizes_(sizes) {
  if (sizes.size() < 2 || sizes.size() > kMaxLayers) {
    throw std::invalid_argument("Mlp: " + std::to_string(sizes.size()) +
                                " sizes (expected 2.." +
                                std::to_string(kMaxLayers) + ")");
  }
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    check_width<std::invalid_argument>("Mlp", sizes[i], i);
  }
  const auto init = [&](Linear& layer) {
    if (act == Activation::kReLU) {
      layer.init_he(rng);
    } else {
      layer.init_xavier(rng);
    }
  };
  const std::size_t n_hidden = sizes.size() - 2;
  for (std::size_t i = 0; i < n_hidden; ++i) {
    init(hidden_.emplace_back(sizes[i], sizes[i + 1]));
  }
  const std::size_t in = sizes[n_hidden], out = sizes.back();
  if (dueling) {
    // He-initialised whatever the activation.
    head_.emplace<DuelingHead>(in, out).init_he(rng);
  } else {
    init(head_.emplace<Linear>(in, out));
  }
  pre_.resize(n_hidden);
  post_.resize(n_hidden);
}

const Matrix& Mlp::forward_ws(const Matrix& x) {
  assert(!sizes_.empty());
  x_ = x;
  const Matrix* in = &x_;
  for (std::size_t i = 0; i < hidden_.size(); ++i) {
    hidden_[i].forward_into(*in, pre_[i]);
    activate_into(activation_, pre_[i], post_[i]);
    in = &post_[i];
  }
  std::visit([&](auto& head) { head.forward_into(*in, out_); }, head_);
  return out_;
}

const Matrix& Mlp::infer_ws(const Matrix& x) {
  assert(!sizes_.empty());
  const Matrix* in = &x;
  for (const Linear& layer : hidden_) {
    layer.forward_into(*in, infer_z_);
    activate_into(activation_, infer_z_, infer_h_);
    in = &infer_h_;
  }
  std::visit([&](auto& head) { head.forward_into(*in, infer_out_); }, head_);
  return infer_out_;
}

const Matrix* Mlp::backward(const Matrix& grad_out, bool input_grad) {
  assert(!sizes_.empty());
  // The head's input is the last hidden output (or the network input).
  const Matrix& head_in = hidden_.empty() ? x_ : post_.back();
  if (hidden_.empty() && !input_grad) {
    std::visit([&](auto& head) { head.backward_params_only(x_, grad_out); },
               head_);
    return nullptr;
  }
  std::visit(
      [&](auto& head) { head.backward_into(head_in, grad_out, grad_ping_); },
      head_);
  // g holds the gradient wrt the current layer's output; the activation
  // gradient goes to `dz`, and the layer's input gradient back into g.
  Matrix* g = &grad_ping_;
  Matrix* dz = &grad_pong_;
  for (std::size_t i = hidden_.size(); i-- > 0;) {
    activation_grad_into(activation_, *g, pre_[i], post_[i], *dz);
    const Matrix& in = i == 0 ? x_ : post_[i - 1];
    if (i == 0 && !input_grad) {
      hidden_[i].backward_params_only(in, *dz);
      return nullptr;
    }
    hidden_[i].backward_into(in, *dz, *g);
  }
  return g;
}

const Matrix& Mlp::backward_ws(const Matrix& grad_out) {
  return *backward(grad_out, true);
}

void Mlp::backward_params_ws(const Matrix& grad_out) {
  backward(grad_out, false);
}

void Mlp::zero_grads() {
  for (std::size_t k = 0; k < num_linears(); ++k) linear(k).zero_grads();
}

const Linear& Mlp::linear(std::size_t k) const {
  assert(k < num_linears());
  if (k < hidden_.size()) return hidden_[k];
  if (const auto* head = std::get_if<DuelingHead>(&head_)) {
    return k == hidden_.size() ? head->value() : head->advantage();
  }
  return std::get<Linear>(head_);
}

Linear& Mlp::linear(std::size_t k) {
  return const_cast<Linear&>(std::as_const(*this).linear(k));
}

const Matrix& Mlp::param(std::size_t slot) const {
  const Linear& layer = linear(slot / 2);
  return slot % 2 == 0 ? layer.weights() : layer.bias();
}

Matrix& Mlp::param(std::size_t slot) {
  return const_cast<Matrix&>(std::as_const(*this).param(slot));
}

Matrix& Mlp::grad(std::size_t slot) {
  Linear& layer = linear(slot / 2);
  return slot % 2 == 0 ? layer.weight_grads() : layer.bias_grads();
}

void Mlp::copy_weights_from(const Mlp& other) {
  if (num_param_slots() != other.num_param_slots())
    throw std::invalid_argument("copy_weights_from: structure mismatch");
  for (std::size_t s = 0; s < num_param_slots(); ++s) {
    Matrix& dst = param(s);
    const Matrix& src = other.param(s);
    if (dst.rows() != src.rows() || dst.cols() != src.cols())
      throw std::invalid_argument("copy_weights_from: shape mismatch");
    dst = src;
  }
}

double Mlp::clip_grad_norm(double max_norm) {
  double total_sq = 0.0;
  for (std::size_t s = 0; s < num_param_slots(); ++s) {
    for (double v : grad(s).raw()) total_sq += v * v;
  }
  const double norm = std::sqrt(total_sq);
  if (norm > max_norm && norm > 0.0) {
    const double scale = max_norm / norm;
    for (std::size_t s = 0; s < num_param_slots(); ++s) grad(s) *= scale;
  }
  return norm;
}

void Mlp::save(std::ostream& os) const {
  os << "mlp " << sizes_.size() << ' ';
  for (std::size_t s : sizes_) os << s << ' ';
  os << (activation_ == Activation::kReLU ? "relu" : "tanh") << ' '
     << (dueling() ? "dueling" : "plain") << '\n';
  for (std::size_t s = 0; s < num_param_slots(); ++s) param(s).save(os);
}

Mlp Mlp::load(std::istream& is) {
  // A blob from outside the process is untrusted: the layer count, every
  // layer width and the parameter count they declare are checked BEFORE any
  // allocation sized by them, and unknown tokens are hard errors — the old
  // silent ReLU/non-dueling fallback could load a tanh or dueling policy as
  // the wrong architecture with plausible-looking (wrong) Q-values.
  std::string magic;
  if (!(is >> magic) || magic != "mlp") {
    throw std::runtime_error("Mlp::load: bad magic '" + magic +
                             "' (expected 'mlp')");
  }
  std::size_t n = 0;
  if (!(is >> n)) throw std::runtime_error("Mlp::load: missing layer count");
  if (n < 2 || n > kMaxLayers) {
    throw std::runtime_error("Mlp::load: implausible layer count " +
                             std::to_string(n) + " (expected 2.." +
                             std::to_string(kMaxLayers) + ")");
  }
  std::vector<std::size_t> sizes(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (!(is >> sizes[i])) {
      throw std::runtime_error("Mlp::load: truncated size list (got " +
                               std::to_string(i) + " of " +
                               std::to_string(n) + " sizes)");
    }
    check_width<std::runtime_error>("Mlp::load", sizes[i], i);
  }
  std::string act, head;
  if (!(is >> act >> head)) throw std::runtime_error("Mlp::load: header tail");
  Activation activation;
  if (act == "relu") {
    activation = Activation::kReLU;
  } else if (act == "tanh") {
    activation = Activation::kTanh;
  } else {
    throw std::runtime_error("Mlp::load: unknown activation '" + act +
                             "' (expected relu|tanh)");
  }
  bool dueling;
  if (head == "dueling") {
    dueling = true;
  } else if (head == "plain") {
    dueling = false;
  } else {
    throw std::runtime_error("Mlp::load: unknown head '" + head +
                             "' (expected dueling|plain)");
  }
  // Every parameter is written as text: at least one digit, and a separator
  // before the next. A stream too short for that many is refused here.
  const std::uint64_t count = param_count(sizes, dueling);
  const std::streamoff left = bytes_left(is);
  if (left < 0 || static_cast<std::uint64_t>(left) < 2 * count - 1) {
    std::string declared;
    for (std::size_t s : sizes) declared += std::to_string(s) + " ";
    throw std::runtime_error(
        "Mlp::load: sizes " + declared + "declare " + std::to_string(count) +
        " parameters (at least " + std::to_string(2 * count - 1) +
        " bytes) but " +
        (left < 0 ? std::string("the stream cannot report its size")
                  : "only " + std::to_string(left) + " bytes follow"));
  }
  util::Rng dummy(0);
  Mlp mlp(sizes, activation, dummy, dueling);
  const std::size_t slots = mlp.num_param_slots();
  for (std::size_t i = 0; i < slots; ++i) {
    try {
      mlp.param(i).load(is);
    } catch (const std::exception& e) {
      throw std::runtime_error("Mlp::load: parameter " + std::to_string(i) +
                               " of " + std::to_string(slots) + ": " +
                               e.what());
    }
  }
  return mlp;
}

}  // namespace drlnoc::nn
