#include "nn/layers.h"

#include <cassert>
#include <cmath>
#include <istream>
#include <ostream>
#include <stdexcept>

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

void Linear::forward_into(const Matrix& x, Matrix& y) {
  assert(x.cols() == w_.rows());
  assert(&x != &y);
  cache_x_ = x;
  matmul_into(y, x, w_);
  add_row_inplace(y, b_);
}

void Linear::infer_into(const Matrix& x, Matrix& y) {
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

}  // namespace

void Linear::backward_params_only(const Matrix& grad_out,
                                  Matrix& /*scratch*/) {
  assert(grad_out.rows() == cache_x_.rows() && grad_out.cols() == w_.cols());
  weight_grad_into(gw_stage_, w_t_, cache_x_, grad_out);
  gw_ += gw_stage_;
  column_sums_into(gb_stage_, grad_out);
  gb_ += gb_stage_;
}

void Linear::backward_into(const Matrix& grad_out, Matrix& grad_in) {
  assert(grad_out.rows() == cache_x_.rows() && grad_out.cols() == w_.cols());
  assert(&grad_out != &grad_in);
  weight_grad_into(gw_stage_, w_t_, cache_x_, grad_out);
  gw_ += gw_stage_;
  column_sums_into(gb_stage_, grad_out);
  gb_ += gb_stage_;
  transpose_into(w_t_, w_);
  matmul_into(grad_in, grad_out, w_t_);
}

void Linear::zero_grads() {
  gw_.fill(0.0);
  gb_.fill(0.0);
}

std::unique_ptr<Layer> Linear::clone() const {
  auto copy = std::make_unique<Linear>(w_.rows(), w_.cols());
  copy->w_ = w_;
  copy->b_ = b_;
  return copy;
}

void ReLU::forward_into(const Matrix& x, Matrix& y) {
  assert(&x != &y);
  cache_x_ = x;
  y.resize_fast(x.rows(), x.cols());
  const double* __restrict__ px = x.data();
  double* __restrict__ py = y.data();
  for (std::size_t i = 0; i < x.size(); ++i) py[i] = px[i] > 0.0 ? px[i] : 0.0;
}

void ReLU::infer_into(const Matrix& x, Matrix& y) {
  assert(&x != &y);
  y.resize_fast(x.rows(), x.cols());
  const double* __restrict__ px = x.data();
  double* __restrict__ py = y.data();
  for (std::size_t i = 0; i < x.size(); ++i) py[i] = px[i] > 0.0 ? px[i] : 0.0;
}

void ReLU::backward_into(const Matrix& grad_out, Matrix& grad_in) {
  assert(grad_out.rows() == cache_x_.rows());
  assert(&grad_out != &grad_in);
  grad_in.resize_fast(grad_out.rows(), grad_out.cols());
  const double* __restrict__ pg = grad_out.data();
  const double* __restrict__ pc = cache_x_.data();
  double* __restrict__ pi = grad_in.data();
  for (std::size_t i = 0; i < grad_out.size(); ++i) {
    pi[i] = pc[i] <= 0.0 ? 0.0 : pg[i];
  }
}

void Tanh::forward_into(const Matrix& x, Matrix& y) {
  assert(&x != &y);
  y.resize_fast(x.rows(), x.cols());
  const double* __restrict__ px = x.data();
  double* __restrict__ py = y.data();
  for (std::size_t i = 0; i < x.size(); ++i) py[i] = std::tanh(px[i]);
  cache_y_ = y;
}

void Tanh::infer_into(const Matrix& x, Matrix& y) {
  assert(&x != &y);
  y.resize_fast(x.rows(), x.cols());
  const double* __restrict__ px = x.data();
  double* __restrict__ py = y.data();
  for (std::size_t i = 0; i < x.size(); ++i) py[i] = std::tanh(px[i]);
}

void Tanh::backward_into(const Matrix& grad_out, Matrix& grad_in) {
  assert(&grad_out != &grad_in);
  grad_in.resize_fast(grad_out.rows(), grad_out.cols());
  const double* __restrict__ pg = grad_out.data();
  const double* __restrict__ pc = cache_y_.data();
  double* __restrict__ pi = grad_in.data();
  for (std::size_t i = 0; i < grad_out.size(); ++i) {
    pi[i] = pg[i] * (1.0 - pc[i] * pc[i]);
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

void DuelingHead::infer_into(const Matrix& x, Matrix& y) {
  assert(&x != &y);
  value_.infer_into(x, v_ws_);
  advantage_.infer_into(x, a_ws_);
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

void DuelingHead::backward_into(const Matrix& grad_out, Matrix& grad_in) {
  assert(&grad_out != &grad_in);
  split_grad(grad_out);
  value_.backward_into(dv_ws_, grad_in);
  advantage_.backward_into(da_ws_, dx_ws_);
  grad_in += dx_ws_;
}

void DuelingHead::backward_params_only(const Matrix& grad_out,
                                       Matrix& scratch) {
  split_grad(grad_out);
  value_.backward_params_only(dv_ws_, scratch);
  advantage_.backward_params_only(da_ws_, scratch);
}

std::vector<Matrix*> DuelingHead::params() {
  std::vector<Matrix*> out = value_.params();
  for (Matrix* p : advantage_.params()) out.push_back(p);
  return out;
}

std::vector<Matrix*> DuelingHead::grads() {
  std::vector<Matrix*> out = value_.grads();
  for (Matrix* g : advantage_.grads()) out.push_back(g);
  return out;
}

std::vector<const Matrix*> DuelingHead::params() const {
  std::vector<const Matrix*> out = value_.params();
  for (const Matrix* p : advantage_.params()) out.push_back(p);
  return out;
}

std::vector<const Matrix*> DuelingHead::grads() const {
  std::vector<const Matrix*> out = value_.grads();
  for (const Matrix* g : advantage_.grads()) out.push_back(g);
  return out;
}

void DuelingHead::zero_grads() {
  value_.zero_grads();
  advantage_.zero_grads();
}

std::unique_ptr<Layer> DuelingHead::clone() const {
  auto copy = std::make_unique<DuelingHead>(fan_in(), actions());
  const std::vector<const Matrix*> src = params();
  const std::vector<Matrix*> dst = copy->params();
  for (std::size_t i = 0; i < src.size(); ++i) *dst[i] = *src[i];
  return copy;
}

Mlp::Mlp(const std::vector<std::size_t>& sizes, Activation act,
         util::Rng& rng, bool dueling)
    : activation_(act), dueling_(dueling), sizes_(sizes) {
  if (sizes.size() < 2) throw std::invalid_argument("Mlp needs >= 2 sizes");
  input_size_ = sizes.front();
  output_size_ = sizes.back();
  for (std::size_t i = 0; i + 1 < sizes.size(); ++i) {
    const bool last = i + 2 == sizes.size();
    if (last && dueling) {
      auto head = std::make_unique<DuelingHead>(sizes[i], sizes[i + 1]);
      head->init_he(rng);
      layers_.push_back(std::move(head));
      break;
    }
    auto linear = std::make_unique<Linear>(sizes[i], sizes[i + 1]);
    if (act == Activation::kReLU) linear->init_he(rng);
    else linear->init_xavier(rng);
    layers_.push_back(std::move(linear));
    if (!last) {
      if (act == Activation::kReLU) layers_.push_back(std::make_unique<ReLU>());
      else layers_.push_back(std::make_unique<Tanh>());
    }
  }
}

Mlp::Mlp(const Mlp& other)
    : input_size_(other.input_size_), output_size_(other.output_size_),
      activation_(other.activation_), dueling_(other.dueling_),
      sizes_(other.sizes_) {
  // Workspace buffers and pointer caches are intentionally not copied; they
  // rebuild lazily against this copy's own layers.
  for (const auto& layer : other.layers_) layers_.push_back(layer->clone());
}

Mlp& Mlp::operator=(const Mlp& other) {
  if (this == &other) return *this;
  Mlp copy(other);
  *this = std::move(copy);
  return *this;
}

const Matrix& Mlp::forward_ws(const Matrix& x) {
  assert(!layers_.empty());
  acts_.resize(layers_.size());  // no-op after the first call
  const Matrix* in = &x;
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    layers_[i]->forward_into(*in, acts_[i]);
    in = &acts_[i];
  }
  return *in;
}

const Matrix& Mlp::backward_ws(const Matrix& grad_out) {
  assert(!layers_.empty());
  const Matrix* g = &grad_out;
  bool ping = true;
  for (auto it = layers_.rbegin(); it != layers_.rend(); ++it) {
    Matrix& dst = ping ? grad_ping_ : grad_pong_;
    (*it)->backward_into(*g, dst);
    g = &dst;
    ping = !ping;
  }
  return *g;
}

const Matrix& Mlp::infer_ws(const Matrix& x) {
  assert(!layers_.empty());
  acts_.resize(layers_.size());  // no-op after the first call
  const Matrix* in = &x;
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    layers_[i]->infer_into(*in, acts_[i]);
    in = &acts_[i];
  }
  return *in;
}

void Mlp::backward_params_ws(const Matrix& grad_out) {
  assert(!layers_.empty());
  const Matrix* g = &grad_out;
  bool ping = true;
  for (auto it = layers_.rbegin(); it != layers_.rend(); ++it) {
    Matrix& dst = ping ? grad_ping_ : grad_pong_;
    if (it + 1 == layers_.rend()) {
      // First layer of the stack: its input gradient has no consumer.
      (*it)->backward_params_only(*g, dst);
      return;
    }
    (*it)->backward_into(*g, dst);
    g = &dst;
    ping = !ping;
  }
}

void Mlp::zero_grads() {
  for (auto& layer : layers_) layer->zero_grads();
}

const std::vector<Matrix*>& Mlp::params() {
  if (params_cache_.empty()) {
    for (auto& layer : layers_) {
      for (Matrix* p : layer->params()) params_cache_.push_back(p);
    }
  }
  return params_cache_;
}

const std::vector<Matrix*>& Mlp::grads() {
  if (grads_cache_.empty()) {
    for (auto& layer : layers_) {
      for (Matrix* g : layer->grads()) grads_cache_.push_back(g);
    }
  }
  return grads_cache_;
}

std::vector<const Matrix*> Mlp::params() const {
  std::vector<const Matrix*> out;
  for (const auto& layer : layers_) {
    for (const Matrix* p :
         static_cast<const Layer&>(*layer).params()) {
      out.push_back(p);
    }
  }
  return out;
}

std::vector<const Matrix*> Mlp::grads() const {
  std::vector<const Matrix*> out;
  for (const auto& layer : layers_) {
    for (const Matrix* g : static_cast<const Layer&>(*layer).grads()) {
      out.push_back(g);
    }
  }
  return out;
}

void Mlp::copy_weights_from(const Mlp& other) {
  const std::vector<Matrix*>& dst = params();
  const std::vector<const Matrix*> src = other.params();
  if (dst.size() != src.size())
    throw std::invalid_argument("copy_weights_from: structure mismatch");
  for (std::size_t i = 0; i < dst.size(); ++i) {
    if (dst[i]->rows() != src[i]->rows() || dst[i]->cols() != src[i]->cols())
      throw std::invalid_argument("copy_weights_from: shape mismatch");
    *dst[i] = *src[i];
  }
}

void Mlp::soft_update_from(const Mlp& other, double tau) {
  const std::vector<Matrix*>& dst = params();
  const std::vector<const Matrix*> src = other.params();
  assert(dst.size() == src.size());
  for (std::size_t i = 0; i < dst.size(); ++i) {
    auto& d = dst[i]->raw();
    const auto& s = src[i]->raw();
    for (std::size_t j = 0; j < d.size(); ++j) {
      d[j] = tau * s[j] + (1.0 - tau) * d[j];
    }
  }
}

double Mlp::clip_grad_norm(double max_norm) {
  double total_sq = 0.0;
  for (Matrix* g : grads()) {
    for (double v : g->raw()) total_sq += v * v;
  }
  const double norm = std::sqrt(total_sq);
  if (norm > max_norm && norm > 0.0) {
    const double scale = max_norm / norm;
    for (Matrix* g : grads()) *g *= scale;
  }
  return norm;
}

void Mlp::save(std::ostream& os) const {
  os << "mlp " << sizes_.size() << ' ';
  for (std::size_t s : sizes_) os << s << ' ';
  os << (activation_ == Activation::kReLU ? "relu" : "tanh") << ' '
     << (dueling_ ? "dueling" : "plain") << '\n';
  for (const Matrix* p : params()) p->save(os);
}

Mlp Mlp::load(std::istream& is) {
  // A blob from outside the process is untrusted: the layer count and every
  // layer width are range-checked BEFORE any allocation sized by them, and
  // unknown tokens are hard errors — the old silent ReLU/non-dueling
  // fallback could load a tanh or dueling policy as the wrong architecture
  // with plausible-looking (wrong) Q-values.
  constexpr std::size_t kMaxLayers = 64;
  constexpr std::size_t kMaxWidth = 1u << 20;
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
    if (sizes[i] < 1 || sizes[i] > kMaxWidth) {
      throw std::runtime_error("Mlp::load: implausible layer size " +
                               std::to_string(sizes[i]) + " at index " +
                               std::to_string(i) + " (expected 1.." +
                               std::to_string(kMaxWidth) + ")");
    }
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
  util::Rng dummy(0);
  Mlp mlp(sizes, activation, dummy, dueling);
  const std::vector<Matrix*>& params = mlp.params();
  for (std::size_t i = 0; i < params.size(); ++i) {
    Matrix loaded;
    try {
      loaded = Matrix::load(is);
    } catch (const std::exception& e) {
      throw std::runtime_error("Mlp::load: parameter " + std::to_string(i) +
                               " of " + std::to_string(params.size()) + ": " +
                               e.what());
    }
    if (loaded.rows() != params[i]->rows() ||
        loaded.cols() != params[i]->cols()) {
      throw std::runtime_error(
          "Mlp::load: parameter " + std::to_string(i) + " of " +
          std::to_string(params.size()) + " is " +
          std::to_string(loaded.rows()) + "x" + std::to_string(loaded.cols()) +
          " but the declared sizes require " +
          std::to_string(params[i]->rows()) + "x" +
          std::to_string(params[i]->cols()));
    }
    *params[i] = std::move(loaded);
  }
  return mlp;
}

}  // namespace drlnoc::nn
