#include "rl/replay.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace drlnoc::rl {

ReplayBuffer::ReplayBuffer(std::size_t capacity) : capacity_(capacity) {
  if (capacity == 0) throw std::invalid_argument("replay capacity must be > 0");
  data_.reserve(capacity);
}

void ReplayBuffer::push(const Transition& t) {
  if (data_.size() < capacity_) {
    data_.push_back(t);
  } else {
    data_[next_] = t;  // copy-assign reuses the slot's vector capacity
    next_ = (next_ + 1) % capacity_;
  }
}

void ReplayBuffer::sample_into(SampledBatch& out, std::size_t batch,
                               util::Rng& rng) const {
  assert(!data_.empty());
  out.transitions.resize(batch);
  out.indices.resize(batch);
  out.weights.assign(batch, 1.0);
  for (std::size_t i = 0; i < batch; ++i) {
    const std::size_t idx = static_cast<std::size_t>(rng.below(data_.size()));
    out.indices[i] = idx;
    out.transitions[i] = data_[idx];
  }
}

SumTree::SumTree(std::size_t capacity) {
  if (capacity == 0) throw std::invalid_argument("sum tree capacity > 0");
  capacity_ = std::bit_ceil(capacity);
  tree_.assign(2 * capacity_, 0.0);
}

double SumTree::priority(std::size_t leaf) const {
  assert(leaf < capacity_);
  return tree_[capacity_ + leaf];
}

double SumTree::max_priority() const {
  double best = 0.0;
  for (std::size_t i = capacity_; i < tree_.size(); ++i)
    best = std::max(best, tree_[i]);
  return best;
}

double SumTree::min_nonzero_priority() const {
  double best = std::numeric_limits<double>::infinity();
  for (std::size_t i = capacity_; i < tree_.size(); ++i) {
    if (tree_[i] > 0.0) best = std::min(best, tree_[i]);
  }
  return std::isinf(best) ? 0.0 : best;
}

void SumTree::update(std::size_t leaf, double priority) {
  assert(leaf < capacity_ && priority >= 0.0);
  std::size_t i = capacity_ + leaf;
  const double delta = priority - tree_[i];
  while (i >= 1) {
    tree_[i] += delta;
    i /= 2;
  }
}

std::size_t SumTree::find(double mass) const {
  assert(mass >= 0.0);
  std::size_t i = 1;
  while (i < capacity_) {
    const std::size_t left = 2 * i;
    if (mass < tree_[left]) {
      i = left;
    } else {
      mass -= tree_[left];
      i = left + 1;
    }
  }
  return i - capacity_;
}

PrioritizedReplayBuffer::PrioritizedReplayBuffer(std::size_t capacity,
                                                 double alpha, double beta,
                                                 double eps)
    : capacity_(capacity), alpha_(alpha), beta_(beta), eps_(eps),
      data_(capacity), tree_(capacity) {
  if (capacity == 0) throw std::invalid_argument("replay capacity must be > 0");
}

void PrioritizedReplayBuffer::push(const Transition& t) {
  data_[next_] = t;  // copy-assign reuses the slot's vector capacity
  // New experience gets the maximum priority seen so far, guaranteeing it is
  // replayed at least once with high probability.
  tree_.update(next_, max_seen_priority_);
  next_ = (next_ + 1) % capacity_;
  size_ = std::min(size_ + 1, capacity_);
}

void PrioritizedReplayBuffer::sample_into(SampledBatch& out, std::size_t batch,
                                          util::Rng& rng) const {
  assert(size_ > 0);
  out.transitions.resize(batch);
  out.indices.resize(batch);
  out.weights.resize(batch);
  const double total = tree_.total();
  assert(total > 0.0);
  // Stratified sampling across equal mass segments.
  const double segment = total / static_cast<double>(batch);
  const double n = static_cast<double>(size_);
  double max_weight = 0.0;
  for (std::size_t i = 0; i < batch; ++i) {
    const double lo = segment * static_cast<double>(i);
    const double mass = lo + rng.uniform() * segment;
    std::size_t leaf = tree_.find(std::min(mass, total * (1.0 - 1e-12)));
    if (leaf >= size_) leaf = size_ - 1;  // zero-priority padding guard
    const double p = tree_.priority(leaf) / total;
    const double w = std::pow(n * std::max(p, 1e-12), -beta_);
    out.indices[i] = leaf;
    out.transitions[i] = data_[leaf];
    out.weights[i] = w;
    max_weight = std::max(max_weight, w);
  }
  // Normalize weights to at most 1 for stability.
  if (max_weight > 0.0) {
    for (double& w : out.weights) w /= max_weight;
  }
}

void PrioritizedReplayBuffer::update_priorities(
    const std::vector<std::size_t>& indices,
    const std::vector<double>& td_abs) {
  assert(indices.size() == td_abs.size());
  for (std::size_t i = 0; i < indices.size(); ++i) {
    const double p = std::pow(td_abs[i] + eps_, alpha_);
    tree_.update(indices[i], p);
    max_seen_priority_ = std::max(max_seen_priority_, p);
  }
}

}  // namespace drlnoc::rl
