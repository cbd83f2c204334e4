// Experience replay: uniform ring buffer and proportional prioritized replay
// (Schaul et al. 2016) backed by a sum tree.
#pragma once

#include <cstddef>
#include <vector>

#include "rl/env.h"
#include "util/rng.h"

namespace drlnoc::rl {

struct SampledBatch {
  std::vector<Transition> transitions;
  std::vector<std::size_t> indices;   ///< buffer slots (for priority updates)
  std::vector<double> weights;        ///< importance-sampling weights (max 1)
};

/// Uniform FIFO replay buffer.
class ReplayBuffer {
 public:
  explicit ReplayBuffer(std::size_t capacity);

  /// Copy-assigns into the FIFO slot, so a full buffer reuses each slot's
  /// state-vector capacity (no steady-state allocation).
  void push(const Transition& t);
  /// Samples `batch` transitions into a persistent batch workspace
  /// (allocation-free once `out` has grown to `batch`).
  void sample_into(SampledBatch& out, std::size_t batch, util::Rng& rng) const;
  std::size_t size() const { return data_.size(); }
  std::size_t capacity() const { return capacity_; }
  const Transition& at(std::size_t i) const { return data_[i]; }

 private:
  std::size_t capacity_;
  std::size_t next_ = 0;  ///< FIFO cursor once full
  std::vector<Transition> data_;
};

/// Binary-indexed sum tree over leaf priorities; supports O(log n) prefix
/// sampling and point updates.
class SumTree {
 public:
  explicit SumTree(std::size_t capacity);

  std::size_t capacity() const { return capacity_; }
  double total() const { return tree_[1]; }
  double priority(std::size_t leaf) const;
  double max_priority() const;
  double min_nonzero_priority() const;
  void update(std::size_t leaf, double priority);
  /// Leaf whose cumulative range contains `mass` in [0, total()).
  std::size_t find(double mass) const;

 private:
  std::size_t capacity_;   ///< leaf count, power of two
  std::vector<double> tree_;
};

/// Proportional prioritized replay: P(i) ∝ (|td_i| + eps)^alpha, with
/// importance-sampling weights annealed by beta.
class PrioritizedReplayBuffer {
 public:
  PrioritizedReplayBuffer(std::size_t capacity, double alpha = 0.6,
                          double beta = 0.4, double eps = 1e-3);

  void push(const Transition& t);
  /// Samples `batch` transitions into a persistent batch workspace
  /// (allocation-free once `out` has grown to `batch`).
  void sample_into(SampledBatch& out, std::size_t batch, util::Rng& rng) const;
  void update_priorities(const std::vector<std::size_t>& indices,
                         const std::vector<double>& td_abs);
  double beta() const { return beta_; }
  std::size_t size() const { return size_; }
  std::size_t capacity() const { return capacity_; }

 private:
  std::size_t capacity_;
  double alpha_, beta_, eps_;
  std::size_t next_ = 0;
  std::size_t size_ = 0;
  std::vector<Transition> data_;
  SumTree tree_;
  double max_seen_priority_ = 1.0;
};

}  // namespace drlnoc::rl
