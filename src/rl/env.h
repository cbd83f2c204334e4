// The small types an episodic discrete-action MDP exchanges with its agent:
// states are dense feature vectors, actions are indices — exactly what the
// NoC configuration MDP (core::NocConfigEnv) needs.
#pragma once

#include <vector>

namespace drlnoc::rl {

using State = std::vector<double>;

struct StepResult {
  State next_state;
  double reward = 0.0;
  bool done = false;
};

/// One transition for replay. `discount` is the bootstrap discount applied
/// to the next-state value — gamma for 1-step transitions, gamma^n for
/// n-step aggregates; 0.0 means "use the agent's gamma" (default).
struct Transition {
  State state;
  int action = 0;
  double reward = 0.0;
  State next_state;
  bool done = false;
  double discount = 0.0;
};

}  // namespace drlnoc::rl
