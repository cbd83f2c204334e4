// Parallel training & versioned policy serving: actor-count invariance of
// train_dqn_parallel, drlpol checkpoint round-trips and rejection messages,
// batched greedy inference, the DqnParams / Mlp::load hardening, and a
// seeded hostile-input corpus of drlpol files.
#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/env_noc.h"
#include "core/parallel.h"
#include "core/trainer.h"
#include "hostile_corpus.h"
#include "nn/layers.h"
#include "rl/dqn.h"
#include "rl/policy_io.h"
#include "scenario/scenario.h"
#include "util/rng.h"

namespace drlnoc::core {
namespace {

NocEnvParams small_env() {
  NocEnvParams ep;
  ep.net.width = ep.net.height = 4;
  ep.net.seed = 3;
  ep.epoch_cycles = 256;
  ep.epochs_per_episode = 6;
  ep.reward.power_ref_mw = 300.0;  // skip auto-calibration for speed
  return ep;
}

rl::DqnParams small_agent_params() {
  rl::DqnParams dp;
  dp.hidden = {16};
  dp.min_replay = 16;
  dp.batch_size = 8;
  dp.seed = 5;
  return dp;
}

/// One full parallel training run at the given actor count; returns the
/// trained agent's checkpoint bytes alongside the learning curve so tests
/// can compare both.
struct ParallelRun {
  TrainResult result;
  std::string checkpoint;
};

ParallelRun run_parallel(int actors, int episodes = 6, int round = 4) {
  const NocEnvParams ep = small_env();
  rl::DqnAgent agent(NocConfigEnv(ep).state_size(), 36, small_agent_params());
  ParallelTrainParams tp;
  tp.episodes = episodes;
  tp.round = round;
  tp.actors = actors;
  tp.eval_every = 3;
  ParallelRun out;
  out.result = train_dqn_parallel(ep, agent, tp);
  std::ostringstream os;
  agent.save(os);
  out.checkpoint = os.str();
  return out;
}

TEST(ParallelTraining, BitIdenticalAtAnyActorCount) {
  // The acceptance pin: 1, 2, and 8 actors produce the same learning curve
  // AND the same trained weights, byte for byte. `actors` is thread fan-out
  // only; the logical decomposition is fixed by `round`.
  const ParallelRun a1 = run_parallel(1);
  const ParallelRun a2 = run_parallel(2);
  const ParallelRun a8 = run_parallel(8);

  EXPECT_EQ(a1.result.episode_returns, a2.result.episode_returns);
  EXPECT_EQ(a1.result.episode_returns, a8.result.episode_returns);
  EXPECT_EQ(a1.result.episode_loss, a2.result.episode_loss);
  EXPECT_EQ(a1.result.episode_loss, a8.result.episode_loss);
  EXPECT_EQ(a1.result.eval_rewards, a2.result.eval_rewards);
  EXPECT_EQ(a1.result.eval_rewards, a8.result.eval_rewards);
  EXPECT_EQ(a1.result.eval_episodes, a8.result.eval_episodes);
  EXPECT_EQ(a1.checkpoint, a2.checkpoint);
  EXPECT_EQ(a1.checkpoint, a8.checkpoint);
  // And the run actually trained something.
  EXPECT_EQ(a1.result.episode_returns.size(), 6u);
  EXPECT_EQ(a1.result.eval_episodes.size(), 2u);
}

TEST(ParallelTraining, RoundSizeIsSemantic) {
  // Changing `round` legitimately changes the learning curve (merge order
  // and policy staleness differ) — the invariance contract is over actors,
  // not rounds. This guards against accidentally making round a no-op.
  const ParallelRun r4 = run_parallel(2, 6, 4);
  const ParallelRun r2 = run_parallel(2, 6, 2);
  EXPECT_NE(r4.checkpoint, r2.checkpoint);
}

TEST(ParallelTraining, LaneSeedsMatchTheSerialEpisodeStream) {
  // seek_episode contract: lane l of round r must reset into the same
  // traffic stream as serial episode r*round+l. Drive two envs — one
  // stepped serially to episode 3, one seeked directly — with a fixed
  // action and compare rewards.
  const NocEnvParams ep = small_env();
  NocConfigEnv serial(ep);
  for (int i = 0; i < 3; ++i) serial.reset();  // episodes 1..3
  NocConfigEnv seeked(ep);
  seeked.seek_episode(3);  // next reset() pre-increments to 4
  rl::State s1 = serial.reset();
  rl::State s2 = seeked.reset();
  EXPECT_EQ(s1, s2);
  for (int i = 0; i < 3; ++i) {
    const rl::StepResult r1 = serial.step(7);
    const rl::StepResult r2 = seeked.step(7);
    EXPECT_EQ(r1.reward, r2.reward);
    EXPECT_EQ(r1.next_state, r2.next_state);
  }
}

TEST(ParallelTraining, RejectsBadRoundAndEpisodes) {
  const NocEnvParams ep = small_env();
  rl::DqnAgent agent(NocConfigEnv(ep).state_size(), 36, small_agent_params());
  ParallelTrainParams tp;
  tp.round = 0;
  EXPECT_THROW(train_dqn_parallel(ep, agent, tp), std::invalid_argument);
  tp.round = 4;
  tp.episodes = -1;
  EXPECT_THROW(train_dqn_parallel(ep, agent, tp), std::invalid_argument);
  tp.episodes = 0;
  const TrainResult r = train_dqn_parallel(ep, agent, tp);
  EXPECT_TRUE(r.episode_returns.empty());
}

TEST(BatchedInference, MatchesPerStateGreedyActions) {
  rl::DqnParams dp;
  dp.hidden = {24, 24};
  dp.dueling = true;
  dp.seed = 17;
  rl::DqnAgent agent(8, 5, dp);
  util::Rng rng(123);
  nn::Matrix states(16, 8);
  std::vector<rl::State> rows(16, rl::State(8));
  for (std::size_t r = 0; r < 16; ++r) {
    for (std::size_t c = 0; c < 8; ++c) {
      rows[r][c] = rng.uniform();
      states.at(r, c) = rows[r][c];
    }
  }
  std::vector<int> batched;
  agent.act_greedy_batch(states, batched);
  ASSERT_EQ(batched.size(), 16u);
  for (std::size_t r = 0; r < 16; ++r) {
    EXPECT_EQ(batched[r], agent.act_greedy(rows[r])) << "row " << r;
  }
}

// ---------------------------------------------------------------------------
// drlpol checkpoints

TEST(PolicyCheckpoint, SaveLoadEvaluateRoundTrip) {
  // A checkpoint must reproduce the saver's greedy policy exactly: evaluate
  // the saver and a fresh agent loaded from its bytes on the same env.
  const NocEnvParams ep = small_env();
  NocConfigEnv env(ep);
  rl::DqnAgent trained(env.state_size(), env.num_actions(),
                       small_agent_params());
  TrainParams tp;
  tp.episodes = 2;
  tp.eval_every = 0;
  train_dqn(env, trained, tp);

  DrlController c1(env, trained.policy());
  const EpisodeResult before = evaluate(env, c1);

  std::ostringstream os;
  rl::PolicyMeta meta;
  meta.git = "test-build";
  trained.save(os, meta);

  std::istringstream is(os.str());
  DrlController c2(env, rl::read_policy(is).net);
  const EpisodeResult after = evaluate(env, c2);

  EXPECT_EQ(before.total_reward, after.total_reward);
  EXPECT_EQ(before.mean_latency, after.mean_latency);
  EXPECT_EQ(before.mean_power_mw, after.mean_power_mw);
  EXPECT_EQ(before.mean_edp, after.mean_edp);
  EXPECT_EQ(before.actions, after.actions);
}

TEST(PolicyCheckpoint, HeaderRecordsArchitectureAndProvenance) {
  rl::DqnParams dp;
  dp.hidden = {32, 16};
  dp.dueling = true;
  rl::DqnAgent agent(10, 6, dp);
  std::ostringstream os;
  rl::PolicyMeta meta;
  meta.scenario_hash = "00deadbeef001234";
  meta.git = "v1.2-3-gabc";
  agent.save(os, meta);

  const rl::PolicyCheckpoint ckpt = rl::read_policy_blob(os.str());
  ASSERT_TRUE(ckpt.header.has_value());
  EXPECT_EQ(ckpt.header->obs, 10u);
  EXPECT_EQ(ckpt.header->actions, 6u);
  EXPECT_EQ(ckpt.header->hidden, (std::vector<std::size_t>{32, 16}));
  EXPECT_EQ(ckpt.header->activation, "relu");
  EXPECT_EQ(ckpt.header->head, "dueling");
  EXPECT_EQ(ckpt.header->scenario_hash, "00deadbeef001234");
  EXPECT_EQ(ckpt.header->git, "v1.2-3-gabc");
}

TEST(PolicyCheckpoint, LegacyBareBlobStillLoads) {
  rl::DqnParams dp;
  dp.hidden = {16};
  rl::DqnAgent agent(6, 4, dp);
  // A pre-versioning artifact: the raw Mlp blob with no drlpol header.
  std::ostringstream os;
  std::istringstream header_probe;
  {
    std::ostringstream full;
    agent.save(full);
    const std::string blob = full.str();
    const auto mlp_at = blob.find("mlp ");
    ASSERT_NE(mlp_at, std::string::npos);
    os << blob.substr(mlp_at);
  }
  const rl::PolicyCheckpoint ckpt = rl::read_policy_blob(os.str());
  EXPECT_FALSE(ckpt.header.has_value());
  EXPECT_EQ(ckpt.net.input_size(), 6u);
  EXPECT_EQ(ckpt.net.output_size(), 4u);
  for (std::size_t s = 0; s < ckpt.net.num_param_slots(); ++s) {
    EXPECT_EQ(ckpt.net.param(s).raw(), agent.policy().param(s).raw()) << s;
  }
}

TEST(PolicyCheckpoint, DimensionMismatchNamesBothSides) {
  // The DrlController constructor is the one dimension check for a served
  // policy: a checkpoint of the wrong input or output width is refused
  // with a message naming the policy's and the environment's sizes.
  const NocConfigEnv env(small_env());
  const std::size_t obs = env.state_size();
  const int actions = env.num_actions();
  rl::DqnParams dp;
  dp.hidden = {16};
  for (const auto& [wrong_obs, wrong_actions] :
       {std::pair{obs + 3, actions}, std::pair{obs, actions - 5}}) {
    std::ostringstream os;
    rl::DqnAgent(wrong_obs, wrong_actions, dp).save(os);
    try {
      DrlController c(env, rl::read_policy_blob(os.str()).net);
      FAIL() << "expected dimension rejection";
    } catch (const std::invalid_argument& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("state " + std::to_string(wrong_obs)),
                std::string::npos) << msg;
      EXPECT_NE(msg.find("actions " + std::to_string(wrong_actions)),
                std::string::npos) << msg;
      EXPECT_NE(msg.find("state " + std::to_string(obs)), std::string::npos)
          << msg;
      EXPECT_NE(msg.find("actions " + std::to_string(actions)),
                std::string::npos) << msg;
    }
  }
}

TEST(PolicyCheckpoint, CorruptHeadersAreNamedErrors) {
  rl::DqnParams dp;
  dp.hidden = {16};
  rl::DqnAgent agent(6, 4, dp);
  std::ostringstream os;
  agent.save(os);
  const std::string good = os.str();

  const auto expect_error = [](const std::string& blob,
                               const std::string& needle) {
    try {
      rl::read_policy_blob(blob);
      FAIL() << "expected rejection mentioning '" << needle << "'";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << e.what();
    }
  };

  // Unsupported version.
  std::string bad = good;
  bad.replace(bad.find("drlpol 1"), 8, "drlpol 9");
  expect_error(bad, "unsupported version 9");
  // Unknown activation token.
  bad = good;
  bad.replace(bad.find("activation relu"), 15, "activation gelu");
  expect_error(bad, "unknown activation 'gelu'");
  // Header/blob disagreement (header says 8 obs, blob holds 6).
  bad = good;
  bad.replace(bad.find("obs 6"), 5, "obs 8");
  expect_error(bad, "does not match embedded network input");
  // Malformed scenario hash.
  bad = good;
  bad.replace(bad.find("scenario -"), 10, "scenario xyz");
  expect_error(bad, "malformed scenario hash 'xyz'");
  // Truncated weight payload.
  bad = good.substr(0, good.size() / 2);
  expect_error(bad, "parameter");
}

TEST(PolicyCheckpoint, FingerprintIsStableAndSensitive) {
  const std::string a = "drlpol 1\n...";
  EXPECT_NE(rl::policy_fingerprint(a), rl::policy_fingerprint(a + " "));
}

TEST(ScenarioContentHash, StableAndFieldSensitive) {
  scenario::Scenario s;
  s.name = "hash-probe";
  s.net.width = s.net.height = 4;
  scenario::TenantSpec t;
  t.name = "fg";
  t.rate = 0.05;
  t.stop = 5000.0;
  s.tenants.push_back(t);
  s.duration = 5000.0;

  const std::uint64_t h1 = scenario::content_hash(s);

  scenario::Scenario s2 = s;
  s2.tenants[0].rate = 0.06;
  EXPECT_NE(scenario::content_hash(s2), h1);
  // The controller block is excluded (the policy lives there — circular).
  scenario::Scenario s3 = s;
  s3.controller.type = "static-max";
  EXPECT_EQ(scenario::content_hash(s3), h1);
}

// ---------------------------------------------------------------------------
// Bugfix regressions

TEST(DqnParamsValidation, RejectsSyncDisabledWithoutPolyak) {
  // Regression: target_sync_every = 0 used to crash learn() with a modulo
  // by zero. The hard sync is the target network's only update rule.
  rl::DqnParams dp;
  dp.target_sync_every = 0;
  try {
    rl::DqnAgent agent(4, 3, dp);
    FAIL() << "expected rejection of target_sync_every=0";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("target_sync_every"),
              std::string::npos)
        << e.what();
  }
}

TEST(DqnParamsValidation, RejectsOutOfRangeFields) {
  const auto rejects = [](auto mutate) {
    rl::DqnParams dp;
    mutate(dp);
    EXPECT_THROW(rl::DqnAgent(4, 3, dp), std::invalid_argument);
  };
  rejects([](rl::DqnParams& p) { p.gamma = 0.0; });
  rejects([](rl::DqnParams& p) { p.gamma = 1.5; });
  rejects([](rl::DqnParams& p) { p.lr = -1e-3; });
  rejects([](rl::DqnParams& p) { p.batch_size = 0; });
  rejects([](rl::DqnParams& p) { p.replay_capacity = 8; p.batch_size = 16; });
  rejects([](rl::DqnParams& p) { p.n_step = 0; });
  rejects([](rl::DqnParams& p) { p.epsilon_start = 2.0; });
}

TEST(DqnParamsValidation, RejectsNetworksItsCheckpointReaderWouldRefuse) {
  // Regression: hidden = {0} used to build an agent whose saved checkpoint
  // rl::read_policy then refused ("implausible hidden size 0").
  rl::DqnParams dp;
  dp.hidden = {0};
  try {
    rl::DqnAgent agent(4, 3, dp);
    FAIL() << "expected rejection of a zero-width hidden layer";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("hidden[0]"), std::string::npos)
        << e.what();
  }
  dp.hidden = {8};
  EXPECT_THROW(rl::DqnAgent(0, 3, dp), std::invalid_argument);
  EXPECT_THROW(rl::DqnAgent(4, 0, dp), std::invalid_argument);
  dp.hidden.assign(nn::kMaxLayers - 1, 2);  // one layer too many
  EXPECT_THROW(rl::DqnAgent(4, 3, dp), std::invalid_argument);

  // The deepest accepted agent round-trips through its own reader.
  dp.hidden.assign(nn::kMaxLayers - 2, 2);
  rl::DqnAgent agent(4, 3, dp);
  std::stringstream ss;
  agent.save(ss);
  EXPECT_EQ(rl::read_policy(ss).net.sizes().size(), nn::kMaxLayers);
}

TEST(MlpLoadHardening, RejectsUnknownTokensAndImplausibleSizes) {
  util::Rng rng(1);
  nn::Mlp net({4, 8, 3}, nn::Activation::kReLU, rng, false);
  std::ostringstream os;
  net.save(os);
  const std::string good = os.str();

  const auto expect_error = [](const std::string& blob,
                               const std::string& needle) {
    std::istringstream is(blob);
    try {
      nn::Mlp::load(is);
      FAIL() << "expected rejection mentioning '" << needle << "'";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << e.what();
    }
  };

  // Unknown activation must NOT silently become ReLU.
  std::string bad = good;
  bad.replace(bad.find("relu"), 4, "gelu");
  expect_error(bad, "unknown activation 'gelu'");
  // Unknown head must NOT silently become plain.
  bad = good;
  bad.replace(bad.find("plain"), 5, "derp!");
  expect_error(bad, "unknown head 'derp!'");
  // An absurd layer count must be rejected BEFORE any allocation.
  expect_error("mlp 1000000000 ", "implausible layer count 1000000000");
  expect_error("mlp 1 4 relu plain", "implausible layer count 1");
  // An absurd width likewise.
  expect_error("mlp 3 4 99999999 3 relu plain", "implausible layer size");
  // Widths in range that declare more parameters than the stream can hold
  // (539492356, 4 GiB of doubles) are refused before the net is built...
  expect_error("mlp 3 1024 524288 4 relu plain\n0 0\n",
               "sizes 1024 524288 4 declare 539492356 parameters");
  // ...and a block declaring a shape other than its parameter's (20000x20000,
  // 3.2 GB) before the block is allocated.
  bad = good;
  bad.replace(bad.find("\n4 8\n") + 1, 3, "20000 20000");
  expect_error(bad, "parameter 0 of 4: Matrix::load: block is 20000x20000 "
                    "but 4x8 is expected");
  // Truncation names the parameter index.
  bad = good.substr(0, good.size() - good.size() / 3);
  expect_error(bad, "parameter");
  // Bad magic names the token.
  expect_error("pkl blob", "bad magic 'pkl'");
}

// ---------------------------------------------------------------------------
// Hostile drlpol input

/// Reads `blob` as a checkpoint. Each input must either throw a
/// std::exception or load; a loaded policy is then served by DrlController
/// or refused by it for its dimensions. Returns whether it loaded.
bool loads_or_throws(const NocConfigEnv& env, const std::string& blob) {
  rl::PolicyCheckpoint ckpt;
  try {
    ckpt = rl::read_policy_blob(blob);
  } catch (const std::exception& e) {
    EXPECT_NE(std::string(e.what()), "");
    return false;
  }
  try {
    DrlController drl(env, std::move(ckpt.net));
    const int action = drl.decide({}, rl::State(env.state_size(), 0.5));
    EXPECT_GE(action, 0);
    EXPECT_LT(action, env.num_actions());
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("DrlController"), std::string::npos)
        << e.what();
  }
  return true;
}

TEST(PolicyHostileInput, PlainAndDuelingCorpus) {
  const NocConfigEnv env(small_env());
  rl::DqnParams dp;
  dp.hidden = {8};
  std::ostringstream plain;
  rl::DqnAgent(env.state_size(), env.num_actions(), dp).save(plain);
  util::Rng rng(11);
  std::ostringstream dueling;
  rl::PolicyMeta meta;
  meta.scenario_hash = "00deadbeef001234";
  rl::write_policy(dueling,
                   nn::Mlp({env.state_size(), 6,
                            static_cast<std::size_t>(env.num_actions())},
                           nn::Activation::kTanh, rng, true),
                   meta);
  std::uint64_t seed = 2028;
  for (const std::string& bytes : {plain.str(), dueling.str()}) {
    int loaded = 0;
    int rejected = 0;
    for (const std::string& input : text_corpus(bytes, seed++)) {
      (loads_or_throws(env, input) ? loaded : rejected) += 1;
    }
    // The intact file is the last cut; a cut mid-file is always refused.
    EXPECT_GT(loaded, 0);
    EXPECT_GT(rejected, 0);
  }
}

}  // namespace
}  // namespace drlnoc::core
