#include "rl/policy_io.h"

#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "util/fnv.h"

namespace drlnoc::rl {

namespace {

constexpr std::size_t kMaxHidden = 62;  // mlp layer cap (64) minus in/out
constexpr std::size_t kMaxWidth = 1u << 20;

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("drlpol: " + what);
}

/// Reads one whitespace-delimited token, failing with the expected key name.
std::string token(std::istream& is, const std::string& expect) {
  std::string t;
  if (!(is >> t)) fail("truncated header (expected '" + expect + "')");
  return t;
}

/// Header lines are fixed-order `key value...` pairs; a wrong key is a
/// hard error naming both sides so corrupt or reordered files are loud.
void expect_key(std::istream& is, const std::string& key) {
  const std::string got = token(is, key);
  if (got != key) fail("expected key '" + key + "', found '" + got + "'");
}

std::size_t read_size(std::istream& is, const std::string& key) {
  expect_key(is, key);
  long long v = -1;
  if (!(is >> v)) fail("key '" + key + "' has no numeric value");
  if (v < 1 || static_cast<std::size_t>(v) > kMaxWidth) {
    fail("key '" + key + "' value " + std::to_string(v) +
         " out of range (expected 1.." + std::to_string(kMaxWidth) + ")");
  }
  return static_cast<std::size_t>(v);
}

std::string activation_token(const nn::Mlp& net) {
  return net.activation() == nn::Activation::kTanh ? "tanh" : "relu";
}

std::string head_token(const nn::Mlp& net) {
  return net.dueling() ? "dueling" : "plain";
}

}  // namespace

bool is_versioned_policy(std::istream& is) {
  const std::istream::pos_type pos = is.tellg();
  std::string magic;
  is >> magic;
  is.clear();
  is.seekg(pos);
  return magic == "drlpol";
}

void write_policy(std::ostream& os, const nn::Mlp& net,
                  const PolicyMeta& meta) {
  const std::vector<std::size_t>& sizes = net.sizes();
  if (sizes.size() < 2) fail("cannot save an uninitialized network");
  os << "drlpol 1\n";
  os << "obs " << sizes.front() << "\n";
  os << "actions " << sizes.back() << "\n";
  os << "hidden " << (sizes.size() - 2);
  for (std::size_t i = 1; i + 1 < sizes.size(); ++i) os << ' ' << sizes[i];
  os << "\n";
  os << "activation " << activation_token(net) << "\n";
  os << "head " << head_token(net) << "\n";
  os << "scenario "
     << (meta.scenario_hash.empty() ? "-" : meta.scenario_hash) << "\n";
  os << "git " << (meta.git.empty() ? "unknown" : meta.git) << "\n";
  os << "end\n";
  net.save(os);
}

PolicyCheckpoint read_policy(std::istream& is) {
  PolicyCheckpoint ckpt;
  if (!is_versioned_policy(is)) {
    // Legacy bare weight blob: no header to check, Mlp::load does the
    // structural validation.
    ckpt.net = nn::Mlp::load(is);
    return ckpt;
  }

  PolicyHeader h;
  expect_key(is, "drlpol");
  if (!(is >> h.version)) fail("missing version number after magic");
  if (h.version != 1) {
    fail("unsupported version " + std::to_string(h.version) +
         " (this build reads version 1)");
  }
  h.obs = read_size(is, "obs");
  h.actions = read_size(is, "actions");
  expect_key(is, "hidden");
  std::size_t n_hidden = 0;
  if (!(is >> n_hidden)) fail("key 'hidden' has no count");
  if (n_hidden > kMaxHidden) {
    fail("implausible hidden layer count " + std::to_string(n_hidden) +
         " (expected 0.." + std::to_string(kMaxHidden) + ")");
  }
  h.hidden.resize(n_hidden);
  for (std::size_t i = 0; i < n_hidden; ++i) {
    long long v = -1;
    if (!(is >> v)) {
      fail("truncated hidden size list (got " + std::to_string(i) + " of " +
           std::to_string(n_hidden) + ")");
    }
    if (v < 1 || static_cast<std::size_t>(v) > kMaxWidth) {
      fail("implausible hidden size " + std::to_string(v) + " at index " +
           std::to_string(i));
    }
    h.hidden[i] = static_cast<std::size_t>(v);
  }
  expect_key(is, "activation");
  h.activation = token(is, "activation value");
  if (h.activation != "relu" && h.activation != "tanh") {
    fail("unknown activation '" + h.activation + "' (expected relu|tanh)");
  }
  expect_key(is, "head");
  h.head = token(is, "head value");
  if (h.head != "dueling" && h.head != "plain") {
    fail("unknown head '" + h.head + "' (expected dueling|plain)");
  }
  expect_key(is, "scenario");
  h.scenario_hash = token(is, "scenario hash");
  if (h.scenario_hash == "-") {
    h.scenario_hash.clear();
  } else if (!util::is_hex16(h.scenario_hash)) {
    fail("malformed scenario hash '" + h.scenario_hash +
         "' (expected 16 lowercase hex digits or '-')");
  }
  expect_key(is, "git");
  h.git = token(is, "git describe");
  if (h.git == "unknown") h.git.clear();
  expect_key(is, "end");

  ckpt.net = nn::Mlp::load(is);

  // The header must agree with the blob it wraps — a mismatch means the
  // file was assembled from parts or corrupted in a way Mlp::load cannot
  // see, and trusting either half silently would serve the wrong policy.
  const std::vector<std::size_t>& sizes = ckpt.net.sizes();
  if (sizes.front() != h.obs) {
    fail("header obs " + std::to_string(h.obs) +
         " does not match embedded network input " +
         std::to_string(sizes.front()));
  }
  if (sizes.back() != h.actions) {
    fail("header actions " + std::to_string(h.actions) +
         " does not match embedded network output " +
         std::to_string(sizes.back()));
  }
  if (sizes.size() - 2 != h.hidden.size()) {
    fail("header declares " + std::to_string(h.hidden.size()) +
         " hidden layers but embedded network has " +
         std::to_string(sizes.size() - 2));
  }
  for (std::size_t i = 0; i < h.hidden.size(); ++i) {
    if (sizes[i + 1] != h.hidden[i]) {
      fail("header hidden[" + std::to_string(i) + "] = " +
           std::to_string(h.hidden[i]) + " does not match embedded width " +
           std::to_string(sizes[i + 1]));
    }
  }
  if (h.activation != activation_token(ckpt.net)) {
    fail("header activation '" + h.activation +
         "' does not match embedded network ('" +
         activation_token(ckpt.net) + "')");
  }
  if (h.head != head_token(ckpt.net)) {
    fail("header head '" + h.head + "' does not match embedded network ('" +
         head_token(ckpt.net) + "')");
  }
  ckpt.header = std::move(h);
  return ckpt;
}

PolicyCheckpoint read_policy_blob(const std::string& blob) {
  std::istringstream is(blob);
  return read_policy(is);
}

std::string policy_fingerprint(const std::string& blob) {
  return util::hex16(util::Fnv1a64().bytes(blob).value());
}

}  // namespace drlnoc::rl
