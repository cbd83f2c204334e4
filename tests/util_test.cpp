#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/cli.h"
#include "util/config.h"
#include "util/log.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/table.h"
#include "util/versioned_text.h"

namespace drlnoc::util {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, BelowCoversRangeUniformly) {
  Rng rng(9);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 100000; ++i) ++counts[rng.below(10)];
  for (int c : counts) EXPECT_NEAR(c, 10000, 600);
}

TEST(Rng, RangeInclusive) {
  Rng rng(3);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.range(-2, 2);
    ASSERT_GE(v, -2);
    ASSERT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, ChanceEdgeCases) {
  Rng rng(5);
  EXPECT_FALSE(rng.chance(0.0));
  EXPECT_TRUE(rng.chance(1.0));
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.chance(0.3);
  EXPECT_NEAR(hits, 3000, 200);
}

TEST(Rng, NormalMoments) {
  Rng rng(11);
  Accumulator acc;
  for (int i = 0; i < 50000; ++i) acc.add(rng.normal(2.0, 3.0));
  EXPECT_NEAR(acc.mean(), 2.0, 0.1);
  EXPECT_NEAR(acc.stddev(), 3.0, 0.1);
}

TEST(Rng, WeightedSamplingProportional) {
  Rng rng(13);
  std::vector<double> w = {1.0, 3.0, 0.0, 6.0};
  std::vector<int> counts(4, 0);
  for (int i = 0; i < 100000; ++i) ++counts[rng.weighted(w)];
  EXPECT_EQ(counts[2], 0);
  EXPECT_NEAR(counts[0], 10000, 600);
  EXPECT_NEAR(counts[1], 30000, 900);
  EXPECT_NEAR(counts[3], 60000, 1000);
}

TEST(Rng, WeightedRejectsDegenerate) {
  Rng rng(1);
  std::vector<double> zero = {0.0, 0.0};
  EXPECT_THROW(rng.weighted(zero), std::invalid_argument);
  std::vector<double> negative = {1.0, -0.5};
  EXPECT_THROW(rng.weighted(negative), std::invalid_argument);
}

TEST(Rng, ForkIndependentStreams) {
  Rng parent(21);
  Rng c1 = parent.fork();
  Rng c2 = parent.fork();
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (c1() == c2()) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(Accumulator, BasicMoments) {
  Accumulator acc;
  for (double v : {1.0, 2.0, 3.0, 4.0}) acc.add(v);
  EXPECT_EQ(acc.count(), 4u);
  EXPECT_DOUBLE_EQ(acc.mean(), 2.5);
  EXPECT_DOUBLE_EQ(acc.min(), 1.0);
  EXPECT_DOUBLE_EQ(acc.max(), 4.0);
  EXPECT_NEAR(acc.variance(), 1.25, 1e-12);
  EXPECT_DOUBLE_EQ(acc.sum(), 10.0);
}

TEST(Accumulator, EmptyIsSafe) {
  Accumulator acc;
  EXPECT_EQ(acc.count(), 0u);
  EXPECT_DOUBLE_EQ(acc.mean(), 0.0);
  EXPECT_DOUBLE_EQ(acc.variance(), 0.0);
}

TEST(Accumulator, MergeMatchesCombined) {
  Rng rng(17);
  Accumulator a, b, all;
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.normal();
    if (i % 2) a.add(v);
    else b.add(v);
    all.add(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(Ewma, FirstSampleInitializes) {
  Ewma e(0.5);
  EXPECT_TRUE(e.empty());
  EXPECT_DOUBLE_EQ(e.value(7.0), 7.0);
  e.add(10.0);
  EXPECT_DOUBLE_EQ(e.value(), 10.0);
  e.add(0.0);
  EXPECT_DOUBLE_EQ(e.value(), 5.0);
}

TEST(Ewma, ConvergesToConstant) {
  Ewma e(0.2);
  for (int i = 0; i < 200; ++i) e.add(3.0);
  EXPECT_NEAR(e.value(), 3.0, 1e-9);
}

TEST(Histogram, PercentilesOfUniformData) {
  Histogram h(100.0, 100);
  for (int i = 0; i < 10000; ++i) h.add(i % 100 + 0.5);
  EXPECT_NEAR(h.percentile(0.5), 50.0, 2.0);
  EXPECT_NEAR(h.percentile(0.95), 95.0, 2.0);
  EXPECT_NEAR(h.mean(), 50.0, 1.0);
}

TEST(Histogram, OverflowBucket) {
  Histogram h(10.0, 10);
  h.add(5.0);
  h.add(50.0);
  EXPECT_EQ(h.overflow(), 1u);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_DOUBLE_EQ(h.percentile(1.0), 10.0);
}

TEST(Histogram, BucketBoundaries) {
  // limit 100, 10 buckets => width 10: [0,10), [10,20), ... [90,100).
  Histogram h(100.0, 10);
  h.add(0.0);     // first bucket, lower edge
  h.add(9.999);   // still the first bucket
  h.add(10.0);    // exactly on a boundary -> second bucket
  h.add(99.999);  // last bucket
  h.add(100.0);   // == limit -> overflow, not last bucket
  h.add(250.0);   // far overflow
  h.add(-5.0);    // clamped into the first bucket
  EXPECT_EQ(h.count(), 7u);
  EXPECT_EQ(h.buckets()[0], 3u);
  EXPECT_EQ(h.buckets()[1], 1u);
  EXPECT_EQ(h.buckets()[9], 1u);
  EXPECT_EQ(h.overflow(), 2u);
}

TEST(Histogram, EmptyPercentileIsZero) {
  Histogram h(10.0, 10);
  EXPECT_DOUBLE_EQ(h.percentile(0.5), 0.0);
}

TEST(Histogram, SingleSamplePercentiles) {
  // With n = 1 every quantile lands in the sample's bucket; interpolation
  // must stay within that bucket's [lo, hi) span.
  Histogram h(100.0, 100);
  h.add(42.5);  // bucket [42, 43)
  for (double q : {0.0, 0.5, 0.95, 1.0}) {
    const double p = h.percentile(q);
    EXPECT_GE(p, 42.0) << "q=" << q;
    EXPECT_LE(p, 43.0) << "q=" << q;
  }
}

TEST(Histogram, AllEqualSamplesCollapseEveryPercentile) {
  Histogram h(100.0, 100);
  for (int i = 0; i < 1000; ++i) h.add(7.25);  // bucket [7, 8)
  const double p50 = h.percentile(0.5);
  const double p95 = h.percentile(0.95);
  const double p99 = h.percentile(0.99);
  EXPECT_GE(p50, 7.0);
  EXPECT_LE(p99, 8.0);
  // A degenerate distribution has no spread: p50/p95/p99 agree to within
  // one bucket width.
  EXPECT_NEAR(p50, p95, 1.0);
  EXPECT_NEAR(p95, p99, 1.0);
}

TEST(Histogram, P95BoundaryInterpolation) {
  // 95 of 100 samples in bucket [0,1), 5 in bucket [9,10): the p95 target
  // (95 samples) is satisfied exactly at the first bucket's upper edge.
  Histogram h(10.0, 10);
  for (int i = 0; i < 95; ++i) h.add(0.5);
  for (int i = 0; i < 5; ++i) h.add(9.5);
  EXPECT_DOUBLE_EQ(h.percentile(0.95), 1.0);
  // One sample past the boundary pushes p95 into the top bucket.
  h.add(9.5);
  EXPECT_GE(h.percentile(0.95), 9.0);
}

TEST(Histogram, PercentileClampsOutOfRangeQuantiles) {
  Histogram h(10.0, 10);
  h.add(5.0);
  EXPECT_DOUBLE_EQ(h.percentile(-0.5), h.percentile(0.0));
  EXPECT_DOUBLE_EQ(h.percentile(1.5), h.percentile(1.0));
}

TEST(LogLevelParsing, AcceptsKnownNamesCaseInsensitively) {
  EXPECT_EQ(parse_log_level("debug"), LogLevel::kDebug);
  EXPECT_EQ(parse_log_level("INFO"), LogLevel::kInfo);
  EXPECT_EQ(parse_log_level("Warn"), LogLevel::kWarn);
  EXPECT_EQ(parse_log_level("warning"), LogLevel::kWarn);
  EXPECT_EQ(parse_log_level("error"), LogLevel::kError);
  EXPECT_EQ(parse_log_level("off"), LogLevel::kOff);
  EXPECT_EQ(parse_log_level("none"), LogLevel::kOff);
  EXPECT_EQ(parse_log_level("bogus"), std::nullopt);
  EXPECT_EQ(parse_log_level(""), std::nullopt);
}

TEST(LogLevelParsing, InitLogAppliesOverrideAndRestores) {
  const LogLevel before = log_level();
  EXPECT_TRUE(init_log("debug"));
  EXPECT_EQ(log_level(), LogLevel::kDebug);
  EXPECT_FALSE(init_log("not-a-level"));
  set_log_level(before);
}

TEST(Config, ParsesArgs) {
  const char* argv[] = {"prog", "width=8", "rate=0.1", "verbose=true"};
  Config cfg = Config::from_args(4, argv);
  EXPECT_EQ(cfg.get("width", 0), 8);
  EXPECT_DOUBLE_EQ(cfg.get("rate", 0.0), 0.1);
  EXPECT_TRUE(cfg.get("verbose", false));
  EXPECT_EQ(cfg.get("missing", 42), 42);
}

TEST(Config, RejectsMalformedArg) {
  const char* argv[] = {"prog", "oops"};
  EXPECT_THROW(Config::from_args(2, argv), std::invalid_argument);
}

TEST(Config, DashedFlagValueMayContainEquals) {
  // `--workload trace=app.drltrc`: the flag's value is the whole next token.
  const char* argv[] = {"prog", "--workload", "trace=app.drltrc", "--jobs",
                        "4"};
  Config cfg = Config::from_args(5, argv);
  EXPECT_EQ(cfg.get("workload", std::string{}), "trace=app.drltrc");
  EXPECT_EQ(cfg.get("jobs", 0), 4);
}

TEST(Config, ParsesTextWithComments) {
  Config cfg = parse_versioned_text(
      "drlx 1\na=1\n# comment\n b = hello # trailing\n",
      {"drlx", 1, "x", {}});
  EXPECT_EQ(cfg.get("a", 0), 1);
  EXPECT_EQ(cfg.get("b", std::string{}), "hello");
  EXPECT_EQ(cfg.unread_key(), std::nullopt);  // a and b are the only keys
}

/// A Config built from "key=value" flag tokens, the way from_args builds
/// every command-line config (no source lines are recorded).
template <typename... Tokens>
Config flags(Tokens... tokens) {
  const char* argv[] = {"prog", tokens...};
  return Config::from_args(static_cast<int>(sizeof...(tokens)) + 1, argv);
}

TEST(Config, BooleanParsing) {
  Config cfg = flags("x=on", "y=No", "z=maybe");
  EXPECT_TRUE(cfg.get("x", false));
  EXPECT_FALSE(cfg.get("y", true));
  EXPECT_THROW(cfg.get("z", false), std::invalid_argument);
}

// Captures the rejection message so each strict-parsing test can pin the
// exact wording users see for a bad flag.
template <typename Fn>
std::string rejection(Fn&& fn) {
  try {
    fn();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(Config, RejectsTrailingGarbageOnNumbers) {
  // std::stod("0.1x") silently returned 0.1; a typo'd unit suffix must be
  // a hard error, not a quietly truncated value.
  Config cfg = flags("rate=0.1x", "jobs=8x", "depth=4.0");
  EXPECT_EQ(rejection([&] { cfg.get("rate", 0.0); }),
            "bad number for rate: 0.1x (trailing characters)");
  EXPECT_EQ(rejection([&] { cfg.get("jobs", 0); }),
            "bad integer for jobs: 8x (trailing characters)");
  // "4.0" is a number but not an integer.
  EXPECT_EQ(rejection([&] { cfg.get("depth", 0); }),
            "bad integer for depth: 4.0 (trailing characters)");
}

TEST(Config, RejectsOverflow) {
  Config cfg = flags("wide=99999999999999999999999", "narrow=3000000000",
                     "huge=1e999");
  EXPECT_EQ(rejection([&] { cfg.get("wide", 0LL); }),
            "bad integer for wide: 99999999999999999999999 (out of range)");
  // Fits in long long but not int: the int overload must not truncate.
  EXPECT_EQ(cfg.get("narrow", 0LL), 3000000000LL);
  EXPECT_EQ(rejection([&] { cfg.get("narrow", 0); }),
            "bad integer for narrow: 3000000000 (out of range)");
  EXPECT_EQ(rejection([&] { cfg.get("huge", 0.0); }),
            "bad number for huge: 1e999 (out of range)");
}

TEST(Config, RejectsNaNButKeepsInfinity) {
  Config cfg = flags("bad=nan", "stop=inf", "neg=-inf");
  EXPECT_EQ(rejection([&] { cfg.get("bad", 0.0); }),
            "bad number for bad: nan (NaN is never a valid knob value)");
  // Open-ended tenant stop times serialize as inf; it must stay parseable.
  EXPECT_TRUE(std::isinf(cfg.get("stop", 0.0)));
  EXPECT_LT(cfg.get("neg", 0.0), 0.0);
}

TEST(Config, RejectsEmptyAndSignOnlyValues) {
  Config cfg = flags("a=+", "b=-");
  EXPECT_EQ(rejection([&] { cfg.get("a", 0); }), "bad integer for a: +");
  EXPECT_EQ(rejection([&] { cfg.get("b", 0.0); }), "bad number for b: -");
  // Leading '+' on an otherwise valid number is accepted (shell habit).
  Config plus = flags("r=+0.5", "n=+12");
  EXPECT_DOUBLE_EQ(plus.get("r", 0.0), 0.5);
  EXPECT_EQ(plus.get("n", 0), 12);
}

TEST(Config, UnsignedGetterTakesDigitsOnly) {
  // Cycle counts, seeds and counters: a sign, overflow past 2^64-1 or a
  // trailing suffix is an error naming the key, never a wrapped value.
  Config cfg = flags("neg=-1", "plus=+5", "wide=18446744073709551616",
                     "typo=7x", "max=18446744073709551615", "zero=0");
  const std::uint64_t fallback = 3;
  EXPECT_EQ(rejection([&] { cfg.get("neg", fallback); }),
            "bad integer for neg: -1 (expected a non-negative integer)");
  EXPECT_EQ(rejection([&] { cfg.get("plus", fallback); }),
            "bad integer for plus: +5 (expected a non-negative integer)");
  EXPECT_EQ(rejection([&] { cfg.get("wide", fallback); }),
            "bad integer for wide: 18446744073709551616 (out of range)");
  EXPECT_EQ(rejection([&] { cfg.get("typo", fallback); }),
            "bad integer for typo: 7x (trailing characters)");
  EXPECT_EQ(cfg.get("max", fallback), 18446744073709551615u);
  EXPECT_EQ(cfg.get("zero", fallback), 0u);
  EXPECT_EQ(cfg.get("absent", fallback), 3u);

  // Read from a text file, the error cites the line too.
  const Config text = parse_versioned_text("drlx 1\nseed = -1\n",
                                           {"drlx", 1, "x", {}});
  EXPECT_EQ(rejection([&] { text.get("seed", fallback); }),
            "bad integer for seed (line 2): -1 (expected a non-negative "
            "integer)");
}

TEST(Config, ReadsMarkKeysForTheUnknownKeyCheck) {
  const Config text = parse_versioned_text("drlx 1\nb = 1\na = 2\nc = 3\n",
                                           {"drlx", 1, "x", {}});
  EXPECT_EQ(text.unread_key(), "a");  // sorted order
  EXPECT_FALSE(text.has("missing"));
  EXPECT_TRUE(text.has("a"));  // has() on a present key counts as a read
  EXPECT_EQ(text.get("b", 0), 1);
  EXPECT_EQ(rejection([&] { text.reject_unknown("x"); }),
            "x: unknown key 'c' (line 4)");
  EXPECT_EQ(text.get("c", ""), "3");
  EXPECT_EQ(text.unread_key(), std::nullopt);
  EXPECT_NO_THROW(text.reject_unknown("x"));
}

/// run_cli over `tokens` (after the program name), with a body that reads
/// `size` and `smoke`, checks its keys and returns `rc`.
int run_tokens(std::vector<std::string> tokens, int rc = 0,
               bool* smoke = nullptr) {
  tokens.insert(tokens.begin(), "prog");
  std::vector<char*> argv;
  for (std::string& t : tokens) argv.push_back(t.data());
  const auto body = [&](const Config& args) {
    args.get("size", 4);
    const bool s = args.get("smoke", false);
    if (smoke != nullptr) *smoke = s;
    reject_unknown_args(args);
    if (rc < 0) throw std::runtime_error("body failed");
    return rc;
  };
  return run_cli(static_cast<int>(argv.size()), argv.data(), body);
}

TEST(Cli, ExitCodes) {
  // The body's own code, then an unknown key, a malformed token, a value
  // that does not parse and a body that throws.
  EXPECT_EQ(run_tokens({"size=8"}, 7), 7);
  EXPECT_EQ(run_tokens({"--size", "8", "log=warn"}), 0);
  EXPECT_EQ(run_tokens({"sise=8"}), 2);
  EXPECT_EQ(run_tokens({"oops"}), 2);
  EXPECT_EQ(run_tokens({"size=8x"}), 1);
  EXPECT_EQ(run_tokens({}, -1), 1);
}

TEST(Cli, BareSmokeMeansSmokeOne) {
  for (const char* flag : {"smoke", "--smoke", "smoke=1"}) {
    bool smoke = false;
    EXPECT_EQ(run_tokens({flag}, 0, &smoke), 0) << flag;
    EXPECT_TRUE(smoke) << flag;
  }
}

TEST(Table, RowReturnsReferenceIntoTable) {
  // Regression: `util::Table& row = t.row()` must append to the table
  // itself; binding to `auto` (a copy) once silently produced empty tables.
  Table t({"a", "b"});
  Table& row = t.row();
  row.cell("x");
  row.cell("y");
  EXPECT_EQ(t.rows(), 1u);
  std::ostringstream text;
  t.print(text);
  EXPECT_EQ(text.str(), "a  b  \n------\nx  y  \n");
}

TEST(Table, RendersAlignedAndCsv) {
  Table t({"name", "value"});
  t.row().cell("alpha").cell(1.5, 2);
  t.row().cell("b").cell(static_cast<long long>(7));
  std::ostringstream text;
  t.print(text);
  EXPECT_NE(text.str().find("alpha"), std::string::npos);
  EXPECT_NE(text.str().find("1.50"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

}  // namespace
}  // namespace drlnoc::util
