// Unit tests for src/support: RNG, strings, formatting,
// parallel_for, stopwatch, logging.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <numeric>
#include <set>
#include <thread>

#include "support/format.hpp"
#include "support/log.hpp"
#include "support/parallel_for.hpp"
#include "support/rng.hpp"
#include "support/stopwatch.hpp"
#include "support/strings.hpp"

namespace chpo {
namespace {

TEST(Rng, DeterministicFromSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next_u64() == b.next_u64()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.next_double();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, IntInclusiveBounds) {
  Rng rng(9);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.next_int(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all values of a tiny range should appear
}

TEST(Rng, IntSingletonRange) {
  Rng rng(4);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.next_int(42, 42), 42);
}

TEST(Rng, GaussianMoments) {
  Rng rng(11);
  const int n = 50000;
  double sum = 0, sum_sq = 0;
  for (int i = 0; i < n; ++i) {
    const double v = rng.next_gaussian();
    sum += v;
    sum_sq += v * v;
  }
  const double mean = sum / n;
  const double var = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.03);
  EXPECT_NEAR(var, 1.0, 0.05);
}

TEST(Rng, GaussianWithParams) {
  Rng rng(13);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.next_gaussian(5.0, 2.0);
  EXPECT_NEAR(sum / n, 5.0, 0.1);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(15);
  int heads = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i)
    if (rng.next_bool(0.3)) ++heads;
  EXPECT_NEAR(static_cast<double>(heads) / n, 0.3, 0.02);
}

TEST(Rng, ShufflePermutes) {
  Rng rng(17);
  std::vector<int> v(50);
  std::iota(v.begin(), v.end(), 0);
  const std::vector<int> original = v;
  rng.shuffle(v);
  EXPECT_NE(v, original);
  std::vector<int> sorted = v;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, original);
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng parent(21);
  Rng child = parent.split();
  // The child must not replay the parent's sequence.
  Rng parent2(21);
  parent2.next_u64();  // advance past the split draw
  int same = 0;
  for (int i = 0; i < 32; ++i)
    if (child.next_u64() == parent2.next_u64()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Strings, SplitBasic) {
  const auto parts = split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(parts[3], "c");
}

TEST(Strings, SplitEmpty) {
  const auto parts = split("", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "");
}

TEST(Strings, JoinRoundTrip) {
  const std::vector<std::string> parts{"x", "y", "z"};
  EXPECT_EQ(join(parts, "--"), "x--y--z");
  EXPECT_EQ(split(join(parts, ","), ','), parts);
}

TEST(Strings, Trim) {
  EXPECT_EQ(trim("  hi \t\n"), "hi");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim("x"), "x");
}

TEST(Strings, StartsWith) {
  EXPECT_TRUE(starts_with("experiment", "exp"));
  EXPECT_FALSE(starts_with("exp", "experiment"));
}

TEST(Strings, FormatDuration) {
  EXPECT_EQ(format_duration(5.25), "5.2s");
  EXPECT_EQ(format_duration(65), "1m 05s");
  EXPECT_EQ(format_duration(3600 + 23 * 60 + 45), "1h 23m 45s");
  EXPECT_EQ(format_duration(-3), "0.0s");
}

TEST(Strings, Padding) {
  EXPECT_EQ(pad_right("ab", 5), "ab   ");
  EXPECT_EQ(pad_left("ab", 5), "   ab");
  EXPECT_EQ(pad_right("abcdef", 3), "abcdef");
}

TEST(Format, BasicSubstitution) {
  EXPECT_EQ(format_str("a={} b={}", 1, "two"), "a=1 b=two");
}

TEST(Format, PrecisionSpec) { EXPECT_EQ(format_str("{:.3f}", 1.23456), "1.235"); }

TEST(Format, EscapedBraces) { EXPECT_EQ(format_str("{{}} {}", 5), "{} 5"); }

TEST(Format, MissingArgsRenderEmpty) { EXPECT_EQ(format_str("x={} y={}", 1), "x=1 y="); }

TEST(ParallelFor, CoversWholeRangeOnce) {
  std::vector<std::atomic<int>> hits(1000);
  parallel_for(1000, 4, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) hits[i].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, SerialWhenBudgetOne) {
  std::vector<int> order;
  parallel_for(10, 1, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) order.push_back(static_cast<int>(i));
  });
  ASSERT_EQ(order.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(ParallelFor, EmptyRangeIsNoop) {
  bool called = false;
  parallel_for(0, 4, [&](std::size_t, std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelFor, MoreThreadsThanItems) {
  std::vector<std::atomic<int>> hits(3);
  parallel_for(3, 16, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) hits[i].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(Stopwatch, MeasuresElapsed) {
  Stopwatch sw;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_GE(sw.elapsed_ms(), 15.0);
  sw.reset();
  EXPECT_LT(sw.elapsed_ms(), 15.0);
}

TEST(Log, LevelFilteringRoundTrip) {
  const LogLevel before = log_level();
  set_log_level(LogLevel::Error);
  EXPECT_EQ(log_level(), LogLevel::Error);
  log_info("test", "should be dropped {}", 1);  // must not crash
  set_log_level(before);
}

}  // namespace
}  // namespace chpo
