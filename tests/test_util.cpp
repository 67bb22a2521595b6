// Unit tests for src/util: rng, math helpers, statistics, the page
// allocator.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <set>

#include "util/check.h"
#include "util/math_util.h"
#include "util/page_allocator.h"
#include "util/rng.h"
#include "util/stats.h"

namespace deltacol {
namespace {

TEST(Rng, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.next_u64() == b.next_u64();
  EXPECT_LT(same, 2);
}

TEST(Rng, NextBelowInRangeAndCoversValues) {
  Rng rng(7);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const auto x = rng.next_below(10);
    ASSERT_LT(x, 10u);
    seen.insert(x);
  }
  EXPECT_EQ(seen.size(), 10u);
}

TEST(Rng, NextIntInclusiveBounds) {
  Rng rng(9);
  bool lo = false, hi = false;
  for (int i = 0; i < 1000; ++i) {
    const int x = rng.next_int(-3, 3);
    ASSERT_GE(x, -3);
    ASSERT_LE(x, 3);
    lo |= x == -3;
    hi |= x == 3;
  }
  EXPECT_TRUE(lo);
  EXPECT_TRUE(hi);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.next_double();
    ASSERT_GE(d, 0.0);
    ASSERT_LT(d, 1.0);
  }
}

TEST(Rng, BernoulliEdgeCases) {
  Rng rng(13);
  EXPECT_FALSE(rng.next_bool(0.0));
  EXPECT_TRUE(rng.next_bool(1.0));
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.next_bool(0.3);
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

TEST(Rng, SplitProducesIndependentStreams) {
  Rng parent(5);
  Rng c1 = parent.split();
  Rng c2 = parent.split();
  int same = 0;
  for (int i = 0; i < 64; ++i) same += c1.next_u64() == c2.next_u64();
  EXPECT_LT(same, 2);
}

TEST(Rng, ShufflePermutes) {
  Rng rng(17);
  std::vector<int> v{0, 1, 2, 3, 4, 5, 6, 7};
  auto sorted = v;
  rng.shuffle(v);
  auto copy = v;
  std::sort(copy.begin(), copy.end());
  EXPECT_EQ(copy, sorted);
}

TEST(Rng, SampleWithoutReplacement) {
  Rng rng(19);
  const auto s = rng.sample_without_replacement(20, 8);
  EXPECT_EQ(s.size(), 8u);
  std::set<int> uniq(s.begin(), s.end());
  EXPECT_EQ(uniq.size(), 8u);
  for (int x : s) {
    EXPECT_GE(x, 0);
    EXPECT_LT(x, 20);
  }
}

TEST(Rng, ContractViolations) {
  Rng rng(1);
  EXPECT_THROW(rng.next_below(0), ContractViolation);
  EXPECT_THROW(rng.next_int(3, 2), ContractViolation);
  EXPECT_THROW(rng.sample_without_replacement(3, 4), ContractViolation);
}

TEST(MathUtil, Logs) {
  EXPECT_EQ(floor_log2(1), 0);
  EXPECT_EQ(floor_log2(2), 1);
  EXPECT_EQ(floor_log2(3), 1);
  EXPECT_EQ(floor_log2(1024), 10);
  EXPECT_EQ(ceil_log2(1), 0);
  EXPECT_EQ(ceil_log2(3), 2);
  EXPECT_EQ(ceil_log2(1024), 10);
  EXPECT_EQ(ceil_log2(1025), 11);
}

TEST(MathUtil, LogStar) {
  EXPECT_EQ(log_star(1.0), 0);
  EXPECT_EQ(log_star(2.0), 1);
  EXPECT_EQ(log_star(4.0), 2);
  EXPECT_EQ(log_star(16.0), 3);
  EXPECT_EQ(log_star(65536.0), 4);
  EXPECT_LE(log_star(1e30), 6);
}

TEST(MathUtil, LogBase) {
  EXPECT_DOUBLE_EQ(log_base(2.0, 8.0), 3.0);
  EXPECT_DOUBLE_EQ(log_base(3.0, 1.0), 0.0);
  EXPECT_NEAR(log_base(3.0, 81.0), 4.0, 1e-12);
}

TEST(MathUtil, NextPrime) {
  EXPECT_EQ(next_prime(2), 2u);
  EXPECT_EQ(next_prime(4), 5u);
  EXPECT_EQ(next_prime(14), 17u);
  EXPECT_EQ(next_prime(97), 97u);
  EXPECT_EQ(next_prime(100), 101u);
}

TEST(MathUtil, IPowSaturates) {
  EXPECT_EQ(ipow(2, 10), 1024u);
  EXPECT_EQ(ipow(10, 0), 1u);
  EXPECT_EQ(ipow(2, 64), std::numeric_limits<std::uint64_t>::max());
}

TEST(Stats, SummaryBasics) {
  Summary s;
  for (double x : {1.0, 2.0, 3.0, 4.0}) s.add(x);
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_NEAR(s.stddev(), 1.2909944, 1e-6);
  EXPECT_DOUBLE_EQ(s.percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 4.0);
  EXPECT_DOUBLE_EQ(s.percentile(50), 2.5);
}

TEST(Stats, EmptySummaryThrows) {
  Summary s;
  EXPECT_THROW(s.mean(), ContractViolation);
  EXPECT_THROW(s.min(), ContractViolation);
}

TEST(Stats, LinearFitRecoversLine) {
  std::vector<double> x, y;
  for (int i = 0; i < 20; ++i) {
    x.push_back(i);
    y.push_back(3.0 + 2.0 * i);
  }
  const auto fit = fit_linear(x, y);
  EXPECT_NEAR(fit.slope, 2.0, 1e-9);
  EXPECT_NEAR(fit.intercept, 3.0, 1e-9);
  EXPECT_NEAR(fit.r2, 1.0, 1e-9);
}

TEST(PageAllocator, SmallAndLargeBlocksHoldTheirValues) {
  PageVector<int> small(100, 7);
  EXPECT_EQ(std::count(small.begin(), small.end(), 7), 100);

  // A block of kPageMapBytes or more is mapped from the kernel, so it
  // starts on a page boundary; growth and copies go through the same path.
  const std::size_t n = kPageMapBytes / sizeof(int) + 1;
  PageVector<int> large(n);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(large.data()) %
                static_cast<std::uintptr_t>(::sysconf(_SC_PAGESIZE)),
            0u);
  for (std::size_t i = 0; i < n; ++i) large[i] = static_cast<int>(i);
  const PageVector<int> copy = large;
  large.resize(2 * n, -1);
  EXPECT_TRUE(std::equal(copy.begin(), copy.end(), large.begin()));
  EXPECT_EQ(large.back(), -1);
  large.clear();
  large.shrink_to_fit();
  EXPECT_EQ(copy[n - 1], static_cast<int>(n - 1));
}

}  // namespace
}  // namespace deltacol
