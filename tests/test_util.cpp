// Tests for histcc/util: math helpers, RNG determinism, contracts.
#include <gtest/gtest.h>

#include <set>

#include "histcc/util/math.hpp"
#include "histcc/util/require.hpp"
#include "histcc/util/rng.hpp"
#include "histcc/util/timer.hpp"

namespace hu = histcc::util;

TEST(MathTest, IsPow2) {
  EXPECT_TRUE(hu::is_pow2(1u));
  EXPECT_TRUE(hu::is_pow2(2u));
  EXPECT_TRUE(hu::is_pow2(64u));
  EXPECT_TRUE(hu::is_pow2(1u << 30));
  EXPECT_FALSE(hu::is_pow2(0u));
  EXPECT_FALSE(hu::is_pow2(3u));
  EXPECT_FALSE(hu::is_pow2(6u));
  EXPECT_FALSE(hu::is_pow2(255u));
}

TEST(MathTest, Log2Floor) {
  EXPECT_EQ(hu::log2_floor(1u), 0u);
  EXPECT_EQ(hu::log2_floor(2u), 1u);
  EXPECT_EQ(hu::log2_floor(3u), 1u);
  EXPECT_EQ(hu::log2_floor(1024u), 10u);
  EXPECT_EQ(hu::log2_floor(1025u), 10u);
}

TEST(MathTest, CeilDiv) {
  EXPECT_EQ(hu::ceil_div(10u, 3u), 4u);
  EXPECT_EQ(hu::ceil_div(9u, 3u), 3u);
  EXPECT_EQ(hu::ceil_div(1u, 100u), 1u);
  EXPECT_EQ(hu::ceil_div(0u, 5u), 0u);
}

// The paper's logical grid: v = 2^floor(d/2) rows, w = 2^ceil(d/2) columns.
TEST(MathTest, GridShapeMatchesPaper) {
  struct Case {
    std::uint32_t p, v, w;
  };
  const Case cases[] = {{1, 1, 1},   {2, 1, 2},   {4, 2, 2},  {8, 2, 4},
                        {16, 4, 4},  {32, 4, 8},  {64, 8, 8}, {128, 8, 16},
                        {256, 16, 16}};
  for (const auto& c : cases) {
    const auto g = hu::grid_shape(c.p);
    EXPECT_EQ(g.rows, c.v) << "p=" << c.p;
    EXPECT_EQ(g.cols, c.w) << "p=" << c.p;
    EXPECT_EQ(g.rows * g.cols, c.p) << "p=" << c.p;
    EXPECT_GE(g.cols, g.rows) << "p=" << c.p;
  }
}

TEST(RequireTest, ThrowsContractError) {
  EXPECT_THROW(HISTCC_REQUIRE(false, "detail goes here"),
               hu::contract_error);
  EXPECT_NO_THROW(HISTCC_REQUIRE(true, "never thrown"));
}

TEST(RequireTest, MessageNamesConditionAndDetail) {
  try {
    HISTCC_REQUIRE(1 == 2, "the detail");
    FAIL() << "expected contract_error";
  } catch (const hu::contract_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("1 == 2"), std::string::npos);
    EXPECT_NE(msg.find("the detail"), std::string::npos);
  }
}

TEST(RngTest, DeterministicForSeed) {
  hu::Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  hu::Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) ++equal;
  }
  EXPECT_LT(equal, 5);
}

TEST(RngTest, NextBelowInRange) {
  hu::Rng rng(7);
  for (const std::uint64_t bound : {1ull, 2ull, 10ull, 1000ull, 1ull << 40}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.next_below(bound), bound);
    }
  }
}

TEST(RngTest, NextBelowCoversSmallRange) {
  hu::Rng rng(9);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.next_below(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(RngTest, DoubleInUnitInterval) {
  hu::Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.next_double();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(RngTest, BernoulliExtremes) {
  hu::Rng rng(13);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.next_bool(0.0));
    EXPECT_TRUE(rng.next_bool(1.0));
  }
}

TEST(RngTest, BernoulliRoughlyCalibrated) {
  hu::Rng rng(17);
  int hits = 0;
  const int trials = 20000;
  for (int i = 0; i < trials; ++i) {
    if (rng.next_bool(0.3)) ++hits;
  }
  const double rate = static_cast<double>(hits) / trials;
  EXPECT_NEAR(rate, 0.3, 0.02);
}

TEST(TimerTest, MeasuresElapsedTime) {
  hu::Timer t;
  const double a = t.seconds();
  EXPECT_GE(a, 0.0);
  volatile double sink = 0;
  for (int i = 0; i < 100000; ++i) sink = sink + i;
  EXPECT_GE(t.seconds(), a);
  EXPECT_GE(t.nanoseconds(), 0);
}
