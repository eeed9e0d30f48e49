#include "src/util/rng.h"

#include <gtest/gtest.h>

#include <bit>
#include <random>
#include <utility>
#include <vector>

#include "src/util/stats.h"

namespace jockey {
namespace {

TEST(RngTest, SameSeedSameStream) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.Uniform(), b.Uniform());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Uniform() == b.Uniform()) {
      ++equal;
    }
  }
  EXPECT_LT(equal, 5);
}

TEST(RngTest, ForkedStreamsAreIndependentOfParentContinuation) {
  Rng parent(7);
  Rng child = parent.Fork();
  // The child's stream should not track the parent's subsequent draws.
  double c1 = child.Uniform();
  parent.Uniform();
  Rng parent2(7);
  Rng child2 = parent2.Fork();
  EXPECT_DOUBLE_EQ(c1, child2.Uniform());
}

TEST(RngTest, NormalIsBitIdenticalToNormalDistribution) {
  const std::pair<double, double> params[] = {
      {0.0, 1.0}, {0.0, 0.05}, {3.5, 2.0}, {-7.25, 1e-9}, {1e6, 123.456}, {0.0, 1.2}};
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed);
    Rng reference(seed);
    for (int draw = 0; draw < 25; ++draw) {
      for (const auto& [mean, stddev] : params) {
        const double got = rng.Normal(mean, stddev);
        const double want = std::normal_distribution<double>(mean, stddev)(reference.engine());
        ASSERT_EQ(std::bit_cast<uint64_t>(got), std::bit_cast<uint64_t>(want))
            << "seed " << seed << " mean " << mean << " stddev " << stddev;
      }
    }
    EXPECT_TRUE(rng.engine() == reference.engine()) << "seed " << seed;
  }
}

TEST(RngTest, NormalWithZeroStddevReturnsMean) {
  Rng rng(11);
  for (double mean : {0.0, 0.5, -3.25, 1e9}) {
    EXPECT_EQ(rng.Normal(mean, 0.0), mean);
  }
}

TEST(RngTest, NormalWithZeroStddevAdvancesTheEngineLikeAnyOther) {
  // A zero-volatility draw must consume exactly the engine draws a nonzero one
  // does, or every later draw of a seeded stream would move.
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    Rng reference(seed);
    for (int draw = 0; draw < 5; ++draw) {
      rng.Normal(2.0, 0.0);
      std::normal_distribution<double>(2.0, 1.0)(reference.engine());
      ASSERT_TRUE(rng.engine() == reference.engine()) << "seed " << seed;
    }
    EXPECT_DOUBLE_EQ(rng.Uniform(), reference.Uniform());
  }
}

TEST(RngTest, UniformRange) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    double x = rng.Uniform(2.0, 5.0);
    EXPECT_GE(x, 2.0);
    EXPECT_LT(x, 5.0);
  }
}

TEST(RngTest, UniformIntInclusiveBounds) {
  Rng rng(3);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    int64_t v = rng.UniformInt(0, 3);
    EXPECT_GE(v, 0);
    EXPECT_LE(v, 3);
    saw_lo |= v == 0;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, BernoulliEdgeCases) {
  Rng rng(5);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
    EXPECT_FALSE(rng.Bernoulli(-0.5));
    EXPECT_TRUE(rng.Bernoulli(1.5));
  }
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(11);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    hits += rng.Bernoulli(0.3) ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(RngTest, ParetoRespectsScale) {
  Rng rng(13);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_GE(rng.Pareto(2.0, 1.5), 2.0);
  }
}

TEST(RngTest, LogNormalMedianApproximatesExpMu) {
  Rng rng(17);
  std::vector<double> xs;
  for (int i = 0; i < 20000; ++i) {
    xs.push_back(rng.LogNormal(std::log(8.0), 0.6));
  }
  EXPECT_NEAR(Quantile(xs, 0.5), 8.0, 0.4);
}

TEST(RngTest, ExponentialMean) {
  Rng rng(19);
  RunningStats s;
  for (int i = 0; i < 20000; ++i) {
    s.Add(rng.Exponential(4.0));
  }
  EXPECT_NEAR(s.mean(), 4.0, 0.15);
}

TEST(RngTest, NearbySeedsDecorrelated) {
  // The splitmix finalizer should keep sequentially-seeded generators independent.
  Rng a(100);
  Rng b(101);
  RunningStats diff;
  for (int i = 0; i < 1000; ++i) {
    diff.Add(a.Uniform() - b.Uniform());
  }
  EXPECT_NEAR(diff.mean(), 0.0, 0.05);
}

}  // namespace
}  // namespace jockey
