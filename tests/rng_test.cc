#include "util/rng.h"

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <vector>

namespace stratlearn {
namespace {

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextUint64(), b.NextUint64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.NextUint64() == b.NextUint64()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    double x = rng.NextDouble();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(RngTest, DoubleMeanIsHalf) {
  Rng rng(11);
  double total = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) total += rng.NextDouble();
  EXPECT_NEAR(total / n, 0.5, 0.01);
}

TEST(RngTest, BoundedStaysInRange) {
  Rng rng(5);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    uint64_t v = rng.NextBounded(7);
    EXPECT_LT(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all residues hit
}

TEST(RngTest, NextIntInclusiveRange) {
  Rng rng(9);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    int64_t v = rng.NextInt(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    if (v == -3) saw_lo = true;
    if (v == 3) saw_hi = true;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(13);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.NextBernoulli(0.0));
    EXPECT_TRUE(rng.NextBernoulli(1.0));
  }
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(17);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    if (rng.NextBernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(RngTest, DiscreteSamplerRespectsWeights) {
  Rng rng(19);
  DiscreteSampler sampler({1.0, 0.0, 3.0});
  int counts[3] = {0, 0, 0};
  const int n = 40000;
  for (int i = 0; i < n; ++i) ++counts[sampler.Next(rng)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[0]) / n, 0.25, 0.02);
  EXPECT_NEAR(static_cast<double>(counts[2]) / n, 0.75, 0.02);
}

/// The linear walk the sampler replaces: re-sum the weights, scale one
/// NextDouble by the total, return the first index whose running sum
/// exceeds it (the last positive weight when rounding runs past the end).
size_t LinearWalk(const std::vector<double>& weights, Rng& rng) {
  double total = 0.0;
  for (double w : weights) total += w;
  double r = rng.NextDouble() * total;
  double acc = 0.0;
  for (size_t i = 0; i < weights.size(); ++i) {
    acc += weights[i];
    if (r < acc) return i;
  }
  for (size_t i = weights.size(); i-- > 0;) {
    if (weights[i] > 0.0) return i;
  }
  return weights.size() - 1;
}

/// Draws `draws` times from one seed through both paths and requires the
/// same index every time.
void ExpectSameDraws(const std::vector<double>& weights, uint64_t seed,
                     int draws) {
  DiscreteSampler sampler(weights);
  Rng walk_rng(seed), sampler_rng(seed);
  for (int i = 0; i < draws; ++i) {
    size_t want = LinearWalk(weights, walk_rng);
    size_t got = sampler.Next(sampler_rng);
    ASSERT_EQ(got, want) << "draw " << i << " of seed " << seed;
  }
}

TEST(RngTest, DiscreteSamplerPicksTheLinearWalksIndex) {
  // 10^6 draws in all, over random vectors of 1-64 weights: zeros
  // (runs of them too), tiny and huge magnitudes, integers.
  Rng gen(31);
  int total_draws = 0;
  for (uint64_t v = 0; total_draws < 1000000; ++v) {
    std::vector<double> weights(gen.NextInt(1, 64));
    for (double& w : weights) {
      switch (gen.NextInt(0, 4)) {
        case 0: w = 0.0; break;
        case 1: w = static_cast<double>(gen.NextInt(1, 9)); break;
        case 2: w = gen.NextDouble() * 1e-300; break;
        case 3: w = gen.NextDouble() * 1e300; break;
        default: w = gen.NextDouble(); break;
      }
    }
    weights[gen.NextBounded(weights.size())] += 1.0;  // a positive sum
    ExpectSameDraws(weights, v, 2000);
    total_draws += 2000;
  }
}

/// An Rng whose next NextDouble() is exactly `u`, a multiple of 2^-53 in
/// [0, 1): xoshiro256**'s output rotl(s[1] * 5, 7) * 9 inverts modulo
/// 2^64.
Rng RngYielding(double u) {
  auto inverse = [](uint64_t x) {  // Newton's iteration, x odd
    uint64_t inv = x;
    for (int i = 0; i < 6; ++i) inv *= 2 - x * inv;
    return inv;
  };
  uint64_t t = (static_cast<uint64_t>(u * 0x1.0p53) << 11) * inverse(9);
  Rng rng(0);
  rng.RestoreState({1, ((t >> 7) | (t << 57)) * inverse(5), 2, 3});
  return rng;
}

TEST(RngTest, DiscreteSamplerBreaksTiesLikeTheLinearWalk) {
  // Partial sums 1, 1, 2, 4: a draw landing exactly on one goes past it
  // and past the zero weight, as the walk's strict `r < acc` does.
  const std::vector<double> weights = {1.0, 0.0, 1.0, 2.0};
  DiscreteSampler sampler(weights);
  const double top = 1.0 - 0x1.0p-53;
  for (double u : {0.0, 0.25, 0.5, 0.75, top}) {
    Rng walk_rng = RngYielding(u), sampler_rng = RngYielding(u);
    Rng probe = RngYielding(u);
    ASSERT_EQ(probe.NextDouble(), u);
    EXPECT_EQ(sampler.Next(sampler_rng), LinearWalk(weights, walk_rng))
        << "u = " << u;
  }
  Rng at_one = RngYielding(0.25);
  EXPECT_EQ(sampler.Next(at_one), 2u);
}

TEST(RngTest, DiscreteSamplerEdgeVectors) {
  ExpectSameDraws({0.0, 0.0, 2.5, 0.0}, 1, 1000);  // one positive weight
  ExpectSameDraws({7.0}, 2, 1000);
  ExpectSameDraws({0.0, 1.0, 0.0, 0.0, 1.0, 0.0, 0.0}, 3, 10000);
  // learnbench's pao_bigdb population: 10^5 Zipf(0.7) weights.
  std::vector<double> zipf(100000);
  for (size_t i = 0; i < zipf.size(); ++i) {
    zipf[i] = std::floor(1e9 / std::pow(static_cast<double>(i + 1), 0.7));
  }
  ExpectSameDraws(zipf, 4, 1000);
}

TEST(RngTest, GaussianMoments) {
  Rng rng(23);
  double sum = 0.0, sq = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    double x = rng.NextGaussian();
    sum += x;
    sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sq / n, 1.0, 0.03);
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(29);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> orig = v;
  rng.Shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(RngTest, ShuffleActuallyPermutes) {
  Rng rng(31);
  std::vector<int> v(50);
  for (int i = 0; i < 50; ++i) v[i] = i;
  std::vector<int> orig = v;
  rng.Shuffle(v);
  EXPECT_NE(v, orig);  // probability ~1/50! of flaking
}

TEST(RngTest, ForkIsIndependent) {
  Rng a(37);
  Rng b = a.Fork();
  EXPECT_NE(a.NextUint64(), b.NextUint64());
}

TEST(RngTest, UniformRange) {
  Rng rng(41);
  for (int i = 0; i < 1000; ++i) {
    double x = rng.NextUniform(2.5, 3.5);
    EXPECT_GE(x, 2.5);
    EXPECT_LT(x, 3.5);
  }
}

}  // namespace
}  // namespace stratlearn
