#include "core/delta_estimator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <string>

#include "core/pib.h"
#include "core/transformations.h"
#include "graph/examples.h"
#include "robust/checkpoint.h"
#include "robust/fault_injector.h"
#include "workload/random_tree.h"
#include "workload/synthetic_oracle.h"

namespace stratlearn {
namespace {

TEST(DeltaEstimatorTest, ExactDeltaOnPaperContexts) {
  FigureOneGraph g = MakeFigureOne();
  DeltaEstimator estimator(&g.graph);
  Strategy theta1 = Strategy::FromLeafOrder(g.graph, {g.d_p, g.d_g});
  Strategy theta2 = Strategy::FromLeafOrder(g.graph, {g.d_g, g.d_p});
  // I_1 (manolis): c(T1) = 4, c(T2) = 2 -> Delta = 2.
  Context i1(2);
  i1.Set(1, true);
  EXPECT_DOUBLE_EQ(estimator.ExactDelta(theta1, theta2, i1), 2.0);
  // I_2 (russ): Delta = 2 - 4 = -2.
  Context i2(2);
  i2.Set(0, true);
  EXPECT_DOUBLE_EQ(estimator.ExactDelta(theta1, theta2, i2), -2.0);
}

TEST(DeltaEstimatorTest, PaperUnderEstimateCases) {
  // Section 3.1's three cases for Theta_1 vs Theta_2 on G_A:
  //  * solution under R_g only: Delta~ = f*(R_p) = 2 (and is exact);
  //  * no solution anywhere: Delta~ = 0;
  //  * solution under R_p: Delta~ = -f*(R_g) = -2 (the pessimistic
  //    value; the true Delta is -2 or +... >= -2).
  FigureOneGraph g = MakeFigureOne();
  DeltaEstimator estimator(&g.graph);
  QueryProcessor qp(&g.graph);
  Strategy theta1 = Strategy::FromLeafOrder(g.graph, {g.d_p, g.d_g});
  Strategy theta2 = Strategy::FromLeafOrder(g.graph, {g.d_g, g.d_p});

  Context grad_only(2);
  grad_only.Set(1, true);
  EXPECT_DOUBLE_EQ(
      estimator.UnderEstimate(qp.Execute(theta1, grad_only), theta2), 2.0);

  Context none(2);
  EXPECT_DOUBLE_EQ(estimator.UnderEstimate(qp.Execute(theta1, none), theta2),
                   0.0);

  Context prof_only(2);
  prof_only.Set(0, true);
  EXPECT_DOUBLE_EQ(
      estimator.UnderEstimate(qp.Execute(theta1, prof_only), theta2), -2.0);
  // With both facts present the trace is identical (D_g unobserved), so
  // the pessimistic estimate is the same -2 although true Delta = 0.
  Context both = Context::AllUnblocked(2);
  EXPECT_DOUBLE_EQ(
      estimator.UnderEstimate(qp.Execute(theta1, both), theta2), -2.0);
  EXPECT_DOUBLE_EQ(estimator.ExactDelta(theta1, theta2, both), 0.0);
}

TEST(DeltaEstimatorTest, FigureTwoSectionThreeTwoCase) {
  // Section 3.2: running Theta_ABCD in context I_c (first solution at
  // D_c, D_d unobserved), the under-estimate for Theta_ABDC is
  // -f*(R_td) = -2.
  FigureTwoGraph g = MakeFigureTwo();
  DeltaEstimator estimator(&g.graph);
  QueryProcessor qp(&g.graph);
  Strategy theta_abcd = Strategy::DepthFirst(g.graph);
  SiblingSwap tau_dc{g.graph.arc(g.r_tc).from, g.r_tc, g.r_td};
  Strategy theta_abdc = ApplySwap(g.graph, theta_abcd, tau_dc);

  Context i_c(4);
  i_c.Set(g.graph.ExperimentIndex(g.d_c), true);
  Trace trace = qp.Execute(theta_abcd, i_c);
  EXPECT_DOUBLE_EQ(estimator.UnderEstimate(trace, theta_abdc), -2.0);

  // And the paper's two exact values depending on D_d:
  Context with_d = i_c;
  with_d.Set(g.graph.ExperimentIndex(g.d_d), true);
  // Delta = f*(R_tc) - f*(R_td) = 0 when D_d is not blocked.
  EXPECT_DOUBLE_EQ(estimator.ExactDelta(theta_abcd, theta_abdc, with_d), 0.0);
  // Delta = -f*(R_td) = -2 when D_d is blocked.
  EXPECT_DOUBLE_EQ(estimator.ExactDelta(theta_abcd, theta_abdc, i_c), -2.0);
}

// The soundness property behind Theorem 1: for every context and every
// sibling-swap neighbour, UnderEstimate <= ExactDelta <= OverEstimate.
class DeltaSoundnessProperty : public ::testing::TestWithParam<int> {};

TEST_P(DeltaSoundnessProperty, UnderAndOverBoundsHoldExhaustively) {
  Rng rng(3000 + GetParam());
  RandomTreeOptions options;
  options.depth = 2 + GetParam() % 2;
  options.internal_experiment_prob = (GetParam() % 3 == 0) ? 0.4 : 0.0;
  RandomTree tree = MakeRandomTree(rng, options);
  size_t n = tree.graph.num_experiments();
  if (n > 10) GTEST_SKIP() << "too large to enumerate";

  DeltaEstimator estimator(&tree.graph);
  QueryProcessor qp(&tree.graph);
  std::vector<ArcId> leaves = tree.graph.SuccessArcs();
  rng.Shuffle(leaves);
  Strategy theta = Strategy::FromLeafOrder(tree.graph, leaves);

  for (const SiblingSwap& swap : AllSiblingSwaps(tree.graph)) {
    Strategy alt = ApplySwap(tree.graph, theta, swap);
    for (uint64_t mask = 0; mask < (uint64_t{1} << n); ++mask) {
      Context ctx = Context::FromMask(n, mask);
      Trace trace = qp.Execute(theta, ctx);
      double exact = estimator.ExactDelta(theta, alt, ctx);
      double under = estimator.UnderEstimate(trace, alt);
      double over = estimator.OverEstimate(trace, alt);
      EXPECT_LE(under, exact + 1e-9)
          << "mask=" << mask << " swap=" << swap.ToString(tree.graph);
      EXPECT_GE(over, exact - 1e-9)
          << "mask=" << mask << " swap=" << swap.ToString(tree.graph);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomTrees, DeltaSoundnessProperty,
                         ::testing::Range(0, 30));

TEST(DeltaEstimatorTest, UnderEstimateIsExactWhenEverythingObserved) {
  // When the trace observed every experiment (no solution anywhere), the
  // pessimistic completion is the true context.
  FigureTwoGraph g = MakeFigureTwo();
  DeltaEstimator estimator(&g.graph);
  QueryProcessor qp(&g.graph);
  Strategy theta = Strategy::DepthFirst(g.graph);
  Context none(4);
  Trace trace = qp.Execute(theta, none);
  for (const SiblingSwap& swap : AllSiblingSwaps(g.graph)) {
    Strategy alt = ApplySwap(g.graph, theta, swap);
    EXPECT_DOUBLE_EQ(estimator.UnderEstimate(trace, alt),
                     estimator.ExactDelta(theta, alt, none));
  }
}

// ---- Incremental Delta~ / Delta^ against the replay oracle ----------------

/// A random tree mixing every shape the region identity must survive:
/// early leaves, guarded internal experiments, dead-end subtrees and
/// outcome-dependent costs. Every cost is an integer when `integer`. At
/// most 10 experiments, so every context can be enumerated.
InferenceGraph MakeMixedTree(Rng& rng, bool integer) {
  for (;;) {
    InferenceGraph g;
    g.AddRoot("root");
    auto cost = [&] {
      return integer ? static_cast<double>(rng.NextInt(1, 3))
                     : rng.NextUniform(0.5, 2.0);
    };
    auto extra = [&] {
      return integer ? static_cast<double>(rng.NextInt(0, 2))
                     : rng.NextUniform(0.0, 1.5);
    };
    int next = 0;
    std::function<void(NodeId, int)> grow = [&](NodeId parent, int depth) {
      int64_t children = rng.NextInt(2, 3);
      for (int64_t c = 0; c < children; ++c) {
        std::string label = "a" + std::to_string(next++);
        double roll = rng.NextDouble();
        InferenceGraph::AddResult added;
        if (depth == 0 || roll < 0.3) {
          added = g.AddRetrieval(parent, cost(), label);
        } else if (roll < 0.45) {  // dead end: no success below
          added = g.AddChild(parent, label, ArcKind::kReduction, cost(),
                             label, rng.NextBernoulli(0.5));
        } else {
          added = g.AddChild(parent, label, ArcKind::kReduction, cost(),
                             label, rng.NextBernoulli(0.3));
          grow(added.node, depth - 1);
        }
        if (rng.NextBernoulli(0.4)) {
          g.SetOutcomeCosts(added.arc, extra(), extra());
        }
      }
    };
    grow(g.root(), 2);
    if (g.num_experiments() <= 10 && g.SuccessArcs().size() >= 2) return g;
  }
}

/// A lazy, hierarchically contiguous strategy: the leaves in a random
/// depth-first order.
Strategy RandomContiguous(const InferenceGraph& g, Rng& rng) {
  std::vector<ArcId> leaves;
  std::function<void(NodeId)> visit = [&](NodeId n) {
    std::vector<ArcId> out = g.node(n).out_arcs;
    rng.Shuffle(out);
    for (ArcId a : out) {
      if (g.node(g.arc(a).to).is_success) {
        leaves.push_back(a);
      } else {
        visit(g.arc(a).to);
      }
    }
  };
  visit(g.root());
  return Strategy::FromLeafOrder(g, leaves);
}

/// Random starting sums: a learner's sums mid-epoch (never -0.0, which no
/// sum that starts at +0.0 can hold).
std::vector<double> RandomSums(Rng& rng, size_t n) {
  std::vector<double> sums(n, 0.0);
  for (double& s : sums) {
    if (rng.NextBernoulli(0.75)) s = rng.NextUniform(-40.0, 40.0);
  }
  return sums;
}

// AddUnderEstimates adds to random starting sums exactly what the full
// Costs path gives, bit for bit, and the per-neighbour replay's Delta~
// (exactly with integer costs, to 1e-9 with fractional ones); Delta^
// equals the replay the same way; and Delta~ <= Delta <= Delta^ holds on
// every context.
class IncrementalDeltaProperty : public ::testing::TestWithParam<int> {};

TEST_P(IncrementalDeltaProperty, MatchesReplayOnEveryContext) {
  const bool integer = GetParam() % 2 == 0;
  Rng rng(5000 + GetParam());
  InferenceGraph g = MakeMixedTree(rng, integer);
  DeltaEstimator estimator(&g);
  QueryProcessor qp(&g);
  SwapNeighborhood hood(g, RandomContiguous(g, rng), AllSiblingSwaps(g));
  ASSERT_TRUE(hood.incremental());
  ASSERT_GT(hood.size(), 0u);

  const size_t n = g.num_experiments();
  SwapNeighborhood::Scratch scratch;
  std::vector<double> costs, over;
  for (uint64_t mask = 0; mask < (uint64_t{1} << n); ++mask) {
    Context ctx = Context::FromMask(n, mask);
    Trace trace = qp.Execute(hood.strategy(), ctx);
    const std::vector<double> start = RandomSums(rng, hood.size());
    std::vector<double> sums = start;
    estimator.AddUnderEstimates(trace, hood, &sums);
    hood.Costs(estimator.Pessimistic(trace), &scratch, &costs);
    estimator.OverEstimates(trace, hood, &over);
    ASSERT_EQ(sums.size(), hood.size());
    ASSERT_EQ(costs.size(), hood.size());
    ASSERT_EQ(over.size(), hood.size());
    for (size_t j = 0; j < hood.size(); ++j) {
      EXPECT_EQ(sums[j], start[j] + (trace.cost - costs[j]))
          << "mask=" << mask << " j=" << j;
      const Strategy& alt = hood.neighbors()[j].strategy;
      double under_ref = estimator.UnderEstimate(trace, alt);
      double over_ref = estimator.OverEstimate(trace, alt);
      if (integer) {
        EXPECT_EQ(sums[j], start[j] + under_ref) << "mask=" << mask;
        EXPECT_EQ(over[j], over_ref) << "mask=" << mask << " j=" << j;
      } else {
        EXPECT_NEAR(sums[j], start[j] + under_ref, 1e-9) << "mask=" << mask;
        EXPECT_NEAR(over[j], over_ref, 1e-9) << "mask=" << mask;
      }
      double exact = estimator.ExactDelta(hood.strategy(), alt, ctx);
      EXPECT_LE(trace.cost - costs[j], exact + 1e-9)
          << "mask=" << mask << " j=" << j;
      EXPECT_GE(over[j], exact - 1e-9) << "mask=" << mask << " j=" << j;
    }
  }
}

// The identity behind the fast path holds for every completion, not just
// the estimators' own: random outcomes on every experiment, including
// successes below a parent the run never reaches.
TEST_P(IncrementalDeltaProperty, RegionIdentityHoldsForAnyCompletion) {
  const bool integer = GetParam() % 2 == 0;
  Rng rng(7000 + GetParam());
  InferenceGraph g = MakeMixedTree(rng, integer);
  DeltaEstimator estimator(&g);
  SwapNeighborhood hood(g, RandomContiguous(g, rng), AllSiblingSwaps(g));
  ASSERT_TRUE(hood.incremental());
  SwapNeighborhood::Scratch scratch;
  std::vector<double> costs;
  for (int trial = 0; trial < 200; ++trial) {
    Completion k;
    for (ArcId a = 0; a < g.num_arcs(); ++a) {
      const Arc& arc = g.arc(a);
      bool unblocked = arc.experiment < 0 || rng.NextBernoulli(0.5);
      k.unblocked.push_back(unblocked ? 1 : 0);
      k.cost.push_back(arc.cost +
                       (unblocked ? arc.success_cost : arc.failure_cost));
    }
    hood.Costs(k, &scratch, &costs);
    ASSERT_EQ(costs.size(), hood.size());
    for (size_t j = 0; j < hood.size(); ++j) {
      double replay = estimator.Cost(hood.neighbors()[j].strategy, k);
      if (integer) {
        EXPECT_EQ(costs[j], replay) << "trial=" << trial << " j=" << j;
      } else {
        EXPECT_NEAR(costs[j], replay, 1e-9) << "trial=" << trial;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(MixedTrees, IncrementalDeltaProperty,
                         ::testing::Range(0, 40));

TEST(SwapNeighborhoodTest, StrategyShapePicksThePath) {
  FigureTwoGraph g = MakeFigureTwo();
  std::vector<SiblingSwap> swaps = AllSiblingSwaps(g.graph);
  EXPECT_TRUE(
      SwapNeighborhood(g.graph, Strategy::DepthFirst(g.graph), swaps)
          .incremental());
  EXPECT_TRUE(SwapNeighborhood(g.graph,
                               Strategy::FromLeafOrder(
                                   g.graph, {g.d_c, g.d_d, g.d_b, g.d_a}),
                               swaps)
                  .incremental());
  // Interleaved: D_a splits S's leaves (and T's) apart.
  SwapNeighborhood interleaved(
      g.graph, Strategy::FromLeafOrder(g.graph, {g.d_b, g.d_c, g.d_a, g.d_d}),
      swaps);
  EXPECT_FALSE(interleaved.incremental());
  EXPECT_GT(interleaved.size(), 0u);

  // A dead-end subtree under A: depth-first visits it mid-strategy, so
  // the strategy is not lazy; its canonical form is.
  InferenceGraph dead = g.graph;
  dead.AddChild(dead.arc(g.r_ga).to, "E", ArcKind::kReduction, 1.0, "R_ae",
                /*is_experiment=*/true);
  std::vector<SiblingSwap> dead_swaps = AllSiblingSwaps(dead);
  Strategy depth_first = Strategy::DepthFirst(dead);
  ASSERT_NE(depth_first, depth_first.Canonicalized(dead));
  EXPECT_FALSE(SwapNeighborhood(dead, depth_first, dead_swaps).incremental());
  EXPECT_TRUE(SwapNeighborhood(dead, depth_first.Canonicalized(dead),
                               dead_swaps)
                  .incremental());

  // Both fallbacks still give the replay's estimates, added to any sums.
  DeltaEstimator estimator(&dead);
  QueryProcessor qp(&dead);
  Rng rng(17);
  const SwapNeighborhood fallbacks[] = {
      SwapNeighborhood(dead, depth_first, dead_swaps),
      SwapNeighborhood(
          dead, Strategy::FromLeafOrder(dead, {g.d_b, g.d_c, g.d_a, g.d_d}),
          dead_swaps)};
  std::vector<double> over;
  const size_t n = dead.num_experiments();
  for (const SwapNeighborhood& fallback : fallbacks) {
    ASSERT_FALSE(fallback.incremental());
    ASSERT_GT(fallback.size(), 0u);
    for (uint64_t mask = 0; mask < (uint64_t{1} << n); ++mask) {
      Trace trace =
          qp.Execute(fallback.strategy(), Context::FromMask(n, mask));
      const std::vector<double> start = RandomSums(rng, fallback.size());
      std::vector<double> sums = start;
      estimator.AddUnderEstimates(trace, fallback, &sums);
      estimator.OverEstimates(trace, fallback, &over);
      for (size_t j = 0; j < fallback.size(); ++j) {
        const Strategy& alt = fallback.neighbors()[j].strategy;
        EXPECT_EQ(sums[j], start[j] + estimator.UnderEstimate(trace, alt));
        EXPECT_EQ(over[j], estimator.OverEstimate(trace, alt));
      }
    }
  }
}

// Injected faults (transient, timeout, cost spike, an open breaker)
// inflate trace.cost above c(Theta, J), and stop_after_successes = 2
// runs past the first success. Each makes trace.cost - c(Theta, J)
// nonzero, which every neighbour outside the entered regions adds; PIB's
// sums must still be the replay's, bit for bit.
TEST(IncrementalDeltaTest, PibSumsMatchReplayUnderFaultsAndFirstKAnswers) {
  FigureTwoGraph fig = MakeFigureTwo();
  Rng tree_rng(23);
  InferenceGraph mixed = MakeMixedTree(tree_rng, /*integer=*/true);
  robust::FaultPlan plan;
  plan.seed = 3;
  plan.rules.push_back({robust::FaultKind::kTransient, 0.3, -1, 1.0});
  plan.rules.push_back({robust::FaultKind::kTimeout, 0.15, -1, 2.0});
  plan.rules.push_back({robust::FaultKind::kCostSpike, 0.2, -1, 2.5});
  plan.resilience.max_retries = 1;
  plan.resilience.breaker_threshold = 2;
  plan.resilience.breaker_cooldown = 4;
  struct Case {
    const InferenceGraph* graph;
    Strategy initial;
    bool faults;
    int64_t stop_after_successes;
  };
  const Case cases[] = {
      {&fig.graph, Strategy::DepthFirst(fig.graph), true, 1},
      {&mixed, RandomContiguous(mixed, tree_rng), true, 1},
      {&fig.graph, Strategy::DepthFirst(fig.graph), false, 2},
      {&mixed, RandomContiguous(mixed, tree_rng), false, 2},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(testing::Message() << "faults=" << c.faults << " arcs="
                                    << c.graph->num_arcs());
    const InferenceGraph& g = *c.graph;
    robust::FaultInjector injector(plan);
    QueryProcessor qp(&g);
    if (c.faults) qp.set_fault_injector(&injector);
    std::vector<double> probs(g.num_experiments(), 0.35);
    IndependentOracle oracle(probs);
    Pib pib(&g, c.initial, PibOptions{.delta = 0.3});
    DeltaEstimator estimator(&g);
    std::vector<double> reference(pib.num_neighbors(), 0.0);
    int inflated = 0, infra = 0, opened = 0, past_first = 0;
    Rng rng(11);
    for (int i = 0; i < 3000; ++i) {
      SwapNeighborhood hood(g, pib.strategy(), AllSiblingSwaps(g));
      ASSERT_TRUE(hood.incremental());
      Trace trace =
          qp.Execute(pib.strategy(), oracle.Next(rng),
                     {.stop_after_successes = c.stop_after_successes});
      inflated += trace.cost != estimator.Cost(pib.strategy(),
                                               estimator.Pessimistic(trace));
      infra += std::any_of(trace.attempts.begin(), trace.attempts.end(),
                           [](const ArcAttempt& at) {
                             return at.infra_failure;
                           });
      past_first += trace.successes > 1;
      const robust::FaultInjectorState state = injector.SaveState();
      opened += std::any_of(state.breakers.begin(), state.breakers.end(),
                            [](const auto& b) { return b.open_until > 0; });
      for (size_t j = 0; j < hood.size(); ++j) {
        reference[j] +=
            estimator.UnderEstimate(trace, hood.neighbors()[j].strategy);
      }
      if (pib.Observe(trace)) {
        reference.assign(pib.num_neighbors(), 0.0);
        continue;
      }
      for (size_t j = 0; j < pib.num_neighbors(); ++j) {
        ASSERT_EQ(pib.DeltaSumFor(j), reference[j]) << "context " << i;
      }
    }
    EXPECT_GT(inflated, 0);
    if (c.faults) {
      EXPECT_GT(infra, 0);
      EXPECT_GT(opened, 0);
    } else {
      EXPECT_GT(past_first, 0);
    }
  }
}

// One estimator fed interleaved traces of different strategies and
// contexts, some faulted, restores J0 after each: every result equals a
// fresh estimator's, bit for bit.
TEST(IncrementalDeltaTest, PatchedCompletionIsRestoredAfterEveryTrace) {
  Rng rng(31);
  InferenceGraph g = MakeMixedTree(rng, /*integer=*/false);
  std::vector<SwapNeighborhood> hoods;
  for (int i = 0; i < 4; ++i) {
    hoods.emplace_back(g, RandomContiguous(g, rng), AllSiblingSwaps(g));
  }
  hoods.emplace_back(g, Strategy::DepthFirst(g), AllSiblingSwaps(g));
  robust::FaultPlan plan;
  plan.seed = 5;
  plan.rules.push_back({robust::FaultKind::kTransient, 0.3, -1, 1.0});
  plan.rules.push_back({robust::FaultKind::kCostSpike, 0.2, -1, 2.5});
  robust::FaultInjector injector(plan);
  QueryProcessor plain(&g), faulted(&g);
  faulted.set_fault_injector(&injector);
  const size_t n = g.num_experiments();
  DeltaEstimator shared(&g);
  for (int i = 0; i < 500; ++i) {
    const SwapNeighborhood& hood = hoods[rng.NextInt(0, 4)];
    Context ctx = Context::FromMask(n, rng.NextInt(0, (int64_t{1} << n) - 1));
    Trace trace = (i % 3 == 0 ? faulted : plain).Execute(hood.strategy(), ctx);
    const std::vector<double> start = RandomSums(rng, hood.size());
    std::vector<double> reused = start, fresh = start;
    shared.AddUnderEstimates(trace, hood, &reused);
    DeltaEstimator(&g).AddUnderEstimates(trace, hood, &fresh);
    for (size_t j = 0; j < hood.size(); ++j) {
      ASSERT_EQ(reused[j], fresh[j]) << "trace " << i << " j=" << j;
    }
  }
}

// Observe skips the +0.0 a neighbour outside the entered regions would
// add, so a -0.0 sum read from a checkpoint file is stored as +0.0, the
// value that add would have made of it.
TEST(IncrementalDeltaTest, RestoredNegativeZeroSumsBecomePositiveZero) {
  FigureTwoGraph g = MakeFigureTwo();
  Pib pib(&g.graph, Strategy::DepthFirst(g.graph), PibOptions{.delta = 0.3});
  Pib::Checkpoint checkpoint = pib.GetCheckpoint();
  ASSERT_GT(checkpoint.neighbor_delta_sums.size(), 0u);
  checkpoint.neighbor_delta_sums.assign(checkpoint.neighbor_delta_sums.size(),
                                        -0.0);
  ASSERT_TRUE(pib.RestoreCheckpoint(checkpoint).ok());
  for (size_t j = 0; j < pib.num_neighbors(); ++j) {
    EXPECT_FALSE(std::signbit(pib.DeltaSumFor(j))) << "j=" << j;
  }
}

// A learner checkpointed mid-epoch and restored into a fresh instance
// continues exactly as the uninterrupted run: same sums, same moves.
TEST(IncrementalDeltaTest, CheckpointMidEpochResumesExactly) {
  Rng tree_rng(21);
  RandomTree tree = MakeRandomTree(tree_rng);
  // Only the last retrieval is likely to succeed, so PIB climbs away
  // from depth-first.
  std::vector<double> probs(tree.probs.size(), 0.03);
  probs.back() = 0.9;
  IndependentOracle oracle(probs);
  QueryProcessor qp(&tree.graph);
  const Strategy initial = Strategy::DepthFirst(tree.graph);
  const int total = 1500, cut = 700;

  auto pib_bytes = [](const Pib& pib) {
    robust::CheckpointData data;
    data.learner = "pib";
    data.pib = pib.GetCheckpoint();
    return robust::SerializeCheckpoint(data);
  };
  Pib pib_a(&tree.graph, initial, PibOptions{.delta = 0.3});
  Pib pib_b(&tree.graph, initial, PibOptions{.delta = 0.3});
  Rng rng_a(5), rng_b(5);
  for (int i = 0; i < total; ++i) {
    pib_a.Observe(qp.Execute(pib_a.strategy(), oracle.Next(rng_a)));
  }
  for (int i = 0; i < cut; ++i) {
    pib_b.Observe(qp.Execute(pib_b.strategy(), oracle.Next(rng_b)));
  }
  ASSERT_GT(pib_b.samples_in_epoch(), 0);
  Pib pib_c(&tree.graph, initial, PibOptions{.delta = 0.3});
  ASSERT_TRUE(pib_c.RestoreCheckpoint(pib_b.GetCheckpoint()).ok());
  for (int i = cut; i < total; ++i) {
    pib_c.Observe(qp.Execute(pib_c.strategy(), oracle.Next(rng_b)));
  }
  EXPECT_GT(pib_a.moves().size(), 0u);
  EXPECT_EQ(pib_bytes(pib_c), pib_bytes(pib_a));
}

}  // namespace
}  // namespace stratlearn
