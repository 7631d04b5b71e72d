#include "engine/adaptive_qp.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>

#include "graph/examples.h"
#include "robust/fault_injector.h"
#include "robust/fault_plan.h"
#include "workload/random_tree.h"
#include "workload/synthetic_oracle.h"

namespace stratlearn {
namespace {

TEST(AdaptiveQpTest, FixedStrategyWouldStarve) {
  // Section 4.1's motivation: if D_p always succeeds, a fixed Theta_1
  // never samples D_g — but QP^A does.
  FigureOneGraph g = MakeFigureOne();
  AdaptiveQueryProcessor qpa(&g.graph, {5, 5},
                             AdaptiveQueryProcessor::QuotaMode::kAttempts);
  Context always_prof(2);
  always_prof.Set(0, true);
  always_prof.Set(1, true);
  while (!qpa.QuotasMet()) qpa.Process(always_prof);
  EXPECT_GE(qpa.counters()[0].attempts(), 5);
  EXPECT_GE(qpa.counters()[1].attempts(), 5);
}

TEST(AdaptiveQpTest, CrossSamplesCountTowardOtherQuotas) {
  // The paper: "as 18 of the 30 D_p retrievals succeeded, PAO would
  // already have obtained 12 samples of D_g" — a run that fails D_p and
  // falls through to D_g credits D_g's quota too.
  FigureOneGraph g = MakeFigureOne();
  AdaptiveQueryProcessor qpa(&g.graph, {3, 3},
                             AdaptiveQueryProcessor::QuotaMode::kAttempts);
  Context nothing(2);  // both retrievals fail -> both attempted every run
  qpa.Process(nothing);
  EXPECT_EQ(qpa.remaining()[0], 2);
  EXPECT_EQ(qpa.remaining()[1], 2);
  qpa.Process(nothing);
  qpa.Process(nothing);
  EXPECT_TRUE(qpa.QuotasMet());
  EXPECT_EQ(qpa.contexts_processed(), 3);
}

TEST(AdaptiveQpTest, AimsAtLargestRemainingQuota) {
  FigureOneGraph g = MakeFigureOne();
  AdaptiveQueryProcessor qpa(&g.graph, {1, 10},
                             AdaptiveQueryProcessor::QuotaMode::kAttempts);
  Context both = Context::AllUnblocked(2);
  auto step = qpa.Process(both);
  EXPECT_EQ(step.aimed_experiment, 1);  // D_g has the larger quota
  EXPECT_TRUE(step.reached);
}

TEST(AdaptiveQpTest, QuotaZeroMeansDepthFirst) {
  FigureOneGraph g = MakeFigureOne();
  AdaptiveQueryProcessor qpa(&g.graph, {0, 0},
                             AdaptiveQueryProcessor::QuotaMode::kAttempts);
  EXPECT_TRUE(qpa.QuotasMet());
  auto step = qpa.Process(Context::AllUnblocked(2));
  EXPECT_EQ(step.aimed_experiment, -1);
  EXPECT_TRUE(step.trace.success);
}

TEST(AdaptiveQpTest, SuccessFrequenciesMatchCounters) {
  FigureOneGraph g = MakeFigureOne();
  AdaptiveQueryProcessor qpa(&g.graph, {4, 4},
                             AdaptiveQueryProcessor::QuotaMode::kAttempts);
  // D_p succeeds, D_g fails, alternating contexts to hit both quotas.
  Context prof_only(2);
  prof_only.Set(0, true);
  Context neither(2);
  for (int i = 0; i < 4; ++i) {
    qpa.Process(prof_only);
    qpa.Process(neither);
  }
  std::vector<double> p = qpa.SuccessFrequencies();
  ASSERT_EQ(p.size(), 2u);
  EXPECT_GT(p[0], 0.0);
  EXPECT_EQ(p[1], 0.0);  // D_g never succeeded
}

TEST(AdaptiveQpTest, ReachModeCountsBlockedAims) {
  // Chain graph: guard -> leaf. When the guard blocks, the leaf is aimed
  // at but not reached; Theorem 3 mode still credits the aim.
  InferenceGraph g;
  NodeId root = g.AddRoot("goal");
  auto guard = g.AddChild(root, "sub", ArcKind::kReduction, 1.0, "guard",
                          /*is_experiment=*/true);
  ArcId leaf = g.AddRetrieval(guard.node, 1.0, "d").arc;
  g.AddRetrieval(root, 1.0, "other");
  (void)leaf;

  int leaf_exp = 1;  // experiments: guard=0, leaf=1, other=2
  AdaptiveQueryProcessor qpa(&g, {0, 5, 0},
                             AdaptiveQueryProcessor::QuotaMode::kReachAttempts);
  Context guard_blocked = Context::AllUnblocked(3);
  guard_blocked.Set(0, false);
  for (int i = 0; i < 5; ++i) {
    auto step = qpa.Process(guard_blocked);
    EXPECT_EQ(step.aimed_experiment, leaf_exp);
    EXPECT_FALSE(step.reached);
  }
  EXPECT_TRUE(qpa.QuotasMet());
  EXPECT_EQ(qpa.counters()[leaf_exp].reach_attempts(), 5);
  EXPECT_EQ(qpa.counters()[leaf_exp].attempts(), 0);
  // Never-reached experiments fall back to 0.5 (Theorem 3).
  EXPECT_EQ(qpa.SuccessFrequencies()[leaf_exp], 0.5);
}

TEST(AdaptiveQpTest, AttemptModeDoesNotCreditBlockedAims) {
  InferenceGraph g;
  NodeId root = g.AddRoot("goal");
  auto guard = g.AddChild(root, "sub", ArcKind::kReduction, 1.0, "guard",
                          /*is_experiment=*/true);
  g.AddRetrieval(guard.node, 1.0, "d");
  AdaptiveQueryProcessor qpa(&g, {0, 3},
                             AdaptiveQueryProcessor::QuotaMode::kAttempts);
  Context guard_blocked(2);
  qpa.Process(guard_blocked);
  EXPECT_EQ(qpa.remaining()[1], 3);  // aim blocked: no attempt credit
  EXPECT_FALSE(qpa.QuotasMet());
}

TEST(AdaptiveQpTest, EveryContextStillGetsAnswered) {
  // Unobtrusiveness: aiming must not break query answering.
  FigureOneGraph g = MakeFigureOne();
  AdaptiveQueryProcessor qpa(&g.graph, {10, 10},
                             AdaptiveQueryProcessor::QuotaMode::kAttempts);
  Rng rng(99);
  IndependentOracle oracle({0.6, 0.15});
  int successes = 0;
  for (int i = 0; i < 200; ++i) {
    Context ctx = oracle.Next(rng);
    bool has_answer = ctx.Unblocked(0) || ctx.Unblocked(1);
    auto step = qpa.Process(ctx);
    EXPECT_EQ(step.trace.success, has_answer);
    if (has_answer) ++successes;
  }
  EXPECT_GT(successes, 50);
}

// Section 4.1's aiming strategy, built the way the paper states it:
// the target's root path Pi(e), then e, then the rest of the
// depth-first strategy in its order; the depth-first strategy itself
// for target -1.
Strategy ReferenceAimingStrategy(const InferenceGraph& g, int target) {
  const Strategy depth_first = Strategy::DepthFirst(g);
  if (target < 0) return depth_first;
  const ArcId e = g.experiments()[static_cast<size_t>(target)];
  std::vector<ArcId> order = g.Pi(e);
  order.push_back(e);
  for (ArcId a : depth_first.arcs()) {
    if (std::find(order.begin(), order.end(), a) == order.end()) {
      order.push_back(a);
    }
  }
  Result<Strategy> strategy = Strategy::FromArcOrder(g, std::move(order));
  EXPECT_TRUE(strategy.ok()) << strategy.status().ToString();
  if (!strategy.ok()) return depth_first;
  return *std::move(strategy);
}

void AssertSameTrace(const Trace& want, const Trace& got) {
  ASSERT_EQ(want.attempts.size(), got.attempts.size());
  for (size_t i = 0; i < want.attempts.size(); ++i) {
    ASSERT_EQ(want.attempts[i].arc, got.attempts[i].arc) << "attempt " << i;
    ASSERT_EQ(want.attempts[i].unblocked, got.attempts[i].unblocked);
    ASSERT_EQ(want.attempts[i].infra_failure, got.attempts[i].infra_failure);
    ASSERT_EQ(want.attempts[i].cost, got.attempts[i].cost);
  }
  ASSERT_EQ(want.cost, got.cost);
  ASSERT_EQ(want.successes, got.successes);
  ASSERT_EQ(want.success, got.success);
  ASSERT_EQ(want.first_success_arc, got.first_success_arc);
}

// Process against a reference QP^A that builds its aiming strategy per
// context and runs it through QueryProcessor::Execute: on 20 random trees
// with early leaves and guarded reductions, 2 000 contexts each, every
// context's target, trace, counters and remaining quotas match. The
// reference keeps its own quota accounting: the target is the first
// experiment with the largest positive remaining quota; every attempt
// that is not an infrastructure failure is a sample; an aim that did not
// arrive is a blocked aim, which Theorem 3 mode charges. Under `plan`,
// each side has its own injector of the same seed. `faulted` receives
// the number of attempts charged other than their nominal cost, and
// `infra_failures` the number that were infrastructure failures.
void ExpectProcessMatchesReference(const robust::FaultPlan* plan,
                                   int64_t* faulted,
                                   int64_t* infra_failures) {
  using QuotaMode = AdaptiveQueryProcessor::QuotaMode;
  Rng rng(2026);
  RandomTreeOptions options;
  options.early_leaf_prob = 0.25;
  options.internal_experiment_prob = 0.3;
  options.max_outcome_cost = 0.5;
  int64_t aimed = 0, depth_first = 0, blocked_aims = 0;
  for (int graph = 0; graph < 20; ++graph) {
    options.depth = 2 + graph % 3;
    const RandomTree tree = MakeRandomTree(rng, options);
    const InferenceGraph& g = tree.graph;
    const size_t n = g.num_experiments();
    const QuotaMode mode =
        graph % 2 == 0 ? QuotaMode::kAttempts : QuotaMode::kReachAttempts;
    std::vector<int64_t> remaining(n);
    for (int64_t& q : remaining) q = rng.NextInt(0, 150);
    std::vector<ExperimentCounter> counters(n);

    AdaptiveQueryProcessor qpa(&g, remaining, mode);
    QueryProcessor qp(&g);
    std::optional<robust::FaultInjector> qpa_faults, qp_faults;
    if (plan != nullptr) {
      qpa.set_fault_injector(&qpa_faults.emplace(*plan));
      qp.set_fault_injector(&qp_faults.emplace(*plan));
    }
    IndependentOracle oracle(tree.probs);
    for (int i = 0; i < 2000; ++i) {
      const std::string where =
          "graph " + std::to_string(graph) + ", context " + std::to_string(i);
      const Context context = oracle.Next(rng);
      int target = -1;
      int64_t target_remaining = 0;
      for (size_t e = 0; e < n; ++e) {
        if (remaining[e] > target_remaining) {
          target = static_cast<int>(e);
          target_remaining = remaining[e];
        }
      }
      const Trace want =
          qp.Execute(ReferenceAimingStrategy(g, target), context);
      const AdaptiveQueryProcessor::StepResult step = qpa.Process(context);
      ASSERT_EQ(step.aimed_experiment, target) << where;
      ASSERT_NO_FATAL_FAILURE(AssertSameTrace(want, step.trace)) << where;

      bool reached = false;
      for (const ArcAttempt& at : want.attempts) {
        const Arc& arc = g.arc(at.arc);
        if (at.cost != arc.cost + (at.unblocked ? arc.success_cost
                                                : arc.failure_cost)) {
          ++*faulted;
        }
        if (at.infra_failure) ++*infra_failures;
        const int e = arc.experiment;
        if (e < 0 || at.infra_failure) continue;
        if (e == target) reached = true;
        counters[e].RecordAttempt(at.unblocked);
        --remaining[e];
      }
      if (target >= 0 && !reached) {
        ++blocked_aims;
        counters[target].RecordBlockedAim();
        if (mode == QuotaMode::kReachAttempts) --remaining[target];
      }
      (target < 0 ? depth_first : aimed) += 1;
      ASSERT_EQ(step.reached, reached) << where;
      ASSERT_EQ(qpa.remaining(), remaining) << where;
      for (size_t e = 0; e < n; ++e) {
        const ExperimentCounter& got = qpa.counters()[e];
        ASSERT_EQ(got.attempts(), counters[e].attempts()) << where;
        ASSERT_EQ(got.successes(), counters[e].successes()) << where;
        ASSERT_EQ(got.reach_attempts(), counters[e].reach_attempts())
            << where;
      }
    }
  }
  // Both kinds of aiming strategy ran, and aims were blocked en route.
  EXPECT_GT(aimed, 0);
  EXPECT_GT(depth_first, 0);
  EXPECT_GT(blocked_aims, 0);
}

TEST(AdaptiveQpTest, ProcessMatchesPerContextAimingStrategy) {
  int64_t faulted = 0, infra_failures = 0;
  ExpectProcessMatchesReference(nullptr, &faulted, &infra_failures);
  EXPECT_EQ(faulted, 0);
}

TEST(AdaptiveQpTest, ProcessMatchesPerContextAimingStrategyUnderFaults) {
  Result<robust::FaultPlan> plan = robust::FaultPlan::Load(
      std::string(STRATLEARN_TESTDATA) + "/faults_transient.plan");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  int64_t faulted = 0, infra_failures = 0;
  ExpectProcessMatchesReference(&*plan, &faulted, &infra_failures);
  EXPECT_GT(faulted, 0);
}

// faults_transient.plan almost never exhausts its retries. This plan
// does, so infrastructure failures and breaker skips reach the quota
// accounting too.
TEST(AdaptiveQpTest, ProcessMatchesPerContextAimingStrategyUnderInfraFailures) {
  robust::FaultPlan plan;
  plan.seed = 11;
  plan.resilience.max_retries = 1;
  plan.resilience.breaker_threshold = 3;
  plan.resilience.breaker_cooldown = 8;
  plan.rules = {{robust::FaultKind::kTransient, 0.4, -1, 1.0}};
  int64_t faulted = 0, infra_failures = 0;
  ExpectProcessMatchesReference(&plan, &faulted, &infra_failures);
  EXPECT_GT(infra_failures, 0);
}

}  // namespace
}  // namespace stratlearn
