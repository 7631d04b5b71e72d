// Tests for the explain renderers: the annotated strategy tree (visit
// order, profiled estimates, HOT markers), the PIB estimate-state view
// (climb history, Delta~ margins, delta budget), the QP^A sampler view,
// and end-to-end determinism over fixed-seed learning runs.

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/explain.h"
#include "core/pao.h"
#include "core/pib.h"
#include "engine/query_processor.h"
#include "obs/observer.h"
#include "obs/profiler.h"
#include "workload/random_tree.h"
#include "workload/synthetic_oracle.h"

namespace stratlearn {
namespace {

/// Figure 2's two-path shape: root with two reduction children, each
/// leading to one retrieval.
InferenceGraph TwoPathGraph() {
  InferenceGraph g;
  NodeId root = g.AddRoot("q");
  auto a = g.AddChild(root, "left", ArcKind::kReduction, 1.0, "A");
  g.AddRetrieval(a.node, 2.0, "B");
  auto c = g.AddChild(root, "right", ArcKind::kReduction, 1.0, "C");
  g.AddRetrieval(c.node, 1.0, "D");
  return g;
}

TEST(ExplainTreeTest, UnprofiledTreeShowsVisitOrder) {
  InferenceGraph g = TwoPathGraph();
  Strategy depth_first = Strategy::DepthFirst(g);
  std::string tree = ExplainStrategyTree(g, depth_first);
  EXPECT_EQ(tree,
            "strategy <A B C D>\n"
            "q\n"
            "  #1 A (reduction, f=1)  p=1 (deterministic)\n"
            "    left\n"
            "      #2 B (retrieval, f=2)\n"
            "        [success]\n"
            "  #3 C (reduction, f=1)  p=1 (deterministic)\n"
            "    right\n"
            "      #4 D (retrieval, f=1)\n"
            "        [success]\n");
}

TEST(ExplainTreeTest, ChildrenFollowStrategyOrderNotGraphOrder) {
  InferenceGraph g = TwoPathGraph();
  // Visit the right path (arcs 2,3) before the left one.
  Result<Strategy> swapped = Strategy::FromArcOrder(g, {2, 3, 0, 1});
  ASSERT_TRUE(swapped.ok());
  std::string tree = ExplainStrategyTree(g, *swapped);
  EXPECT_LT(tree.find("#1 C"), tree.find("#3 A"));
  EXPECT_LT(tree.find("#2 D"), tree.find("#4 B"));
}

TEST(ExplainTreeTest, ProfiledTreeAnnotatesEstimatesAndHotArcs) {
  InferenceGraph g = TwoPathGraph();
  obs::StrategyProfiler profiler;
  // 90% of the cost flows through arc 1; arc 3 is cold; arc 2 never ran.
  for (int i = 0; i < 100; ++i) {
    obs::ArcAttemptEvent e;
    e.arc = 1;
    e.experiment = 0;
    e.unblocked = i < 75;
    e.cost = 9.0;
    profiler.On(e);
  }
  for (int i = 0; i < 100; ++i) {
    obs::ArcAttemptEvent e;
    e.arc = 3;
    e.experiment = 1;
    e.unblocked = true;
    e.cost = 1.0;
    profiler.On(e);
  }
  std::string tree =
      ExplainStrategyTree(g, Strategy::DepthFirst(g), &profiler);
  EXPECT_NE(tree.find("#2 B (retrieval, f=2)  p^=0.75 +/- 0.122  "
                      "n=100 mean=9 share=90.0%  HOT"),
            std::string::npos)
      << tree;
  EXPECT_NE(tree.find("#4 D (retrieval, f=1)  p^=1 +/- 0.122  "
                      "n=100 mean=1 share=10.0%  HOT"),
            std::string::npos)
      << tree;
  EXPECT_NE(tree.find("#1 A (reduction, f=1)  p=1 (deterministic)  "
                      "[unobserved]"),
            std::string::npos)
      << tree;
}

TEST(ExplainPibTest, RendersClimbHistoryMarginsAndBudget) {
  Rng rng(99);
  RandomTree tree = MakeRandomTree(rng);
  Pib pib(&tree.graph, Strategy::DepthFirst(tree.graph),
          PibOptions{.delta = 0.2});
  QueryProcessor qp(&tree.graph);
  IndependentOracle oracle(tree.probs);
  for (int64_t i = 0; i < 2000; ++i) {
    pib.Observe(qp.Execute(pib.strategy(), oracle.Next(rng)));
  }
  ASSERT_GE(pib.moves().size(), 1u);

  PibSnapshot snap = pib.Snapshot();
  EXPECT_EQ(snap.moves.size(), pib.moves().size());
  EXPECT_GT(snap.delta_spent_moves, 0.0);
  EXPECT_LT(snap.delta_spent_moves, snap.delta);

  std::string text = ExplainPibState(snap);
  EXPECT_NE(text.find("PIB state: 2000 contexts"), std::string::npos);
  EXPECT_NE(text.find("climb history:"), std::string::npos);
  EXPECT_NE(text.find("#0 at context"), std::string::npos);
  EXPECT_NE(text.find("delta budget: lifetime 0.2"), std::string::npos);
  EXPECT_NE(text.find("neighbourhood"), std::string::npos);
  // Every current neighbour row reports margin = delta_sum - threshold.
  for (const PibSnapshot::Neighbor& n : snap.neighbors) {
    EXPECT_NEAR(n.margin, n.delta_sum - n.threshold, 1e-9);
  }
}

TEST(ExplainPaoTest, RendersQuotaTableWithArcLabels) {
  InferenceGraph g = TwoPathGraph();
  IndependentOracle oracle({0.3, 0.8});
  Rng rng(7);
  PaoOptions options;
  options.epsilon = 1.0;
  options.delta = 0.2;
  Result<PaoResult> result = Pao::Run(g, oracle, rng, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->sampler.experiments.size(), 2u);
  EXPECT_TRUE(result->sampler.quotas_met);
  EXPECT_EQ(result->sampler.contexts, result->contexts_used);
  for (size_t i = 0; i < 2; ++i) {
    const auto& e = result->sampler.experiments[i];
    EXPECT_EQ(e.quota, result->quotas[i]);
    EXPECT_LE(e.remaining, 0);
    EXPECT_GE(e.attempts, e.quota);
    EXPECT_NEAR(e.p_hat, result->estimates[i], 1e-12);
  }

  std::string text = ExplainPaoState(g, result->sampler);
  EXPECT_NE(text.find("quotas met"), std::string::npos);
  EXPECT_NE(text.find("B"), std::string::npos);
  EXPECT_NE(text.find("D"), std::string::npos);
  EXPECT_NE(text.find("experiment"), std::string::npos) << text;
}

TEST(ExplainDeterminismTest, IdenticalRunsRenderIdentically) {
  auto render = [] {
    Rng rng(42);
    RandomTree tree = MakeRandomTree(rng);
    obs::StrategyProfiler profiler;
    obs::MetricsRegistry registry;
    obs::Observer observer(&registry, &profiler);
    Pib pib(&tree.graph, Strategy::DepthFirst(tree.graph),
            PibOptions{.delta = 0.2}, &observer);
    QueryProcessor qp(&tree.graph, &observer);
    IndependentOracle oracle(tree.probs);
    for (int64_t i = 0; i < 1000; ++i) {
      pib.Observe(qp.Execute(pib.strategy(), oracle.Next(rng)));
    }
    return ExplainStrategyTree(tree.graph, pib.strategy(), &profiler) +
           ExplainPibState(pib.Snapshot()) + profiler.ReportText();
  };
  EXPECT_EQ(render(), render());
}

}  // namespace
}  // namespace stratlearn
