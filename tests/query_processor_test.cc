#include "engine/query_processor.h"

#include <gtest/gtest.h>

#include "graph/examples.h"

namespace stratlearn {
namespace {

/// True iff the experiment with this index was attempted in `trace`.
bool Attempted(const Trace& trace, const InferenceGraph& graph,
               int experiment) {
  for (const ArcAttempt& a : trace.attempts) {
    if (graph.arc(a.arc).experiment == experiment) return true;
  }
  return false;
}

class QueryProcessorTest : public ::testing::Test {
 protected:
  QueryProcessorTest()
      : ga_(MakeFigureOne()),
        theta1_(Strategy::FromLeafOrder(ga_.graph, {ga_.d_p, ga_.d_g})),
        theta2_(Strategy::FromLeafOrder(ga_.graph, {ga_.d_g, ga_.d_p})),
        qp_(&ga_.graph) {}

  /// Context I(prof_in_db, grad_in_db): experiment 0 is D_p, 1 is D_g.
  Context MakeContext(bool prof, bool grad) {
    Context c(2);
    c.Set(0, prof);
    c.Set(1, grad);
    return c;
  }

  FigureOneGraph ga_;
  Strategy theta1_, theta2_;
  QueryProcessor qp_;
};

TEST_F(QueryProcessorTest, PaperWorkedCosts) {
  // Section 2.1: I_1 = instructor(manolis) with grad fact only:
  // c(Theta_1, I_1) = 4, c(Theta_2, I_1) = 2.
  Context i1 = MakeContext(false, true);
  EXPECT_DOUBLE_EQ(qp_.Cost(theta1_, i1), 4.0);
  EXPECT_DOUBLE_EQ(qp_.Cost(theta2_, i1), 2.0);
  // I_2 = instructor(russ): prof fact only: costs swap.
  Context i2 = MakeContext(true, false);
  EXPECT_DOUBLE_EQ(qp_.Cost(theta1_, i2), 2.0);
  EXPECT_DOUBLE_EQ(qp_.Cost(theta2_, i2), 4.0);
}

TEST_F(QueryProcessorTest, NoSolutionExploresEverything) {
  Context none = MakeContext(false, false);
  Trace t = qp_.Execute(theta1_, none);
  EXPECT_FALSE(t.success);
  EXPECT_EQ(t.successes, 0);
  EXPECT_DOUBLE_EQ(t.cost, 4.0);
  EXPECT_EQ(t.attempts.size(), 4u);
  EXPECT_EQ(t.first_success_arc, kInvalidArc);
}

TEST_F(QueryProcessorTest, SatisficingStopsAtFirstSuccess) {
  Context both = MakeContext(true, true);
  Trace t = qp_.Execute(theta1_, both);
  EXPECT_TRUE(t.success);
  EXPECT_EQ(t.successes, 1);
  EXPECT_DOUBLE_EQ(t.cost, 2.0);
  EXPECT_EQ(t.first_success_arc, ga_.d_p);
}

TEST_F(QueryProcessorTest, TraceRecordsOutcomes) {
  Context i1 = MakeContext(false, true);
  Trace t = qp_.Execute(theta1_, i1);
  ASSERT_EQ(t.attempts.size(), 4u);
  EXPECT_EQ(t.attempts[0].arc, ga_.r_p);
  EXPECT_TRUE(t.attempts[0].unblocked);  // reductions never block
  EXPECT_EQ(t.attempts[1].arc, ga_.d_p);
  EXPECT_FALSE(t.attempts[1].unblocked);
  EXPECT_EQ(t.attempts[3].arc, ga_.d_g);
  EXPECT_TRUE(t.attempts[3].unblocked);
  EXPECT_TRUE(Attempted(t, ga_.graph, 0));
  EXPECT_TRUE(Attempted(t, ga_.graph, 1));
}

TEST_F(QueryProcessorTest, UnattemptedExperimentsNotInTrace) {
  Context both = MakeContext(true, true);
  Trace t = qp_.Execute(theta1_, both);
  EXPECT_TRUE(Attempted(t, ga_.graph, 0));
  EXPECT_FALSE(Attempted(t, ga_.graph, 1));  // stopped before D_g
}

TEST_F(QueryProcessorTest, KAnswersKeepsSearching) {
  Context both = MakeContext(true, true);
  ExecutionOptions options;
  options.stop_after_successes = 2;
  Trace t = qp_.Execute(theta1_, both, options);
  EXPECT_TRUE(t.success);
  EXPECT_EQ(t.successes, 2);
  EXPECT_DOUBLE_EQ(t.cost, 4.0);
  EXPECT_EQ(t.first_success_arc, ga_.d_p);
}

TEST_F(QueryProcessorTest, KAnswersReportsPartialSuccesses) {
  Context only_prof = MakeContext(true, false);
  ExecutionOptions options;
  options.stop_after_successes = 2;
  Trace t = qp_.Execute(theta1_, only_prof, options);
  EXPECT_FALSE(t.success);  // wanted 2, found 1
  EXPECT_EQ(t.successes, 1);
}

TEST(QueryProcessorChainTest, BlockedInternalArcSkipsSubtree) {
  // root -r-> n1 -e1(exp)-> n2 -e2(exp, success)  plus a flat leaf.
  InferenceGraph g;
  NodeId root = g.AddRoot("goal");
  auto n1 = g.AddChild(root, "n1", ArcKind::kReduction, 1.0, "r");
  auto n2 = g.AddChild(n1.node, "n2", ArcKind::kRetrieval, 2.0, "e1",
                       /*is_experiment=*/true);
  ArcId e2 = g.AddChild(n2.node, "[e2]", ArcKind::kRetrieval, 4.0, "e2",
                        /*is_experiment=*/true, /*is_success=*/true)
                 .arc;
  ArcId flat = g.AddRetrieval(root, 8.0, "d").arc;
  Strategy theta = Strategy::FromLeafOrder(g, {e2, flat});
  QueryProcessor qp(&g);

  // e1 blocked: e2 is skipped at no cost, search falls through to d.
  Context ctx(3);
  ctx.Set(g.ExperimentIndex(n2.arc), false);
  ctx.Set(g.ExperimentIndex(e2), true);   // unreachable anyway
  ctx.Set(g.ExperimentIndex(flat), true);
  Trace t = qp.Execute(theta, ctx);
  EXPECT_TRUE(t.success);
  EXPECT_DOUBLE_EQ(t.cost, 1.0 + 2.0 + 8.0);  // r + e1 + d; e2 skipped
  EXPECT_FALSE(Attempted(t, g, g.ExperimentIndex(e2)));

  // e1 unblocked and e2 unblocked: chain succeeds.
  Context ctx2 = Context::AllUnblocked(3);
  Trace t2 = qp.Execute(theta, ctx2);
  EXPECT_TRUE(t2.success);
  EXPECT_DOUBLE_EQ(t2.cost, 1.0 + 2.0 + 4.0);
  EXPECT_EQ(t2.first_success_arc, e2);
}

TEST(QueryProcessorChainTest, CostMatchesTraceSum) {
  FigureTwoGraph g = MakeFigureTwo();
  Strategy theta = Strategy::DepthFirst(g.graph);
  QueryProcessor qp(&g.graph);
  for (uint64_t mask = 0; mask < 16; ++mask) {
    Context ctx = Context::FromMask(4, mask);
    Trace t = qp.Execute(theta, ctx);
    double sum = 0.0;
    for (const ArcAttempt& a : t.attempts) sum += g.graph.arc(a.arc).cost;
    EXPECT_DOUBLE_EQ(t.cost, sum);
  }
}

}  // namespace
}  // namespace stratlearn
