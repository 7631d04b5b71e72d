#include <cstdio>

#include <gtest/gtest.h>

#include "apps/learn_session.h"
#include "apps/naf.h"
#include "apps/segscan.h"
#include "core/expected_cost.h"
#include "core/pib.h"
#include "core/upsilon.h"
#include "datalog/parser.h"
#include "graph/examples.h"
#include "util/math_util.h"
#include "workload/synthetic_oracle.h"

namespace stratlearn {
namespace {

// ---- Segmented scan (Section 5.2) -------------------------------------

TEST(SegScanTest, GraphShapeAndProbs) {
  SegmentGraph sg = MakeSegmentGraph({{"east", 2.0, 0.5},
                                      {"west", 1.0, 0.3},
                                      {"archive", 8.0, 0.2}});
  EXPECT_EQ(sg.graph.num_arcs(), 3u);
  EXPECT_EQ(sg.graph.num_experiments(), 3u);
  EXPECT_EQ(sg.HitProbabilities(), (std::vector<double>{0.5, 0.3, 0.2}));
}

TEST(SegScanTest, OptimalOrderIsRatioOrder) {
  std::vector<Segment> segments = {{"east", 2.0, 0.5},    // 0.25
                                   {"west", 1.0, 0.3},    // 0.30
                                   {"archive", 8.0, 0.2}};  // 0.025
  std::vector<size_t> order = OptimalScanOrder(segments);
  EXPECT_EQ(order, (std::vector<size_t>{1, 0, 2}));
}

TEST(SegScanTest, OptimalOrderMatchesUpsilon) {
  Rng rng(1);
  std::vector<Segment> segments;
  for (int i = 0; i < 10; ++i) {
    segments.push_back({"s" + std::to_string(i),
                        rng.NextUniform(0.5, 4.0),
                        rng.NextUniform(0.01, 0.4)});
  }
  SegmentGraph sg = MakeSegmentGraph(segments);
  Result<UpsilonResult> upsilon =
      UpsilonAot(sg.graph, sg.HitProbabilities());
  ASSERT_TRUE(upsilon.ok());
  std::vector<size_t> ratio_order = OptimalScanOrder(segments);
  std::vector<ArcId> upsilon_leaves = upsilon->strategy.LeafOrder(sg.graph);
  ASSERT_EQ(upsilon_leaves.size(), ratio_order.size());
  double ratio_cost = 0.0;
  {
    std::vector<ArcId> leaves;
    for (size_t i : ratio_order) {
      leaves.push_back(sg.graph.SuccessArcs()[i]);
    }
    Strategy ratio_strategy = Strategy::FromLeafOrder(sg.graph, leaves);
    ratio_cost =
        ExactExpectedCost(sg.graph, ratio_strategy, sg.HitProbabilities());
  }
  EXPECT_TRUE(AlmostEqual(upsilon->expected_cost, ratio_cost, 1e-9));
}

TEST(SegScanTest, PibLearnsSkewedSegmentOrder) {
  // A workload concentrated on the last segment: PIB moves it forward.
  SegmentGraph sg = MakeSegmentGraph(
      {{"a", 1.0, 0.02}, {"b", 1.0, 0.02}, {"c", 1.0, 0.9}});
  Strategy initial = Strategy::DepthFirst(sg.graph);
  Pib pib(&sg.graph, initial, {.delta = 0.05});
  IndependentOracle oracle(sg.HitProbabilities());
  Rng rng(2);
  QueryProcessor qp(&sg.graph);
  for (int i = 0; i < 3000; ++i) {
    pib.Observe(qp.Execute(pib.strategy(), oracle.Next(rng)));
  }
  std::vector<ArcId> order = pib.strategy().LeafOrder(sg.graph);
  EXPECT_EQ(order[0], sg.graph.SuccessArcs()[2]);  // segment "c" first
}

// ---- Negation as failure (Section 5.2) ---------------------------------

TEST(NafTest, PauperExample) {
  SymbolTable symbols;
  Parser parser(&symbols);
  Database db;
  RuleBase rules;
  ASSERT_TRUE(parser
                  .LoadProgram(
                      "owns(rich, yacht). owns(rich, car)."
                      "owns(modest, bicycle).",
                      &db, &rules)
                  .ok());
  NafEvaluator naf(&db, &rules);
  Result<Atom> rich_owns = parser.ParseAtom("owns(rich, X)");
  Result<Atom> poor_owns = parser.ParseAtom("owns(poor, X)");
  ASSERT_TRUE(rich_owns.ok() && poor_owns.ok());

  // pauper(X) :- not owns(X, Y): rich is not a pauper, poor is.
  Result<bool> rich_pauper = naf.Holds(*rich_owns, &symbols);
  ASSERT_TRUE(rich_pauper.ok());
  EXPECT_FALSE(*rich_pauper);
  Result<bool> poor_pauper = naf.Holds(*poor_owns, &symbols);
  ASSERT_TRUE(poor_pauper.ok());
  EXPECT_TRUE(*poor_pauper);
}

TEST(NafTest, SatisficingStopsAtFirstPossession) {
  // The paper's point: deciding "not pauper(rich)" needs only ONE owned
  // item, not the multitude.
  SymbolTable symbols;
  Parser parser(&symbols);
  Database db;
  RuleBase rules;
  std::string program;
  for (int i = 0; i < 100; ++i) {
    program += "owns(rich, item" + std::to_string(i) + ").";
  }
  ASSERT_TRUE(parser.LoadProgram(program, &db, &rules).ok());
  NafEvaluator naf(&db, &rules);
  Result<Atom> q = parser.ParseAtom("owns(rich, X)");
  ASSERT_TRUE(q.ok());
  Result<ProofResult> proof = naf.Prove(*q, &symbols);
  ASSERT_TRUE(proof.ok());
  EXPECT_TRUE(proof->proved);
  EXPECT_EQ(proof->answers_found, 1);
}

TEST(NafTest, BudgetExhaustionIsAnErrorNotAnAnswer) {
  SymbolTable symbols;
  Parser parser(&symbols);
  Database db;
  RuleBase rules;
  ASSERT_TRUE(
      parser.LoadProgram("loop(X) :- loop(X).", &db, &rules).ok());
  EvaluatorOptions options;
  options.max_depth = 1000000;
  options.max_steps = 100;
  NafEvaluator naf(&db, &rules, options);
  Result<Atom> q = parser.ParseAtom("loop(a)");
  ASSERT_TRUE(q.ok());
  Result<bool> holds = naf.Holds(*q, &symbols);
  EXPECT_FALSE(holds.ok());
}

// ---- First-k-answers (Section 5.2) -------------------------------------

TEST(KAnswersTest, StopsAfterK) {
  FigureTwoGraph g = MakeFigureTwo();
  QueryProcessor qp(&g.graph);
  Context all = Context::AllUnblocked(4);
  Strategy theta = Strategy::DepthFirst(g.graph);
  Trace t = qp.Execute(theta, all, {.stop_after_successes = 2});
  EXPECT_TRUE(t.success);
  EXPECT_EQ(t.successes, 2);
  // D_a (2 arcs) then D_b (3 more arcs): cost 5.
  EXPECT_DOUBLE_EQ(t.cost, 5.0);
}

TEST(KAnswersTest, ExpectedCostGrowsWithK) {
  FigureTwoGraph g = MakeFigureTwo();
  Strategy theta = Strategy::DepthFirst(g.graph);
  std::vector<double> probs = {0.5, 0.5, 0.5, 0.5};
  double c1 = EnumeratedExpectedCost(g.graph, theta, probs,
                                     {.stop_after_successes = 1});
  double c2 = EnumeratedExpectedCost(g.graph, theta, probs,
                                     {.stop_after_successes = 2});
  double c4 = EnumeratedExpectedCost(g.graph, theta, probs,
                                     {.stop_after_successes = 4});
  EXPECT_LT(c1, c2);
  EXPECT_LT(c2, c4);
  // k = 1 matches the satisficing expected cost.
  EXPECT_TRUE(AlmostEqual(c1, ExactExpectedCost(g.graph, theta, probs)));
  // Needing every answer means exploring everything: total cost.
  EXPECT_DOUBLE_EQ(c4, g.graph.TotalCost());
}

TEST(KAnswersTest, MonteCarloMatchesEnumeration) {
  FigureTwoGraph g = MakeFigureTwo();
  Strategy theta = Strategy::DepthFirst(g.graph);
  std::vector<double> probs = {0.3, 0.6, 0.4, 0.7};
  IndependentOracle oracle(probs);
  Rng rng(3);
  const ExecutionOptions first_two{.stop_after_successes = 2};
  double exact = EnumeratedExpectedCost(g.graph, theta, probs, first_two);
  double mc = MonteCarloExpectedCost(g.graph, theta, oracle, 100000, rng,
                                     first_two);
  EXPECT_NEAR(mc, exact, 0.05);
}

// ---- LearnSession -------------------------------------------------------

// A checkpoint that loads and fits the run resumes at its query count; one
// whose PIB state PIB rejects (more samples than contexts) starts fresh,
// like any checkpoint that does not fit, instead of failing the run.
TEST(LearnSessionTest, PibStatePibRejectsStartsFresh) {
  FigureTwoGraph g = MakeFigureTwo();
  IndependentOracle oracle({0.9, 0.2, 0.8, 0.3});
  LearnOptions options;
  options.queries = 200;
  options.seed = 7;
  options.checkpoint = ::testing::TempDir() + "learn_session_test.ckpt";
  options.resume = true;
  auto contexts_after_resume = [&](int64_t extra_samples) {
    Pib donor(&g.graph, Strategy::DepthFirst(g.graph),
              PibOptions{.delta = options.delta});
    robust::CheckpointData data;
    data.learner = "pib";
    data.seed = options.seed;
    data.queries_done = 150;
    data.rng_state = Rng(options.seed).SaveState();
    data.pib = donor.GetCheckpoint();
    data.pib.samples += extra_samples;
    EXPECT_TRUE(robust::WriteCheckpoint(options.checkpoint, data).ok());
    Result<std::unique_ptr<LearnSession>> session =
        LearnSession::Open(options, g.graph, "pib");
    if (!session.ok()) return int64_t{-1};
    Pib pib(&g.graph, Strategy::DepthFirst(g.graph),
            PibOptions{.delta = options.delta}, (*session)->observer());
    EXPECT_TRUE((*session)->RunPib(&pib, oracle).ok());
    return pib.contexts_processed();
  };
  EXPECT_EQ(contexts_after_resume(0), 50);
  EXPECT_EQ(contexts_after_resume(1), 200);
  std::remove(options.checkpoint.c_str());
}

}  // namespace
}  // namespace stratlearn
