#include "graph/serialization.h"

#include <gtest/gtest.h>

#include "andor/and_or_serialization.h"
#include "andor/and_or_strategy.h"
#include "core/expected_cost.h"
#include "engine/strategy.h"
#include "graph/examples.h"
#include "util/math_util.h"
#include "verify/verify.h"
#include "workload/random_tree.h"

namespace stratlearn {
namespace {

/// Structural equality check via re-serialisation.
void ExpectGraphsEqual(const InferenceGraph& a, const InferenceGraph& b) {
  EXPECT_EQ(SerializeGraph(a), SerializeGraph(b));
}

TEST(GraphSerializationTest, FigureOneRoundTrip) {
  FigureOneGraph g = MakeFigureOne();
  std::string text = SerializeGraph(g.graph);
  EXPECT_NE(text.find("stratlearn-graph v1"), std::string::npos);
  Result<InferenceGraph> restored = verify::DeserializeGraph(text);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  ExpectGraphsEqual(g.graph, *restored);
  EXPECT_EQ(restored->num_experiments(), 2u);
  EXPECT_TRUE(restored->Validate().ok());
}

TEST(GraphSerializationTest, PreservesCostsAndOutcomeCosts) {
  InferenceGraph g;
  NodeId root = g.AddRoot("goal with spaces");
  ArcId leaf = g.AddRetrieval(root, 2.125, "label with spaces").arc;
  g.SetOutcomeCosts(leaf, 0.25, 1.75);
  Result<InferenceGraph> restored = verify::DeserializeGraph(SerializeGraph(g));
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_DOUBLE_EQ(restored->arc(leaf).cost, 2.125);
  EXPECT_DOUBLE_EQ(restored->arc(leaf).success_cost, 0.25);
  EXPECT_DOUBLE_EQ(restored->arc(leaf).failure_cost, 1.75);
  EXPECT_EQ(restored->arc(leaf).label, "label with spaces");
  EXPECT_EQ(restored->node(restored->arc(leaf).from).label,
            "goal with spaces");
}

TEST(GraphSerializationTest, RandomTreesRoundTripWithSemantics) {
  Rng rng(31);
  for (int t = 0; t < 20; ++t) {
    RandomTreeOptions options;
    options.internal_experiment_prob = (t % 2) ? 0.3 : 0.0;
    options.max_outcome_cost = (t % 3) ? 1.5 : 0.0;
    RandomTree tree = MakeRandomTree(rng, options);
    Result<InferenceGraph> restored =
        verify::DeserializeGraph(SerializeGraph(tree.graph));
    ASSERT_TRUE(restored.ok()) << restored.status().ToString();
    ExpectGraphsEqual(tree.graph, *restored);
    // Semantics preserved: identical expected costs.
    Strategy theta = Strategy::DepthFirst(tree.graph);
    EXPECT_TRUE(AlmostEqual(
        ExactExpectedCost(tree.graph, theta, tree.probs),
        ExactExpectedCost(*restored, theta, tree.probs)));
  }
}

TEST(GraphSerializationTest, RejectsGarbage) {
  EXPECT_FALSE(verify::DeserializeGraph("").ok());
  EXPECT_FALSE(verify::DeserializeGraph("not a graph").ok());
  EXPECT_FALSE(verify::DeserializeGraph("stratlearn-graph v1\nbogus line\n").ok());
  EXPECT_FALSE(
      verify::DeserializeGraph("stratlearn-graph v1\nnode 0 root\narc 0 9 R 1 0 0 0 x\n")
          .ok());
  // Arc with non-positive cost.
  EXPECT_FALSE(
      verify::DeserializeGraph(
          "stratlearn-graph v1\nnode 0 root\nnode 1 leaf\narc 0 1 R 0 0 0 0 x\n")
          .ok());
}

TEST(GraphSerializationTest, RejectsChildOfSuccessNode) {
  // Node 1 is a success box, yet the second arc hangs a child off it.
  Result<InferenceGraph> r = verify::DeserializeGraph(
      "stratlearn-graph v1\n"
      "node 0 root\n"
      "node 1 box\n"
      "node 0 sub\n"
      "arc 0 1 D 1 0 0 1 d\n"
      "arc 1 2 R 1 0 0 0 r\n");
  EXPECT_FALSE(r.ok());
}

TEST(StrategySerializationTest, RoundTrip) {
  FigureTwoGraph g = MakeFigureTwo();
  Strategy theta =
      Strategy::FromLeafOrder(g.graph, {g.d_d, g.d_a, g.d_c, g.d_b});
  std::string text = theta.Serialize();
  Result<Strategy> restored = Strategy::Deserialize(g.graph, text);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(*restored, theta);
}

TEST(StrategySerializationTest, RejectsInvalid) {
  FigureOneGraph g = MakeFigureOne();
  EXPECT_FALSE(Strategy::Deserialize(g.graph, "").ok());
  EXPECT_FALSE(Strategy::Deserialize(g.graph, "wrong header 0 1").ok());
  // Valid header, but an incomplete arc list.
  EXPECT_FALSE(
      Strategy::Deserialize(g.graph, "stratlearn-strategy v1 0 1").ok());
  // Bad token.
  EXPECT_FALSE(
      Strategy::Deserialize(g.graph, "stratlearn-strategy v1 0 1 2 x").ok());
  // An id past 32 bits is refused by name, not wrapped to arc 0.
  for (const char* id : {"4294967296", "-4294967296", "-1"}) {
    Result<Strategy> wide = Strategy::Deserialize(
        g.graph, std::string("stratlearn-strategy v1 ") + id + " 1 2 3");
    ASSERT_FALSE(wide.ok()) << id;
    EXPECT_NE(wide.status().message().find(id), std::string::npos)
        << wide.status().ToString();
  }
}

TEST(StrategySerializationTest, IdsMayFollowOnLaterLines) {
  FigureOneGraph g = MakeFigureOne();
  Strategy theta = Strategy::DepthFirst(g.graph);
  std::string text = theta.Serialize();
  text.replace(text.find(" v1 ") + 3, 1, "\n");
  Result<Strategy> restored = Strategy::Deserialize(g.graph, text);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(*restored, theta);
}

TEST(StrategySerializationTest, FullPersistencePipeline) {
  // The deployment story: persist graph + learned strategy, reload both,
  // and keep identical behaviour.
  FigureTwoGraph g = MakeFigureTwo();
  Strategy learned =
      Strategy::FromLeafOrder(g.graph, {g.d_d, g.d_c, g.d_b, g.d_a});
  std::string graph_text = SerializeGraph(g.graph);
  std::string strategy_text = learned.Serialize();

  Result<InferenceGraph> graph2 = verify::DeserializeGraph(graph_text);
  ASSERT_TRUE(graph2.ok());
  Result<Strategy> learned2 = Strategy::Deserialize(*graph2, strategy_text);
  ASSERT_TRUE(learned2.ok());
  std::vector<double> probs = {0.2, 0.4, 0.6, 0.8};
  EXPECT_TRUE(AlmostEqual(ExactExpectedCost(g.graph, learned, probs),
                          ExactExpectedCost(*graph2, *learned2, probs)));
}

TEST(AndOrSerializationTest, GraphRoundTrip) {
  AndOrGraph g;
  AndOrNodeId root = g.AddRoot(AndOrKind::kOr, "goal with spaces");
  AndOrNodeId conj = g.AddInternal(root, AndOrKind::kAnd, "rule 1");
  g.AddLeaf(conj, "leaf a", 1.25);
  g.AddLeaf(conj, "leaf b", 2.5);
  g.AddLeaf(root, "fallback", 0.75);

  std::string text = SerializeAndOrGraph(g);
  Result<AndOrGraph> restored = verify::DeserializeAndOrGraph(text);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(SerializeAndOrGraph(*restored), text);
  EXPECT_EQ(restored->num_experiments(), 3u);
  EXPECT_DOUBLE_EQ(restored->TotalLeafCost(), 4.5);
  EXPECT_EQ(restored->node(conj).label, "rule 1");

  // Semantics preserved.
  std::vector<double> probs = {0.4, 0.7, 0.2};
  AndOrStrategy theta = AndOrStrategy::Default(g);
  EXPECT_TRUE(AlmostEqual(AndOrExactExpectedCost(g, theta, probs),
                          AndOrExactExpectedCost(*restored, theta, probs)));
}

TEST(AndOrSerializationTest, GraphRejectsGarbage) {
  EXPECT_FALSE(verify::DeserializeAndOrGraph("").ok());
  EXPECT_FALSE(verify::DeserializeAndOrGraph("wrong header").ok());
  EXPECT_FALSE(
      verify::DeserializeAndOrGraph("stratlearn-andor v1\nnode Q - 1 x\n").ok());
  // Child of a leaf.
  EXPECT_FALSE(verify::DeserializeAndOrGraph("stratlearn-andor v1\n"
                                     "node L - 1 root\n"
                                     "node L 0 1 child\n")
                   .ok());
  // Non-positive leaf cost.
  EXPECT_FALSE(verify::DeserializeAndOrGraph("stratlearn-andor v1\n"
                                     "node O - 1 root\n"
                                     "node L 0 0 leaf\n")
                   .ok());
}

}  // namespace
}  // namespace stratlearn
