// E13 — Ablations of PIB's statistical machinery.
//
// Equation 6 packs three safeguards: (1) the Delta~ under-estimate,
// (2) the multiple-hypothesis correction over the |T| neighbours, and
// (3) the delta_i = 6 delta/(pi^2 i^2) sequential-test schedule. We
// re-run PIB on adversarial near-tie workloads (any move is a mistake)
// with each safeguard removed and measure the lifetime mistake rate:
// the full algorithm must stay below delta, the ablated variants blow
// past it.

#include <algorithm>
#include <cstdio>

#include "core/delta_estimator.h"
#include "core/expected_cost.h"
#include "core/transformations.h"
#include "harness.h"
#include "stats/chernoff.h"
#include "stats/sequential.h"
#include "workload/random_tree.h"
#include "workload/synthetic_oracle.h"

using namespace stratlearn;
using namespace stratlearn::bench;

namespace {

enum class Variant {
  kFull,           // Equation 6 as published
  kNoBonferroni,   // trial counter ignores |T|: each neighbour tested at
                   // the whole budget's confidence
  kNoSequential,   // fixed-delta Equation 2 threshold at every test
  kGreedyMean,     // switch whenever the running Delta~ sum is positive
};

const char* VariantName(Variant v) {
  switch (v) {
    case Variant::kFull:
      return "full Equation 6";
    case Variant::kNoBonferroni:
      return "no |T| correction";
    case Variant::kNoSequential:
      return "no sequential schedule";
    case Variant::kGreedyMean:
      return "greedy (sum > 0)";
  }
  return "?";
}

/// A PIB re-implementation with the safeguards toggleable. Mirrors
/// core/pib.cc; kept here because production code should not ship the
/// unsound variants.
class AblatedPib {
 public:
  AblatedPib(const InferenceGraph* graph, Strategy initial, double delta,
             Variant variant)
      : graph_(graph),
        estimator_(graph),
        hood_(*graph, std::move(initial), AllSiblingSwaps(*graph)),
        delta_sums_(hood_.size(), 0.0),
        delta_(delta),
        variant_(variant) {}

  bool Observe(const Trace& trace) {
    ++samples_;
    trials_ += variant_ == Variant::kNoBonferroni
                   ? 1
                   : static_cast<int64_t>(hood_.size());
    estimator_.AddUnderEstimates(trace, hood_, &delta_sums_);
    const double factor =
        variant_ == Variant::kFull || variant_ == Variant::kNoBonferroni
            ? SequentialSumFactor(samples_, std::max<int64_t>(1, trials_),
                                  delta_)
            : 0.0;
    for (size_t j = 0; j < hood_.size(); ++j) {
      const SwapNeighborhood::Neighbor& n = hood_.neighbors()[j];
      const double delta_sum = delta_sums_[j];
      double threshold = 0.0;
      switch (variant_) {
        case Variant::kFull:
        case Variant::kNoBonferroni:
          threshold = n.range * factor;
          break;
        case Variant::kNoSequential:
          threshold = SumThreshold(samples_, delta_, n.range);
          break;
        case Variant::kGreedyMean:
          threshold = 0.0;
          break;
      }
      bool fire = variant_ == Variant::kGreedyMean
                      ? (samples_ >= 10 && delta_sum > 0.0)
                      : (delta_sum > 0.0 && delta_sum >= threshold);
      if (fire) {
        ++moves_;
        hood_ = SwapNeighborhood(*graph_, n.strategy, AllSiblingSwaps(*graph_));
        delta_sums_.assign(hood_.size(), 0.0);
        samples_ = 0;
        return true;
      }
    }
    return false;
  }

  const Strategy& strategy() const { return hood_.strategy(); }
  int moves() const { return moves_; }

 private:
  const InferenceGraph* graph_;
  DeltaEstimator estimator_;
  SwapNeighborhood hood_;
  std::vector<double> delta_sums_;
  double delta_;
  Variant variant_;
  int64_t samples_ = 0;
  int64_t trials_ = 0;
  int moves_ = 0;
};

}  // namespace

int main() {
  uint64_t seed = ExperimentSeed();
  Banner("E13",
         "Ablating Equation 6's safeguards (mistake rate under "
         "near-ties, delta = 0.1)",
         seed);

  const double delta = 0.1;
  const int lifetimes = 50;
  const int64_t contexts = 6000;

  Table table({"variant", "lifetimes w/ mistake", "mistake rate",
               "total moves", "verdict"});
  double full_rate = 1.0;
  double worst_ablated = 0.0;
  for (Variant v : {Variant::kFull, Variant::kNoBonferroni,
                    Variant::kNoSequential, Variant::kGreedyMean}) {
    Rng rng(seed);  // identical stream for all variants
    int mistakes = 0, total_moves = 0;
    for (int l = 0; l < lifetimes; ++l) {
      // Flat tree, unit costs, probabilities decaying hair-thin along
      // the initial left-to-right order: the initial strategy is exactly
      // optimal and every sibling swap loses by a sliver, so ANY move is
      // a mistake — the adversarial regime for a sequential tester.
      RandomTreeOptions tree_options;
      tree_options.min_cost = 1.0;
      tree_options.max_cost = 1.0;
      RandomTree tree = MakeFlatTree(rng, 8, tree_options);
      std::vector<double> probs(tree.probs.size());
      for (size_t i = 0; i < probs.size(); ++i) {
        probs[i] = 0.4 - 0.0004 * static_cast<double>(i);
      }
      AblatedPib pib(&tree.graph, Strategy::DepthFirst(tree.graph), delta,
                     v);
      IndependentOracle oracle(probs);
      QueryProcessor qp(&tree.graph);
      double cost =
          ExactExpectedCost(tree.graph, pib.strategy(), probs);
      bool mistake = false;
      for (int64_t i = 0; i < contexts; ++i) {
        if (pib.Observe(qp.Execute(pib.strategy(), oracle.Next(rng)))) {
          double next =
              ExactExpectedCost(tree.graph, pib.strategy(), probs);
          if (next > cost + 1e-9) mistake = true;
          cost = next;
        }
      }
      if (mistake) ++mistakes;
      total_moves += pib.moves();
    }
    double rate = static_cast<double>(mistakes) / lifetimes;
    if (v == Variant::kFull) {
      full_rate = rate;
    } else {
      worst_ablated = std::max(worst_ablated, rate);
    }
    table.AddRow({VariantName(v), Int(mistakes), Num(rate),
                  Int(total_moves),
                  rate <= delta ? "within delta" : "UNSOUND"});
  }
  table.Print();

  std::printf(
      "\nNote: at this horizon the pessimistic Delta~ masks the milder "
      "ablations - part (b) isolates the sequential schedule.\n");

  // (b) The schedule in isolation: a two-leaf tie with perfectly
  // anticorrelated leaves makes the exact Delta a +/-(Lambda/2) coin
  // flip - the worst case for repeated testing. A single fixed-delta
  // Equation 2 test is sound once; re-testing after every context
  // WITHOUT the delta_i schedule lets the driftless random walk cross
  // eventually (law of the iterated logarithm), while Equation 6's
  // growing threshold keeps the lifetime rate below delta.
  std::printf("\n(b) repeated testing of one null hypothesis "
              "(anticorrelated leaves, exact Delta, 60 lifetimes x 30000 "
              "tests):\n\n");
  double seq_rate = 0.0, fixed_rate = 0.0;
  {
    RandomTreeOptions unit;
    unit.min_cost = unit.max_cost = 1.0;
    Rng graph_rng(1);
    RandomTree tree = MakeFlatTree(graph_rng, 2, unit);
    Strategy theta = Strategy::DepthFirst(tree.graph);
    SiblingSwap swap = AllSiblingSwaps(tree.graph)[0];
    Strategy alt = ApplySwap(tree.graph, theta, swap);
    double range = SwapRange(tree.graph, theta, swap);  // = 4
    DeltaEstimator estimator(&tree.graph);
    MixtureOracle oracle({{0.5, {1.0, 0.0}}, {0.5, {0.0, 1.0}}});

    Table test_table({"threshold policy", "lifetimes w/ false positive",
                      "rate", "verdict"});
    const int lifetimes_b = 60;
    const int64_t tests = 30000;
    for (int policy = 0; policy < 2; ++policy) {
      Rng rng(seed + 1);
      int fired = 0;
      for (int l = 0; l < lifetimes_b; ++l) {
        double sum = 0.0;
        bool crossed = false;
        for (int64_t i = 1; i <= tests && !crossed; ++i) {
          Context ctx = oracle.Next(rng);
          sum += estimator.ExactDelta(theta, alt, ctx);
          double threshold =
              policy == 0 ? SequentialSumThreshold(i, i, delta, range)
                          : SumThreshold(i, delta, range);
          if (sum > 0.0 && sum >= threshold) crossed = true;
        }
        if (crossed) ++fired;
      }
      double rate = static_cast<double>(fired) / lifetimes_b;
      if (policy == 0) {
        seq_rate = rate;
      } else {
        fixed_rate = rate;
      }
      test_table.AddRow(
          {policy == 0 ? "Equation 6 (delta_i schedule)"
                       : "fixed delta, re-tested every context",
           Int(fired), Num(rate), rate <= delta ? "within delta" : "UNSOUND"});
    }
    test_table.Print();
  }

  bool ok = full_rate <= delta && worst_ablated > delta &&
            seq_rate <= delta && fixed_rate > delta;
  Verdict("E13", ok,
          "the full Equation 6 stays below delta in both settings; "
          "dropping the threshold entirely (greedy) or the sequential "
          "schedule (fixed-delta re-testing) breaks the guarantee, while "
          "the Delta~ pessimism masks the milder ablations at PIB level");
  return ok ? 0 : 1;
}
