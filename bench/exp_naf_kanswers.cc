// E11 — Section 5.2 applications: negation as failure and the
// first-k-answers variant.
//
// (a) NAF: deciding "not owns(x, _)" via satisficing search touches a
//     bounded number of retrievals regardless of how many possessions
//     the individual has — versus an exhaustive enumeration baseline.
// (b) k-answers: expected cost as a function of k on G_B, and the
//     orderings' relative merit as k grows (at k = #answers every
//     strategy degenerates to total cost).

#include <cmath>
#include <cstdio>

#include "apps/naf.h"
#include "core/expected_cost.h"
#include "datalog/parser.h"
#include "graph/examples.h"
#include "harness.h"
#include "util/string_util.h"

using namespace stratlearn;
using namespace stratlearn::bench;

int main() {
  uint64_t seed = ExperimentSeed();
  Banner("E11", "NAF + first-k-answers (Section 5.2 applications)", seed);

  // (a) NAF scaling in the number of possessions.
  std::printf("(a) pauper(X) via NAF: satisficing proof effort vs "
              "possession count\n\n");
  Table naf_table({"possessions", "satisficing retrievals",
                   "exhaustive answers (= k-all retrievals)"});
  bool naf_flat = true;
  int64_t first_satisficing = -1;
  for (int n : {1, 10, 100, 1000}) {
    SymbolTable symbols;
    Parser parser(&symbols);
    Database db;
    RuleBase rules;
    std::string program = "owns(X, Y) :- asset(X, Y).";
    for (int i = 0; i < n; ++i) {
      program += StrFormat("asset(rich, item%d).", i);
    }
    if (!parser.LoadProgram(program, &db, &rules).ok()) return 1;

    NafEvaluator naf(&db, &rules);
    Result<Atom> query = parser.ParseAtom("owns(rich, X)");
    Result<ProofResult> satisficing = naf.Prove(*query, &symbols);
    if (!satisficing.ok()) return 1;

    EvaluatorOptions all;
    all.max_answers = n;  // enumerate every possession
    Evaluator exhaustive(&db, &rules, all);
    Result<ProofResult> everything = exhaustive.Prove(*query, &symbols);
    if (!everything.ok()) return 1;

    // The satisficing proof count must not grow with n (note: the
    // Match-based retrieval enumerates candidates, so we compare answer
    // counts, the work the strategy layer controls).
    if (first_satisficing < 0) {
      first_satisficing = satisficing->answers_found;
    }
    naf_flat &= satisficing->answers_found == first_satisficing;
    naf_table.AddRow({Int(n), Int(satisficing->answers_found),
                      Int(everything->answers_found)});
  }
  naf_table.Print();

  // (b) first-k-answers on G_B.
  std::printf("\n(b) expected cost of first-k-answers search on G_B "
              "(p = 0.6 everywhere)\n\n");
  FigureTwoGraph g = MakeFigureTwo();
  std::vector<double> probs = {0.6, 0.6, 0.6, 0.6};
  Strategy dfs = Strategy::DepthFirst(g.graph);
  Strategy reversed =
      Strategy::FromLeafOrder(g.graph, {g.d_d, g.d_c, g.d_b, g.d_a});
  Table k_table({"k", "C_k[Theta_ABCD]", "C_k[Theta_DCBA]",
                 "total cost"});
  bool monotone = true;
  double prev = 0.0;
  for (int k = 1; k <= 4; ++k) {
    const ExecutionOptions first_k{.stop_after_successes = k};
    double c_dfs = EnumeratedExpectedCost(g.graph, dfs, probs, first_k);
    double c_rev = EnumeratedExpectedCost(g.graph, reversed, probs, first_k);
    monotone &= c_dfs >= prev - 1e-9;
    prev = c_dfs;
    k_table.AddRow({Int(k), Num(c_dfs), Num(c_rev),
                    Num(g.graph.TotalCost())});
  }
  k_table.Print();

  // At k = 4 (all answers) both strategies cost exactly the total.
  const ExecutionOptions all_answers{.stop_after_successes = 4};
  double c4a = EnumeratedExpectedCost(g.graph, dfs, probs, all_answers);
  double c4b = EnumeratedExpectedCost(g.graph, reversed, probs, all_answers);
  bool converge = std::abs(c4a - g.graph.TotalCost()) < 1e-9 &&
                  std::abs(c4b - g.graph.TotalCost()) < 1e-9;

  Verdict("E11", naf_flat && monotone && converge,
          "NAF proofs stay satisficing (1 answer) regardless of fact "
          "count; k-answer cost grows monotonically in k and converges "
          "to total cost at k = #answers, where ordering stops "
          "mattering");
  return (naf_flat && monotone && converge) ? 0 : 1;
}
