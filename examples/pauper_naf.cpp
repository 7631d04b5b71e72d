// Section 5.2's negation-as-failure application: "pauper(X) :- not
// owns(X, Y)". Deciding pauperhood needs only a *satisficing* search for
// one possession — the searcher stops at the first owned item, so a good
// retrieval ordering (learned by PIB) pays off even inside negation.
//
// Also demonstrates the first-k-answers variant on the parent(x, Y)
// example the paper closes with.
//
// Run: ./build/examples/pauper_naf

#include <cstdio>

#include "apps/naf.h"
#include "core/expected_cost.h"
#include "datalog/parser.h"
#include "graph/examples.h"
#include "util/string_util.h"
#include "workload/synthetic_oracle.h"

using namespace stratlearn;

int main() {
  SymbolTable symbols;
  Parser parser(&symbols);
  Database db;
  RuleBase rules;

  // owns/2 facts: the wealthy own many registered assets of several
  // kinds; ownership is provable through any register.
  std::string program = R"(
    owns(X, Y) :- deed(X, Y).
    owns(X, Y) :- title(X, Y).
    owns(X, Y) :- account(X, Y).
  )";
  for (int i = 0; i < 40; ++i) {
    program += StrFormat("deed(magnate, estate%d).", i);
  }
  program += "title(modest, bicycle).";
  program += "account(modest, checking).";
  Status loaded = parser.LoadProgram(program, &db, &rules);
  if (!loaded.ok()) {
    std::fprintf(stderr, "%s\n", loaded.ToString().c_str());
    return 1;
  }

  NafEvaluator naf(&db, &rules);
  for (const char* person : {"magnate", "modest", "drifter"}) {
    Result<Atom> query =
        parser.ParseAtom(StrFormat("owns(%s, X)", person));
    Result<ProofResult> proof = naf.Prove(*query, &symbols);
    Result<bool> pauper = naf.Holds(*query, &symbols);
    if (!proof.ok() || !pauper.ok()) {
      std::fprintf(stderr, "evaluation failed\n");
      return 1;
    }
    std::printf(
        "pauper(%-8s) = %-5s   (satisficing search: %lld retrievals, "
        "%lld reductions)\n",
        person, *pauper ? "true" : "false",
        static_cast<long long>(proof->retrievals),
        static_cast<long long>(proof->reductions));
  }
  std::printf(
      "\nNote the magnate's 40 estates: disproving pauperhood stopped at "
      "the first proof (answers_found = 1), not all 40.\n\n");

  // First-k-answers on the paper's closing example: parent(x, Y) has
  // exactly two answers, so the searcher can stop at k = 2 instead of
  // exhausting the graph.
  FigureTwoGraph g = MakeFigureTwo();
  std::vector<double> probs = {0.6, 0.6, 0.6, 0.6};
  Strategy theta = Strategy::DepthFirst(g.graph);
  for (int k = 1; k <= 4; ++k) {
    std::printf("first-%d-answers expected cost on G_B: %.3f\n", k,
                EnumeratedExpectedCost(g.graph, theta, probs,
                                       {.stop_after_successes = k}));
  }
  std::printf("(exhaustive cost would be %.1f)\n", g.graph.TotalCost());
  return 0;
}
