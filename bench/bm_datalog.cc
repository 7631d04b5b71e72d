// Micro-benchmarks for the Datalog substrate: parsing, loading, fact
// lookup, matching, SLD proof search, and one context drawn and
// executed.

#include <benchmark/benchmark.h>

#include <cmath>
#include <string>

#include "datalog/evaluator.h"
#include "datalog/parser.h"
#include "engine/query_processor.h"
#include "util/string_util.h"
#include "workload/datalog_oracle.h"

namespace stratlearn {
namespace {

void BM_ParseProgram(benchmark::State& state) {
  std::string program;
  for (int i = 0; i < state.range(0); ++i) {
    program += StrFormat("edge(n%d, n%d).", i, i + 1);
  }
  for (auto _ : state) {
    SymbolTable symbols;
    Parser parser(&symbols);
    benchmark::DoNotOptimize(parser.ParseProgram(program));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ParseProgram)->Arg(100)->Arg(1000);

// The rules of learnbench's pao_bigdb shape: ten unary relations r0..r9
// nested under q.
constexpr char kNestedRules[] =
    "q(X) :- n0(X). n0(X) :- r0(X). n0(X) :- r1(X), r2(X)."
    "q(X) :- n1(X). n1(X) :- r3(X), r4(X). n1(X) :- r5(X)."
    "q(X) :- n2(X). n2(X) :- r6(X). n2(X) :- r7(X), r8(X)."
    "q(X) :- r9(X).";

// Loads a program of pao_bigdb's shape, from text into a fresh symbol
// table, database and rule base: kNestedRules, then for each relation
// rK, one fact rK(uN) for about half of the range(0) constants uN, one
// per line. Items are facts.
void BM_LoadProgram(benchmark::State& state) {
  std::string program = kNestedRules;
  Rng facts_rng(11);
  int64_t facts = 0;
  for (int r = 0; r < 10; ++r) {
    for (int64_t i = 0; i < state.range(0); ++i) {
      if (facts_rng.NextBernoulli(0.5)) {
        program += StrFormat("r%d(u%lld).\n", r, static_cast<long long>(i));
        ++facts;
      }
    }
  }
  for (auto _ : state) {
    SymbolTable symbols;
    Parser parser(&symbols);
    Database db;
    RuleBase rules;
    Status loaded = parser.LoadProgram(program, &db, &rules);
    benchmark::DoNotOptimize(loaded);
    benchmark::DoNotOptimize(db.TotalFacts());
  }
  state.SetItemsProcessed(state.iterations() * facts);
}
BENCHMARK(BM_LoadProgram)
    ->Arg(1000)
    ->Arg(100000)
    ->Unit(benchmark::kMillisecond);

void BM_DatabaseContains(benchmark::State& state) {
  SymbolTable symbols;
  Database db;
  SymbolId pred = symbols.Intern("person");
  for (int i = 0; i < state.range(0); ++i) {
    (void)db.Insert(pred, {symbols.Intern(StrFormat("p%d", i))});
  }
  FactTuple hit = {symbols.Intern("p0")};
  FactTuple miss = {symbols.Intern("nobody")};
  for (auto _ : state) {
    benchmark::DoNotOptimize(db.Contains(pred, hit));
    benchmark::DoNotOptimize(db.Contains(pred, miss));
  }
}
BENCHMARK(BM_DatabaseContains)->Arg(1000)->Arg(100000);

void BM_DatabaseMatchIndexed(benchmark::State& state) {
  SymbolTable symbols;
  Database db;
  SymbolId pred = symbols.Intern("age");
  for (int i = 0; i < state.range(0); ++i) {
    (void)db.Insert(pred, {symbols.Intern(StrFormat("p%d", i)),
                           symbols.Intern(StrFormat("%d", i % 90))});
  }
  Atom pattern;
  pattern.predicate = pred;
  pattern.args = {Term::Constant(symbols.Intern("p7")),
                  Term::Variable(symbols.Intern("X"))};
  for (auto _ : state) {
    std::vector<FactTuple> out;
    db.Match(pattern, &out);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_DatabaseMatchIndexed)->Arg(1000)->Arg(100000);

void BM_SldProof(benchmark::State& state) {
  SymbolTable symbols;
  Parser parser(&symbols);
  Database db;
  RuleBase rules;
  std::string program =
      "path(X, Y) :- edge(X, Y)."
      "path(X, Y) :- edge(X, Z), path(Z, Y).";
  for (int i = 0; i < state.range(0); ++i) {
    program += StrFormat("edge(n%d, n%d).", i, i + 1);
  }
  (void)parser.LoadProgram(program, &db, &rules);
  Result<Atom> query = parser.ParseAtom(
      StrFormat("path(n0, n%d)", static_cast<int>(state.range(0))));
  EvaluatorOptions options;
  options.max_depth = static_cast<int>(state.range(0)) + 8;
  Evaluator evaluator(&db, &rules, options);
  for (auto _ : state) {
    benchmark::DoNotOptimize(evaluator.Prove(*query, &symbols));
  }
}
BENCHMARK(BM_SldProof)->Arg(8)->Arg(32);

// One learn-loop step of learnbench's pao_bigdb shape: a DatalogOracle
// draws a query from range(0) Zipf(0.7)-weighted constants and the
// depth-first strategy runs on its context, so the retrievals the QP
// attempts are timed with the draw. Ten unary relations each hold about
// half of the queried constants; the rules nest them as pao_bigdb does.
void BM_DatalogOracleNext(benchmark::State& state) {
  SymbolTable symbols;
  Parser parser(&symbols);
  Database db;
  RuleBase rules;
  (void)parser.LoadProgram(kNestedRules, &db, &rules);
  Rng facts_rng(11);
  QueryWorkload workload;
  for (int64_t i = 0; i < state.range(0); ++i) {
    SymbolId u = symbols.Intern(StrFormat("u%lld", static_cast<long long>(i)));
    workload.entries.push_back(
        {{u}, std::floor(1e9 / std::pow(static_cast<double>(i + 1), 0.7))});
    for (int r = 0; r < 10; ++r) {
      if (facts_rng.NextBernoulli(0.5)) {
        (void)db.Insert(symbols.Intern(StrFormat("r%d", r)), {u});
      }
    }
  }
  Result<QueryForm> form = QueryForm::Parse("q(b)", &symbols);
  Result<BuiltGraph> built = BuildInferenceGraph(rules, *form, &symbols);
  DatalogOracle oracle(&*built, &db, std::move(workload));
  QueryProcessor qp(&built->graph);
  Strategy depth_first = Strategy::DepthFirst(built->graph);
  Rng rng(7);
  for (auto _ : state) {
    Context context = oracle.Next(rng);
    benchmark::DoNotOptimize(qp.Execute(depth_first, context).cost);
  }
}
BENCHMARK(BM_DatalogOracleNext)->Arg(900)->Arg(100000);

}  // namespace
}  // namespace stratlearn


