#include <gtest/gtest.h>

#include <functional>
#include <numeric>
#include <set>
#include <string>

#include "core/expected_cost.h"
#include "datalog/parser.h"
#include "util/math_util.h"
#include "workload/datalog_oracle.h"
#include "workload/random_tree.h"
#include "workload/synthetic_oracle.h"

namespace stratlearn {
namespace {

TEST(IndependentOracleTest, MatchesMarginals) {
  IndependentOracle oracle({0.6, 0.15, 1.0, 0.0});
  Rng rng(1);
  int counts[4] = {0, 0, 0, 0};
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    Context c = oracle.Next(rng);
    for (size_t e = 0; e < 4; ++e) {
      if (c.Unblocked(e)) ++counts[e];
    }
  }
  EXPECT_NEAR(counts[0] / double(n), 0.6, 0.01);
  EXPECT_NEAR(counts[1] / double(n), 0.15, 0.01);
  EXPECT_EQ(counts[2], n);
  EXPECT_EQ(counts[3], 0);
}

TEST(MixtureOracleTest, MarginalsMatchFormula) {
  MixtureOracle oracle({{1.0, {1.0, 0.0}}, {3.0, {0.0, 1.0}}});
  std::vector<double> marginals = oracle.MarginalProbs();
  EXPECT_NEAR(marginals[0], 0.25, 1e-12);
  EXPECT_NEAR(marginals[1], 0.75, 1e-12);
  Rng rng(2);
  int both = 0, neither = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    Context c = oracle.Next(rng);
    if (c.Unblocked(0) && c.Unblocked(1)) ++both;
    if (!c.Unblocked(0) && !c.Unblocked(1)) ++neither;
  }
  // Profiles are deterministic and exclusive: never both, never neither —
  // maximal dependence despite nontrivial marginals.
  EXPECT_EQ(both, 0);
  EXPECT_EQ(neither, 0);
}

TEST(DatalogOracleTest, SectionTwoWorkload) {
  // 60% instructor(russ), 15% instructor(manolis), 25% instructor(fred)
  // against DB_1 = {prof(russ), grad(manolis)}.
  SymbolTable symbols;
  Parser parser(&symbols);
  Database db;
  RuleBase rules;
  ASSERT_TRUE(parser
                  .LoadProgram(
                      "instructor(X) :- prof(X)."
                      "instructor(X) :- grad(X)."
                      "prof(russ). grad(manolis).",
                      &db, &rules)
                  .ok());
  Result<QueryForm> form = QueryForm::Parse("instructor(b)", &symbols);
  ASSERT_TRUE(form.ok());
  Result<BuiltGraph> built = BuildInferenceGraph(rules, *form, &symbols);
  ASSERT_TRUE(built.ok()) << built.status().ToString();

  QueryWorkload workload;
  workload.entries.push_back({{symbols.Intern("russ")}, 0.60});
  workload.entries.push_back({{symbols.Intern("manolis")}, 0.15});
  workload.entries.push_back({{symbols.Intern("fred")}, 0.25});
  DatalogOracle oracle(&built.value(), &db, workload);

  // True marginals: D_p succeeds exactly for russ (0.6), D_g exactly for
  // manolis (0.15).
  std::vector<double> p = oracle.TrueMarginalProbs();
  ASSERT_EQ(p.size(), 2u);
  EXPECT_NEAR(p[0], 0.60, 1e-12);
  EXPECT_NEAR(p[1], 0.15, 1e-12);

  // Deterministic per-query contexts.
  Context russ = oracle.ContextFor({symbols.Intern("russ")});
  EXPECT_TRUE(russ.Unblocked(0));
  EXPECT_FALSE(russ.Unblocked(1));
  Context fred = oracle.ContextFor({symbols.Intern("fred")});
  EXPECT_FALSE(fred.Unblocked(0));
  EXPECT_FALSE(fred.Unblocked(1));

  // Sampling respects the weights.
  Rng rng(7);
  int prof_hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (oracle.Next(rng).Unblocked(0)) ++prof_hits;
  }
  EXPECT_NEAR(prof_hits / double(n), 0.6, 0.02);
}

TEST(DatalogOracleTest, GuardedExperimentEvaluation) {
  SymbolTable symbols;
  Parser parser(&symbols);
  Database db;
  RuleBase rules;
  ASSERT_TRUE(parser
                  .LoadProgram(
                      "grad(X) :- enrolled(X)."
                      "grad(fred) :- admitted(fred, Y)."
                      "admitted(fred, csc).",
                      &db, &rules)
                  .ok());
  Result<QueryForm> form = QueryForm::Parse("grad(b)", &symbols);
  ASSERT_TRUE(form.ok());
  Result<BuiltGraph> built = BuildInferenceGraph(rules, *form, &symbols);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  ASSERT_EQ(built->guards.size(), 1u);

  QueryWorkload workload;
  workload.entries.push_back({{symbols.Intern("fred")}, 1.0});
  DatalogOracle oracle(&built.value(), &db, workload);
  Context fred = oracle.ContextFor({symbols.Intern("fred")});
  Context russ = oracle.ContextFor({symbols.Intern("russ")});
  // Find the guard's experiment index.
  ArcId guard_arc = built->guards.begin()->first;
  int guard_exp = built->graph.ExperimentIndex(guard_arc);
  ASSERT_GE(guard_exp, 0);
  EXPECT_TRUE(fred.Unblocked(guard_exp));
  EXPECT_FALSE(russ.Unblocked(guard_exp));
}

// ---- Lazy contexts against the eager reference path -------------------

/// A random non-recursive program for the query form q(b, b). Unary (u),
/// binary (s) and ternary (t) relations hold random facts over four
/// constants; e0 holds none. Each rule body is a chain of one or two
/// atoms whose arguments are query variables, constants or existential
/// variables (repeated within an atom now and then), optionally ending in
/// an intensional subgoal; a head constant turns a reduction into a
/// guarded one.
std::string RandomProgram(Rng& rng) {
  const std::vector<std::string> constants = {"c0", "c1", "c2", "c3"};
  std::string text;
  auto maybe_fact = [&](const std::string& atom) {
    if (rng.NextBernoulli(0.4)) text += atom + ".\n";
  };
  for (int r = 0; r < 2; ++r) {
    for (const std::string& a : constants) {
      maybe_fact("u" + std::to_string(r) + "(" + a + ")");
      for (const std::string& b : constants) {
        maybe_fact("s" + std::to_string(r) + "(" + a + ", " + b + ")");
        for (const std::string& c : constants) {
          maybe_fact("t" + std::to_string(r) + "(" + a + ", " + b + ", " + c +
                     ")");
        }
      }
    }
  }
  int existentials = 0;
  // One body atom over `vars` (the query variables the head binds);
  // adds the ones it mentions to `used`.
  auto body_atom = [&](const std::vector<std::string>& vars,
                       std::set<std::string>* used) {
    static const char* kRelations[] = {"u0", "u1", "s0", "s1",
                                       "t0", "t1", "e0"};
    std::string pred = kRelations[rng.NextBounded(7)];
    int arity = pred[0] == 't' ? 3 : pred[0] == 's' ? 2 : 1;
    std::string atom = pred + "(";
    std::string existential;
    for (int i = 0; i < arity; ++i) {
      std::string arg;
      switch (rng.NextInt(0, 4)) {
        case 0:
          arg = constants[rng.NextBounded(constants.size())];
          break;
        case 1:
          if (!existential.empty()) {  // repeated within the atom
            arg = existential;
            break;
          }
          [[fallthrough]];
        case 2:
          arg = existential = "Z" + std::to_string(existentials++);
          break;
        default:
          arg = vars[rng.NextBounded(vars.size())];
          used->insert(arg);
      }
      atom += (i > 0 ? ", " : "") + arg;
    }
    return atom + ")";
  };
  // Rules for `head` (q or a subgoal p<k>); subgoals go one level deep.
  int subgoals = 0;
  std::function<void(const std::string&, bool)> rules_for =
      [&](const std::string& head, bool top) {
        for (int r = rng.NextInt(1, top ? 5 : 2); r > 0; --r) {
          std::vector<std::string> vars = {"X", "Y"};
          std::string x = "X", y = "Y";
          if (rng.NextBernoulli(0.25)) {
            x = constants[rng.NextBounded(constants.size())];
            vars = {"Y"};
          }
          std::string body;
          std::set<std::string> used;
          for (int a = rng.NextInt(1, 2); a > 0; --a) {
            body += (body.empty() ? "" : ", ") + body_atom(vars, &used);
          }
          for (const std::string& v : vars) {  // range restriction
            if (used.count(v) == 0) body += ", u1(" + v + ")";
          }
          if (top && rng.NextBernoulli(0.3)) {
            std::string sub = "p" + std::to_string(subgoals++);
            body += ", " + sub + "(" + vars.front() + ", Y)";
            rules_for(sub, false);
          }
          text += head + "(" + x + ", " + y + ") :- " + body + ".\n";
        }
      };
  rules_for("q", true);
  return text;
}

/// Every pair of the four constants plus one no fact mentions, with
/// random weights (some zero).
QueryWorkload RandomWorkload(Rng& rng, SymbolTable* symbols) {
  QueryWorkload workload;
  for (const char* a : {"c0", "c1", "c2", "c3", "c9"}) {
    for (const char* b : {"c0", "c1", "c2", "c3", "c9"}) {
      double weight = rng.NextBernoulli(0.2) ? 0.0 : rng.NextUniform(0.5, 3);
      workload.entries.push_back(
          {{symbols->Intern(a), symbols->Intern(b)}, weight});
    }
  }
  workload.entries.back().weight = 1.0;
  return workload;
}

/// One random program, loaded and unfolded for q(b, b).
struct RandomKb {
  SymbolTable symbols;
  Database db;
  RuleBase rules;
  Result<BuiltGraph> built = Status::Internal("not built");

  explicit RandomKb(Rng& rng) {
    Parser parser(&symbols);
    std::string program = RandomProgram(rng);
    Status loaded = parser.LoadProgram(program, &db, &rules);
    EXPECT_TRUE(loaded.ok()) << loaded.ToString() << "\n" << program;
    Result<QueryForm> form = QueryForm::Parse("q(b, b)", &symbols);
    if (loaded.ok() && form.ok()) {
      built = BuildInferenceGraph(rules, *form, &symbols);
    }
  }
};

void ExpectSameOutcomes(const Context& got, const Context& want, Rng& rng) {
  ASSERT_EQ(got.num_experiments(), want.num_experiments());
  std::vector<size_t> order(want.num_experiments());
  std::iota(order.begin(), order.end(), size_t{0});
  rng.Shuffle(order);
  for (size_t e : order) {
    ASSERT_EQ(got.Unblocked(e), want.Unblocked(e)) << "experiment " << e;
  }
}

TEST(DatalogOracleTest, LazyContextsMatchContextFor) {
  Rng gen(2024);
  int programs = 0, guards = 0, existentials = 0;
  for (int attempt = 0; attempt < 60; ++attempt) {
    RandomKb kb(gen);
    if (!kb.built.ok() || kb.built->graph.num_experiments() == 0) continue;
    ++programs;
    if (!kb.built->guards.empty()) ++guards;
    for (const auto& [arc, spec] : kb.built->retrievals) {
      if (spec.IsExistential()) {
        ++existentials;
        break;
      }
    }
    QueryWorkload workload = RandomWorkload(gen, &kb.symbols);
    DatalogOracle oracle(&*kb.built, &kb.db, workload);

    // The marginals sum the compiled probes; the reference sums ContextFor.
    double total = 0.0;
    for (const auto& e : workload.entries) total += e.weight;
    std::vector<double> want_probs(oracle.num_experiments(), 0.0);
    for (const auto& e : workload.entries) {
      Context c = oracle.ContextFor(e.args);
      for (size_t i = 0; i < want_probs.size(); ++i) {
        if (c.Unblocked(i)) want_probs[i] += e.weight / total;
      }
    }
    for (double& p : want_probs) p = ClampProbability(p);
    EXPECT_EQ(oracle.TrueMarginalProbs(), want_probs);

    Rng rng(static_cast<uint64_t>(attempt));
    for (int draw = 0; draw < 100; ++draw) {
      Context lazy = oracle.Next(rng);
      Context untouched = lazy;
      Context want = oracle.ContextFor(oracle.last_query_args());
      // Copy half-way through the reads: the copy keeps what was
      // resolved and resolves the rest itself.
      std::vector<size_t> order(want.num_experiments());
      std::iota(order.begin(), order.end(), size_t{0});
      gen.Shuffle(order);
      for (size_t k = 0; k < order.size() / 2; ++k) lazy.Unblocked(order[k]);
      Context half = lazy;
      ExpectSameOutcomes(lazy, want, gen);
      ExpectSameOutcomes(half, want, gen);
      ExpectSameOutcomes(untouched, want, gen);
      Context next = oracle.Next(rng);
      EXPECT_TRUE(next == oracle.ContextFor(oracle.last_query_args()));
    }
  }
  EXPECT_GE(programs, 50);
  EXPECT_GE(guards, 20);
  EXPECT_GE(existentials, 20);
}

TEST(DriftingOracleTest, RevertAtRestoresThePreDriftRegime) {
  DriftingOracle oracle({0.9, 0.2}, {0.1, 0.2}, /*drift_at=*/10);
  oracle.set_revert_at(25);
  EXPECT_EQ(oracle.revert_at(), 25);
  // Before / during / after the transient.
  EXPECT_EQ(oracle.ProbsAt(9), (std::vector<double>{0.9, 0.2}));
  EXPECT_EQ(oracle.ProbsAt(10), (std::vector<double>{0.1, 0.2}));
  EXPECT_EQ(oracle.ProbsAt(24), (std::vector<double>{0.1, 0.2}));
  EXPECT_EQ(oracle.ProbsAt(25), (std::vector<double>{0.9, 0.2}));
  EXPECT_EQ(oracle.ProbsAt(1000), (std::vector<double>{0.9, 0.2}));
}

TEST(DriftingOracleTest, RevertIsStepwiseEvenWithAForwardRamp) {
  DriftingOracle oracle({1.0, 0.0}, {0.0, 0.0}, /*drift_at=*/10,
                        /*ramp_len=*/10);
  oracle.set_revert_at(20);  // earliest legal revert: drift_at + ramp_len
  EXPECT_NEAR(oracle.ProbsAt(14)[0], 0.5, 1e-12);  // mid-ramp
  EXPECT_EQ(oracle.ProbsAt(19)[0], 0.0);
  // The revert is a step back to `before`, never a reverse ramp.
  EXPECT_EQ(oracle.ProbsAt(20)[0], 1.0);
}

TEST(DriftingOracleTest, RevertZeroDisarms) {
  DriftingOracle oracle({0.9}, {0.1}, /*drift_at=*/5);
  oracle.set_revert_at(8);
  oracle.set_revert_at(0);
  EXPECT_EQ(oracle.ProbsAt(100), (std::vector<double>{0.1}));
}

TEST(DriftingOracleTest, DrawsFollowTheRevertedDistribution) {
  DriftingOracle oracle({1.0}, {0.0}, /*drift_at=*/5);
  oracle.set_revert_at(10);
  Rng rng(3);
  int unblocked = 0;
  for (int i = 0; i < 15; ++i) {
    if (oracle.Next(rng).Unblocked(0)) ++unblocked;
  }
  EXPECT_EQ(oracle.draws(), 15);
  // Draws 0-4 and 10-14 are certain successes, 5-9 certain failures.
  EXPECT_EQ(unblocked, 10);
}

TEST(RandomTreeTest, ProducesValidGraphs) {
  Rng rng(11);
  for (int i = 0; i < 50; ++i) {
    RandomTree tree = MakeRandomTree(rng);
    EXPECT_TRUE(tree.graph.Validate().ok());
    EXPECT_GE(tree.graph.SuccessArcs().size(), 2u);
    EXPECT_EQ(tree.probs.size(), tree.graph.num_experiments());
    for (double p : tree.probs) {
      EXPECT_GE(p, 0.0);
      EXPECT_LE(p, 1.0);
    }
    // Default options: no internal experiments.
    EXPECT_TRUE(IsLeafOnlyExperiments(tree.graph));
  }
}

TEST(RandomTreeTest, InternalExperimentsWhenRequested) {
  Rng rng(13);
  RandomTreeOptions options;
  options.internal_experiment_prob = 1.0;
  options.depth = 3;
  options.early_leaf_prob = 0.0;
  bool saw_internal = false;
  for (int i = 0; i < 20 && !saw_internal; ++i) {
    RandomTree tree = MakeRandomTree(rng, options);
    saw_internal = !IsLeafOnlyExperiments(tree.graph);
  }
  EXPECT_TRUE(saw_internal);
}

TEST(RandomTreeTest, FlatTreeShape) {
  Rng rng(17);
  RandomTree tree = MakeFlatTree(rng, 12);
  EXPECT_EQ(tree.graph.num_arcs(), 12u);
  EXPECT_EQ(tree.graph.SuccessArcs().size(), 12u);
  EXPECT_EQ(tree.probs.size(), 12u);
}

TEST(RandomTreeTest, DeterministicForSeed) {
  Rng rng1(23), rng2(23);
  RandomTree a = MakeRandomTree(rng1);
  RandomTree b = MakeRandomTree(rng2);
  EXPECT_EQ(a.graph.num_arcs(), b.graph.num_arcs());
  EXPECT_EQ(a.probs, b.probs);
}

}  // namespace
}  // namespace stratlearn
