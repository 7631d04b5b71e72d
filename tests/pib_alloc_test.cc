// The learners' per-context paths, and the Datalog loader per fact,
// make no heap allocation beyond their output. Pib::Observe between
// moves makes none: the estimator's completion and scratch buffers are
// sized once per graph, and a neighbourhood is rebuilt only when the
// learner moves. AdaptiveQueryProcessor::Process makes exactly the ones
// Execute of its aiming strategy makes (the trace and the walk's
// reached set): the aiming strategies are planned once, in its
// constructor. This binary replaces the global operator new to count
// allocations, so it holds no other test.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "core/pib.h"
#include "datalog/parser.h"
#include "engine/adaptive_qp.h"
#include "workload/random_tree.h"
#include "workload/synthetic_oracle.h"

namespace {
long long allocations = 0;
}  // namespace

void* operator new(std::size_t size) {
  ++allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  ++allocations;
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return operator new(size, tag);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace stratlearn {
namespace {

RandomTree MakeTree(int depth) {
  Rng tree_rng(42 + static_cast<uint64_t>(depth));
  RandomTreeOptions options;
  options.depth = depth;
  options.min_branch = 2;
  options.max_branch = 3;
  options.early_leaf_prob = 0.1;
  return MakeRandomTree(tree_rng, options);
}

TEST(PibAllocationTest, ObserveAllocatesNothingBetweenMoves) {
  for (int depth : {3, 5}) {
    RandomTree tree = MakeTree(depth);
    Pib pib(&tree.graph, Strategy::DepthFirst(tree.graph),
            PibOptions{.delta = 0.5});
    // Only the last retrieval is likely to succeed, so PIB climbs.
    std::vector<double> probs(tree.probs.size(), 0.03);
    probs.back() = 0.9;
    IndependentOracle oracle(probs);
    QueryProcessor qp(&tree.graph);
    Rng rng(9);
    int observed = 0, moves = 0;
    for (int i = 0; i < 4000; ++i) {
      Trace trace = qp.Execute(pib.strategy(), oracle.Next(rng));
      const long long before = allocations;
      const bool moved = pib.Observe(trace);
      if (moved) {
        ++moves;
        continue;
      }
      ++observed;
      ASSERT_EQ(allocations, before)
          << "depth " << depth << ", context " << i;
    }
    EXPECT_GT(observed, 3000);
    EXPECT_GT(moves, 0) << "depth " << depth;
  }
}

// Section 4.1's aiming strategy at `target`: Pi(e), e, then the rest of
// the depth-first strategy in its order.
Strategy AimingStrategy(const InferenceGraph& g, int target) {
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
  return *Strategy::FromArcOrder(g, std::move(order));
}

TEST(AdaptiveAllocationTest, ProcessAllocatesOnlyWhatExecuteDoes) {
  for (int depth : {3, 5}) {
    RandomTree tree = MakeTree(depth);
    const InferenceGraph& g = tree.graph;
    // Quotas no run meets: the target moves on as each is sampled.
    AdaptiveQueryProcessor qpa(
        &g, std::vector<int64_t>(g.num_experiments(), int64_t{1} << 40),
        AdaptiveQueryProcessor::QuotaMode::kReachAttempts);
    QueryProcessor qp(&g);
    IndependentOracle oracle(tree.probs);
    Rng rng(9);
    std::vector<Context> contexts;
    for (int i = 0; i < 500; ++i) contexts.push_back(oracle.Next(rng));
    for (size_t i = 0; i < contexts.size(); ++i) {
      long long before = allocations;
      const AdaptiveQueryProcessor::StepResult step = qpa.Process(contexts[i]);
      const long long processed = allocations - before;
      const Strategy aiming = AimingStrategy(g, step.aimed_experiment);
      before = allocations;
      const Trace trace = qp.Execute(aiming, contexts[i]);
      const long long executed = allocations - before;
      ASSERT_EQ(step.trace.attempts.size(), trace.attempts.size());
      ASSERT_EQ(processed, executed) << "depth " << depth << ", context " << i;
    }
  }
}

// Parser::LoadProgram streams each ground fact into its relation
// through one reused clause and tuple, so loading allocates only when a
// relation, the symbol table or a name outgrows its storage:
// logarithmically many times in the number of facts, not once per fact.
TEST(LoadAllocationTest, LoadProgramAllocatesNothingPerFact) {
  std::string program = "q(X) :- r0(X), r1(X).\n";
  const int relations = 10;
  const int constants = 2000;
  for (int r = 0; r < relations; ++r) {
    for (int u = 0; u < constants; ++u) {
      program += "r" + std::to_string(r) + "(u" + std::to_string(u) + ").\n";
    }
  }
  SymbolTable symbols;
  Parser parser(&symbols);
  Database db;
  RuleBase rules;
  const long long before = allocations;
  ASSERT_TRUE(parser.LoadProgram(program, &db, &rules).ok());
  const long long loaded = allocations - before;
  ASSERT_EQ(db.TotalFacts(), relations * constants);
  // One allocation per fact would make 20 000; growth makes about 300.
  EXPECT_LT(loaded, relations * constants / 10);
}

}  // namespace
}  // namespace stratlearn
