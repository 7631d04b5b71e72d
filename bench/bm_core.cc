// Micro-benchmarks (google-benchmark) for the hot paths: strategy
// execution, expected-cost evaluation, Upsilon, and PIB's per-context
// update. These are throughput numbers, not paper artifacts.

#include <benchmark/benchmark.h>

#include "core/delta_estimator.h"
#include "core/expected_cost.h"
#include "core/palo.h"
#include "core/pib.h"
#include "core/transformations.h"
#include "core/upsilon.h"
#include "engine/query_processor.h"
#include "obs/observer.h"
#include "obs/profiler.h"
#include "workload/random_tree.h"
#include "workload/synthetic_oracle.h"

namespace stratlearn {
namespace {

RandomTree MakeTree(int depth) {
  Rng rng(42 + static_cast<uint64_t>(depth));
  RandomTreeOptions options;
  options.depth = depth;
  options.min_branch = 2;
  options.max_branch = 3;
  options.early_leaf_prob = 0.1;
  return MakeRandomTree(rng, options);
}

void BM_ExecuteStrategy(benchmark::State& state) {
  RandomTree tree = MakeTree(static_cast<int>(state.range(0)));
  Strategy theta = Strategy::DepthFirst(tree.graph);
  QueryProcessor qp(&tree.graph);
  IndependentOracle oracle(tree.probs);
  Rng rng(7);
  Context ctx = oracle.Next(rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(qp.Execute(theta, ctx));
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["arcs"] = static_cast<double>(tree.graph.num_arcs());
}
BENCHMARK(BM_ExecuteStrategy)->Arg(3)->Arg(5)->Arg(7);

// Same hot path with a metrics-only observer attached: the price of
// qp.* counters and wall-time histograms (no trace sink).
void BM_ExecuteStrategyObserved(benchmark::State& state) {
  RandomTree tree = MakeTree(static_cast<int>(state.range(0)));
  Strategy theta = Strategy::DepthFirst(tree.graph);
  obs::MetricsRegistry registry;
  obs::Observer observer(&registry, nullptr);
  QueryProcessor qp(&tree.graph, &observer);
  IndependentOracle oracle(tree.probs);
  Rng rng(7);
  Context ctx = oracle.Next(rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(qp.Execute(theta, ctx));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ExecuteStrategyObserved)->Arg(3)->Arg(5)->Arg(7);

// Full observability: metrics plus the StrategyProfiler aggregating
// every event online — the cost of `--profile-out` / `explain` over
// BM_ExecuteStrategyObserved is the profiler's aggregation overhead.
void BM_ExecuteStrategyProfiled(benchmark::State& state) {
  RandomTree tree = MakeTree(static_cast<int>(state.range(0)));
  Strategy theta = Strategy::DepthFirst(tree.graph);
  obs::MetricsRegistry registry;
  obs::StrategyProfiler profiler;
  obs::Observer observer(&registry, &profiler);
  QueryProcessor qp(&tree.graph, &observer);
  IndependentOracle oracle(tree.probs);
  Rng rng(7);
  Context ctx = oracle.Next(rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(qp.Execute(theta, ctx));
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["profiled_arcs"] =
      static_cast<double>(profiler.arcs().size());
}
BENCHMARK(BM_ExecuteStrategyProfiled)->Arg(3)->Arg(5)->Arg(7);

void BM_LeafOnlyExpectedCost(benchmark::State& state) {
  RandomTree tree = MakeTree(static_cast<int>(state.range(0)));
  Strategy theta = Strategy::DepthFirst(tree.graph);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        LeafOnlyExpectedCost(tree.graph, theta, tree.probs));
  }
}
BENCHMARK(BM_LeafOnlyExpectedCost)->Arg(3)->Arg(5)->Arg(7);

void BM_ExactExpectedCostDP(benchmark::State& state) {
  // Force the general O(A^2) DP by adding one internal experiment.
  Rng rng(43);
  RandomTreeOptions options;
  options.depth = static_cast<int>(state.range(0));
  options.internal_experiment_prob = 0.3;
  RandomTree tree = MakeRandomTree(rng, options);
  Strategy theta = Strategy::DepthFirst(tree.graph);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ExactExpectedCost(tree.graph, theta, tree.probs));
  }
  state.counters["arcs"] = static_cast<double>(tree.graph.num_arcs());
}
BENCHMARK(BM_ExactExpectedCostDP)->Arg(3)->Arg(5);

void BM_UpsilonFlat(benchmark::State& state) {
  Rng rng(44);
  RandomTree tree = MakeFlatTree(rng, static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(UpsilonAot(tree.graph, tree.probs));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_UpsilonFlat)->Range(64, 16384)->Complexity();

void BM_PibObserve(benchmark::State& state) {
  RandomTree tree = MakeTree(static_cast<int>(state.range(0)));
  Pib pib(&tree.graph, Strategy::DepthFirst(tree.graph),
          PibOptions{.delta = 0.5});
  IndependentOracle oracle(tree.probs);
  QueryProcessor qp(&tree.graph);
  Rng rng(9);
  for (auto _ : state) {
    pib.Observe(qp.Execute(pib.strategy(), oracle.Next(rng)));
  }
  state.counters["neighbors"] =
      static_cast<double>(pib.num_neighbors());
}
BENCHMARK(BM_PibObserve)->Arg(3)->Arg(5);

// PALO's per-context update: Delta~ and Delta^ for every neighbour. A
// tight epsilon keeps the stopping rule from certifying, so every
// iteration does the full update.
void BM_PaloObserve(benchmark::State& state) {
  RandomTree tree = MakeTree(static_cast<int>(state.range(0)));
  Palo palo(&tree.graph, Strategy::DepthFirst(tree.graph),
            PaloOptions{.delta = 0.5, .epsilon = 1e-6});
  IndependentOracle oracle(tree.probs);
  QueryProcessor qp(&tree.graph);
  Rng rng(9);
  for (auto _ : state) {
    palo.Observe(qp.Execute(palo.strategy(), oracle.Next(rng)));
  }
  if (palo.Finished()) state.SkipWithError("PALO stopped early");
  state.counters["moves"] = static_cast<double>(palo.moves_made());
}
BENCHMARK(BM_PaloObserve)->Arg(3)->Arg(5);

// Delta~ for a whole neighbourhood from one trace: the per-trace
// completion J, then every neighbour (items = neighbours).
void BM_DeltaUnderEstimate(benchmark::State& state) {
  RandomTree tree = MakeTree(static_cast<int>(state.range(0)));
  SwapNeighborhood hood(tree.graph, Strategy::DepthFirst(tree.graph),
                        AllSiblingSwaps(tree.graph));
  DeltaEstimator estimator(&tree.graph);
  QueryProcessor qp(&tree.graph);
  IndependentOracle oracle(tree.probs);
  Rng rng(10);
  Trace trace = qp.Execute(hood.strategy(), oracle.Next(rng));
  std::vector<double> deltas;
  for (auto _ : state) {
    estimator.UnderEstimates(trace, hood, &deltas);
    benchmark::DoNotOptimize(deltas.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(hood.size()));
  state.counters["neighbors"] = static_cast<double>(hood.size());
}
BENCHMARK(BM_DeltaUnderEstimate)->Arg(3)->Arg(5)->Arg(7);

}  // namespace
}  // namespace stratlearn


