// Micro-benchmarks (google-benchmark) for the hot paths: strategy
// execution, expected-cost evaluation, Upsilon, PIB's per-context
// update and telemetry emission. These are throughput numbers, not
// paper artifacts.

#include <benchmark/benchmark.h>

#include <limits>
#include <ostream>
#include <streambuf>
#include <variant>
#include <vector>

#include "core/delta_estimator.h"
#include "core/expected_cost.h"
#include "core/palo.h"
#include "core/pib.h"
#include "core/transformations.h"
#include "core/upsilon.h"
#include "engine/adaptive_qp.h"
#include "engine/query_processor.h"
#include "obs/audit/audit_log.h"
#include "obs/observer.h"
#include "obs/profiler.h"
#include "obs/sinks.h"
#include "robust/fault_injector.h"
#include "robust/fault_plan.h"
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

// The same trees through the fault-injected walk, under the rules and
// resilience policy of tests/testdata/faults_transient.plan.
void BM_ExecuteStrategyFaulted(benchmark::State& state) {
  RandomTree tree = MakeTree(static_cast<int>(state.range(0)));
  Strategy theta = Strategy::DepthFirst(tree.graph);
  robust::FaultPlan plan;
  plan.seed = 42;
  plan.resilience.max_retries = 3;
  plan.resilience.backoff_base = 0.25;
  plan.resilience.backoff_multiplier = 2.0;
  plan.resilience.backoff_cap = 2.0;
  plan.resilience.breaker_threshold = 8;
  plan.resilience.breaker_cooldown = 32;
  plan.rules = {{robust::FaultKind::kTransient, 0.05, -1, 1.0},
                {robust::FaultKind::kTimeout, 0.01, -1, 4.0},
                {robust::FaultKind::kCorrupt, 0.005, -1, 1.0},
                {robust::FaultKind::kCostSpike, 0.02, -1, 3.0}};
  robust::FaultInjector injector(plan);
  QueryProcessor qp(&tree.graph);
  qp.set_fault_injector(&injector);
  IndependentOracle oracle(tree.probs);
  Rng rng(7);
  Context ctx = oracle.Next(rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(qp.Execute(theta, ctx));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ExecuteStrategyFaulted)->Arg(3)->Arg(5)->Arg(7);

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

// QP^A's step per context: pick the target with the largest remaining
// quota, execute its aiming strategy and count the samples (items =
// contexts). The quotas are never met, so the target moves on as each
// experiment is sampled. No depth 7: its 679 arcs would need a table of
// about a megabyte, and no PAO run uses a graph that size.
void BM_AdaptiveProcess(benchmark::State& state) {
  RandomTree tree = MakeTree(static_cast<int>(state.range(0)));
  AdaptiveQueryProcessor qpa(
      &tree.graph,
      std::vector<int64_t>(tree.graph.num_experiments(),
                           std::numeric_limits<int64_t>::max()),
      AdaptiveQueryProcessor::QuotaMode::kReachAttempts);
  IndependentOracle oracle(tree.probs);
  Rng rng(7);
  Context ctx = oracle.Next(rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(qpa.Process(ctx));
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["arcs"] = static_cast<double>(tree.graph.num_arcs());
}
BENCHMARK(BM_AdaptiveProcess)->Arg(3)->Arg(5);

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
BENCHMARK(BM_PibObserve)->Arg(3)->Arg(5)->Arg(7);

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

// Delta~ for a whole neighbourhood from one trace, added to its sums:
// the trace's completion J patched into J0, one run of Theta and its
// block table, then the neighbours of the entered regions (items =
// neighbours).
void BM_DeltaUnderEstimate(benchmark::State& state) {
  RandomTree tree = MakeTree(static_cast<int>(state.range(0)));
  SwapNeighborhood hood(tree.graph, Strategy::DepthFirst(tree.graph),
                        AllSiblingSwaps(tree.graph));
  DeltaEstimator estimator(&tree.graph);
  QueryProcessor qp(&tree.graph);
  IndependentOracle oracle(tree.probs);
  Rng rng(10);
  Trace trace = qp.Execute(hood.strategy(), oracle.Next(rng));
  std::vector<double> sums(hood.size(), 0.0);
  for (auto _ : state) {
    estimator.AddUnderEstimates(trace, hood, &sums);
    benchmark::DoNotOptimize(sums.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(hood.size()));
  state.counters["neighbors"] = static_cast<double>(hood.size());
}
BENCHMARK(BM_DeltaUnderEstimate)->Arg(3)->Arg(5)->Arg(7);

// Telemetry emission: the sinks below write to a stream that drops its
// bytes, so each number is the cost of rendering one record (number
// formatting, escaping, framing), not of I/O.
class DiscardBuffer final : public std::streambuf {
 protected:
  std::streamsize xsputn(const char*, std::streamsize n) override {
    return n;
  }
  int_type overflow(int_type c) override { return traits_type::not_eof(c); }
};

// A reject certificate as PIB writes one per test round, with the
// non-integral statistics of a real run.
obs::DecisionCertificateEvent SampleCertificate(Rng& rng) {
  obs::DecisionCertificateEvent e;
  e.t_us = 1234567 + rng.NextInt(0, 1000);
  e.learner = "pib";
  e.decision = "climb";
  e.verdict = "reject";
  e.at_context = 4321;
  e.samples = 4321;
  e.trials = 324075;
  e.subject = 17;
  e.mean = -0.04 * rng.NextDouble();
  e.delta_sum = -172.83 * rng.NextDouble();
  e.threshold = 5.2865357851997832 + rng.NextDouble();
  e.margin = e.delta_sum - e.threshold;
  e.range = 4;
  e.epsilon_n = e.threshold;
  e.delta_step = 0.03039635509270134 * rng.NextDouble();
  e.delta_budget = 0.05;
  e.delta_spent_total = 0.049 + 0.001 * rng.NextDouble();
  return e;
}

// Arg 0: arc_attempt, 1: sequential_test, 2: decision_certificate, the
// three records pib_telemetry writes most (items = records).
void BM_EmitJsonl(benchmark::State& state) {
  Rng rng(12);
  obs::Event event;
  switch (state.range(0)) {
    case 0:
      event = obs::ArcAttemptEvent{4321, 1234567 + rng.NextInt(0, 1000), 17,
                                   -1, true, 1.0};
      break;
    case 1:
      event = obs::SequentialTestEvent{1234567 + rng.NextInt(0, 1000),
                                       "pib",
                                       4321,
                                       4321,
                                       324075,
                                       17,
                                       -172.83 * rng.NextDouble(),
                                       5.2865357851997832 + rng.NextDouble(),
                                       false};
      break;
    default:
      event = SampleCertificate(rng);
  }
  DiscardBuffer discard;
  std::ostream out(&discard);
  obs::JsonlSink sink(&out);
  for (auto _ : state) {
    sink.On(event);
    benchmark::ClobberMemory();
  }
  if (sink.failed() || sink.events_dropped() != 0) {
    state.SkipWithError("the sink stopped writing");
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(std::visit([](const auto& e) { return e.kType; }, event));
}
BENCHMARK(BM_EmitJsonl)->Arg(0)->Arg(1)->Arg(2);

// The audit log's certificate record; Arg is the number of arcs attempted
// since the previous certificate, fed as arc attempts before each one and
// written as its "arcs" tallies (items = certificates).
void BM_EmitAuditCertificate(benchmark::State& state) {
  Rng rng(13);
  const obs::DecisionCertificateEvent certificate = SampleCertificate(rng);
  std::vector<obs::ArcAttemptEvent> attempts;
  for (int64_t arc = 0; arc < state.range(0); ++arc) {
    attempts.push_back(obs::ArcAttemptEvent{
        4321, 1234567, static_cast<uint32_t>(arc),
        static_cast<int>(arc) - 1, rng.NextBernoulli(0.5), 1.0});
  }
  DiscardBuffer discard;
  std::ostream out(&discard);
  obs::AuditLog audit(&out);
  for (auto _ : state) {
    for (const obs::ArcAttemptEvent& a : attempts) audit.On(a);
    audit.On(certificate);
    benchmark::ClobberMemory();
  }
  if (audit.failed()) state.SkipWithError("the audit log stopped writing");
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EmitAuditCertificate)->Arg(0)->Arg(4);

}  // namespace
}  // namespace stratlearn


