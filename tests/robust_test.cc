#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdio>

#include "core/delta_estimator.h"
#include "core/pib.h"
#include "engine/adaptive_qp.h"
#include "engine/query_processor.h"
#include "graph/examples.h"
#include "robust/checkpoint.h"
#include "robust/fault_injector.h"
#include "robust/fault_plan.h"
#include "util/file_util.h"
#include "util/rng.h"
#include "util/string_util.h"
#include "verify/verify.h"
#include "workload/random_tree.h"
#include "workload/synthetic_oracle.h"

namespace stratlearn {
namespace {

using robust::CheckpointData;
using robust::FaultInjector;
using robust::FaultInjectorState;
using robust::FaultKind;
using robust::FaultPlan;
using robust::FaultRule;

// ---- Fault plans ---------------------------------------------------------

TEST(FaultPlanTest, ParseSerializeRoundTrip) {
  Result<FaultPlan> plan = FaultPlan::Parse(
      "stratlearn-faultplan v1\n"
      "seed 42\n"
      "retries 2          # comment\n"
      "backoff 0.5 2.0 4.0\n"
      "breaker 3 16\n"
      "fault transient 0.05 -1\n"
      "fault timeout 0.01 2 4.0\n");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(plan->seed, 42u);
  EXPECT_EQ(plan->resilience.max_retries, 2);
  EXPECT_DOUBLE_EQ(plan->resilience.backoff_base, 0.5);
  EXPECT_EQ(plan->resilience.breaker_threshold, 3);
  EXPECT_EQ(plan->resilience.breaker_cooldown, 16);
  ASSERT_EQ(plan->rules.size(), 2u);
  EXPECT_EQ(plan->rules[0].kind, FaultKind::kTransient);
  EXPECT_EQ(plan->rules[0].experiment, -1);
  EXPECT_EQ(plan->rules[1].kind, FaultKind::kTimeout);
  EXPECT_DOUBLE_EQ(plan->rules[1].magnitude, 4.0);
  EXPECT_FALSE(plan->ZeroFault());

  // Serialize -> Parse is the identity (up to formatting).
  Result<FaultPlan> again = FaultPlan::Parse(plan->Serialize());
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(again->Serialize(), plan->Serialize());
}

TEST(FaultPlanTest, RejectsMalformedPlans) {
  EXPECT_FALSE(FaultPlan::Parse("seed 1\n").ok());  // no header
  EXPECT_FALSE(FaultPlan::Parse(
                   "stratlearn-faultplan v1\nfault sparkle 0.1 -1\n")
                   .ok());
  EXPECT_FALSE(FaultPlan::Parse(
                   "stratlearn-faultplan v1\nfault transient 1.5 -1\n")
                   .ok());
  EXPECT_FALSE(FaultPlan::Parse(
                   "stratlearn-faultplan v1\nfault timeout 0.1 -1 0.5\n")
                   .ok());
  EXPECT_FALSE(
      FaultPlan::Parse("stratlearn-faultplan v1\nbreaker 1 0\n").ok());
  EXPECT_FALSE(
      FaultPlan::Parse("stratlearn-faultplan v1\nflux 3\n").ok());
  // Numbers are whole tokens: trailing junk or words are errors, not a
  // silently zeroed field.
  EXPECT_FALSE(
      FaultPlan::Parse("stratlearn-faultplan v1\nseed 12x\n").ok());
  EXPECT_FALSE(
      FaultPlan::Parse("stratlearn-faultplan v1\nretries three\n").ok());
  EXPECT_FALSE(FaultPlan::Parse(
                   "stratlearn-faultplan v1\nfault transient abc 0\n")
                   .ok());
}

// NaN passes every bound check and an infinite cost poisons every sum
// downstream, so each directive that reads a real number rejects a
// non-finite one with its line-numbered "expects" error.
void ExpectRejected(const std::string& line, const std::string& error) {
  Result<FaultPlan> plan =
      FaultPlan::Parse("stratlearn-faultplan v1\n" + line + "\n");
  ASSERT_FALSE(plan.ok()) << line;
  EXPECT_NE(plan.status().message().find(error), std::string::npos)
      << plan.status().message();
}

TEST(FaultPlanTest, RejectsNonFiniteBackoff) {
  for (const char* line : {"backoff 0.25 2.0 inf", "backoff nan 2.0 2.0",
                           "backoff 0.25 inf 2.0"}) {
    ExpectRejected(line, "line 2: 'backoff' expects");
  }
}

// The per-query cost budget and the breaker's settable backoff cap are
// gone: a plan that still carries either fails to load, not silently.
TEST(FaultPlanTest, RejectsDeletedBudgetAndBreakerCap) {
  ExpectRejected("budget 0", "line 2: unknown directive 'budget'");
  ExpectRejected("breaker 8 32 256", "line 2: 'breaker' expects");
}

TEST(FaultPlanTest, RejectsNonFiniteFaultRule) {
  for (const char* line :
       {"fault transient nan -1", "fault timeout 0.2 -1 inf",
        "fault cost_spike 0.1 -1 nan", "fault corrupt -inf -1"}) {
    ExpectRejected(line, "line 2: 'fault' expects");
  }
}

TEST(FaultPlanTest, ZeroFaultDetection) {
  FaultPlan plan;
  EXPECT_TRUE(plan.ZeroFault());
  plan.rules.push_back({FaultKind::kTransient, 0.0, -1, 1.0});
  EXPECT_TRUE(plan.ZeroFault());
  plan.rules.push_back({FaultKind::kCorrupt, 0.001, 0, 1.0});
  EXPECT_FALSE(plan.ZeroFault());
}

// ---- Fault injector ------------------------------------------------------

FaultPlan TransientPlan(double probability, int experiment = -1) {
  FaultPlan plan;
  plan.seed = 42;
  plan.rules.push_back({FaultKind::kTransient, probability, experiment, 1.0});
  return plan;
}

TEST(FaultInjectorTest, SameSeedSameFaultStream) {
  FaultInjector a(TransientPlan(0.5));
  FaultInjector b(TransientPlan(0.5));
  for (int i = 0; i < 200; ++i) {
    double ma = 1.0, mb = 1.0;
    EXPECT_EQ(a.SampleFault(i % 4, &ma), b.SampleFault(i % 4, &mb));
    EXPECT_DOUBLE_EQ(ma, mb);
  }
}

TEST(FaultInjectorTest, SaveRestoreContinuesTheStream) {
  FaultPlan plan = TransientPlan(0.5);
  plan.resilience.breaker_threshold = 2;
  FaultInjector a(plan);
  double magnitude = 1.0;
  for (int i = 0; i < 50; ++i) {
    a.BeginQuery();
    a.SampleFault(0, &magnitude);
  }
  a.RecordInfraFailure(3, 7);
  FaultInjectorState saved = a.SaveState();
  ASSERT_EQ(saved.breakers.size(), 1u);

  FaultInjector b(plan);
  ASSERT_TRUE(b.RestoreState(saved).ok());
  EXPECT_EQ(b.BeginQuery(), a.BeginQuery());
  EXPECT_EQ(b.BreakerLedger(3).consecutive_failures, 1);
  for (int i = 0; i < 100; ++i) {
    double ma = 1.0, mb = 1.0;
    EXPECT_EQ(a.SampleFault(i % 4, &ma), b.SampleFault(i % 4, &mb));
  }
}

TEST(FaultInjectorTest, RestoreRejectsGarbage) {
  FaultInjector injector(TransientPlan(0.5));
  FaultInjectorState state = injector.SaveState();
  state.query_count = -1;
  EXPECT_FALSE(injector.RestoreState(state).ok());

  state = injector.SaveState();
  state.breakers.push_back({kInvalidArc, 1, 0});
  EXPECT_FALSE(injector.RestoreState(state).ok());
}

TEST(FaultInjectorTest, BreakerOpensSkipsAndCloses) {
  FaultPlan plan = TransientPlan(0.5);
  plan.resilience.breaker_threshold = 2;
  plan.resilience.breaker_cooldown = 3;
  FaultInjector injector(plan);

  // Threshold 2: the first exhausted-retries failure arms, the second
  // opens.
  EXPECT_FALSE(injector.RecordInfraFailure(5, 0));
  EXPECT_FALSE(injector.BreakerOpen(5, 1));
  EXPECT_TRUE(injector.RecordInfraFailure(5, 1));
  // Cooldown 3 starting at query 1: queries 2..4 skip, 5 gets a trial.
  EXPECT_TRUE(injector.BreakerOpen(5, 2));
  EXPECT_TRUE(injector.BreakerOpen(5, 4));
  EXPECT_FALSE(injector.BreakerOpen(5, 5));
  // A fault-free attempt closes the breaker and resets the ledger.
  EXPECT_TRUE(injector.RecordRecovery(5));
  EXPECT_FALSE(injector.RecordRecovery(5));
  EXPECT_EQ(injector.BreakerLedger(5).consecutive_failures, 0);
}

// ---- Resilient execution -------------------------------------------------

// The satisficing traversal written out by hand, without
// SatisficingWalk: the reference the one walk is compared with.
Trace ReferenceExecute(const InferenceGraph* graph_, const Strategy& strategy,
                       const Context& context,
                       const ExecutionOptions& options) {
  STRATLEARN_CHECK(context.num_experiments() == graph_->num_experiments());
  Trace trace;
  std::vector<char> visited(graph_->num_nodes(), 0);
  visited[graph_->root()] = 1;

  for (ArcId a : strategy.arcs()) {
    const Arc& arc = graph_->arc(a);
    if (!visited[arc.from]) continue;  // unreachable: skipped at no cost
    bool unblocked = arc.experiment < 0 ||
                     context.Unblocked(static_cast<size_t>(arc.experiment));
    double attempt_cost =
        arc.cost + (unblocked ? arc.success_cost : arc.failure_cost);
    trace.cost += attempt_cost;
    trace.attempts.push_back({a, unblocked, false, attempt_cost});
    if (!unblocked) continue;
    visited[arc.to] = 1;
    if (graph_->node(arc.to).is_success) {
      ++trace.successes;
      if (trace.first_success_arc == kInvalidArc) trace.first_success_arc = a;
      if (trace.successes >= options.stop_after_successes) break;
    }
  }
  trace.success = trace.successes >= options.stop_after_successes;
  return trace;
}

// Every field equal, doubles bit for bit.
void ExpectSameTrace(const Trace& want, const Trace& got) {
  EXPECT_EQ(want.cost, got.cost);
  EXPECT_EQ(want.successes, got.successes);
  EXPECT_EQ(want.success, got.success);
  EXPECT_EQ(want.first_success_arc, got.first_success_arc);
  ASSERT_EQ(want.attempts.size(), got.attempts.size());
  for (size_t i = 0; i < want.attempts.size(); ++i) {
    EXPECT_EQ(want.attempts[i].arc, got.attempts[i].arc);
    EXPECT_EQ(want.attempts[i].unblocked, got.attempts[i].unblocked);
    EXPECT_EQ(want.attempts[i].infra_failure, got.attempts[i].infra_failure);
    EXPECT_EQ(want.attempts[i].cost, got.attempts[i].cost);
  }
}

// A valid strategy in random order: each step takes a random arc whose
// tail is reached, so sibling subtrees interleave.
Strategy RandomInterleaved(const InferenceGraph& graph, Rng& rng) {
  std::vector<ArcId> ready = graph.node(graph.root()).out_arcs;
  std::vector<ArcId> order;
  while (!ready.empty()) {
    size_t i = static_cast<size_t>(rng.NextBounded(ready.size()));
    ArcId a = ready[i];
    ready.erase(ready.begin() + static_cast<std::ptrdiff_t>(i));
    order.push_back(a);
    for (ArcId c : graph.node(graph.arc(a).to).out_arcs) ready.push_back(c);
  }
  Result<Strategy> strategy = Strategy::FromArcOrder(graph, order);
  STRATLEARN_CHECK(strategy.ok());
  return *strategy;
}

// Each arc's true outcome under `context` at its nominal attempt cost.
Completion ExactCompletion(const InferenceGraph& graph,
                           const Context& context) {
  Completion k;
  for (ArcId a = 0; a < graph.num_arcs(); ++a) {
    const Arc& arc = graph.arc(a);
    bool unblocked = arc.experiment < 0 ||
                     context.Unblocked(static_cast<size_t>(arc.experiment));
    k.unblocked.push_back(unblocked ? 1 : 0);
    k.cost.push_back(arc.cost +
                     (unblocked ? arc.success_cost : arc.failure_cost));
  }
  return k;
}

// The one walk against the reference executor on random trees with
// guarded reductions and outcome-dependent costs, over every context:
// a plain Execute and one through a zero-fault injector with its breaker
// armed give the reference trace field for field, and Delta~'s replay
// under the exact completion gives its cost.
TEST(ResilientExecutionTest, ZeroFaultPlanIsBitIdentical) {
  Rng rng(2311);
  RandomTreeOptions options;
  options.depth = 3;
  options.internal_experiment_prob = 0.3;
  options.max_outcome_cost = 0.75;
  int trees = 0, guarded = 0;
  while (trees < 6) {
    RandomTree tree = MakeRandomTree(rng, options);
    const InferenceGraph& g = tree.graph;
    const size_t n = g.num_experiments();
    if (n < 6 || n > 12) continue;
    ++trees;
    for (ArcId a : g.experiments()) {
      if (!g.node(g.arc(a).to).is_success) ++guarded;
    }
    std::vector<ArcId> leaves = g.SuccessArcs();
    rng.Shuffle(leaves);
    const std::vector<Strategy> strategies = {
        Strategy::DepthFirst(g), Strategy::FromLeafOrder(g, leaves),
        RandomInterleaved(g, rng)};

    QueryProcessor plain(&g);
    QueryProcessor resilient(&g);
    FaultPlan plan = TransientPlan(0.0);
    plan.resilience.breaker_threshold = 4;
    FaultInjector injector(plan);
    resilient.set_fault_injector(&injector);
    DeltaEstimator estimator(&g);

    for (uint64_t mask = 0; mask < (uint64_t{1} << n); ++mask) {
      const Context ctx = Context::FromMask(n, mask);
      const Completion exact = ExactCompletion(g, ctx);
      for (const Strategy& theta : strategies) {
        for (int64_t k : {1, 2}) {
          const ExecutionOptions run{.stop_after_successes = k};
          const Trace want = ReferenceExecute(&g, theta, ctx, run);
          ExpectSameTrace(want, plain.Execute(theta, ctx, run));
          ExpectSameTrace(want, resilient.Execute(theta, ctx, run));
          if (k == 1) {
            EXPECT_EQ(want.cost, estimator.Cost(theta, exact));
          }
        }
      }
    }
  }
  EXPECT_GT(guarded, 0);
}

TEST(ResilientExecutionTest, ExhaustedRetriesChargeBackoffAndFailureCost) {
  FigureOneGraph g = MakeFigureOne();
  // Every attempt of experiment 0 (D_p) fails; 2 retries with backoff
  // 0.5, 1.0 (base 0.5, multiplier 2, generous cap).
  FaultPlan plan = TransientPlan(1.0, /*experiment=*/0);
  plan.resilience.max_retries = 2;
  plan.resilience.backoff_base = 0.5;
  plan.resilience.backoff_multiplier = 2.0;
  plan.resilience.backoff_cap = 10.0;
  FaultInjector injector(plan);
  QueryProcessor qp(&g.graph);
  qp.set_fault_injector(&injector);

  Strategy theta = Strategy::FromLeafOrder(g.graph, {g.d_p, g.d_g});
  Context ctx(2);
  ctx.Set(0, true);  // ground truth says unblocked — the learner never
  ctx.Set(1, true);  // sees it through the failing transport
  Trace t = qp.Execute(theta, ctx);

  const Arc& dp = g.graph.arc(g.d_p);
  double expected_dp =
      3 * dp.cost + 0.5 + 1.0 + dp.failure_cost;  // 3 attempts + backoffs
  ASSERT_EQ(t.attempts.size(), 4u);  // r_p, d_p, r_g, d_g
  EXPECT_EQ(t.attempts[1].arc, g.d_p);
  EXPECT_FALSE(t.attempts[1].unblocked);
  EXPECT_TRUE(t.attempts[1].infra_failure);
  EXPECT_DOUBLE_EQ(t.attempts[1].cost, expected_dp);
  // The search fell through to D_g and still answered the query.
  EXPECT_TRUE(t.success);
  EXPECT_EQ(t.first_success_arc, g.d_g);
}

TEST(ResilientExecutionTest, OpenBreakerSkipsAtPessimisticCost) {
  FigureOneGraph g = MakeFigureOne();
  FaultPlan plan = TransientPlan(1.0, /*experiment=*/0);
  plan.resilience.max_retries = 0;
  plan.resilience.backoff_base = 0.0;
  plan.resilience.breaker_threshold = 1;
  plan.resilience.breaker_cooldown = 8;
  FaultInjector injector(plan);
  QueryProcessor qp(&g.graph);
  qp.set_fault_injector(&injector);

  Strategy theta = Strategy::FromLeafOrder(g.graph, {g.d_p, g.d_g});
  Context ctx(2);
  ctx.Set(0, true);
  ctx.Set(1, true);

  // Query 0 exhausts retries and opens the breaker...
  Trace first = qp.Execute(theta, ctx);
  EXPECT_TRUE(first.attempts[1].infra_failure);
  // ...so query 1 skips D_p outright at cost + failure_cost, with no
  // retries drawn from the fault stream.
  const Arc& dp = g.graph.arc(g.d_p);
  Trace second = qp.Execute(theta, ctx);
  EXPECT_EQ(second.attempts[1].arc, g.d_p);
  EXPECT_FALSE(second.attempts[1].unblocked);
  EXPECT_TRUE(second.attempts[1].infra_failure);
  EXPECT_DOUBLE_EQ(second.attempts[1].cost, dp.cost + dp.failure_cost);
}

// ---- Checkpoint serialization --------------------------------------------

CheckpointData RunPibFor(const FigureTwoGraph& g, int64_t queries,
                         FaultInjector* injector) {
  IndependentOracle oracle({0.9, 0.2, 0.8, 0.3});
  Pib pib(&g.graph, Strategy::DepthFirst(g.graph),
          PibOptions{.delta = 0.05});
  QueryProcessor qp(&g.graph);
  qp.set_fault_injector(injector);
  Rng rng(7);
  for (int64_t i = 0; i < queries; ++i) {
    pib.Observe(qp.Execute(pib.strategy(), oracle.Next(rng)));
  }
  CheckpointData data;
  data.learner = "pib";
  data.seed = 7;
  data.queries_done = queries;
  data.rng_state = rng.SaveState();
  if (injector != nullptr) {
    data.has_injector = true;
    data.injector = injector->SaveState();
  }
  data.pib = pib.GetCheckpoint();
  return data;
}

// Wraps a payload in the container WriteFileChecksummed writes.
std::string Checksummed(const std::string& payload) {
  return StrFormat("%s %08x %zu\n", std::string(kChecksumHeaderTag).c_str(),
                   Crc32(payload), payload.size()) +
         payload;
}

// The loader and verify's V-K002 pass read a checkpoint through one
// record list: the loader accepts `text` exactly when V-K002 reports
// nothing, and a rejected text has a V-K002 finding on the line the
// loader's status names (no line when a required record is missing).
Result<CheckpointData> ParseAndVerify(const InferenceGraph& graph,
                                      const std::string& text) {
  Result<CheckpointData> parsed = robust::ParseCheckpoint(graph, text);
  verify::DiagnosticSink sink;
  verify::VerifyChecksummedText(Checksummed(text), &sink);
  std::vector<std::string> locations;
  for (const verify::Diagnostic& d : sink.diagnostics()) {
    EXPECT_EQ(d.code, "V-K002") << d.message;
    locations.push_back(d.location);
  }
  if (parsed.ok()) {
    EXPECT_TRUE(sink.empty()) << sink.RenderText();
    return parsed;
  }
  int line = 0;
  std::string location =
      std::sscanf(parsed.status().message().c_str(), "checkpoint line %d:",
                  &line) == 1
          ? StrFormat("line %d", line)
          : "";
  EXPECT_TRUE(std::find(locations.begin(), locations.end(), location) !=
              locations.end())
      << "loader: " << parsed.status().message() << "\nverify:\n"
      << sink.RenderText();
  return parsed;
}

TEST(CheckpointTest, SerializeParseRoundTrip) {
  FigureTwoGraph g = MakeFigureTwo();
  FaultPlan plan = TransientPlan(0.1);
  plan.resilience.breaker_threshold = 2;
  FaultInjector injector(plan);
  CheckpointData data = RunPibFor(g, 300, &injector);

  std::string text = robust::SerializeCheckpoint(data);
  Result<CheckpointData> parsed = robust::ParseCheckpoint(g.graph, text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->learner, "pib");
  EXPECT_EQ(parsed->seed, 7u);
  EXPECT_EQ(parsed->queries_done, 300);
  EXPECT_EQ(parsed->rng_state, data.rng_state);
  EXPECT_TRUE(parsed->has_injector);
  EXPECT_EQ(parsed->injector.query_count, data.injector.query_count);
  EXPECT_EQ(parsed->pib.contexts, data.pib.contexts);
  EXPECT_EQ(parsed->pib.moves.size(), data.pib.moves.size());
  // Full fidelity: re-serialization is byte-identical.
  EXPECT_EQ(robust::SerializeCheckpoint(*parsed), text);
}

TEST(CheckpointTest, ParseRejectsTampering) {
  FigureTwoGraph g = MakeFigureTwo();
  CheckpointData data = RunPibFor(g, 100, nullptr);
  std::string text = robust::SerializeCheckpoint(data);
  ASSERT_TRUE(ParseAndVerify(g.graph, text).ok());

  // Not a checkpoint at all: the loader refuses it, and verify only
  // vouches for the container.
  EXPECT_FALSE(robust::ParseCheckpoint(g.graph, "not a checkpoint").ok());
  verify::DiagnosticSink sink;
  verify::VerifyChecksummedText(Checksummed("not a checkpoint"), &sink);
  ASSERT_EQ(sink.size(), 1u);
  EXPECT_EQ(sink.diagnostics()[0].code, "V-K001");
  EXPECT_EQ(sink.num_errors(), 0u);

  EXPECT_FALSE(ParseAndVerify(g.graph, text + "\ngremlin 1\n").ok());
  // An arc the graph lacks, in a breaker row that also opens an
  // injector section without its RNG state and query count.
  EXPECT_FALSE(ParseAndVerify(g.graph, text + "\nbreaker 999 1 1\n").ok());
  EXPECT_FALSE(ParseAndVerify(g.graph, text + "learner pib\n").ok());
  EXPECT_FALSE(ParseAndVerify(g.graph, text + "ts.cursor -5 0 0\n").ok());
  EXPECT_FALSE(
      ParseAndVerify(g.graph, text + "audit.epoch 0 -2 1 1 1\n").ok());

  // Drop the strategy line: a pib checkpoint without one is invalid.
  std::string no_strategy;
  for (const std::string& line : Split(text, '\n')) {
    if (line.rfind("stratlearn-strategy", 0) == 0) continue;
    no_strategy += line;
    no_strategy += '\n';
  }
  EXPECT_FALSE(ParseAndVerify(g.graph, no_strategy).ok());
}

TEST(CheckpointTest, WriteLoadRoundTripsThroughDisk) {
  FigureTwoGraph g = MakeFigureTwo();
  CheckpointData data = RunPibFor(g, 100, nullptr);
  std::string path = ::testing::TempDir() + "/robust_test.ckpt";
  ASSERT_TRUE(robust::WriteCheckpoint(path, data).ok());
  Result<CheckpointData> loaded = robust::LoadCheckpoint(path, g.graph);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(robust::SerializeCheckpoint(*loaded),
            robust::SerializeCheckpoint(data));
}

// ---- Kill-and-resume equivalence -----------------------------------------

TEST(KillResumeTest, ResumedPibRunMatchesUninterrupted) {
  FigureTwoGraph g = MakeFigureTwo();
  FaultPlan plan = TransientPlan(0.05);
  plan.resilience.breaker_threshold = 4;

  // Run A: 400 contexts uninterrupted.
  FaultInjector injector_a(plan);
  CheckpointData a = RunPibFor(g, 400, &injector_a);

  // Run B: 200 contexts, checkpoint, "crash", restore into fresh
  // objects, 200 more.
  FaultInjector injector_b(plan);
  CheckpointData half = RunPibFor(g, 200, &injector_b);
  std::string text = robust::SerializeCheckpoint(half);
  Result<CheckpointData> ckpt = robust::ParseCheckpoint(g.graph, text);
  ASSERT_TRUE(ckpt.ok()) << ckpt.status().ToString();

  IndependentOracle oracle({0.9, 0.2, 0.8, 0.3});
  Pib pib(&g.graph, Strategy::DepthFirst(g.graph),
          PibOptions{.delta = 0.05});
  ASSERT_TRUE(pib.RestoreCheckpoint(ckpt->pib).ok());
  FaultInjector injector_c(plan);
  ASSERT_TRUE(injector_c.RestoreState(ckpt->injector).ok());
  QueryProcessor qp(&g.graph);
  qp.set_fault_injector(&injector_c);
  Rng rng(1);  // seed irrelevant: state is overwritten
  rng.RestoreState(ckpt->rng_state);
  for (int64_t i = ckpt->queries_done; i < 400; ++i) {
    pib.Observe(qp.Execute(pib.strategy(), oracle.Next(rng)));
  }

  CheckpointData b;
  b.learner = "pib";
  b.seed = 7;
  b.queries_done = 400;
  b.rng_state = rng.SaveState();
  b.has_injector = true;
  b.injector = injector_c.SaveState();
  b.pib = pib.GetCheckpoint();
  // Same final strategy, climb history, counters, RNG position and
  // breaker ledgers — the resumed run is indistinguishable.
  EXPECT_EQ(robust::SerializeCheckpoint(b), robust::SerializeCheckpoint(a));
}

TEST(KillResumeTest, PaoCheckpointRoundTrips) {
  FigureTwoGraph g = MakeFigureTwo();
  IndependentOracle oracle({0.9, 0.2, 0.8, 0.3});
  AdaptiveQueryProcessor qpa(&g.graph, {6, 6, 6, 6},
                             AdaptiveQueryProcessor::QuotaMode::kAttempts);
  Rng rng(7);
  for (int i = 0; i < 5; ++i) qpa.Process(oracle.Next(rng));
  CheckpointData data;
  data.learner = "pao";
  data.seed = 7;
  data.queries_done = 5;
  data.rng_state = rng.SaveState();
  data.qpa = qpa.GetCheckpoint();
  std::string text = robust::SerializeCheckpoint(data);
  Result<CheckpointData> parsed = ParseAndVerify(g.graph, text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->qpa.counters.size(), 4u);
  EXPECT_EQ(robust::SerializeCheckpoint(*parsed), text);

  // A counter row cut short is one bad line to both readers.
  EXPECT_FALSE(ParseAndVerify(g.graph, text + "pao.counter 1 2\n").ok());
}

TEST(KillResumeTest, RestoreRejectsWrongShape) {
  // A rejected restore must leave the learner exactly as it was: a
  // resumed run that rejects its checkpoint carries on with it.
  FigureTwoGraph g = MakeFigureTwo();
  IndependentOracle oracle({0.9, 0.2, 0.8, 0.3});
  Pib pib(&g.graph, Strategy::DepthFirst(g.graph),
          PibOptions{.delta = 0.05});
  QueryProcessor qp(&g.graph);
  Rng rng(7);
  for (int i = 0; i < 50; ++i) {
    pib.Observe(qp.Execute(pib.strategy(), oracle.Next(rng)));
  }
  ASSERT_GT(pib.samples_in_epoch(), 0);
  auto pib_bytes = [&] {
    CheckpointData data;
    data.learner = "pib";
    data.pib = pib.GetCheckpoint();
    return robust::SerializeCheckpoint(data);
  };
  const std::string pib_before = pib_bytes();

  Pib::Checkpoint bad = pib.GetCheckpoint();
  bad.neighbor_delta_sums.push_back(1.0);  // one ledger too many
  EXPECT_FALSE(pib.RestoreCheckpoint(bad).ok());
  EXPECT_EQ(pib_bytes(), pib_before);

  bad = pib.GetCheckpoint();
  bad.samples = bad.contexts + 1;  // |S| can never exceed contexts
  EXPECT_FALSE(pib.RestoreCheckpoint(bad).ok());
  EXPECT_EQ(pib_bytes(), pib_before);
}

// ---- Half-open probes ----------------------------------------------------

TEST(FaultInjectorTest, HalfOpenProbeClosesOnSuccess) {
  FaultPlan plan = TransientPlan(0.5);
  plan.resilience.breaker_threshold = 2;
  plan.resilience.breaker_cooldown = 3;
  FaultInjector injector(plan);
  EXPECT_FALSE(injector.RecordInfraFailure(5, 0));
  EXPECT_TRUE(injector.RecordInfraFailure(5, 1));  // open until query 5

  EXPECT_EQ(injector.CheckBreaker(5, 4), robust::BreakerDecision::kOpen);
  // Cooldown elapsed: exactly one probe is admitted; a second attempt
  // of the same arc stays skipped while the probe is in flight.
  EXPECT_EQ(injector.CheckBreaker(5, 5),
            robust::BreakerDecision::kHalfOpenProbe);
  EXPECT_EQ(injector.CheckBreaker(5, 5), robust::BreakerDecision::kOpen);
  EXPECT_TRUE(injector.RecordRecovery(5));  // probe succeeded
  EXPECT_EQ(injector.CheckBreaker(5, 6), robust::BreakerDecision::kClosed);
  EXPECT_EQ(injector.BreakerLedger(5).consecutive_failures, 0);
}

TEST(FaultInjectorTest, FailedProbeReopensWithCappedBackoff) {
  FaultPlan plan = TransientPlan(0.5);
  plan.resilience.breaker_threshold = 2;
  plan.resilience.breaker_cooldown = 3;
  FaultInjector injector(plan);
  injector.RecordInfraFailure(5, 0);
  injector.RecordInfraFailure(5, 1);  // open until query 5

  // Each failed probe doubles the cooldown up to 8x the base cooldown:
  // 3 -> 6 -> 12 -> 24 -> capped 24.
  int64_t probe = 5;
  int rounds = 0;
  for (int64_t cooldown : {6, 12, 24, 24}) {
    EXPECT_EQ(injector.CheckBreaker(5, probe),
              robust::BreakerDecision::kHalfOpenProbe);
    EXPECT_TRUE(injector.RecordInfraFailure(5, probe));
    EXPECT_EQ(injector.BreakerLedger(5).open_rounds, ++rounds);
    EXPECT_EQ(injector.BreakerLedger(5).open_until, probe + cooldown + 1);
    probe += cooldown + 1;
  }
}

TEST(CheckpointTest, RoundTripsHalfOpenBreakerAndObsState) {
  FigureTwoGraph g = MakeFigureTwo();
  FaultPlan plan = TransientPlan(0.1);
  plan.resilience.breaker_threshold = 2;
  plan.resilience.breaker_cooldown = 3;
  FaultInjector injector(plan);
  // An arc mid-backoff after one failed half-open probe: the backoff
  // exponent has to survive the round trip.
  injector.RecordInfraFailure(5, 0);
  injector.RecordInfraFailure(5, 1);
  injector.CheckBreaker(5, 5);
  injector.RecordInfraFailure(5, 5);
  CheckpointData data = RunPibFor(g, 100, &injector);
  data.health.present = true;
  data.health.healthy = false;
  data.health.windows_seen = 12;
  data.health.drift_active = 1;
  data.health.firing = 2;
  data.has_timeseries = true;
  data.ts_window_start = 1100;
  data.ts_next_index = 12;
  data.ts_evicted = 4;
  data.ts_windows = {"{\"index\":10}", "{\"index\":11}"};
  data.has_audit = true;
  data.audit.bytes = -1;  // a borrowed stream: the resumed run restarts it
  data.audit.certificates = 5;
  data.audit.queries = 100;
  data.audit.total_cost = 123.5;
  // Arc r_ga is deterministic: its epoch tally carries experiment -1.
  data.audit.epoch = {{g.r_ga, -1, 3, 3, 3.0}, {g.d_a, 0, 3, 1, 4.5}};
  data.audit.ledgers = {{"pib", 0.0125, 0.05}};
  data.pib.moves.push_back(
      {40, 35, {g.graph.root(), g.r_ga, g.r_gs}, 12.5, 11.25, 0.001});

  std::string text = robust::SerializeCheckpoint(data);
  Result<CheckpointData> parsed = ParseAndVerify(g.graph, text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->injector.breakers.size(), 1u);
  EXPECT_EQ(parsed->injector.breakers[0].consecutive_failures, 3);
  EXPECT_EQ(parsed->injector.breakers[0].open_rounds, 1);
  EXPECT_TRUE(parsed->health.present);
  EXPECT_FALSE(parsed->health.healthy);
  EXPECT_EQ(parsed->health.windows_seen, 12);
  ASSERT_TRUE(parsed->has_timeseries);
  EXPECT_EQ(parsed->ts_window_start, 1100);
  EXPECT_EQ(parsed->ts_windows, data.ts_windows);
  ASSERT_TRUE(parsed->has_audit);
  EXPECT_EQ(parsed->audit.bytes, -1);
  EXPECT_DOUBLE_EQ(parsed->audit.total_cost, 123.5);
  ASSERT_EQ(parsed->audit.epoch.size(), 2u);
  EXPECT_EQ(parsed->audit.epoch[0].experiment, -1);
  ASSERT_EQ(parsed->audit.ledgers.size(), 1u);
  EXPECT_EQ(parsed->audit.ledgers[0].learner, "pib");
  EXPECT_EQ(parsed->pib.moves.back().swap.arc_b, g.r_gs);
  // Full fidelity: re-serialization is byte-identical.
  EXPECT_EQ(robust::SerializeCheckpoint(*parsed), text);

  // A breaker row written before half-open probes has three fields and
  // reads as never probed.
  Result<CheckpointData> legacy =
      ParseAndVerify(g.graph, text + "breaker 2 1 9\n");
  ASSERT_TRUE(legacy.ok()) << legacy.status().ToString();
  EXPECT_EQ(legacy->injector.breakers.back().open_until, 9);
  EXPECT_EQ(legacy->injector.breakers.back().open_rounds, 0);
}

}  // namespace
}  // namespace stratlearn
