#include "obs/perf/workloads.h"

#include <algorithm>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/pao.h"
#include "core/pib.h"
#include "core/upsilon.h"
#include "engine/query_processor.h"
#include "graph/examples.h"
#include "obs/audit/audit_log.h"
#include "obs/health/monitor.h"
#include "obs/metrics.h"
#include "obs/observer.h"
#include "obs/timeseries.h"
#include "obs/trace_sink.h"
#include "robust/recovery/controller.h"
#include "robust/recovery/policy.h"
#include "util/check.h"
#include "util/rng.h"
#include "util/string_util.h"
#include "workload/random_tree.h"
#include "workload/synthetic_oracle.h"

namespace stratlearn::obs::perf {
namespace {

/// One repetition's outcome. `work_units` is its abstract cost (paper
/// arc costs or contexts) and `counters` are named totals; both depend
/// only on the seed, never on the clock.
struct RepResult {
  double work_units = 0.0;
  std::vector<std::pair<std::string, int64_t>> counters;
};

/// QueryProcessor::Execute over the paper's Figure 1 and Figure 2
/// graphs — the innermost hot path every learner drives.
class FigureExecuteInstance {
 public:
  explicit FigureExecuteInstance(uint64_t seed)
      : fig1_(MakeFigureOne()),
        fig2_(MakeFigureTwo()),
        theta1_(Strategy::DepthFirst(fig1_.graph)),
        theta2_(Strategy::DepthFirst(fig2_.graph)),
        qp1_(&fig1_.graph),
        qp2_(&fig2_.graph),
        // Figure 1's workload is mostly grad students (the paper's
        // motivating skew); Figure 2's probabilities climb with depth.
        oracle1_({0.2, 0.75}),
        oracle2_({0.3, 0.5, 0.6, 0.8}),
        rng_(seed) {}

  RepResult RunOnce() {
    constexpr int kFig1Contexts = 2000;
    constexpr int kFig2Contexts = 1000;
    double cost = 0.0;
    int64_t attempts = 0;
    int64_t successes = 0;
    for (int i = 0; i < kFig1Contexts; ++i) {
      Trace trace = qp1_.Execute(theta1_, oracle1_.Next(rng_));
      cost += trace.cost;
      attempts += static_cast<int64_t>(trace.attempts.size());
      successes += trace.successes;
    }
    for (int i = 0; i < kFig2Contexts; ++i) {
      Trace trace = qp2_.Execute(theta2_, oracle2_.Next(rng_));
      cost += trace.cost;
      attempts += static_cast<int64_t>(trace.attempts.size());
      successes += trace.successes;
    }
    RepResult result;
    result.work_units = cost;
    result.counters = {{"contexts", kFig1Contexts + kFig2Contexts},
                       {"arc_attempts", attempts},
                       {"successes", successes}};
    return result;
  }

 private:
  FigureOneGraph fig1_;
  FigureTwoGraph fig2_;
  Strategy theta1_;
  Strategy theta2_;
  QueryProcessor qp1_;
  QueryProcessor qp2_;
  IndependentOracle oracle1_;
  IndependentOracle oracle2_;
  Rng rng_;
};

/// The depth-5 random tree that pib_climb and audit_overhead climb.
RandomTree ClimbTree(uint64_t seed) {
  Rng tree_rng(seed ^ 0x9e3779b97f4a7c15ULL);
  RandomTreeOptions options;
  options.depth = 5;
  options.min_branch = 2;
  options.max_branch = 3;
  options.early_leaf_prob = 0.1;
  return MakeRandomTree(tree_rng, options);
}

/// The climb's start: Upsilon_AOT's optimal leaf order reversed. On the
/// bench tree Strategy::DepthFirst is close enough to the optimum that
/// PIB never moved from it, so it exercised no climb.
Strategy ReversedOptimum(const RandomTree& tree) {
  Result<UpsilonResult> optimum = UpsilonAot(tree.graph, tree.probs);
  STRATLEARN_CHECK_MSG(optimum.ok(), "Upsilon_AOT must order the tree");
  std::vector<ArcId> order = optimum->strategy.LeafOrder(tree.graph);
  std::reverse(order.begin(), order.end());
  return Strategy::FromLeafOrder(tree.graph, order);
}

/// A full PIB hill-climb: each repetition restarts the learner on the
/// same random tree and feeds it a fresh slice of the context stream,
/// measuring Observe + Execute together (the unobtrusive-PIB loop).
class PibClimbInstance {
 public:
  explicit PibClimbInstance(uint64_t seed)
      : tree_(ClimbTree(seed)),
        start_(ReversedOptimum(tree_)),
        oracle_(tree_.probs),
        rng_(seed) {}

  RepResult RunOnce() {
    constexpr int kContexts = 400;
    Pib pib(&tree_.graph, start_, PibOptions{.delta = 0.2});
    QueryProcessor qp(&tree_.graph);
    double cost = 0.0;
    for (int i = 0; i < kContexts; ++i) {
      Trace trace = qp.Execute(pib.strategy(), oracle_.Next(rng_));
      cost += trace.cost;
      pib.Observe(trace);
    }
    RepResult result;
    result.work_units = cost;
    result.counters = {{"contexts", kContexts},
                       {"moves", static_cast<int64_t>(pib.moves().size())},
                       {"trials", pib.trial_count()}};
    return result;
  }

 private:
  RandomTree tree_;
  Strategy start_;
  IndependentOracle oracle_;
  Rng rng_;
};

/// A PAO Theorem-3 quota run over Figure 2: QP^A adaptive sampling
/// until every aim quota is met, then the Upsilon step.
class PaoQuotaInstance {
 public:
  explicit PaoQuotaInstance(uint64_t seed)
      : fig2_(MakeFigureTwo()), oracle_({0.3, 0.5, 0.6, 0.8}), rng_(seed) {}

  RepResult RunOnce() {
    PaoOptions options;
    options.epsilon = 0.75;
    options.delta = 0.2;
    options.mode = PaoOptions::Mode::kTheorem3;
    Result<PaoResult> run = Pao::Run(fig2_.graph, oracle_, rng_, options);
    STRATLEARN_CHECK_MSG(run.ok(), "pao_quota run must meet its quotas");
    RepResult result;
    result.work_units = static_cast<double>(run->contexts_used);
    result.counters = {{"contexts", run->contexts_used},
                       {"upsilon_exact", run->upsilon_exact ? 1 : 0}};
    return result;
  }

 private:
  FigureTwoGraph fig2_;
  IndependentOracle oracle_;
  Rng rng_;
};

/// End-to-end statistical drift detection: a flat-tree satisficing
/// search driven by a DriftingOracle whose first experiment steps from
/// p = 0.8 to p = 0.2 mid-run, with the full health pipeline attached
/// (observer -> time-series windows -> drift detectors). Each
/// repetition runs the pipeline twice — drifting, then a stationary
/// control with the same seed — and checks the detection contract in
/// process: the shifted arc must raise a p-hat DriftDetected, the
/// control must stay silent. The counters land in the golden, so a
/// regression in detector sensitivity (missed drift) or specificity
/// (control false positive) fails both the run and the golden.
class DriftDetectInstance {
 public:
  explicit DriftDetectInstance(uint64_t seed) : rng_(seed) {
    Rng tree_rng(seed ^ 0x9e3779b97f4a7c15ULL);
    tree_ = MakeFlatTree(tree_rng, 4);
  }

  struct PipelineOutcome {
    double cost = 0.0;
    int64_t shifted_detections = 0;  // p-hat detections on the shifted arc
    int64_t other_detections = 0;    // anything else (should stay 0)
    int64_t windows = 0;
  };

  PipelineOutcome RunPipeline(uint64_t seed, bool drifting) {
    constexpr int64_t kContexts = 2000;
    constexpr int64_t kDriftAt = 1000;
    constexpr int64_t kWindowUnits = 100;
    std::vector<double> before = {0.8, 0.5, 0.5, 0.5};
    std::vector<double> after = before;
    if (drifting) after[0] = 0.2;
    DriftingOracle oracle(before, after, kDriftAt);

    MetricsRegistry registry;
    TimeSeriesOptions ts_options;
    ts_options.interval_us = kWindowUnits;
    TimeSeriesCollector collector(&registry, ts_options);
    health::HealthMonitor monitor(health::AlertRuleSet{},
                                  health::HealthOptions{}, &registry);
    monitor.set_event_sink(&collector);
    collector.SetWindowCallback([&monitor](const TimeSeriesWindow& w) {
      monitor.OnWindow(w);
    });
    Observer observer(&registry, &collector);
    observer.UseManualClock();
    QueryProcessor qp(&tree_.graph, &observer);
    Strategy theta = Strategy::DepthFirst(tree_.graph);

    Rng rng(seed);
    PipelineOutcome out;
    for (int64_t i = 0; i < kContexts; ++i) {
      out.cost += qp.Execute(theta, oracle.Next(rng)).cost;
      observer.AdvanceManualClock(i + 1);
      collector.AdvanceTo(i + 1);
    }
    collector.Finalize(kContexts);
    out.windows = collector.windows_closed();
    ArcId shifted_arc = tree_.graph.experiments()[0];
    for (const DriftEvent& e : monitor.drift_log()) {
      if (e.state != "detected") continue;
      if (e.detector == "p_hat" && e.arc == shifted_arc) {
        ++out.shifted_detections;
      } else {
        ++out.other_detections;
      }
    }
    return out;
  }

  RepResult RunOnce() {
    uint64_t rep_seed = rng_.NextUint64();
    PipelineOutcome drift = RunPipeline(rep_seed, /*drifting=*/true);
    PipelineOutcome control = RunPipeline(rep_seed, /*drifting=*/false);
    STRATLEARN_CHECK_MSG(drift.shifted_detections >= 1,
                         "drift_detect must flag the shifted arc");
    STRATLEARN_CHECK_MSG(
        control.shifted_detections + control.other_detections == 0,
        "drift_detect control run must stay silent");
    RepResult result;
    result.work_units = drift.cost + control.cost;
    result.counters = {
        {"contexts", 4000},
        {"windows", drift.windows + control.windows},
        {"drift_detected", drift.shifted_detections},
        {"drift_other", drift.other_detections},
        {"control_detected",
         control.shifted_detections + control.other_detections}};
    return result;
  }

 private:
  RandomTree tree_;
  Rng rng_;
};

/// The decision-audit layer's price on the pib_climb loop: the same
/// depth-5 random-tree hill-climb, but with a full observer attached
/// and certificate emission enabled, every certificate landing in an
/// in-memory AuditLog. pib_climb is the certificates-off control: both
/// rows must keep the same work units and moves, because emitting a
/// certificate must not change a decision. This row's counters pin the
/// certificate volume and encoded size.
class AuditOverheadInstance {
 public:
  explicit AuditOverheadInstance(uint64_t seed)
      : tree_(ClimbTree(seed)),
        start_(ReversedOptimum(tree_)),
        oracle_(tree_.probs),
        rng_(seed) {}

  RepResult RunOnce() {
    constexpr int kContexts = 400;
    constexpr double kDelta = 0.2;
    std::ostringstream audit_out;
    AuditLogOptions audit_options;
    audit_options.delta_budget = kDelta;
    audit_options.window = 100;
    AuditLog audit(&audit_out, audit_options);
    MetricsRegistry registry;
    Observer observer(&registry, &audit);
    observer.UseManualClock();
    observer.set_audit_enabled(true);
    Pib pib(&tree_.graph, start_, PibOptions{.delta = kDelta}, &observer);
    QueryProcessor qp(&tree_.graph, &observer);
    double cost = 0.0;
    for (int i = 0; i < kContexts; ++i) {
      Trace trace = qp.Execute(pib.strategy(), oracle_.Next(rng_));
      cost += trace.cost;
      pib.Observe(trace);
      observer.AdvanceManualClock(i + 1);
    }
    audit.Close();
    STRATLEARN_CHECK_MSG(audit.ok(), "in-memory audit log cannot fail");
    RepResult result;
    result.work_units = cost;
    result.counters = {
        {"contexts", kContexts},
        {"moves", static_cast<int64_t>(pib.moves().size())},
        {"certificates", audit.certificates_written()},
        {"audit_bytes", static_cast<int64_t>(audit_out.str().size())}};
    return result;
  }

 private:
  RandomTree tree_;
  Strategy start_;
  IndependentOracle oracle_;
  Rng rng_;
};

/// Drift reaction end-to-end: a 4-leaf satisficing search with unit
/// costs whose best experiment (2, p = 0.9) falls to the others' p = 0.3
/// at context 1600, with the full detect -> decide -> recover pipeline
/// attached. Two regimes share that drift:
///   transient - experiment 2 reverts at context 2100 (3200 contexts).
///     The excursion gives the detector a 0.6 p-hat step but no
///     ordering signal, so a learner that keeps its strategy never
///     leaves the optimum;
///   flip - experiment 3, DepthFirst's last leaf, rises to p = 0.9 at
///     the same context and stays there (8000 contexts), so the
///     pre-drift evidence points the wrong way.
/// Each repetition runs both regimes on one seed under three reactions:
/// none (no controller, no hook), a rebaseline policy, and a cold
/// restart (any detected drift throws the learner away). It hard-asserts
/// why the recovery layer keeps its code: on the flip, rebaseline puts
/// the new optimum in front in fewer contexts than no reaction and pays
/// less post-drift cost; on the transient, it re-converges faster than a
/// cold restart. Cold restart's flip counters are pinned, not asserted:
/// it wins whenever DepthFirst already ranks the new optimum early.
class DriftRecoverInstance {
 public:
  static constexpr int64_t kDriftAt = 1600;
  static constexpr int64_t kWindowUnits = 100;
  static constexpr double kDelta = 0.2;

  enum class Reaction { kNone, kRebaseline, kColdRestart };

  struct Regime {
    std::vector<double> after;  // success rates from kDriftAt on
    int64_t revert_at;          // back to the pre-drift rates; 0 = never
    int64_t contexts;
    int best;                   // the optimum once the drift settles
  };

  explicit DriftRecoverInstance(uint64_t seed) : rng_(seed) {
    Rng tree_rng(seed ^ 0x9e3779b97f4a7c15ULL);
    RandomTreeOptions options;
    options.min_cost = 1.0;  // equal costs: the optimal order is by p
    options.max_cost = 1.0;
    tree_ = MakeFlatTree(tree_rng, 4, options);
  }

  struct RunOutcome {
    double cost = 0.0;
    double post_drift_cost = 0.0;  // contexts kDriftAt onwards
    int64_t recovery_ctx = 0;  // contexts from the revert (or the drift,
                               // when permanent) until `best` is in
                               // front for good; 0 when it never left
    int64_t actions = 0;       // recovery actions applied / cold restarts
  };

  RunOutcome RunPipeline(uint64_t seed, const Regime& regime,
                         Reaction reaction) {
    DriftingOracle oracle({0.3, 0.3, 0.9, 0.3}, regime.after, kDriftAt);
    oracle.set_revert_at(regime.revert_at);

    MetricsRegistry registry;
    TimeSeriesOptions ts_options;
    ts_options.interval_us = kWindowUnits;
    TimeSeriesCollector collector(&registry, ts_options);
    health::HealthMonitor monitor(health::AlertRuleSet{},
                                  health::HealthOptions{}, &registry);
    monitor.set_event_sink(&collector);
    collector.SetWindowCallback([&monitor](const TimeSeriesWindow& w) {
      monitor.OnWindow(w);
    });
    Observer observer(&registry, &collector);
    observer.UseManualClock();
    QueryProcessor qp(&tree_.graph, &observer);
    auto pib = std::make_unique<Pib>(&tree_.graph,
                                     Strategy::DepthFirst(tree_.graph),
                                     PibOptions{.delta = kDelta}, &observer);

    std::unique_ptr<robust::RecoveryController> controller;
    int64_t cold_restarts = 0;
    if (reaction == Reaction::kRebaseline) {
      robust::RecoveryPolicy policy;
      policy.rules.push_back(
          {"drift->rebaseline", "drift:p_hat", "rebaseline", /*cooldown=*/2});
      controller =
          std::make_unique<robust::RecoveryController>(std::move(policy));
      controller->BindPib(pib.get());
      controller->BindObserver(&observer);
      controller->set_live(true);
      monitor.set_recovery_hook(controller->Hook());
    } else if (reaction == Reaction::kColdRestart) {
      // Any detected drift transition throws the learner away wholesale
      // (same 2-window cooldown as the rebaseline rule).
      int64_t last_restart_window = -100;
      monitor.set_recovery_hook(
          [&, last_restart_window](
              const TimeSeriesWindow& w, const std::vector<DriftEvent>& drift,
              const std::vector<AlertEvent>&) mutable {
            bool detected = false;
            for (const DriftEvent& e : drift) {
              if (e.state == "detected") detected = true;
            }
            if (detected && w.index - last_restart_window > 2) {
              last_restart_window = w.index;
              pib = std::make_unique<Pib>(&tree_.graph,
                                          Strategy::DepthFirst(tree_.graph),
                                          PibOptions{.delta = kDelta},
                                          &observer);
              ++cold_restarts;
            }
            return std::vector<health::RecoveryLogEntry>{};
          });
    }

    ArcId best_arc = tree_.graph.experiments()[regime.best];
    Rng rng(seed);
    RunOutcome out;
    int64_t converged_at = 0;  // one past the last context with `best`
                               // not in front
    for (int64_t i = 0; i < regime.contexts; ++i) {
      Trace trace = qp.Execute(pib->strategy(), oracle.Next(rng));
      out.cost += trace.cost;
      if (i >= kDriftAt) out.post_drift_cost += trace.cost;
      pib->Observe(trace);
      observer.AdvanceManualClock(i + 1);
      collector.AdvanceTo(i + 1);
      if (pib->strategy().LeafOrder(tree_.graph)[0] != best_arc) {
        converged_at = i + 1;
      }
    }
    collector.Finalize(regime.contexts);
    int64_t from = regime.revert_at > 0 ? regime.revert_at : kDriftAt;
    out.recovery_ctx = std::max<int64_t>(0, converged_at - from);
    out.actions =
        controller != nullptr ? controller->actions_applied() : cold_restarts;
    return out;
  }

  RepResult RunOnce() {
    const Regime transient = {{0.3, 0.3, 0.3, 0.3}, 2100, 3200, 2};
    const Regime flip = {{0.3, 0.3, 0.3, 0.9}, 0, 8000, 3};
    uint64_t rep_seed = rng_.NextUint64();
    RunOutcome none = RunPipeline(rep_seed, transient, Reaction::kNone);
    RunOutcome rebaseline =
        RunPipeline(rep_seed, transient, Reaction::kRebaseline);
    RunOutcome cold = RunPipeline(rep_seed, transient, Reaction::kColdRestart);
    RunOutcome flip_none = RunPipeline(rep_seed, flip, Reaction::kNone);
    RunOutcome flip_rebaseline =
        RunPipeline(rep_seed, flip, Reaction::kRebaseline);
    RunOutcome flip_cold = RunPipeline(rep_seed, flip, Reaction::kColdRestart);

    STRATLEARN_CHECK_MSG(cold.actions >= 1 && cold.recovery_ctx > 0,
                         "drift_recover: the cold restart must fire and pay "
                         "a re-convergence price");
    STRATLEARN_CHECK_MSG(
        rebaseline.actions >= 1 && flip_rebaseline.actions >= 1,
        "drift_recover: rebaseline must act on the drift");
    STRATLEARN_CHECK_MSG(rebaseline.recovery_ctx < cold.recovery_ctx,
                         "drift_recover: rebaseline must re-converge faster "
                         "than a cold restart");
    STRATLEARN_CHECK_MSG(flip_rebaseline.recovery_ctx < flip_none.recovery_ctx,
                         "drift_recover: rebaseline must reach the new "
                         "optimum sooner than no reaction");
    STRATLEARN_CHECK_MSG(
        flip_rebaseline.post_drift_cost < flip_none.post_drift_cost,
        "drift_recover: rebaseline must pay less post-drift cost than no "
        "reaction");

    // Unit arc costs: every cost below is a whole number.
    auto whole = [](double cost) { return static_cast<int64_t>(cost); };
    RepResult result;
    result.work_units = none.cost + rebaseline.cost + cold.cost +
                        flip_none.cost + flip_rebaseline.cost + flip_cold.cost;
    result.counters = {
        {"contexts", 3 * (transient.contexts + flip.contexts)},
        {"transient_no_reaction_ctx", none.recovery_ctx},
        {"transient_rebaseline_ctx", rebaseline.recovery_ctx},
        {"transient_cold_restart_ctx", cold.recovery_ctx},
        {"flip_no_reaction_ctx", flip_none.recovery_ctx},
        {"flip_rebaseline_ctx", flip_rebaseline.recovery_ctx},
        {"flip_cold_restart_ctx", flip_cold.recovery_ctx},
        {"flip_no_reaction_cost", whole(flip_none.post_drift_cost)},
        {"flip_rebaseline_cost", whole(flip_rebaseline.post_drift_cost)},
        {"flip_cold_restart_cost", whole(flip_cold.post_drift_cost)},
        {"recovery_actions", rebaseline.actions + flip_rebaseline.actions},
        {"cold_restarts", cold.actions + flip_cold.actions}};
    return result;
  }

 private:
  RandomTree tree_;
  Rng rng_;
};

/// Builds `Instance` once, runs the warmup repetition, then sums the
/// work units and counters of the counted repetitions into one golden
/// row.
template <typename Instance, typename... Args>
std::string Row(const char* name, Args... args) {
  constexpr uint64_t kSeed = 19920602;
  constexpr int kWarmup = 1;
  constexpr int kRepetitions = 5;
  Instance instance(kSeed, args...);
  for (int i = 0; i < kWarmup; ++i) (void)instance.RunOnce();
  double work_units = 0.0;
  std::map<std::string, int64_t> counters;
  for (int i = 0; i < kRepetitions; ++i) {
    RepResult rep = instance.RunOnce();
    work_units += rep.work_units;
    for (const auto& [counter, value] : rep.counters) {
      counters[counter] += value;
    }
  }
  std::string row = StrFormat("%s work_units=%s", name,
                              FormatDouble(work_units, 17).c_str());
  for (const auto& [counter, value] : counters) {
    row += StrFormat(" %s=%lld", counter.c_str(),
                     static_cast<long long>(value));
  }
  return row + "\n";
}

}  // namespace

std::string RunCanonicalBench() {
  std::string rows;
  rows += Row<FigureExecuteInstance>("fig1_execute");
  rows += Row<PibClimbInstance>("pib_climb");
  rows += Row<PaoQuotaInstance>("pao_quota");
  rows += Row<AuditOverheadInstance>("audit_overhead");
  rows += Row<DriftDetectInstance>("drift_detect");
  rows += Row<DriftRecoverInstance>("drift_recover");
  return rows;
}

}  // namespace stratlearn::obs::perf
