#include "obs/perf/workloads.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <system_error>
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
#include "robust/checkpoint.h"
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

/// Instrumentation overhead on the fig1_execute hot path: the same
/// Figure-1 context stream run with (a) no observer, (b) metrics only,
/// (c) metrics + a locked null trace sink. Work units are the arc
/// attempts actually made. The three golden rows must be identical
/// (instrumentation must not change execution semantics), so the golden
/// catches a variant whose observation path alters behaviour;
/// bm_core's BM_ExecuteStrategyObserved prices the telemetry itself.
class ObsOverheadInstance {
 public:
  enum class Mode { kOff, kMetrics, kMetricsAndTrace };

  ObsOverheadInstance(uint64_t seed, Mode mode)
      : fig1_(MakeFigureOne()),
        theta_(Strategy::DepthFirst(fig1_.graph)),
        qp_(&fig1_.graph),
        oracle_({0.2, 0.75}),
        rng_(seed) {
    if (mode != Mode::kOff) {
      obs::TraceSink* sink = nullptr;
      if (mode == Mode::kMetricsAndTrace) {
        locked_null_ = std::make_unique<obs::LockingSink>(&null_sink_);
        sink = locked_null_.get();
      }
      observer_ = std::make_unique<obs::Observer>(&registry_, sink);
      qp_.set_observer(observer_.get());
    }
  }

  RepResult RunOnce() {
    constexpr int kContexts = 3000;
    int64_t attempts = 0;
    int64_t successes = 0;
    for (int i = 0; i < kContexts; ++i) {
      Trace trace = qp_.Execute(theta_, oracle_.Next(rng_));
      attempts += static_cast<int64_t>(trace.attempts.size());
      successes += trace.successes;
    }
    RepResult result;
    result.work_units = static_cast<double>(attempts);
    result.counters = {{"contexts", kContexts},
                       {"arc_attempts", attempts},
                       {"successes", successes}};
    return result;
  }

 private:
  FigureOneGraph fig1_;
  Strategy theta_;
  QueryProcessor qp_;
  IndependentOracle oracle_;
  Rng rng_;
  obs::MetricsRegistry registry_;
  obs::NullSink null_sink_;
  std::unique_ptr<obs::LockingSink> locked_null_;
  std::unique_ptr<obs::Observer> observer_;
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

/// Drift reaction end-to-end: a 4-leaf satisficing search whose best
/// experiment transiently degrades (p 0.9 -> 0.25, then reverts), with
/// the full detect -> decide -> recover pipeline attached. Each
/// repetition runs the same context stream four times: once per
/// graduated recovery policy (rebaseline, restart_scoped, rollback
/// against an on-disk checkpoint ring) and once with the naive
/// cold-restart reaction (drift detected => throw the learner away).
/// The rep hard-asserts the tentpole claim of the recovery layer: every
/// policy re-converges on the optimal ordering in strictly fewer
/// post-revert contexts than the cold restart, because the graduated
/// actions preserve (or restore) the pre-drift strategy instead of
/// discarding it. The per-policy re-convergence counters land in the
/// golden, so a recovery regression fails both the run and the golden.
/// Quarantine is deliberately absent: it isolates a faulty arc rather
/// than re-converging the learner, so it has no convergence race to win.
class DriftRecoverInstance {
 public:
  static constexpr int64_t kContexts = 3200;
  static constexpr int64_t kDriftAt = 1600;
  static constexpr int64_t kRevertAt = 2100;
  static constexpr int64_t kWindowUnits = 100;
  static constexpr double kDelta = 0.2;
  static constexpr int kBestExperiment = 2;

  explicit DriftRecoverInstance(uint64_t seed)
      : seed_(seed), rng_(seed), ring_dir_(MakeRingDir()) {
    Rng tree_rng(seed ^ 0x9e3779b97f4a7c15ULL);
    RandomTreeOptions options;
    options.min_cost = 1.0;  // equal costs: the optimal order is by p
    options.max_cost = 1.0;
    tree_ = MakeFlatTree(tree_rng, 4, options);
  }

  ~DriftRecoverInstance() {
    std::error_code ignored;
    std::filesystem::remove_all(ring_dir_, ignored);
  }
  DriftRecoverInstance(const DriftRecoverInstance&) = delete;
  DriftRecoverInstance& operator=(const DriftRecoverInstance&) = delete;

  /// A fresh directory for this instance's checkpoint ring, so runs
  /// started at the same time never share rollback slots.
  static std::string MakeRingDir() {
    std::string dir = (std::filesystem::temp_directory_path() /
                       "stratlearn_drift_recover_XXXXXX")
                          .string();
    STRATLEARN_CHECK_MSG(mkdtemp(dir.data()) != nullptr,
                         "drift_recover cannot create its ring directory");
    return dir;
  }

  struct RunOutcome {
    double cost = 0.0;
    int64_t converged_at = 0;   // first context from which the best
                                // experiment stays in front to the end
    int64_t detections = 0;     // drift "detected" transitions
    int64_t actions = 0;        // recovery actions applied / cold restarts
  };

  /// Post-revert contexts until the learner is (back) on the optimal
  /// ordering; 0 when it never lost it.
  static int64_t RecoveryContexts(const RunOutcome& run) {
    return run.converged_at <= kRevertAt ? 0
                                         : run.converged_at - kRevertAt;
  }

  /// One full pipeline run. `policy` empty = cold-restart control.
  RunOutcome RunPipeline(uint64_t seed, const std::string& policy) {
    // The drift collapses the best experiment onto the others' success
    // rate: a 0.6 p-hat step the Hoeffding test flags within a window,
    // but zero ordering signal during the transient — so no learner
    // commits a *wrong* swap while drifted, and what separates the runs
    // is purely how their drift reaction treats the pre-drift strategy.
    std::vector<double> before = {0.3, 0.3, 0.9, 0.3};
    std::vector<double> after = before;
    after[kBestExperiment] = 0.3;
    DriftingOracle oracle(before, after, kDriftAt);
    oracle.set_revert_at(kRevertAt);

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

    robust::CheckpointRing ring(ring_dir_ + "/ckpt", 3);
    std::unique_ptr<robust::RecoveryController> controller;
    int64_t cold_restarts = 0;
    if (!policy.empty()) {
      robust::RecoveryPolicy p;
      robust::RecoveryRule rule;
      rule.id = "drift->" + policy;
      rule.trigger = "drift:p_hat";
      rule.action = policy;
      rule.cooldown = 2;
      rule.trials_factor = 0.5;
      p.rules.push_back(rule);
      controller = std::make_unique<robust::RecoveryController>(std::move(p));
      controller->BindPib(pib.get());
      controller->BindRing(&ring);
      controller->BindObserver(&observer);
      controller->BindGraph(&tree_.graph);
      controller->set_live(true);
      monitor.set_recovery_hook(controller->Hook());
    } else {
      // The naive reaction the policies must beat: any detected drift
      // transition throws the learner away wholesale (same 2-window
      // cooldown as the policy rules, so the comparison is fair).
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

    ArcId best_arc = tree_.graph.experiments()[kBestExperiment];
    Rng rng(seed);
    RunOutcome out;
    int64_t converged_since = -1;
    for (int64_t i = 0; i < kContexts; ++i) {
      Trace trace = qp.Execute(pib->strategy(), oracle.Next(rng));
      out.cost += trace.cost;
      pib->Observe(trace);
      observer.AdvanceManualClock(i + 1);
      collector.AdvanceTo(i + 1);
      if ((i + 1) % (4 * kWindowUnits) == 0 && monitor.drift_active() == 0 &&
          policy == "rollback") {
        // Known-good rollback targets, stamped with the monitor's
        // verdict the way the CLI's checkpoint writer stamps them.
        robust::CheckpointData data;
        data.learner = "pib";
        data.seed = seed_;
        data.queries_done = i + 1;
        data.rng_state = rng.SaveState();
        data.pib = pib->GetCheckpoint();
        data.health.present = true;
        data.health.healthy = true;
        data.health.windows_seen = monitor.windows_seen();
        (void)ring.Write(data);
      }
      bool in_front =
          pib->strategy().LeafOrder(tree_.graph)[0] == best_arc;
      if (in_front && converged_since < 0) converged_since = i;
      if (!in_front) converged_since = -1;
    }
    collector.Finalize(kContexts);
    out.converged_at = converged_since >= 0 ? converged_since : kContexts;
    for (const DriftEvent& e : monitor.drift_log()) {
      if (e.state == "detected") ++out.detections;
    }
    out.actions =
        controller != nullptr ? controller->actions_applied() : cold_restarts;
    for (int64_t slot = 0; slot < ring.slots(); ++slot) {
      std::remove(ring.SlotPath(slot).c_str());
    }
    return out;
  }

  RepResult RunOnce() {
    uint64_t rep_seed = rng_.NextUint64();
    RunOutcome control = RunPipeline(rep_seed, "");
    RunOutcome rebaseline = RunPipeline(rep_seed, "rebaseline");
    RunOutcome scoped = RunPipeline(rep_seed, "restart_scoped");
    RunOutcome rollback = RunPipeline(rep_seed, "rollback");

    STRATLEARN_CHECK_MSG(control.detections >= 1 && control.actions >= 1,
                         "drift_recover control must detect and restart");
    STRATLEARN_CHECK_MSG(RecoveryContexts(control) > 0,
                         "drift_recover control must pay a re-convergence "
                         "price for its cold restart");
    const struct {
      const char* name;
      const RunOutcome* run;
    } policies[] = {{"rebaseline", &rebaseline},
                    {"restart_scoped", &scoped},
                    {"rollback", &rollback}};
    for (const auto& p : policies) {
      STRATLEARN_CHECK_MSG(p.run->detections >= 1,
                           "drift_recover policy run must detect the drift");
      STRATLEARN_CHECK_MSG(p.run->actions >= 1,
                           "drift_recover policy must apply an action");
      // The tentpole claim, hard-asserted per repetition: a graduated
      // recovery re-converges in strictly fewer contexts than the
      // cold restart.
      STRATLEARN_CHECK_MSG(
          RecoveryContexts(*p.run) < RecoveryContexts(control),
          "drift_recover: policy must re-converge faster than cold restart");
    }

    RepResult result;
    result.work_units =
        control.cost + rebaseline.cost + scoped.cost + rollback.cost;
    result.counters = {
        {"contexts", 4 * kContexts},
        {"control_recovery_ctx", RecoveryContexts(control)},
        {"rebaseline_recovery_ctx", RecoveryContexts(rebaseline)},
        {"restart_scoped_recovery_ctx", RecoveryContexts(scoped)},
        {"rollback_recovery_ctx", RecoveryContexts(rollback)},
        {"recovery_actions",
         rebaseline.actions + scoped.actions + rollback.actions},
        {"cold_restarts", control.actions}};
    return result;
  }

 private:
  RandomTree tree_;
  uint64_t seed_;
  Rng rng_;
  std::string ring_dir_;
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
  using Mode = ObsOverheadInstance::Mode;
  std::string rows;
  rows += Row<FigureExecuteInstance>("fig1_execute");
  rows += Row<PibClimbInstance>("pib_climb");
  rows += Row<PaoQuotaInstance>("pao_quota");
  rows += Row<AuditOverheadInstance>("audit_overhead");
  rows += Row<DriftDetectInstance>("drift_detect");
  rows += Row<DriftRecoverInstance>("drift_recover");
  rows += Row<ObsOverheadInstance>("obs_overhead_off", Mode::kOff);
  rows += Row<ObsOverheadInstance>("obs_overhead_metrics", Mode::kMetrics);
  rows += Row<ObsOverheadInstance>("obs_overhead_trace",
                                   Mode::kMetricsAndTrace);
  return rows;
}

}  // namespace stratlearn::obs::perf
