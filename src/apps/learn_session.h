#ifndef STRATLEARN_APPS_LEARN_SESSION_H_
#define STRATLEARN_APPS_LEARN_SESSION_H_

#include <cstdint>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/pao.h"
#include "core/pib.h"
#include "graph/inference_graph.h"
#include "obs/audit/audit_log.h"
#include "obs/health/monitor.h"
#include "obs/metrics.h"
#include "obs/observer.h"
#include "obs/openmetrics.h"
#include "obs/profiler.h"
#include "obs/sinks.h"
#include "obs/timeseries.h"
#include "robust/checkpoint.h"
#include "robust/fault_injector.h"
#include "robust/recovery/controller.h"
#include "util/rng.h"
#include "util/status.h"
#include "workload/oracle.h"

namespace stratlearn {

/// What configures one learn run: the learner parameters, the telemetry
/// outputs and the fault and checkpoint controls. Each field is one
/// `stratlearn_cli` flag of the same name (see the CLI's header comment).
struct LearnOptions {
  double delta = 0.05;
  double epsilon = 0.5;
  int64_t queries = 5000;  // PIB's stream length
  bool theorem3 = false;   // PAO's Equation 8 quotas
  uint64_t seed = 1;
  std::string metrics_out;
  std::string trace_out;
  std::string profile_out;
  std::string metrics_export;
  int64_t export_every = 0;  // 0 = auto for the clock mode
  std::string timeseries_out;
  int64_t timeseries_every = 0;  // 0 = auto for the clock mode
  std::string obs_clock = "steady";
  std::string alerts;
  std::string health_out;
  std::string recovery;
  std::string audit_out;
  int64_t audit_every = 1;
  int64_t audit_window = 100;
  std::string fault_plan;
  std::string checkpoint;
  int64_t checkpoint_every = 0;
  bool resume = false;
  int64_t halt_after = 0;
};

/// One run of PIB or PAO over a context stream, with everything a
/// production run keeps around the learner: the telemetry (metrics,
/// trace, audit, profiler, time series with the health monitor, export)
/// on one clock, the --fault-plan injector, the --recovery controller,
/// checkpoints (--resume's checks and restore, the periodic and final
/// writes) and the per-query cadence (telemetry tick, periodic
/// checkpoint, --halt-after), for PIB's loop and PAO's per-context hook
/// alike. A session without a learner (`learner` empty) opens the
/// telemetry only. Status lines ("fault plan: ...", "trace written to
/// ...") go to stdout and warnings to stderr, as the CLI prints them.
class LearnSession {
 public:
  /// Opens every output up front, so a bad path fails here before any
  /// work runs; then, for a learner ("pib" or "pao"), loads the fault
  /// plan, the recovery policy and, with --resume, the checkpoint. A
  /// checkpoint that cannot be loaded or does not fit this run (another
  /// learner, --seed or --fault-plan, or PIB state that PIB rejects)
  /// degrades to a V-K001 warning and a fresh start before any output
  /// is reopened from it. `truth`, the workload's true probabilities,
  /// gives the audit's regret baselines (none when empty). Verify
  /// findings in the alert rules or the policy are FailedPrecondition.
  static Result<std::unique_ptr<LearnSession>> Open(
      const LearnOptions& options, const InferenceGraph& graph,
      const std::string& learner, const std::vector<double>& truth = {},
      bool want_profiler = false);

  // The time series' window callback holds the session's address.
  LearnSession(const LearnSession&) = delete;
  LearnSession& operator=(const LearnSession&) = delete;

  obs::Observer* observer() const { return observer_.get(); }
  obs::MetricsRegistry& registry() { return registry_; }
  const obs::StrategyProfiler* profiler() const { return profiler_.get(); }
  /// Whether the run stopped at --halt-after, a scripted crash (exit
  /// code 3 in the CLI); the session has printed the halt to stderr.
  bool halted() const { return halted_; }
  /// The histogram a wall-clock timer named `name` records into, or
  /// null on the fake clock, where wall time would make the metrics
  /// differ between identical runs.
  obs::Histogram* WallTimer(const char* name);

  /// Restores `pib` when resuming, binds the recovery controller, and
  /// runs it to --queries, calling `on_move` (if set) after each climb;
  /// then writes the final checkpoint. A halt, a failed checkpoint
  /// write or a checkpointed state `pib` rejects is an error. `pib`
  /// must outlive Finish, whose last window may still rebaseline it.
  Status RunPib(Pib* pib, ContextOracle& oracle,
                const std::function<void(const Pib&)>& on_move = {});

  /// Runs PAO (--epsilon, --delta, --theorem3) from the checkpointed
  /// sampler state when resuming, then writes the final checkpoint.
  Result<PaoResult> RunPao(ContextOracle& oracle);

  /// Closes the last time-series window, then the trace and the audit
  /// log; writes the metrics, profile, time series, health report and
  /// final export, and prints where each went (and the metrics summary
  /// with `print_summary`). A write failure is a warning on stderr: the
  /// learner's result is already printed, and losing telemetry must not
  /// fail the run.
  void Finish(bool print_summary = true);

 private:
  using LearnerState = std::function<void(robust::CheckpointData*)>;

  LearnSession(const LearnOptions& options, const InferenceGraph& graph,
               const std::string& learner);

  Status OpenControls();
  Status OpenTelemetry(const std::vector<double>& truth, bool want_profiler);
  void RestoreSeries();
  /// Why the loaded checkpoint cannot resume this run, or OK.
  Status Resumable(const Result<robust::CheckpointData>& checkpoint) const;
  /// The first query --halt-after stops before `end` at, or `end`.
  int64_t StopAt(int64_t end) const;

  /// After query `done`: tick the telemetry clock, then write the
  /// periodic checkpoint when one is due.
  void Step(int64_t done, const LearnerState& state);
  /// After the learner's loop: a failed periodic write, the halt, or
  /// the final checkpoint.
  Status EndRun(bool finished, const LearnerState& state);
  Status WriteCheckpoint(const LearnerState& state);

  const LearnOptions options_;
  const InferenceGraph& graph_;
  const std::string learner_;
  Rng rng_;
  /// Queries (PAO: contexts) consumed, counting those before a resume.
  int64_t done_ = 0;
  bool halted_ = false;
  /// The first failed periodic checkpoint write.
  Status status_;
  std::unique_ptr<robust::FaultInjector> injector_;
  std::unique_ptr<robust::RecoveryController> recovery_;
  bool resumed_ = false;
  robust::CheckpointData resume_;

  obs::MetricsRegistry registry_;
  bool fake_clock_ = false;
  std::unique_ptr<obs::StreamSink> file_sink_;
  std::unique_ptr<obs::AuditLog> audit_log_;
  std::unique_ptr<obs::StrategyProfiler> profiler_;
  std::unique_ptr<obs::TimeSeriesCollector> timeseries_;
  std::unique_ptr<obs::health::HealthMonitor> health_;
  std::unique_ptr<obs::PeriodicOpenMetricsExporter> exporter_;
  std::unique_ptr<obs::TeeSink> tee_;
  std::unique_ptr<obs::Observer> observer_;
  std::ofstream metrics_stream_;
  std::ofstream profile_stream_;
  std::ofstream timeseries_stream_;
  std::ofstream health_stream_;
};

}  // namespace stratlearn

#endif  // STRATLEARN_APPS_LEARN_SESSION_H_
