#include "apps/learn_session.h"

#include <cstdio>
#include <sstream>
#include <utility>

#include "core/expected_cost.h"
#include "core/upsilon.h"
#include "engine/query_processor.h"
#include "obs/health/series_io.h"
#include "obs/timer.h"
#include "robust/fault_plan.h"
#include "util/file_util.h"
#include "util/string_util.h"
#include "verify/diagnostics.h"
#include "verify/verify.h"

namespace stratlearn {

namespace {

Status CannotOpen(const char* flag, const std::string& path) {
  return Status::Internal(
      StrFormat("cannot open '%s' for %s output", path.c_str(), flag));
}

/// Opens the file of an output flag, if the flag is set.
Status OpenOutput(const char* flag, const std::string& path,
                  std::ofstream* out) {
  if (path.empty()) return Status::OK();
  out->open(path);
  return *out ? Status::OK() : CannotOpen(flag, path);
}

/// Clock-unit cadence: an explicit flag wins; otherwise one window /
/// export per steady-clock second, or per 100 queries on the fake clock.
int64_t ResolveInterval(int64_t flag_value, bool fake) {
  if (flag_value > 0) return flag_value;
  return fake ? 100 : 1'000'000;
}

/// Reads a rules or policy file and runs its verify passes: errors fail
/// the run (FailedPrecondition, exit code 2), warnings go to stderr.
template <typename T>
Result<T> LoadVerified(const std::string& path, const char* what,
                       T (*parse)(std::string_view, verify::DiagnosticSink*)) {
  Result<std::string> text = ReadFile(path);
  if (!text.ok()) return text.status();
  verify::DiagnosticSink sink;
  sink.set_file(path);
  T parsed = parse(*text, &sink);
  if (sink.HasBlocking()) {
    return Status::FailedPrecondition(StrFormat(
        "%s failed verification:\n%s", what, sink.RenderText().c_str()));
  }
  if (!sink.empty()) std::fprintf(stderr, "%s", sink.RenderText().c_str());
  return parsed;
}

/// Writes an output flag's end-of-run `text` and reports where it went,
/// or that the write failed (`suffix` follows the path).
void WriteOutput(std::ofstream& out, const std::string& text,
                 const char* what, const std::string& path,
                 const std::string& suffix = "") {
  out << text;
  out.flush();
  if (!out) {
    std::fprintf(stderr,
                 "warning: failed writing %s to '%s' (disk full or closed "
                 "pipe?); continuing without it\n",
                 what, path.c_str());
  } else {
    std::printf("%s written to %s%s\n", what, path.c_str(), suffix.c_str());
  }
}

}  // namespace

LearnSession::LearnSession(const LearnOptions& options,
                           const InferenceGraph& graph,
                           const std::string& learner)
    : options_(options), graph_(graph), learner_(learner), rng_(options.seed) {}

Result<std::unique_ptr<LearnSession>> LearnSession::Open(
    const LearnOptions& options, const InferenceGraph& graph,
    const std::string& learner, const std::vector<double>& truth,
    bool want_profiler) {
  std::unique_ptr<LearnSession> session(
      new LearnSession(options, graph, learner));
  if (!learner.empty()) STRATLEARN_RETURN_IF_ERROR(session->OpenControls());
  STRATLEARN_RETURN_IF_ERROR(session->OpenTelemetry(truth, want_profiler));
  return session;
}

Status LearnSession::OpenControls() {
  if (learner_ == "pao" && !options_.recovery.empty()) {
    // Rebaseline acts on PIB's sequential test; PAO has none.
    return Status::InvalidArgument("--recovery applies to learn-pib only");
  }
  if (options_.resume && options_.checkpoint.empty()) {
    return Status::InvalidArgument("--resume requires --checkpoint=FILE");
  }
  if (!options_.fault_plan.empty()) {
    Result<robust::FaultPlan> plan =
        robust::FaultPlan::Load(options_.fault_plan);
    if (!plan.ok()) return plan.status();
    std::printf("fault plan: %s%s\n", options_.fault_plan.c_str(),
                plan->ZeroFault() ? " (zero-fault)" : "");
    injector_ = std::make_unique<robust::FaultInjector>(*std::move(plan));
  }
  if (!options_.recovery.empty()) {
    // Decide-only until RunPib binds the learner it rebaselines.
    Result<robust::RecoveryPolicy> policy = LoadVerified(
        options_.recovery, "recovery policy", verify::ParseRecoveryPolicy);
    if (!policy.ok()) return policy.status();
    std::printf("recovery policy: %s (%zu rules)\n",
                options_.recovery.c_str(), policy->rules.size());
    recovery_ =
        std::make_unique<robust::RecoveryController>(*std::move(policy));
  }
  if (!options_.resume) return Status::OK();
  Result<robust::CheckpointData> checkpoint =
      robust::LoadCheckpoint(options_.checkpoint, graph_);
  Status usable = Resumable(checkpoint);
  if (usable.ok() && injector_ != nullptr) {
    usable = injector_->RestoreState(checkpoint->injector);
  }
  if (!usable.ok()) {
    // Checkpointing accelerates recovery; it must never block it.
    verify::DiagnosticSink sink;
    sink.set_file(options_.checkpoint);
    sink.Warning("V-K001", "", usable.message(),
                 "cannot resume from this checkpoint; starting from the "
                 "initial state instead (delete the file or drop --resume "
                 "to silence this)");
    std::fprintf(stderr, "%s", sink.RenderText().c_str());
    return Status::OK();
  }
  resume_ = *std::move(checkpoint);
  resumed_ = true;
  rng_.RestoreState(resume_.rng_state);
  done_ = resume_.queries_done;
  std::printf("resumed from %s at %s %lld\n", options_.checkpoint.c_str(),
              learner_ == "pao" ? "context" : "query",
              static_cast<long long>(done_));
  return Status::OK();
}

Status LearnSession::Resumable(
    const Result<robust::CheckpointData>& checkpoint) const {
  if (!checkpoint.ok()) return checkpoint.status();
  if (checkpoint->learner != learner_) {
    return Status::FailedPrecondition("checkpoint belongs to learner '" +
                                      checkpoint->learner + "', not " +
                                      learner_);
  }
  if (checkpoint->seed != options_.seed) {
    return Status::FailedPrecondition(StrFormat(
        "checkpoint was taken with --seed=%llu, this run uses %llu",
        static_cast<unsigned long long>(checkpoint->seed),
        static_cast<unsigned long long>(options_.seed)));
  }
  if (checkpoint->has_injector != (injector_ != nullptr)) {
    return Status::FailedPrecondition(
        "checkpoint and this run disagree on --fault-plan");
  }
  if (learner_ == "pib") {
    // Restored into a probe, so a state PIB rejects degrades before any
    // output is reopened from the checkpoint.
    Pib probe(&graph_, Strategy::DepthFirst(graph_),
              PibOptions{.delta = options_.delta});
    return probe.RestoreCheckpoint(checkpoint->pib);
  }
  return Status::OK();
}

Status LearnSession::OpenTelemetry(const std::vector<double>& truth,
                                   bool want_profiler) {
  if (options_.obs_clock != "steady" && options_.obs_clock != "fake") {
    return Status::InvalidArgument("--obs-clock must be 'steady' or 'fake'");
  }
  fake_clock_ = options_.obs_clock == "fake";
  if (options_.export_every < 0 || options_.timeseries_every < 0) {
    return Status::InvalidArgument(
        "--export-every / --timeseries-every must be positive");
  }
  if (!options_.trace_out.empty()) {
    if (options_.trace_out.ends_with(".jsonl")) {
      file_sink_ = std::make_unique<obs::JsonlSink>(options_.trace_out);
    } else {
      file_sink_ = std::make_unique<obs::ChromeTraceSink>(options_.trace_out);
    }
    if (!file_sink_->ok()) return CannotOpen("--trace-out", options_.trace_out);
    // Surface post-Close / post-failure event loss in the metrics
    // snapshot instead of only on stderr.
    file_sink_->set_drop_counter(
        &registry_.GetCounter("obs.trace_events_dropped"));
  }
  STRATLEARN_RETURN_IF_ERROR(
      OpenOutput("--metrics-out", options_.metrics_out, &metrics_stream_));
  STRATLEARN_RETURN_IF_ERROR(
      OpenOutput("--profile-out", options_.profile_out, &profile_stream_));
  if (want_profiler || !options_.profile_out.empty()) {
    profiler_ = std::make_unique<obs::StrategyProfiler>(
        obs::ProfilerOptions{.delta = options_.delta});
  }
  if (options_.alerts.empty() && !options_.health_out.empty()) {
    return Status::InvalidArgument("--health-out requires --alerts=FILE");
  }
  if (recovery_ != nullptr && options_.alerts.empty()) {
    // The controller is driven by the monitor's window hook; without
    // alert rules there is no monitor and the policy could never fire.
    return Status::InvalidArgument("--recovery requires --alerts=FILE");
  }
  // The health monitor consumes closed windows, so --alerts implies
  // the collector even when the series itself is not written out.
  if (!options_.timeseries_out.empty() || !options_.alerts.empty()) {
    STRATLEARN_RETURN_IF_ERROR(OpenOutput(
        "--timeseries-out", options_.timeseries_out, &timeseries_stream_));
    obs::TimeSeriesOptions ts_options;
    ts_options.interval_us =
        ResolveInterval(options_.timeseries_every, fake_clock_);
    timeseries_ =
        std::make_unique<obs::TimeSeriesCollector>(&registry_, ts_options);
  }
  if (!options_.alerts.empty()) {
    Result<obs::health::AlertRuleSet> rules = LoadVerified(
        options_.alerts, "alert rules", verify::ParseAlertRules);
    if (!rules.ok()) return rules.status();
    STRATLEARN_RETURN_IF_ERROR(
        OpenOutput("--health-out", options_.health_out, &health_stream_));
    health_ = std::make_unique<obs::health::HealthMonitor>(
        *std::move(rules), obs::health::HealthOptions{}, &registry_);
    // Delivered outside the collector's lock, so the monitor's events
    // can flow back through the sink tee (which includes the collector,
    // annotating the just-closed window).
    timeseries_->SetWindowCallback(
        [this](const obs::TimeSeriesWindow& w) { health_->OnWindow(w); });
    if (recovery_ != nullptr) health_->set_recovery_hook(recovery_->Hook());
  }
  if (resumed_ && resume_.has_timeseries && timeseries_ != nullptr) {
    RestoreSeries();
  }
  if (!options_.audit_out.empty()) {
    if (options_.audit_every < 1 || options_.audit_window < 1) {
      return Status::InvalidArgument(
          "--audit-every / --audit-window must be >= 1");
    }
    obs::AuditLogOptions audit_options;
    audit_options.delta_budget = options_.delta;
    audit_options.window = options_.audit_window;
    // Regret baselines: the incumbent is the depth-first strategy both
    // learners start from, the oracle Upsilon_AOT on the true
    // probabilities. A graph Upsilon does not support degrades to
    // realized-cost-only regret records.
    if (!truth.empty()) {
      Result<UpsilonResult> optimal = UpsilonAot(graph_, truth);
      if (optimal.ok()) {
        audit_options.have_baselines = true;
        audit_options.incumbent_expected_cost =
            ExactExpectedCost(graph_, Strategy::DepthFirst(graph_), truth);
        audit_options.oracle_expected_cost =
            ExactExpectedCost(graph_, optimal->strategy, truth);
      }
    }
    if (resumed_ && resume_.has_audit) {
      // Continue the killed run's stream: the cursor truncates its
      // trailing summary and restores the writer's counters/ledger.
      audit_log_ = std::make_unique<obs::AuditLog>(
          options_.audit_out, audit_options, resume_.audit);
    } else {
      audit_log_ =
          std::make_unique<obs::AuditLog>(options_.audit_out, audit_options);
    }
    if (!audit_log_->ok()) return CannotOpen("--audit-out", options_.audit_out);
  }
  if (!options_.metrics_export.empty()) {
    exporter_ = std::make_unique<obs::PeriodicOpenMetricsExporter>(
        options_.metrics_export,
        ResolveInterval(options_.export_every, fake_clock_));
    // Probe dump: scrapers see the file immediately, and an unwritable
    // path fails the command up front like every other output flag.
    if (!exporter_->ExportNow(registry_)) {
      return CannotOpen("--metrics-export", options_.metrics_export);
    }
  }
  std::vector<obs::TraceSink*> sinks;
  if (file_sink_ != nullptr) sinks.push_back(file_sink_.get());
  if (audit_log_ != nullptr) sinks.push_back(audit_log_.get());
  if (profiler_ != nullptr) sinks.push_back(profiler_.get());
  if (timeseries_ != nullptr) sinks.push_back(timeseries_.get());
  obs::TraceSink* active = nullptr;
  if (sinks.size() == 1) {
    active = sinks.front();
  } else if (sinks.size() > 1) {
    tee_ = std::make_unique<obs::TeeSink>(sinks);
    active = tee_.get();
  }
  if (health_ != nullptr) health_->set_event_sink(active);
  observer_ = std::make_unique<obs::Observer>(&registry_, active);
  if (audit_log_ != nullptr) {
    observer_->set_audit_enabled(true);
    observer_->set_audit_every(options_.audit_every);
  }
  // Fake clock: event timestamps and qp.query_wall_us durations come
  // from the query ordinal, not the steady clock, so two identical runs
  // produce byte-identical telemetry. A resumed run re-enters the clock
  // domain at the checkpointed query ordinal.
  if (fake_clock_) {
    observer_->UseManualClock();
    observer_->AdvanceManualClock(done_);
  }
  return Status::OK();
}

void LearnSession::RestoreSeries() {
  // The checkpoint holds raw window lines without a file header, so
  // synthesize the one LoadTimeSeries expects. Failures degrade to a
  // warning: losing detector warm-up is recoverable, refusing to resume
  // is not.
  std::ostringstream text;
  text << "{\"schema\":\"stratlearn-timeseries-v1\",\"interval_us\":"
       << ResolveInterval(options_.timeseries_every, fake_clock_)
       << ",\"capacity\":512,\"windows_closed\":" << resume_.ts_next_index
       << ",\"windows_evicted\":" << resume_.ts_evicted << "}\n";
  for (const std::string& line : resume_.ts_windows) text << line << "\n";
  std::istringstream in{text.str()};
  obs::health::LoadedSeries series;
  Status loaded = obs::health::LoadTimeSeries(in, &series);
  if (loaded.ok()) {
    loaded = timeseries_->Restore(resume_.ts_window_start,
                                  resume_.ts_next_index, resume_.ts_evicted,
                                  std::move(series.windows));
  }
  if (!loaded.ok()) {
    std::fprintf(stderr,
                 "warning: cannot restore checkpointed time series (%s); "
                 "detector state starts fresh\n",
                 loaded.ToString().c_str());
  } else if (health_ != nullptr) {
    // Decide-only replay: the restored windows keep the drift and alert
    // entries the checkpoint holds, which the uninterrupted run derived
    // from its whole history. The monitor has no event sink yet, so the
    // replay only rebuilds the detector and alert state and, through
    // the recovery hook, the controller's transcript and cooldowns.
    for (const obs::TimeSeriesWindow& w : timeseries_->Windows()) {
      health_->OnWindow(w);
    }
  }
}

int64_t LearnSession::StopAt(int64_t end) const {
  const int64_t halt = options_.halt_after;
  return halt > done_ && halt < end ? halt : end;
}

obs::Histogram* LearnSession::WallTimer(const char* name) {
  // Wall time is meaningless (and nondeterministic) on the fake clock.
  return fake_clock_ ? nullptr : &registry_.GetHistogram(name);
}

Status LearnSession::RunPib(Pib* pib, ContextOracle& oracle,
                            const std::function<void(const Pib&)>& on_move) {
  if (resumed_) STRATLEARN_RETURN_IF_ERROR(pib->RestoreCheckpoint(resume_.pib));
  if (recovery_ != nullptr) {
    // Cooldowns from before a kill were rebuilt by the decide-only
    // replay of the restored windows; from here on actions execute.
    recovery_->BindPib(pib);
    recovery_->BindObserver(observer_.get());
    recovery_->set_live(true);
  }
  QueryProcessor qp(&graph_, observer_.get());
  qp.set_fault_injector(injector_.get());
  const LearnerState state = [pib](robust::CheckpointData* data) {
    data->pib = pib->GetCheckpoint();
  };
  {
    obs::ScopedTimer timer(WallTimer("cli.learn_wall_us"));
    for (int64_t i = done_, stop = StopAt(options_.queries);
         i < stop && status_.ok(); ++i) {
      if (pib->Observe(qp.Execute(pib->strategy(), oracle.Next(rng_))) &&
          on_move) {
        on_move(*pib);
      }
      Step(i + 1, state);
    }
  }
  return EndRun(done_ >= options_.queries, state);
}

Result<PaoResult> LearnSession::RunPao(ContextOracle& oracle) {
  PaoOptions options;
  options.epsilon = options_.epsilon;
  options.delta = options_.delta;
  if (options_.theorem3) options.mode = PaoOptions::Mode::kTheorem3;
  options.injector = injector_.get();
  if (resumed_) options.resume = &resume_.qpa;
  // --halt-after caps the sampling loop: Run stops there with
  // ResourceExhausted unless the quotas are met first.
  const int64_t cap = StopAt(options.max_contexts);
  const bool halt_armed = cap < options.max_contexts;
  options.max_contexts = cap;
  // The sampler lives inside Run, so its last state is kept for the
  // final checkpoint; a resumed run that is already done keeps its own.
  AdaptiveQueryProcessor::Checkpoint last = resume_.qpa;
  options.on_context = [&](const AdaptiveQueryProcessor& qpa,
                           int64_t contexts) {
    if (!options_.checkpoint.empty() && qpa.QuotasMet()) {
      last = qpa.GetCheckpoint();
    }
    Step(contexts, [&qpa](robust::CheckpointData* data) {
      data->qpa = qpa.GetCheckpoint();
    });
  };
  Result<PaoResult> result = [&] {
    obs::ScopedTimer timer(WallTimer("cli.learn_wall_us"));
    return Pao::Run(graph_, oracle, rng_, options, observer_.get());
  }();
  const bool halted_here = !result.ok() && halt_armed && done_ == cap;
  if (!result.ok() && !halted_here) return result;
  Status ended = EndRun(
      !halted_here,
      [&last](robust::CheckpointData* data) { data->qpa = last; });
  if (!ended.ok()) return ended;
  return result;
}

void LearnSession::Step(int64_t done, const LearnerState& state) {
  done_ = done;
  if (fake_clock_) observer_->AdvanceManualClock(done);
  if (timeseries_ != nullptr || exporter_ != nullptr) {
    const int64_t now = fake_clock_ ? done : observer_->NowUs();
    if (timeseries_ != nullptr) timeseries_->AdvanceTo(now);
    if (exporter_ != nullptr) exporter_->MaybeExport(now, registry_);
  }
  if (!options_.checkpoint.empty() && options_.checkpoint_every > 0 &&
      done % options_.checkpoint_every == 0 && status_.ok()) {
    status_ = WriteCheckpoint(state);
  }
}

Status LearnSession::EndRun(bool finished, const LearnerState& state) {
  STRATLEARN_RETURN_IF_ERROR(status_);
  if (!finished) {
    // A scripted crash for the kill-and-resume tests: nothing more is
    // written, so the last periodic checkpoint is the recovery point.
    std::fprintf(stderr, "halting after %lld queries (--halt-after)\n",
                 static_cast<long long>(done_));
    halted_ = true;
    return Status::Internal("halted by --halt-after");
  }
  if (options_.checkpoint.empty()) return Status::OK();
  STRATLEARN_RETURN_IF_ERROR(WriteCheckpoint(state));
  std::printf("checkpoint written to %s\n", options_.checkpoint.c_str());
  return Status::OK();
}

Status LearnSession::WriteCheckpoint(const LearnerState& state) {
  robust::CheckpointData data;
  data.learner = learner_;
  data.seed = options_.seed;
  data.queries_done = done_;
  data.rng_state = rng_.SaveState();
  if (injector_ != nullptr) {
    data.has_injector = true;
    data.injector = injector_->SaveState();
  }
  state(&data);
  if (health_ != nullptr) {
    data.health.present = true;
    data.health.healthy = !health_->AnyFiring() && health_->drift_active() == 0;
    data.health.windows_seen = health_->windows_seen();
    data.health.drift_active = health_->drift_active();
    data.health.firing = health_->FiringCount();
  }
  if (timeseries_ != nullptr) {
    data.has_timeseries = true;
    data.ts_window_start = timeseries_->window_start_us();
    data.ts_next_index = timeseries_->windows_closed();
    data.ts_evicted = timeseries_->windows_evicted();
    for (const obs::TimeSeriesWindow& w : timeseries_->Windows()) {
      data.ts_windows.push_back(
          obs::TimeSeriesCollector::SerializeWindowJson(w));
    }
  }
  if (audit_log_ != nullptr) {
    data.has_audit = true;
    data.audit = audit_log_->SaveCursor();
  }
  return robust::WriteCheckpoint(options_.checkpoint, data);
}

void LearnSession::Finish(bool print_summary) {
  if (timeseries_ != nullptr) {
    // Close the trailing partial window at the last query (fake clock)
    // or at real end-of-run time, before any output is closed or
    // written: the health monitor sees that window through the callback,
    // and its drift, alert and recovery events still reach the trace,
    // the audit log and the metrics.
    timeseries_->Finalize(fake_clock_ ? done_ : observer_->NowUs());
  }
  if (file_sink_ != nullptr) {
    file_sink_->Close();
    if (file_sink_->failed()) {
      std::fprintf(stderr,
                   "warning: trace output to '%s' is incomplete (write "
                   "failure mid-run)\n",
                   options_.trace_out.c_str());
    } else {
      std::printf("trace written to %s\n", options_.trace_out.c_str());
    }
  }
  if (audit_log_ != nullptr) {
    audit_log_->Close();
    if (audit_log_->failed()) {
      std::fprintf(stderr,
                   "warning: audit log '%s' is incomplete (write failure "
                   "mid-run)\n",
                   options_.audit_out.c_str());
    } else {
      std::printf("audit log written to %s (%lld certificates)\n",
                  options_.audit_out.c_str(),
                  static_cast<long long>(audit_log_->certificates_written()));
    }
  }
  if (print_summary) {
    std::string summary = registry_.Summary();
    if (!summary.empty()) std::printf("metrics summary:\n%s", summary.c_str());
  }
  if (metrics_stream_.is_open()) {
    WriteOutput(metrics_stream_, registry_.SnapshotJson() + "\n", "metrics",
                options_.metrics_out);
  }
  if (profile_stream_.is_open()) {
    WriteOutput(profile_stream_, profiler_->ReportJson() + "\n", "profile",
                options_.profile_out);
  }
  if (timeseries_stream_.is_open()) {
    WriteOutput(
        timeseries_stream_, timeseries_->SerializeJsonl(), "time series",
        options_.timeseries_out,
        StrFormat(" (%lld windows)",
                  static_cast<long long>(timeseries_->windows_closed())));
  }
  if (health_ != nullptr) {
    std::printf("health: %s (%lld windows, %lld drift series active, "
                "%lld alert rules firing)\n",
                health_->AnyFiring() ? "ALERTS FIRING" : "healthy",
                static_cast<long long>(health_->windows_seen()),
                static_cast<long long>(health_->drift_active()),
                static_cast<long long>(health_->FiringCount()));
    if (health_stream_.is_open()) {
      WriteOutput(health_stream_, health_->RenderJson(), "health report",
                  options_.health_out);
    }
  }
  // Final dump so the exported file reflects end-of-run state even when
  // the run ended mid-interval.
  if (exporter_ != nullptr && exporter_->ExportNow(registry_)) {
    std::printf("metrics exported to %s (%lld dumps)\n",
                exporter_->path().c_str(),
                static_cast<long long>(exporter_->exports()));
  }
}

}  // namespace stratlearn
