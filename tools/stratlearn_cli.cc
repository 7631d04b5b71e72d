// stratlearn command-line tool.
//
// Subcommands:
//   query <program.dl> <atom>
//       Prove a query with the reference SLD evaluator.
//   dot <program.dl> <query-form>
//       Unfold the rules for a query form and print the inference graph
//       as Graphviz DOT.
//   learn-pib <program.dl> <query-form> <workload.txt> [options]
//       Watch the query stream with PIB and print the learned strategy.
//   learn-pao <program.dl> <query-form> <workload.txt> [options]
//       Run PAO sampling and print the (probably approximately) optimal
//       strategy.
//   eval <program.dl> <query-form> <workload.txt> [strategy-file]
//       Report expected costs: the given (or default) strategy, the
//       Smith fact-count baseline, and the workload optimum.
//   explain <program.dl> <query-form> <workload.txt> [options]
//       Run a learner (--learner=pib|pao, with the flags of learn-pib
//       or learn-pao) with the strategy profiler attached and print
//       the learned strategy as an annotated inference-graph tree
//       (visit order, p^ +/- eps, cost share, HOT markers), the
//       learner's estimate state (climb history and Delta~ margins for
//       PIB, quota progress for PAO), and the per-arc attribution
//       report. Output is deterministic for a fixed seed.
//   bench
//       Run the canonical behaviour workloads (obs/perf/workloads.h) at a
//       fixed seed, warmup and repetition count, and print one line per
//       workload: its summed work units to 17 significant digits and its
//       counters in name order. The output depends only on the code; the
//       cli_bench_golden test pins it against
//       tests/testdata/bench/golden.txt. Speed is measured elsewhere (see
//       README "Performance tracking").
//   health <series.jsonl> --alerts=RULES [--format=text|json]
//          [--health-out=FILE] [--recovery=POLICY]
//       Replay a serialized "stratlearn-timeseries-v1" file through the
//       statistical health monitor: the drift detector (Hoeffding
//       two-window p^ test per arc) and the declarative alert rules from
//       a "stratlearn-alerts v1" file. Prints the health report (text or
//       "stratlearn-health-v1" JSON). Because the series is serialized
//       at round-trip precision, the offline replay reaches decisions
//       byte-identical to the live run's; when the series ring evicted
//       windows, it cannot recount the p^ detections and alert
//       transitions inside them (README "Fault tolerance &
//       checkpointing"). Exit code: 0 healthy, 1 alerts firing,
//       2 usage error (bad flags, unreadable inputs, alert rules with
//       verify errors).
//   audit <audit.jsonl> [--format=text|json]
//       Render a "stratlearn-audit v1" decision-audit file (written by
//       learn-pib/learn-pao --audit-out) as a deterministic convergence
//       report: the certificate table with per-decision efficiency
//       ratios (samples used vs. the Theorem 1-3 bound), the
//       per-learner delta-budget ledger, the regret curve and the run
//       summary. Exit code: 0 clean, 1 findings (overspent ledger,
//       non-conservative certificate), 2 usage/malformed input.
//   series <series.jsonl>
//       Render a "stratlearn-timeseries-v1" file (--timeseries-out) as
//       per-window text tables: counter totals, deltas and rates,
//       gauges, histogram activity, the windowed per-arc p^ and mean
//       cost, and the drift and alert entries the health monitor
//       attached. The text depends only on the file's content. Exit
//       code: 0 report, 1 unreadable file, 2 usage error or malformed
//       series.
//   trace <trace.jsonl> [--format=text|json] [--delta=D]
//       Replay a JSONL trace (--trace-out=*.jsonl) through the strategy
//       profiler and print the per-arc attribution report the live run
//       builds: p^ with its Equation-1 (Hoeffding) half-width at --delta,
//       mean and cumulative cost, the climb history. Exit code: 0
//       report, 2 usage, unreadable or malformed trace, or a trace with
//       no replayable event (V-T001).
//   trace-diff <baseline.jsonl> <candidate.jsonl>
//       The cost-regression gate: compare two traces arc by arc. An arc
//       regresses when the candidate's mean traversal cost exceeds the
//       baseline's by more than 10% (and 1e-9), with at least 10
//       attempts in each run. Exit code: 0 no regression, 1 regression,
//       2 as for trace.
//   verify <files...> [--project=DIR] [--format=text|json|sarif]
//          [--profile=FILE] [--suppressions=FILE] [--suppress-out=FILE]
//          [--Werror]
//       Statically analyse artifacts without running anything: Datalog
//       programs (*.dl, with optional '% verify-form:',
//       '% verify-strategy:', '% verify-config:' and
//       '% verify-dataflow-cap:' directives), serialized graphs
//       ("stratlearn-graph v1"), AND/OR trees ("stratlearn-andor v1"),
//       strategies ("stratlearn-strategy v1") and learner configs
//       (*.cfg). Semantic passes run on top of the structural ones: a
//       fixpoint adornment dataflow over rule bases (V-D...) and an
//       abstract cost interpretation over strategies (V-X...), whose
//       probability intervals a --profile StrategyProfiler JSON report
//       narrows from the default [0, 1]. --project walks DIR
//       recursively and verifies every recognised artifact in a
//       deterministic context-threading order (programs before the
//       strategies/configs that need their graphs).
//       --suppressions applies a "stratlearn-suppressions v1" baseline
//       file; --suppress-out writes one capturing the current findings.
//       --format=sarif emits a deterministic SARIF 2.1.0 log for CI
//       annotation uploads. Exit code: 0 clean, 1 warnings, 2 errors
//       (--Werror promotes warnings), a usage error or an input that
//       cannot be read. See README "Static verification" for the
//       diagnostic-code table.
//
// Options: --delta=D --epsilon=E --queries=N --theorem3 --seed=S
//          --learner=pib|pao --strategy-out=FILE --metrics-out=FILE
//          --trace-out=FILE --profile-out=FILE --format=text|json
//          --Werror
//
// learn-pib, learn-pao and explain run one LearnSession
// (apps/learn_session.h), so each honours every flag below; the only
// exception, --recovery with PAO, exits 1.
//
// Fault tolerance & checkpointing:
//   --fault-plan=FILE       load a "stratlearn-faultplan v1" file and run
//                           retrievals on the resilient path (retries,
//                           backoff, circuit breaker; see README
//                           "Fault tolerance & checkpointing")
//   --checkpoint=FILE       crash-safe learner checkpoint (CRC-32
//                           checksummed, written atomically); the final
//                           state is always written on success
//   --checkpoint-every=N    additionally checkpoint every N queries
//   --resume                restore the checkpoint before running; a
//                           missing/corrupt checkpoint degrades to a
//                           V-K001 warning and a fresh start (exit 0)
//   --halt-after=K          stop with exit code 3 after K queries (PAO:
//                           contexts) without a final checkpoint — a
//                           scripted crash for kill-and-resume tests
//
// Every graph-based subcommand re-checks its loaded program and graph
// with the error-level verify passes first, so malformed inputs fail
// fast with exit code 2 instead of producing meaningless learner runs.
//
// Observability (the learn commands and eval): --metrics-out
// writes a JSON metrics snapshot, --trace-out writes an event trace (a
// *.jsonl path gets one JSON object per line; any other extension gets
// a chrome://tracing-loadable JSON array), --profile-out writes the
// strategy profiler's aggregated JSON report, and a metrics summary is
// printed for the non-explain commands. Output paths that cannot be
// opened fail the command up front, before any work runs. See
// docs/OBSERVABILITY.md for the schema.
//
// Streaming telemetry:
//   --metrics-export=FILE   periodically overwrite FILE with an
//                           OpenMetrics / Prometheus text dump of the
//                           registry (atomic rename, scraper-safe); a
//                           final dump is always written at end of run
//   --export-every=N        export cadence in clock units (default:
//                           1000000 steady-clock us, or 100 queries on
//                           the fake clock)
//   --timeseries-out=FILE   write the windowed time-series ("stratlearn-
//                           timeseries v1" JSONL: per-window counter
//                           deltas/rates, histogram activity, per-arc
//                           p-hat / mean cost) at end of run; render it
//                           with `stratlearn_cli series`
//   --timeseries-every=N    window length in clock units (same defaults
//                           as --export-every)
//   --obs-clock=MODE        'steady' (default) stamps windows with real
//                           steady-clock microseconds; 'fake' advances
//                           the telemetry clock one unit per query, so
//                           runs are byte-deterministic for a fixed seed
//
// Health monitoring:
//   --alerts=FILE           load "stratlearn-alerts v1" rules and attach
//                           the statistical health monitor to the
//                           windowed time-series (implies the window
//                           collector even without --timeseries-out).
//                           Drift/alert transitions are traced
//                           (--trace-out), annotated onto the serialized
//                           series, and exported as alert_firing.<id>
//                           gauges (--metrics-export); the run prints a
//                           one-line health summary at the end. Rules
//                           with verify errors (V-AL...) fail the run up
//                           front with exit code 2.
//   --health-out=FILE       write the "stratlearn-health-v1" JSON report
//                           at end of run (requires --alerts)
//
// Drift reaction (PIB only):
//   --recovery=FILE         load a "stratlearn-recovery v1" policy
//                           (verified through the V-RC passes; errors
//                           exit 2) and attach the recovery controller
//                           to the health monitor (requires --alerts).
//                           A drift/alert transition matched by a policy
//                           rule rebaselines PIB: its Delta~ sums and
//                           epoch sample count restart from zero on the
//                           current strategy, instead of a cold restart.
//                           Each applied action is traced as a
//                           RecoveryEvent and, with --audit-out,
//                           certified so tools/audit_verify
//                           --recovery=FILE re-derives why it fired. See
//                           docs/OBSERVABILITY.md.
//
// Decision audit:
//   --audit-out=FILE        write the "stratlearn-audit v1" stream: one
//                           PAC decision certificate per statistically
//                           significant learner decision (climb
//                           commit/reject, sequential-test stop, PAO
//                           quota transition) with the exact counts,
//                           thresholds and the delta_i drawn from the
//                           running delta-budget ledger, plus windowed
//                           regret records against the incumbent and
//                           oracle strategies. tools/audit_verify
//                           re-derives every certificate from the
//                           --trace-out JSONL; `stratlearn_cli audit`
//                           renders the convergence report. Without the
//                           flag no certificate is ever emitted, so
//                           runs stay byte-identical to earlier builds.
//   --audit-every=N         subsample high-volume *reject* certificates
//                           to every N-th test round (commit/stop/quota
//                           certificates are never subsampled)
//   --audit-window=N        queries per regret-accounting window
//                           (default 100)
//
// Program files are Datalog ("instructor(X) :- prof(X). prof(russ).").
// Workload files hold one query per line: "<weight> <arg1> [<arg2> ...]";
// '#' starts a comment.

#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "apps/learn_session.h"
#include "core/expected_cost.h"
#include "core/explain.h"
#include "core/pao.h"
#include "core/pib.h"
#include "core/smith.h"
#include "core/upsilon.h"
#include "datalog/evaluator.h"
#include "datalog/parser.h"
#include "graph/serialization.h"
#include "obs/perf/workloads.h"
#include "obs/profiler.h"
#include "obs/timer.h"
#include "obs/trace_reader.h"
#include "util/file_util.h"
#include "util/string_util.h"
#include "verify/diagnostics.h"
#include "verify/sarif.h"
#include "verify/suppressions.h"
#include "verify/verify.h"
#include "workload/datalog_oracle.h"

#include "offline_audit.h"
#include "offline_health.h"

namespace stratlearn {
namespace {

/// The learn flags are LearnOptions' fields (apps/learn_session.h); the
/// rest pick explain's learner or configure the other subcommands.
struct CliOptions : LearnOptions {
  std::string learner = "pib";
  std::string format = "text";
  bool werror = false;
  // verify subcommand.
  std::string project;
  std::string profile;
  std::string suppressions;
  std::string suppress_out;
  int64_t max_contexts = 0;  // 0 = the LearnerConfig default
  std::string strategy_out;
  std::vector<std::string> positional;
};

int Fail(const std::string& message) {
  std::fprintf(stderr, "error: %s\n", message.c_str());
  return 1;
}

/// Exit code for a failed Status: verification failures
/// (FailedPrecondition, from verify::GuardLoadedProgram) use the verify
/// contract's error exit code 2; everything else stays 1.
int FailStatus(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return status.code() == StatusCode::kFailedPrecondition ? 2 : 1;
}

/// The flags every learn command takes, besides its learner's own.
constexpr char kLearnFlags[] =
    "--strategy-out= --seed= --metrics-out= --trace-out= --profile-out= "
    "--metrics-export= --export-every= --timeseries-out= "
    "--timeseries-every= --obs-clock=steady|fake --alerts= --health-out= "
    "--audit-out= --audit-every= --audit-window= --fault-plan= "
    "--checkpoint= --checkpoint-every= --resume --halt-after=";

/// Pre-flight check of the learner parameters (and, for PAO, the
/// Equation 7/8 quotas against `graph`). Returns 0 to proceed; exit
/// code 2 on error-level findings — notably delta outside (0, 1), which
/// would otherwise abort inside the Pib constructor.
int CheckLearnerConfig(const CliOptions& options,
                       const InferenceGraph* graph) {
  verify::LearnerConfig config;
  config.delta = options.delta;
  config.epsilon = options.epsilon;
  config.queries = options.queries;
  config.theorem3 = options.theorem3;
  if (options.max_contexts > 0) config.max_contexts = options.max_contexts;
  verify::DiagnosticSink sink;
  verify::VerifyLearnerConfig(config, graph, &sink);
  if (graph != nullptr) {
    verify::VerifyQuotaFeasibility(config, *graph, nullptr, &sink);
  }
  if (!sink.HasBlocking()) return 0;
  std::fprintf(stderr, "%s", sink.RenderText().c_str());
  return 2;
}

/// Every numeric flag is read strictly: a value that is not one whole
/// number of the flag's type fails with a message naming the flag. An
/// argument that starts with "--" and matches no flag fails too, instead
/// of being read as a file name.
Result<CliOptions> ParseArgs(int argc, char** argv) {
  CliOptions options;
  std::string error;
  for (int i = 2; i < argc; ++i) {
    bool ok = true;
    std::string arg = argv[i];
    if (StartsWith(arg, "--delta=")) {
      ok = ParseFlagValue(arg, &options.delta, &error);
    } else if (StartsWith(arg, "--epsilon=")) {
      ok = ParseFlagValue(arg, &options.epsilon, &error);
    } else if (StartsWith(arg, "--queries=")) {
      ok = ParseFlagValue(arg, &options.queries, &error);
    } else if (arg == "--theorem3") {
      options.theorem3 = true;
    } else if (StartsWith(arg, "--seed=")) {
      ok = ParseFlagValue(arg, &options.seed, &error);
    } else if (StartsWith(arg, "--strategy-out=")) {
      options.strategy_out = arg.substr(15);
    } else if (StartsWith(arg, "--metrics-out=")) {
      options.metrics_out = arg.substr(14);
    } else if (StartsWith(arg, "--trace-out=")) {
      options.trace_out = arg.substr(12);
    } else if (StartsWith(arg, "--profile-out=")) {
      options.profile_out = arg.substr(14);
    } else if (StartsWith(arg, "--metrics-export=")) {
      options.metrics_export = arg.substr(17);
    } else if (StartsWith(arg, "--export-every=")) {
      ok = ParseFlagValue(arg, &options.export_every, &error);
    } else if (StartsWith(arg, "--timeseries-out=")) {
      options.timeseries_out = arg.substr(17);
    } else if (StartsWith(arg, "--timeseries-every=")) {
      ok = ParseFlagValue(arg, &options.timeseries_every, &error);
    } else if (StartsWith(arg, "--obs-clock=")) {
      options.obs_clock = arg.substr(12);
    } else if (StartsWith(arg, "--alerts=")) {
      options.alerts = arg.substr(9);
    } else if (StartsWith(arg, "--health-out=")) {
      options.health_out = arg.substr(13);
    } else if (StartsWith(arg, "--recovery=")) {
      options.recovery = arg.substr(11);
    } else if (StartsWith(arg, "--audit-out=")) {
      options.audit_out = arg.substr(12);
    } else if (StartsWith(arg, "--audit-every=")) {
      ok = ParseFlagValue(arg, &options.audit_every, &error);
    } else if (StartsWith(arg, "--audit-window=")) {
      ok = ParseFlagValue(arg, &options.audit_window, &error);
    } else if (StartsWith(arg, "--fault-plan=")) {
      options.fault_plan = arg.substr(13);
    } else if (StartsWith(arg, "--checkpoint=")) {
      options.checkpoint = arg.substr(13);
    } else if (StartsWith(arg, "--checkpoint-every=")) {
      ok = ParseFlagValue(arg, &options.checkpoint_every, &error);
    } else if (arg == "--resume") {
      options.resume = true;
    } else if (StartsWith(arg, "--halt-after=")) {
      ok = ParseFlagValue(arg, &options.halt_after, &error);
    } else if (StartsWith(arg, "--learner=")) {
      options.learner = arg.substr(10);
    } else if (StartsWith(arg, "--format=")) {
      options.format = arg.substr(9);
    } else if (arg == "--Werror") {
      options.werror = true;
    } else if (StartsWith(arg, "--project=")) {
      options.project = arg.substr(10);
    } else if (StartsWith(arg, "--profile=")) {
      options.profile = arg.substr(10);
    } else if (StartsWith(arg, "--suppressions=")) {
      options.suppressions = arg.substr(15);
    } else if (StartsWith(arg, "--suppress-out=")) {
      options.suppress_out = arg.substr(15);
    } else if (StartsWith(arg, "--max-contexts=")) {
      ok = ParseFlagValue(arg, &options.max_contexts, &error);
    } else if (StartsWith(arg, "--")) {
      return Status::InvalidArgument("unknown flag '" + arg + "'");
    } else {
      options.positional.push_back(arg);
    }
    if (!ok) return Status::InvalidArgument(error);
  }
  return options;
}

/// Shared loading pipeline for the graph-based subcommands.
struct Loaded {
  SymbolTable symbols;
  Database db;
  RuleBase rules;
  BuiltGraph built;
  QueryWorkload workload;
};

Result<std::unique_ptr<Loaded>> Load(const std::string& program_path,
                                     const std::string& form_text,
                                     const std::string& workload_path) {
  auto loaded = std::make_unique<Loaded>();
  Result<std::string> program = ReadFile(program_path);
  if (!program.ok()) return program.status();
  Parser parser(&loaded->symbols);
  STRATLEARN_RETURN_IF_ERROR(
      parser.LoadProgram(*program, &loaded->db, &loaded->rules));

  Result<QueryForm> form = QueryForm::Parse(form_text, &loaded->symbols);
  if (!form.ok()) return form.status();
  Result<BuiltGraph> built =
      BuildInferenceGraph(loaded->rules, *form, &loaded->symbols);
  if (!built.ok()) return built.status();
  loaded->built = std::move(*built);
  STRATLEARN_RETURN_IF_ERROR(verify::GuardLoadedProgram(
      loaded->rules, loaded->built, loaded->db, loaded->symbols));

  if (!workload_path.empty()) {
    Result<std::string> workload_text = ReadFile(workload_path);
    if (!workload_text.ok()) return workload_text.status();
    int line_number = 0;
    double total_weight = 0.0;
    for (const std::string& raw : Split(*workload_text, '\n')) {
      ++line_number;
      std::string clipped = raw.substr(0, raw.find('#'));
      std::string_view line = Trim(clipped);
      if (line.empty()) continue;
      std::vector<std::string> fields;
      for (const std::string& f : Split(line, ' ')) {
        if (!Trim(f).empty()) fields.emplace_back(Trim(f));
      }
      if (fields.size() < 2) {
        return Status::InvalidArgument(StrFormat(
            "workload line %d needs '<weight> <args...>'", line_number));
      }
      QueryWorkload::Entry entry;
      if (!ParseDouble(fields[0], &entry.weight) ||
          !std::isfinite(entry.weight)) {
        return Status::InvalidArgument(
            StrFormat("workload line %d: weight '%s' is not a finite number",
                      line_number, fields[0].c_str()));
      }
      if (entry.weight <= 0.0) {
        return Status::InvalidArgument(
            StrFormat("workload line %d has non-positive weight",
                      line_number));
      }
      total_weight += entry.weight;
      if (!std::isfinite(total_weight)) {
        return Status::InvalidArgument(StrFormat(
            "workload line %d: the running weight total overflows",
            line_number));
      }
      for (size_t i = 1; i < fields.size(); ++i) {
        entry.args.push_back(loaded->symbols.Intern(fields[i]));
      }
      if (entry.args.size() != loaded->built.form.bound.size()) {
        return Status::InvalidArgument(StrFormat(
            "workload line %d has %zu args; the query form expects %zu "
            "(free positions still take a placeholder constant)",
            line_number, entry.args.size(),
            loaded->built.form.bound.size()));
      }
      loaded->workload.entries.push_back(std::move(entry));
    }
    if (loaded->workload.entries.empty()) {
      return Status::InvalidArgument("workload file has no entries");
    }
  }
  return loaded;
}

void PrintStrategyReport(const Loaded& loaded, const char* label,
                         const Strategy& strategy,
                         const std::vector<double>& truth) {
  std::printf("%-14s %s\n", label,
              strategy.ToString(loaded.built.graph).c_str());
  std::printf("%-14s expected cost %.4f\n", "",
              ExactExpectedCost(loaded.built.graph, strategy, truth));
}

Status MaybeWriteStrategy(const CliOptions& options,
                          const Strategy& strategy) {
  if (options.strategy_out.empty()) return Status::OK();
  std::ofstream out(options.strategy_out);
  if (!out) {
    return Status::Internal("cannot write '" + options.strategy_out + "'");
  }
  out << strategy.Serialize() << "\n";
  std::printf("strategy written to %s\n", options.strategy_out.c_str());
  return Status::OK();
}

int CmdQuery(const CliOptions& options) {
  if (options.positional.size() != 2) {
    return Fail("usage: stratlearn_cli query <program.dl> <atom>");
  }
  SymbolTable symbols;
  Parser parser(&symbols);
  Database db;
  RuleBase rules;
  Result<std::string> program = ReadFile(options.positional[0]);
  if (!program.ok()) return Fail(program.status().ToString());
  Status loaded = parser.LoadProgram(*program, &db, &rules);
  if (!loaded.ok()) return Fail(loaded.ToString());
  Result<Atom> atom = parser.ParseAtom(options.positional[1]);
  if (!atom.ok()) return Fail(atom.status().ToString());
  Evaluator evaluator(&db, &rules);
  Result<ProofResult> proof = evaluator.Prove(*atom, &symbols);
  if (!proof.ok()) return Fail(proof.status().ToString());
  std::printf("%s: %s (%lld reductions, %lld retrievals)\n",
              atom->ToString(symbols).c_str(),
              proof->proved ? "proved" : "not provable",
              static_cast<long long>(proof->reductions),
              static_cast<long long>(proof->retrievals));
  return proof->proved ? 0 : 2;
}

int CmdDot(const CliOptions& options) {
  if (options.positional.size() != 2) {
    return Fail("usage: stratlearn_cli dot <program.dl> <query-form>");
  }
  Result<std::unique_ptr<Loaded>> loaded =
      Load(options.positional[0], options.positional[1], "");
  if (!loaded.ok()) return FailStatus(loaded.status());
  std::printf("%s", (*loaded)->built.graph.ToDot("inference_graph").c_str());
  return 0;
}

int CmdLearnPib(const CliOptions& options) {
  if (options.positional.size() != 3) {
    return Fail(std::string("usage: stratlearn_cli learn-pib <program.dl> "
                            "<query-form> <workload.txt> [--delta= "
                            "--queries= --recovery= ") +
                kLearnFlags + "]");
  }
  Result<std::unique_ptr<Loaded>> loaded_or = Load(
      options.positional[0], options.positional[1], options.positional[2]);
  if (!loaded_or.ok()) return FailStatus(loaded_or.status());
  Loaded& loaded = **loaded_or;
  if (int rc = CheckLearnerConfig(options, nullptr); rc != 0) return rc;

  DatalogOracle oracle(&loaded.built, &loaded.db, loaded.workload);
  std::vector<double> truth = oracle.TrueMarginalProbs();
  Strategy initial = Strategy::DepthFirst(loaded.built.graph);
  PrintStrategyReport(loaded, "initial:", initial, truth);
  Result<std::unique_ptr<LearnSession>> session_or =
      LearnSession::Open(options, loaded.built.graph, "pib", truth);
  if (!session_or.ok()) return FailStatus(session_or.status());
  LearnSession& session = **session_or;
  Pib pib(&loaded.built.graph, initial, PibOptions{.delta = options.delta},
          session.observer());
  Status ran = session.RunPib(&pib, oracle, [&](const Pib& learner) {
    std::printf("  move at query %lld: %s\n",
                static_cast<long long>(learner.contexts_processed()),
                learner.moves().back().swap.ToString(loaded.built.graph)
                    .c_str());
  });
  if (!ran.ok()) return session.halted() ? 3 : Fail(ran.ToString());
  PrintStrategyReport(loaded, "learned:", pib.strategy(), truth);
  Status written = MaybeWriteStrategy(options, pib.strategy());
  if (!written.ok()) return Fail(written.ToString());
  session.Finish();
  return 0;
}

int CmdLearnPao(const CliOptions& options) {
  if (options.positional.size() != 3) {
    return Fail(std::string("usage: stratlearn_cli learn-pao <program.dl> "
                            "<query-form> <workload.txt> [--epsilon= "
                            "--delta= --theorem3 ") +
                kLearnFlags + "]");
  }
  Result<std::unique_ptr<Loaded>> loaded_or = Load(
      options.positional[0], options.positional[1], options.positional[2]);
  if (!loaded_or.ok()) return FailStatus(loaded_or.status());
  Loaded& loaded = **loaded_or;
  if (int rc = CheckLearnerConfig(options, &loaded.built.graph); rc != 0) {
    return rc;
  }

  DatalogOracle oracle(&loaded.built, &loaded.db, loaded.workload);
  std::vector<double> truth = oracle.TrueMarginalProbs();
  Result<std::unique_ptr<LearnSession>> session_or =
      LearnSession::Open(options, loaded.built.graph, "pao", truth);
  if (!session_or.ok()) return FailStatus(session_or.status());
  LearnSession& session = **session_or;
  Result<PaoResult> result = session.RunPao(oracle);
  if (!result.ok()) {
    return session.halted() ? 3 : Fail(result.status().ToString());
  }
  std::printf("sampling used %lld contexts (upsilon %s)\n",
              static_cast<long long>(result->contexts_used),
              result->upsilon_exact ? "exact" : "approximate");
  PrintStrategyReport(loaded, "learned:", result->strategy, truth);
  Status written = MaybeWriteStrategy(options, result->strategy);
  if (!written.ok()) return Fail(written.ToString());
  session.Finish();
  return 0;
}

int CmdEval(const CliOptions& options) {
  if (options.positional.size() < 3 || options.positional.size() > 4) {
    return Fail(
        "usage: stratlearn_cli eval <program.dl> <query-form> "
        "<workload.txt> [strategy-file]");
  }
  Result<std::unique_ptr<Loaded>> loaded_or = Load(
      options.positional[0], options.positional[1], options.positional[2]);
  if (!loaded_or.ok()) return FailStatus(loaded_or.status());
  Loaded& loaded = **loaded_or;

  // Telemetry only: eval runs no learner.
  Result<std::unique_ptr<LearnSession>> session_or =
      LearnSession::Open(options, loaded.built.graph, "");
  if (!session_or.ok()) return FailStatus(session_or.status());
  LearnSession& session = **session_or;
  obs::Histogram* phase_us = session.WallTimer("cli.eval_phase_us");
  obs::Counter& evaluated =
      session.registry().GetCounter("cli.strategies_evaluated");

  DatalogOracle oracle(&loaded.built, &loaded.db, loaded.workload);
  std::vector<double> truth = oracle.TrueMarginalProbs();

  Strategy strategy = Strategy::DepthFirst(loaded.built.graph);
  const char* label = "default:";
  if (options.positional.size() == 4) {
    Result<std::string> text = ReadFile(options.positional[3]);
    if (!text.ok()) return Fail(text.status().ToString());
    Result<Strategy> parsed =
        Strategy::Deserialize(loaded.built.graph, *text);
    if (!parsed.ok()) return Fail(parsed.status().ToString());
    strategy = *parsed;
    label = "given:";
  }
  {
    obs::ScopedTimer timer(phase_us);
    PrintStrategyReport(loaded, label, strategy, truth);
    evaluated.Increment();
  }

  std::vector<double> smith = SmithFactCountEstimates(loaded.built, loaded.db);
  {
    obs::ScopedTimer timer(phase_us);
    Result<UpsilonResult> smith_strategy =
        UpsilonAot(loaded.built.graph, smith);
    if (smith_strategy.ok()) {
      PrintStrategyReport(loaded, "smith:", smith_strategy->strategy, truth);
      evaluated.Increment();
    }
  }
  {
    obs::ScopedTimer timer(phase_us);
    Result<UpsilonResult> optimal = UpsilonAot(loaded.built.graph, truth);
    if (!optimal.ok()) return Fail(optimal.status().ToString());
    PrintStrategyReport(loaded, "optimal:", optimal->strategy, truth);
    evaluated.Increment();
  }
  session.Finish();
  return 0;
}

int CmdExplain(const CliOptions& options) {
  if (options.positional.size() != 3) {
    return Fail(std::string("usage: stratlearn_cli explain <program.dl> "
                            "<query-form> <workload.txt> [--learner=pib|pao "
                            "and learn-pib's or learn-pao's flags: ") +
                kLearnFlags + "]");
  }
  if (options.learner != "pib" && options.learner != "pao") {
    return Fail("--learner must be 'pib' or 'pao'");
  }
  Result<std::unique_ptr<Loaded>> loaded_or = Load(
      options.positional[0], options.positional[1], options.positional[2]);
  if (!loaded_or.ok()) return FailStatus(loaded_or.status());
  Loaded& loaded = **loaded_or;
  const InferenceGraph& graph = loaded.built.graph;
  if (int rc = CheckLearnerConfig(
          options, options.learner == "pao" ? &graph : nullptr);
      rc != 0) {
    return rc;
  }

  DatalogOracle oracle(&loaded.built, &loaded.db, loaded.workload);
  std::vector<double> truth = oracle.TrueMarginalProbs();
  Result<std::unique_ptr<LearnSession>> session_or = LearnSession::Open(
      options, graph, options.learner, truth, /*want_profiler=*/true);
  if (!session_or.ok()) return FailStatus(session_or.status());
  LearnSession& session = **session_or;

  Strategy learned;
  std::string learner_state;
  std::optional<Pib> pib;  // outlives session.Finish(), as RunPib requires
  if (options.learner == "pib") {
    pib.emplace(&graph, Strategy::DepthFirst(graph),
                PibOptions{.delta = options.delta}, session.observer());
    Status ran = session.RunPib(&*pib, oracle);
    if (!ran.ok()) return session.halted() ? 3 : Fail(ran.ToString());
    learned = pib->strategy();
    learner_state = ExplainPibState(pib->Snapshot());
  } else {
    Result<PaoResult> result = session.RunPao(oracle);
    if (!result.ok()) {
      return session.halted() ? 3 : Fail(result.status().ToString());
    }
    learned = result->strategy;
    learner_state = ExplainPaoState(graph, result->sampler);
  }

  ExplainOptions explain_options;
  explain_options.hot_share = session.profiler()->options().hot_share;
  std::printf("%s", ExplainStrategyTree(graph, learned, session.profiler(),
                                        explain_options)
                        .c_str());
  std::printf("\n%s", learner_state.c_str());
  std::printf("\n%s", session.profiler()->ReportText().c_str());
  std::printf("\nexpected cost %s (true p): %.4f\n",
              options.learner.c_str(),
              ExactExpectedCost(graph, learned, truth));
  Status written = MaybeWriteStrategy(options, learned);
  if (!written.ok()) return Fail(written.ToString());
  // The metrics summary holds wall-clock timers; skip it so explain
  // output is byte-identical across runs with the same seed.
  session.Finish(/*print_summary=*/false);
  return 0;
}

int CmdBench(int argc) {
  if (argc != 2) {
    return Fail("usage: stratlearn_cli bench (takes no arguments)");
  }
  std::printf("%s", obs::perf::RunCanonicalBench().c_str());
  return 0;
}

int CmdVerify(const CliOptions& options) {
  // Exit 1 means warnings, so a usage error or an input that cannot be
  // read exits 2.
  auto fail = [](const std::string& message) {
    Fail(message);
    return 2;
  };
  if (options.positional.empty() && options.project.empty()) {
    return fail(
        "usage: stratlearn_cli verify <files...> [--project=DIR] "
        "[--format=text|json|sarif] [--profile=FILE] "
        "[--suppressions=FILE] [--suppress-out=FILE] [--Werror]");
  }
  if (options.format != "text" && options.format != "json" &&
      options.format != "sarif") {
    return fail("--format must be 'text', 'json' or 'sarif'");
  }
  verify::DiagnosticSink sink;
  verify::ArtifactVerifier verifier(&sink);
  if (!options.profile.empty()) {
    Result<std::string> text = ReadFile(options.profile);
    if (!text.ok()) return fail(text.status().ToString());
    sink.set_file(options.profile);
    verifier.set_profile(verify::ParseArcProbProfile(*text, &sink));
  }
  if (!options.project.empty()) {
    Status walked =
        verify::VerifyProject(&verifier, options.project, &sink);
    if (!walked.ok()) return fail(walked.ToString());
  }
  for (const std::string& path : options.positional) {
    Status added = verifier.AddFile(path);
    if (!added.ok()) return fail(added.ToString());
  }
  if (!options.suppress_out.empty()) {
    // Baseline what the run found *before* any suppressions apply, so
    // regenerating a baseline does not need the old one removed first.
    std::ofstream out(options.suppress_out);
    if (!out) return fail("cannot open '" + options.suppress_out + "'");
    out << verify::RenderSuppressionBaseline(sink);
  }
  if (!options.suppressions.empty()) {
    Result<std::string> text = ReadFile(options.suppressions);
    if (!text.ok()) return fail(text.status().ToString());
    verify::SuppressionSet set =
        verify::ParseSuppressions(*text, options.suppressions, &sink);
    verify::ApplySuppressions(set, options.suppressions, &sink);
  }
  if (options.format == "json") {
    std::printf("%s\n", sink.RenderJson(options.werror).c_str());
  } else if (options.format == "sarif") {
    std::printf("%s\n", verify::RenderSarif(sink, options.werror).c_str());
  } else {
    std::printf("%s", sink.RenderText(options.werror).c_str());
  }
  return sink.ExitCode(options.werror);
}

int CmdHealth(const CliOptions& options) {
  static const char kUsage[] =
      "stratlearn_cli health <series.jsonl> --alerts=RULES "
      "[--format=text|json] [--health-out=FILE] [--recovery=POLICY]";
  if (options.positional.size() != 1) {
    std::fprintf(stderr, "usage: %s\n", kUsage);
    return 2;
  }
  return tools::RunOfflineHealth(options.positional[0], options.alerts,
                                 options.format, options.health_out,
                                 options.recovery, kUsage);
}

int CmdAudit(const CliOptions& options) {
  if (options.positional.size() != 1) {
    std::fprintf(stderr,
                 "usage: stratlearn_cli audit <audit.jsonl> "
                 "[--format=text|json]\n");
    return 2;
  }
  return tools::RunOfflineAudit(options.positional[0], options.format);
}

int CmdSeries(const CliOptions& options) {
  if (options.positional.size() != 1 || options.format != "text") {
    std::fprintf(stderr, "usage: stratlearn_cli series <series.jsonl>\n");
    return 2;
  }
  return tools::RunSeriesReport(options.positional[0]);
}

/// Replays each JSONL trace of `paths` into a profiler of its own, for
/// `trace` and `trace-diff`. The events replayed and skipped per file go
/// to stderr, so stdout stays a pure report. Returns 0, or 2 with the
/// error printed for a file that cannot be read or parsed or that holds
/// no replayable event (V-T001): a report over it is vacuous, and an
/// empty baseline would gate nothing.
int ReplayTraces(const std::vector<std::string>& paths, double delta,
                 std::vector<obs::StrategyProfiler>* profilers) {
  auto fail = [](const Status& status) {
    std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
    return 2;
  };
  verify::DiagnosticSink sink;
  for (const std::string& path : paths) {
    obs::TraceReader reader(
        &profilers->emplace_back(obs::ProfilerOptions{.delta = delta}));
    std::ifstream in(path);
    if (!in) return fail(Status::NotFound("cannot open '" + path + "'"));
    Status replayed = reader.ReplayStream(in);
    if (!replayed.ok()) {
      return fail(Status::InvalidArgument(path + ": " + replayed.message()));
    }
    std::fprintf(stderr, "%s: %lld events replayed, %lld skipped\n",
                 path.c_str(), static_cast<long long>(reader.events()),
                 static_cast<long long>(reader.skipped()));
    if (reader.events() == 0) {
      sink.set_file(path);
      sink.Error("V-T001", "",
                 reader.skipped() > 0
                     ? StrFormat("trace has no replayable events (%lld "
                                 "lines skipped); a report over it is "
                                 "vacuous",
                                 static_cast<long long>(reader.skipped()))
                     : "trace is empty; a report over it is vacuous",
                 "record the trace with `stratlearn_cli "
                 "--trace-out=*.jsonl`, or check the path");
    }
  }
  if (!sink.HasBlocking()) return 0;
  std::fprintf(stderr, "%s", sink.RenderText().c_str());
  return 2;
}

int CmdTrace(const CliOptions& options) {
  if (options.positional.size() != 1 ||
      (options.format != "text" && options.format != "json")) {
    std::fprintf(stderr,
                 "usage: stratlearn_cli trace <trace.jsonl> "
                 "[--format=text|json] [--delta=D]\n");
    return 2;
  }
  if (!(options.delta > 0.0 && options.delta < 1.0)) {
    // The p^ half-widths are Hoeffding deviations at this confidence.
    std::fprintf(stderr, "error: --delta must lie in (0, 1)\n");
    return 2;
  }
  std::vector<obs::StrategyProfiler> profiler;
  if (int rc = ReplayTraces(options.positional, options.delta, &profiler);
      rc != 0) {
    return rc;
  }
  std::printf("%s", options.format == "json"
                        ? (profiler[0].ReportJson() + "\n").c_str()
                        : profiler[0].ReportText().c_str());
  return 0;
}

int CmdTraceDiff(const CliOptions& options) {
  if (options.positional.size() != 2 || options.format != "text") {
    std::fprintf(stderr,
                 "usage: stratlearn_cli trace-diff <baseline.jsonl> "
                 "<candidate.jsonl>\n");
    return 2;
  }
  std::vector<obs::StrategyProfiler> runs;
  if (int rc = ReplayTraces(options.positional, options.delta, &runs);
      rc != 0) {
    return rc;
  }
  obs::ProfileDiff diff =
      DiffProfiles(runs[0], runs[1], obs::ProfileDiffOptions{});
  std::printf("%s", diff.ReportText().c_str());
  return diff.has_regression ? 1 : 0;
}

int Main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(
        stderr,
        "usage: stratlearn_cli "
        "<query|dot|learn-pib|learn-pao|eval|explain|bench|health|audit|"
        "series|trace|trace-diff|verify> ...\n");
    return 1;
  }
  std::string command = argv[1];
  Result<CliOptions> parsed = ParseArgs(argc, argv);
  if (!parsed.ok()) {
    Fail(parsed.status().message());
    // The offline reports' exit code 1 means findings (firing alerts,
    // audit findings, a regression, an unreadable series), and verify's
    // means warnings.
    const bool report = command == "health" || command == "audit" ||
                        command == "series" || command == "trace" ||
                        command == "trace-diff" || command == "verify";
    return report ? 2 : 1;
  }
  const CliOptions& options = *parsed;
  if (command == "query") return CmdQuery(options);
  if (command == "dot") return CmdDot(options);
  if (command == "learn-pib") return CmdLearnPib(options);
  if (command == "learn-pao") return CmdLearnPao(options);
  if (command == "eval") return CmdEval(options);
  if (command == "explain") return CmdExplain(options);
  if (command == "bench") return CmdBench(argc);
  if (command == "health") return CmdHealth(options);
  if (command == "audit") return CmdAudit(options);
  if (command == "series") return CmdSeries(options);
  if (command == "trace") return CmdTrace(options);
  if (command == "trace-diff") return CmdTraceDiff(options);
  if (command == "verify") return CmdVerify(options);
  return Fail("unknown command '" + command + "'");
}

}  // namespace
}  // namespace stratlearn

int main(int argc, char** argv) { return stratlearn::Main(argc, argv); }
