// trace_report — offline analytics over recorded JSONL event traces.
//
// Single-trace mode:
//   trace_report <trace.jsonl> [--delta=D] [--hot-share=H] [--json]
//       Replays the trace through the StrategyProfiler and prints the
//       same aggregated per-arc attribution report the live CLI
//       produces (text, or the JSON object with --json).
//
// Diff mode (the bench regression gate):
//   trace_report --baseline=a.jsonl --candidate=b.jsonl
//                [--threshold=R] [--abs-threshold=A] [--min-attempts=N]
//       Aggregates both traces and compares them arc by arc. A
//       regression fires when the candidate's mean traversal cost for
//       an arc exceeds the baseline's by more than the relative
//       threshold (default 10%) and the absolute threshold, with both
//       runs having at least --min-attempts samples of that arc.
//
// Exit codes: 0 = no regression, 1 = regression detected (diff mode
// only), 2 = usage / IO / parse error. Traces are the JSONL form
// written by `stratlearn_cli --trace-out=*.jsonl` (one JSON object per
// line); unknown event types are skipped so newer traces stay readable.

#include <cstdio>
#include <fstream>
#include <string>

#include "obs/profiler.h"
#include "obs/trace_reader.h"
#include "util/string_util.h"
#include "verify/diagnostics.h"

namespace stratlearn {
namespace {

constexpr int kExitOk = 0;
constexpr int kExitRegression = 1;
constexpr int kExitError = 2;

struct Options {
  std::string trace;      // single-trace mode
  std::string baseline;   // diff mode
  std::string candidate;  // diff mode
  double delta = 0.05;
  double hot_share = 0.10;
  double threshold = 0.10;
  double abs_threshold = 1e-9;
  int64_t min_attempts = 10;
  bool json = false;
};

int Usage() {
  std::fprintf(
      stderr,
      "usage: trace_report <trace.jsonl> [--delta=D --hot-share=H --json]\n"
      "       trace_report --baseline=a.jsonl --candidate=b.jsonl\n"
      "                    [--threshold=R --abs-threshold=A "
      "--min-attempts=N]\n");
  return kExitError;
}

int Fail(const std::string& message) {
  std::fprintf(stderr, "error: %s\n", message.c_str());
  return kExitError;
}

/// Replays `path` into `profiler`; reports events replayed and skipped
/// on stderr so stdout stays a pure report. A trace with zero replayable
/// events is diagnosed into `sink` (V-T001): an empty baseline would
/// make every comparison vacuous, silently gating nothing.
Status LoadTrace(const std::string& path, obs::StrategyProfiler* profiler,
                 verify::DiagnosticSink* sink) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot open '" + path + "'");
  obs::TraceReader reader(profiler);
  Status replayed = reader.ReplayStream(in);
  if (!replayed.ok()) {
    return Status::InvalidArgument(path + ": " + replayed.message());
  }
  std::fprintf(stderr, "%s: %lld events replayed, %lld skipped\n",
               path.c_str(), static_cast<long long>(reader.events()),
               static_cast<long long>(reader.skipped()));
  if (reader.events() == 0) {
    sink->set_file(path);
    sink->Error("V-T001", "",
                reader.skipped() > 0
                    ? StrFormat("trace has no replayable events (%lld "
                                "lines skipped); a report over it is "
                                "vacuous",
                                static_cast<long long>(reader.skipped()))
                    : "trace is empty; a report over it is vacuous",
                "record the trace with `stratlearn_cli "
                "--trace-out=*.jsonl`, or check the path");
  }
  return Status::OK();
}

/// Renders `sink` to stderr and returns the error exit code. Call only
/// when the sink has blocking findings.
int FailDiagnostics(const verify::DiagnosticSink& sink) {
  std::fprintf(stderr, "%s", sink.RenderText().c_str());
  return kExitError;
}

int RunSingle(const Options& options) {
  obs::StrategyProfiler profiler(
      obs::ProfilerOptions{options.delta, options.hot_share});
  verify::DiagnosticSink sink;
  Status loaded = LoadTrace(options.trace, &profiler, &sink);
  if (!loaded.ok()) return Fail(loaded.ToString());
  if (sink.HasBlocking()) return FailDiagnostics(sink);
  std::string report =
      options.json ? profiler.ReportJson() + "\n" : profiler.ReportText();
  std::printf("%s", report.c_str());
  return kExitOk;
}

int RunDiff(const Options& options) {
  obs::ProfilerOptions profiler_options{options.delta, options.hot_share};
  obs::StrategyProfiler baseline(profiler_options);
  obs::StrategyProfiler candidate(profiler_options);
  verify::DiagnosticSink sink;
  Status loaded = LoadTrace(options.baseline, &baseline, &sink);
  if (!loaded.ok()) return Fail(loaded.ToString());
  loaded = LoadTrace(options.candidate, &candidate, &sink);
  if (!loaded.ok()) return Fail(loaded.ToString());
  if (sink.HasBlocking()) return FailDiagnostics(sink);

  obs::ProfileDiffOptions diff_options;
  diff_options.rel_threshold = options.threshold;
  diff_options.abs_threshold = options.abs_threshold;
  diff_options.min_attempts = options.min_attempts;
  obs::ProfileDiff diff = DiffProfiles(baseline, candidate, diff_options);
  std::printf("%s", diff.ReportText().c_str());
  return diff.has_regression ? kExitRegression : kExitOk;
}

int Main(int argc, char** argv) {
  Options options;
  std::string error;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    bool ok = true;
    if (StartsWith(arg, "--baseline=")) {
      options.baseline = arg.substr(11);
    } else if (StartsWith(arg, "--candidate=")) {
      options.candidate = arg.substr(12);
    } else if (StartsWith(arg, "--delta=")) {
      ok = ParseFlagValue(arg, &options.delta, &error);
    } else if (StartsWith(arg, "--hot-share=")) {
      ok = ParseFlagValue(arg, &options.hot_share, &error);
    } else if (StartsWith(arg, "--threshold=")) {
      ok = ParseFlagValue(arg, &options.threshold, &error);
    } else if (StartsWith(arg, "--abs-threshold=")) {
      ok = ParseFlagValue(arg, &options.abs_threshold, &error);
    } else if (StartsWith(arg, "--min-attempts=")) {
      ok = ParseFlagValue(arg, &options.min_attempts, &error);
    } else if (arg == "--json") {
      options.json = true;
    } else if (StartsWith(arg, "--")) {
      std::fprintf(stderr, "error: unknown flag '%s'\n", arg.c_str());
      return Usage();
    } else if (options.trace.empty()) {
      options.trace = arg;
    } else {
      return Usage();
    }
    if (!ok) return Fail(error);
  }

  bool diff_mode = !options.baseline.empty() || !options.candidate.empty();
  if (diff_mode) {
    if (options.baseline.empty() || options.candidate.empty() ||
        !options.trace.empty()) {
      return Usage();
    }
    return RunDiff(options);
  }
  if (options.trace.empty()) return Usage();
  return RunSingle(options);
}

}  // namespace
}  // namespace stratlearn

int main(int argc, char** argv) { return stratlearn::Main(argc, argv); }
