// stats_report: render a "stratlearn-timeseries v1" file (written by
// stratlearn_cli --timeseries-out) as a deterministic report.
//
//   stats_report <timeseries.jsonl> [--format=text|json] [--last=N]
//
// --format=text (default) prints a per-window table: counter deltas and
// rates, histogram activity, and the windowed per-arc p-hat / mean-cost
// series. --format=json re-emits the series as one normalized JSON
// document (stable key order, fixed precision), convenient for diffing
// two runs or feeding a plotting script. --last=N keeps only the most
// recent N windows.
//
// Output is a pure function of the input file: same file, same bytes —
// the CI determinism check renders one fake-clock run twice and cmps.
//
// Exit codes: 0 report written, 1 cannot read file, 2 usage error
// (unknown flag, bad value) or the file is not a well-formed
// stratlearn-timeseries-v1 series. The file is read through the same
// loader as `stratlearn_cli health` (obs::health::LoadTimeSeries), so
// both tools accept exactly the same series, and usage mistakes never
// look like a clean (or merely empty) run.

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "obs/health/series_io.h"
#include "obs/json_reader.h"
#include "obs/json_writer.h"
#include "util/string_util.h"

namespace stratlearn {
namespace {

using obs::JsonValue;
using obs::ReadJsonInt;
using obs::ReadJsonString;

int Usage() {
  std::fprintf(stderr,
               "usage: stats_report <timeseries.jsonl> "
               "[--format=text|json] [--last=N]\n");
  return 2;
}

/// A series the health loader accepted: its header fields, plus each
/// window line kept as a DOM for rendering. The report re-renders the
/// fields it knows and ignores unknown keys, so schema-compatible
/// additions don't break old reports.
struct SeriesFile {
  obs::health::LoadedSeries checked;
  std::vector<JsonValue> windows;
};

/// Number rendering for the report: fixed significant digits so text
/// and JSON output are byte-stable for identical input.
std::string Num(double v) { return FormatDouble(v, 6); }

double NumberOr(const JsonValue* v, double fallback) {
  return (v != nullptr && v->kind == JsonValue::Kind::kNumber) ? v->number
                                                               : fallback;
}

int Load(const std::string& path, SeriesFile* out) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "error: cannot open '%s'\n", path.c_str());
    return 1;
  }
  std::stringstream text;
  text << in.rdbuf();
  Status loaded = obs::health::LoadTimeSeries(text, &out->checked);
  if (!loaded.ok()) {
    std::fprintf(stderr, "error: %s: %s\n", path.c_str(),
                 loaded.ToString().c_str());
    return 2;
  }
  // Every line passed the loader: the first non-blank one is the
  // header, each later one a window object.
  text.clear();
  text.seekg(0);
  std::string line;
  bool header = true;
  while (std::getline(text, line)) {
    if (Trim(line).empty()) continue;
    if (std::exchange(header, false)) continue;
    (void)ParseJson(line, &out->windows.emplace_back());
  }
  return 0;
}

void RenderTextWindow(const JsonValue& w, std::string* out) {
  int64_t index = 0, start = 0, end = 0;
  (void)ReadJsonInt(w, "window", &index);
  (void)ReadJsonInt(w, "start_us", &start);
  (void)ReadJsonInt(w, "end_us", &end);
  *out += StrFormat("window %lld [%lld, %lld)\n",
                    static_cast<long long>(index),
                    static_cast<long long>(start),
                    static_cast<long long>(end));
  if (const JsonValue* counters = w.Get("counters");
      counters != nullptr && !counters->object.empty()) {
    *out += "  counters:\n";
    for (const auto& [name, c] : counters->object) {
      *out += StrFormat(
          "    %-28s total=%-10s delta=%-8s rate_per_s=%s\n", name.c_str(),
          Num(NumberOr(c.Get("total"), 0)).c_str(),
          Num(NumberOr(c.Get("delta"), 0)).c_str(),
          Num(NumberOr(c.Get("rate_per_s"), 0)).c_str());
    }
  }
  if (const JsonValue* gauges = w.Get("gauges");
      gauges != nullptr && !gauges->object.empty()) {
    *out += "  gauges:\n";
    for (const auto& [name, g] : gauges->object) {
      *out += StrFormat("    %-28s %s\n", name.c_str(),
                        Num(NumberOr(&g, 0)).c_str());
    }
  }
  if (const JsonValue* histograms = w.Get("histograms");
      histograms != nullptr && !histograms->object.empty()) {
    *out += "  histograms:\n";
    for (const auto& [name, h] : histograms->object) {
      *out += StrFormat(
          "    %-28s count+=%-8s sum+=%-12s mean=%s\n", name.c_str(),
          Num(NumberOr(h.Get("count_delta"), 0)).c_str(),
          Num(NumberOr(h.Get("sum_delta"), 0)).c_str(),
          Num(NumberOr(h.Get("mean_delta"), 0)).c_str());
    }
  }
  if (const JsonValue* arcs = w.Get("arcs");
      arcs != nullptr && !arcs->array.empty()) {
    *out += "  arcs:\n";
    for (const JsonValue& a : arcs->array) {
      *out += StrFormat(
          "    arc %-4lld attempts=%-7s unblocked=%-7s p_hat=%-10s "
          "mean_cost=%s\n",
          static_cast<long long>(NumberOr(a.Get("arc"), -1)),
          Num(NumberOr(a.Get("attempts"), 0)).c_str(),
          Num(NumberOr(a.Get("unblocked"), 0)).c_str(),
          Num(NumberOr(a.Get("p_hat"), 0)).c_str(),
          Num(NumberOr(a.Get("mean_cost"), 0)).c_str());
    }
  }
  // Health annotations (present only on windows where the monitor saw a
  // transition; written by the drift detectors / alert engine).
  if (const JsonValue* drift = w.Get("drift");
      drift != nullptr && !drift->array.empty()) {
    *out += "  drift:\n";
    for (const JsonValue& d : drift->array) {
      std::string series_id =
          ReadJsonString(d, "detector") == "rate"
              ? ReadJsonString(d, "counter")
              : StrFormat("arc %lld", static_cast<long long>(
                                          NumberOr(d.Get("arc"), -1)));
      *out += StrFormat(
          "    %-10s %-24s %-9s statistic=%-12s reference=%-12s "
          "threshold=%s\n",
          ReadJsonString(d, "detector").c_str(), series_id.c_str(),
          ReadJsonString(d, "state").c_str(),
          Num(NumberOr(d.Get("statistic"), 0)).c_str(),
          Num(NumberOr(d.Get("reference"), 0)).c_str(),
          Num(NumberOr(d.Get("threshold"), 0)).c_str());
    }
  }
  if (const JsonValue* alerts = w.Get("alerts");
      alerts != nullptr && !alerts->array.empty()) {
    *out += "  alerts:\n";
    for (const JsonValue& a : alerts->array) {
      *out += StrFormat(
          "    %-24s %-9s severity=%-8s %s value=%-12s threshold=%s\n",
          ReadJsonString(a, "rule").c_str(),
          ReadJsonString(a, "state").c_str(),
          ReadJsonString(a, "severity").c_str(),
          ReadJsonString(a, "metric").c_str(),
          Num(NumberOr(a.Get("value"), 0)).c_str(),
          Num(NumberOr(a.Get("threshold"), 0)).c_str());
    }
  }
}

// The report deliberately never echoes the input path: rendering is a
// pure function of the file's *content*, so two runs that produced
// byte-identical series render byte-identically whatever the files were
// named (the CI determinism gate compares exactly that).
std::string RenderText(const SeriesFile& series) {
  const obs::health::LoadedSeries& header = series.checked;
  std::string out;
  out += StrFormat(
      "interval_us=%lld windows_retained=%zu windows_closed=%lld "
      "windows_evicted=%lld\n",
      static_cast<long long>(header.interval_us), series.windows.size(),
      static_cast<long long>(header.windows_closed),
      static_cast<long long>(header.windows_evicted));
  if (header.windows_evicted > 0) {
    out += StrFormat(
        "note: the %lld oldest windows were evicted from the ring and are "
        "not in this report\n",
        static_cast<long long>(header.windows_evicted));
  }
  for (const JsonValue& w : series.windows) {
    out += "\n";
    RenderTextWindow(w, &out);
  }
  return out;
}

/// Re-serializes one parsed JSON value with this tool's writer, giving
/// both runs of the determinism check identical formatting regardless
/// of who produced the file.
void EmitValue(const JsonValue& v, obs::JsonWriter* w) {
  switch (v.kind) {
    case JsonValue::Kind::kNull:
      w->Null();
      break;
    case JsonValue::Kind::kBool:
      w->Value(v.boolean);
      break;
    case JsonValue::Kind::kNumber:
      w->Value(v.number);
      break;
    case JsonValue::Kind::kString:
      w->Value(std::string_view(v.string));
      break;
    case JsonValue::Kind::kArray:
      w->BeginArray();
      for (const JsonValue& e : v.array) EmitValue(e, w);
      w->EndArray();
      break;
    case JsonValue::Kind::kObject:
      w->BeginObject();
      for (const auto& [k, e] : v.object) {
        w->Key(k);
        EmitValue(e, w);
      }
      w->EndObject();
      break;
  }
}

std::string RenderJson(const SeriesFile& series) {
  obs::JsonWriter w;
  w.BeginObject();
  w.Key("schema").Value("stratlearn-stats-report-v1");
  w.Key("interval_us").Value(series.checked.interval_us);
  w.Key("windows_retained").Value(static_cast<int64_t>(series.windows.size()));
  w.Key("windows_closed").Value(series.checked.windows_closed);
  w.Key("windows_evicted").Value(series.checked.windows_evicted);
  w.Key("windows").BeginArray();
  for (const JsonValue& window : series.windows) EmitValue(window, &w);
  w.EndArray();
  w.EndObject();
  return w.Take() + "\n";
}

int Main(int argc, char** argv) {
  std::string path;
  std::string format = "text";
  int64_t last = 0;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (StartsWith(arg, "--format=")) {
      format = arg.substr(9);
    } else if (StartsWith(arg, "--last=")) {
      std::string error;
      if (!ParseFlagValue(arg, &last, &error)) {
        std::fprintf(stderr, "error: %s\n", error.c_str());
        return 2;
      }
      if (last <= 0) return Usage();
    } else if (StartsWith(arg, "--")) {
      return Usage();
    } else if (path.empty()) {
      path = arg;
    } else {
      return Usage();
    }
  }
  if (path.empty()) return Usage();
  if (format != "text" && format != "json") return Usage();

  SeriesFile series;
  if (int rc = Load(path, &series); rc != 0) return rc;
  if (last > 0 && static_cast<size_t>(last) < series.windows.size()) {
    series.windows.erase(series.windows.begin(),
                         series.windows.end() - last);
  }
  std::string report =
      format == "json" ? RenderJson(series) : RenderText(series);
  std::fputs(report.c_str(), stdout);
  return 0;
}

}  // namespace
}  // namespace stratlearn

int main(int argc, char** argv) { return stratlearn::Main(argc, argv); }
