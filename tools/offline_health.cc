#include "offline_health.h"

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include "obs/health/monitor.h"
#include "obs/health/series_io.h"
#include "robust/recovery/controller.h"
#include "util/status.h"
#include "util/string_util.h"
#include "verify/diagnostics.h"
#include "verify/verify.h"

namespace stratlearn::tools {

namespace {

/// Fixed significant digits, so one file always renders the same text.
std::string Num(double v) { return FormatDouble(v, 6); }

void RenderWindow(const obs::TimeSeriesWindow& w, std::string* out) {
  *out += StrFormat("window %lld [%lld, %lld)\n",
                    static_cast<long long>(w.index),
                    static_cast<long long>(w.start_us),
                    static_cast<long long>(w.end_us));
  if (!w.cumulative.counters.empty()) {
    *out += "  counters:\n";
    for (const auto& [name, total] : w.cumulative.counters) {
      const int64_t delta = w.counter_deltas.at(name);
      *out += StrFormat(
          "    %-28s total=%-10s delta=%-8s rate_per_s=%s\n", name.c_str(),
          Num(static_cast<double>(total)).c_str(),
          Num(static_cast<double>(delta)).c_str(),
          Num(w.Rate(delta)).c_str());
    }
  }
  if (!w.cumulative.gauges.empty()) {
    *out += "  gauges:\n";
    for (const auto& [name, value] : w.cumulative.gauges) {
      *out += StrFormat("    %-28s %s\n", name.c_str(), Num(value).c_str());
    }
  }
  if (!w.histogram_deltas.empty()) {
    *out += "  histograms:\n";
    for (const auto& [name, h] : w.histogram_deltas) {
      *out += StrFormat("    %-28s count+=%-8s sum+=%-12s mean=%s\n",
                        name.c_str(),
                        Num(static_cast<double>(h.count)).c_str(),
                        Num(h.sum).c_str(), Num(h.Mean()).c_str());
    }
  }
  if (!w.arcs.empty()) {
    *out += "  arcs:\n";
    for (const obs::ArcWindowStats& a : w.arcs) {
      *out += StrFormat(
          "    arc %-4lld attempts=%-7s unblocked=%-7s p_hat=%-10s "
          "mean_cost=%s\n",
          static_cast<long long>(a.arc),
          Num(static_cast<double>(a.attempts)).c_str(),
          Num(static_cast<double>(a.unblocked)).c_str(),
          Num(a.PHat()).c_str(), Num(a.MeanCost()).c_str());
    }
  }
  if (!w.drift.empty()) {
    *out += "  drift:\n";
    for (const obs::DriftEvent& d : w.drift) {
      std::string series =
          StrFormat("arc %lld", static_cast<long long>(d.arc));
      *out += StrFormat(
          "    %-10s %-24s %-9s statistic=%-12s reference=%-12s "
          "threshold=%s\n",
          d.detector.c_str(), series.c_str(), d.state.c_str(),
          Num(d.statistic).c_str(), Num(d.reference).c_str(),
          Num(d.threshold).c_str());
    }
  }
  if (!w.alerts.empty()) {
    *out += "  alerts:\n";
    for (const obs::AlertEvent& a : w.alerts) {
      *out += StrFormat(
          "    %-24s %-9s severity=%-8s %s value=%-12s threshold=%s\n",
          a.rule.c_str(), a.state.c_str(), a.severity.c_str(),
          a.metric.c_str(), Num(a.value).c_str(), Num(a.threshold).c_str());
    }
  }
}

}  // namespace

int RunSeriesReport(const std::string& series_path) {
  std::ifstream in(series_path);
  if (!in) {
    std::fprintf(stderr, "error: cannot open '%s'\n", series_path.c_str());
    return 1;
  }
  obs::health::LoadedSeries series;
  Status loaded = obs::health::LoadTimeSeries(in, &series);
  if (!loaded.ok()) {
    std::fprintf(stderr, "error: %s: %s\n", series_path.c_str(),
                 loaded.ToString().c_str());
    return 2;
  }
  std::string out = StrFormat(
      "interval_us=%lld windows_retained=%zu windows_closed=%lld "
      "windows_evicted=%lld\n",
      static_cast<long long>(series.interval_us), series.windows.size(),
      static_cast<long long>(series.windows_closed),
      static_cast<long long>(series.windows_evicted));
  if (series.windows_evicted > 0) {
    out += StrFormat(
        "note: the %lld oldest windows were evicted from the ring and are "
        "not in this report\n",
        static_cast<long long>(series.windows_evicted));
  }
  for (const obs::TimeSeriesWindow& w : series.windows) {
    out += "\n";
    RenderWindow(w, &out);
  }
  std::fputs(out.c_str(), stdout);
  return 0;
}

int RunOfflineHealth(const std::string& series_path,
                     const std::string& alerts_path,
                     const std::string& format,
                     const std::string& report_out,
                     const std::string& recovery_path, const char* usage) {
  if (alerts_path.empty()) {
    std::fprintf(stderr, "usage: %s\n", usage);
    return 2;
  }
  if (format != "text" && format != "json") {
    std::fprintf(stderr, "error: --format must be 'text' or 'json'\n");
    return 2;
  }
  std::ifstream rules_in(alerts_path);
  if (!rules_in) {
    std::fprintf(stderr, "error: cannot open '%s'\n", alerts_path.c_str());
    return 2;
  }
  std::ostringstream rules_buffer;
  rules_buffer << rules_in.rdbuf();
  verify::DiagnosticSink sink;
  sink.set_file(alerts_path);
  obs::health::AlertRuleSet rules =
      verify::ParseAlertRules(rules_buffer.str(), &sink);
  // Findings always render (warnings like V-AL005 included); only
  // error-level ones block the replay.
  if (!sink.empty()) std::fprintf(stderr, "%s", sink.RenderText().c_str());
  if (sink.HasBlocking()) return 2;

  std::ifstream in(series_path);
  if (!in) {
    std::fprintf(stderr, "error: cannot open '%s'\n", series_path.c_str());
    return 2;
  }
  obs::health::LoadedSeries series;
  Status loaded = obs::health::LoadTimeSeries(in, &series);
  if (!loaded.ok()) {
    std::fprintf(stderr, "error: %s: %s\n", series_path.c_str(),
                 loaded.ToString().c_str());
    return 2;
  }

  // The controller must outlive the monitor's hook, so it sits on the
  // stack whether or not --recovery was given.
  std::unique_ptr<robust::RecoveryController> controller;
  if (!recovery_path.empty()) {
    std::ifstream policy_in(recovery_path);
    if (!policy_in) {
      std::fprintf(stderr, "error: cannot open '%s'\n",
                   recovery_path.c_str());
      return 2;
    }
    std::ostringstream policy_buffer;
    policy_buffer << policy_in.rdbuf();
    verify::DiagnosticSink policy_sink;
    policy_sink.set_file(recovery_path);
    robust::RecoveryPolicy policy =
        verify::ParseRecoveryPolicy(policy_buffer.str(), &policy_sink);
    if (!policy_sink.empty()) {
      std::fprintf(stderr, "%s", policy_sink.RenderText().c_str());
    }
    if (policy_sink.HasBlocking()) return 2;
    controller =
        std::make_unique<robust::RecoveryController>(std::move(policy));
  }

  obs::health::HealthMonitor monitor(std::move(rules),
                                     obs::health::HealthOptions{});
  // Decide-only: the offline replay records which rules would fire,
  // matching the live transcript, without any learner state to act on.
  if (controller != nullptr) {
    monitor.set_recovery_hook(controller->Hook());
  }
  for (const obs::TimeSeriesWindow& window : series.windows) {
    monitor.OnWindow(window);
  }
  std::string report =
      format == "json" ? monitor.RenderJson() : monitor.RenderText();
  std::printf("%s", report.c_str());
  if (!report_out.empty()) {
    std::ofstream out(report_out);
    out << monitor.RenderJson();
    out.flush();
    if (!out) {
      std::fprintf(stderr, "error: cannot write '%s'\n",
                   report_out.c_str());
      return 2;
    }
  }
  return monitor.AnyFiring() ? 1 : 0;
}

}  // namespace stratlearn::tools
