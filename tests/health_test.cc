// Tests for the obs/health stack: the drift detector (Hoeffding p-hat
// change test), the alert engine's firing/resolved state machine, the
// HealthMonitor's determinism, series round-tripping through the JSONL
// serialization, trace replay of drift/alert events, and the
// DriftingOracle that feeds the bench workload.

#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/health/alerts.h"
#include "obs/health/drift.h"
#include "obs/health/monitor.h"
#include "obs/health/series_io.h"
#include "obs/json_reader.h"
#include "obs/metrics.h"
#include "obs/sinks.h"
#include "obs/timeseries.h"
#include "obs/trace_reader.h"
#include "util/rng.h"
#include "workload/synthetic_oracle.h"

namespace stratlearn {
namespace {

using obs::AlertEvent;
using obs::ArcWindowStats;
using obs::DriftEvent;
using obs::MetricsRegistry;
using obs::TimeSeriesCollector;
using obs::TimeSeriesWindow;
using obs::health::AlertEngine;
using obs::health::AlertRule;
using obs::health::AlertRuleSet;
using obs::health::DriftDetector;
using obs::health::DriftOptions;
using obs::health::HealthMonitor;
using obs::health::HealthOptions;
using obs::health::MetricSelector;
using obs::health::ParseMetricSelector;

/// Builds a synthetic closed window: one arc series plus optional
/// counter deltas, 100us cadence.
TimeSeriesWindow Window(int64_t index, ArcWindowStats arc) {
  TimeSeriesWindow w;
  w.index = index;
  w.start_us = index * 100;
  w.end_us = (index + 1) * 100;
  w.arcs.push_back(arc);
  return w;
}

ArcWindowStats Arc(uint32_t arc, int64_t attempts, int64_t unblocked,
                   double mean_cost) {
  ArcWindowStats a;
  a.arc = arc;
  a.attempts = attempts;
  a.unblocked = unblocked;
  a.cost = mean_cost * static_cast<double>(attempts);
  return a;
}

// ---------------------------------------------------------------- drift

TEST(DriftDetectorTest, PHatStepChangeDetectedThenCleared) {
  DriftDetector detector(DriftOptions{});
  // Stationary regime: p-hat 0.8 over 100 attempts per window.
  std::vector<DriftEvent> events;
  for (int64_t i = 0; i < 8; ++i) {
    events = detector.Observe(Window(i, Arc(0, 100, 80, 1.0)));
    EXPECT_TRUE(events.empty()) << "false positive in window " << i;
  }
  // Step change: p-hat drops to 0.2 — far outside the Hoeffding band.
  events = detector.Observe(Window(8, Arc(0, 100, 20, 1.0)));
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].detector, "p_hat");
  EXPECT_EQ(events[0].state, "detected");
  EXPECT_EQ(events[0].arc, 0);
  EXPECT_EQ(events[0].window, 8);
  EXPECT_NEAR(events[0].statistic, 0.2, 1e-12);
  EXPECT_NEAR(events[0].reference, 0.8, 1e-12);
  EXPECT_EQ(detector.ActiveCount(), 1);
  // The detector re-baselines on detection: once the series is stable
  // in the new regime it clears instead of alarming forever.
  events = detector.Observe(Window(9, Arc(0, 100, 20, 1.0)));
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].state, "cleared");
  EXPECT_EQ(detector.ActiveCount(), 0);

  std::vector<DriftDetector::SeriesSummary> summaries =
      detector.Summaries();
  ASSERT_FALSE(summaries.empty());
  EXPECT_EQ(summaries[0].detector, "p_hat");
  EXPECT_EQ(summaries[0].detections, 1);
  EXPECT_FALSE(summaries[0].active);
}

TEST(DriftDetectorTest, StationarySeriesStaysQuiet) {
  DriftDetector detector(DriftOptions{});
  for (int64_t i = 0; i < 50; ++i) {
    // Mild binomial-scale wobble around 0.5 that Hoeffding must absorb.
    int64_t unblocked = 50 + (i % 3) - 1;
    EXPECT_TRUE(
        detector.Observe(Window(i, Arc(0, 100, unblocked, 1.0))).empty())
        << "false positive in window " << i;
  }
  EXPECT_EQ(detector.ActiveCount(), 0);
}

TEST(DriftDetectorTest, MinAttemptsGatesThePHatTest) {
  DriftDetector detector(DriftOptions{});
  // Wild swings, but only 10 attempts per window (< min_attempts=32):
  // the deviation bound is vacuous there, so the test must not run.
  for (int64_t i = 0; i < 30; ++i) {
    int64_t unblocked = (i % 2 == 0) ? 10 : 0;
    EXPECT_TRUE(
        detector.Observe(Window(i, Arc(0, 10, unblocked, 1.0))).empty());
  }
  EXPECT_EQ(detector.ActiveCount(), 0);
}

// ---------------------------------------------------------------- alerts

AlertRule Rule(const std::string& id, const std::string& selector,
               const std::string& comparator, double threshold,
               int64_t for_windows = 1) {
  AlertRule r;
  r.id = id;
  r.metric = selector;
  r.selector = ParseMetricSelector(selector);
  EXPECT_NE(r.selector.kind, MetricSelector::Kind::kInvalid) << selector;
  r.comparator = comparator;
  r.threshold = threshold;
  r.for_windows = for_windows;
  return r;
}

TEST(AlertEngineTest, FiresAfterForWindowsAndResolves) {
  AlertRuleSet rules;
  rules.rules.push_back(Rule("hot", "counter_delta:qp.queries", ">", 10.0,
                             /*for_windows=*/2));
  AlertEngine engine(std::move(rules), nullptr);

  auto window_with = [](int64_t index, int64_t delta) {
    TimeSeriesWindow w;
    w.index = index;
    w.start_us = index * 100;
    w.end_us = (index + 1) * 100;
    w.counter_deltas["qp.queries"] = delta;
    return w;
  };
  // First breach: streak 1 of 2, no transition yet.
  EXPECT_TRUE(engine.Evaluate(window_with(0, 20), 0).empty());
  EXPECT_FALSE(engine.AnyFiring());
  // Second consecutive breach: fires.
  std::vector<AlertEvent> events = engine.Evaluate(window_with(1, 20), 0);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].rule, "hot");
  EXPECT_EQ(events[0].state, "firing");
  EXPECT_EQ(events[0].metric, "counter_delta:qp.queries");
  EXPECT_DOUBLE_EQ(events[0].value, 20.0);
  EXPECT_EQ(events[0].for_windows, 2);
  EXPECT_TRUE(engine.AnyFiring());
  EXPECT_EQ(engine.FiringCount(), 1);
  // Still breached: no duplicate transition.
  EXPECT_TRUE(engine.Evaluate(window_with(2, 20), 0).empty());
  // Back under threshold: resolves.
  events = engine.Evaluate(window_with(3, 0), 0);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].state, "resolved");
  EXPECT_FALSE(engine.AnyFiring());
}

TEST(AlertEngineTest, BreachStreakResetsOnOneGoodWindow) {
  AlertRuleSet rules;
  rules.rules.push_back(
      Rule("hot", "counter_delta:qp.queries", ">", 10.0, 2));
  AlertEngine engine(std::move(rules), nullptr);
  auto window_with = [](int64_t index, int64_t delta) {
    TimeSeriesWindow w;
    w.index = index;
    w.counter_deltas["qp.queries"] = delta;
    return w;
  };
  // breach, ok, breach, ok, ... never reaches for=2.
  for (int64_t i = 0; i < 10; ++i) {
    EXPECT_TRUE(
        engine.Evaluate(window_with(i, i % 2 == 0 ? 20 : 0), 0).empty());
  }
  EXPECT_FALSE(engine.AnyFiring());
}

TEST(AlertEngineTest, AbsentSeriesNeitherBreachesNorCounts) {
  AlertRuleSet rules;
  rules.rules.push_back(Rule("arc5", "arc_p_hat:5", "<", 0.5, 1));
  AlertEngine engine(std::move(rules), nullptr);
  // Window carries arc 0 only: the arc-5 series is absent, so the rule
  // is not evaluated at all (p-hat of a silent arc is unknown, not 0).
  EXPECT_TRUE(engine.Evaluate(Window(0, Arc(0, 10, 0, 1.0)), 0).empty());
  EXPECT_FALSE(engine.AnyFiring());
  // Once the arc shows up under the threshold, it fires.
  std::vector<AlertEvent> events =
      engine.Evaluate(Window(1, Arc(5, 10, 1, 1.0)), 0);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].state, "firing");
}

TEST(AlertEngineTest, DriftActiveSelectorAndGaugeExport) {
  MetricsRegistry registry;
  AlertRuleSet rules;
  rules.rules.push_back(Rule("drift", "drift_active", ">=", 1.0, 1));
  AlertEngine engine(std::move(rules), &registry);
  TimeSeriesWindow w;
  w.index = 0;
  EXPECT_TRUE(engine.Evaluate(w, /*drift_active=*/0).empty());
  EXPECT_DOUBLE_EQ(registry.GetGauge("alert_firing.drift").value(), 0.0);
  w.index = 1;
  ASSERT_EQ(engine.Evaluate(w, /*drift_active=*/2).size(), 1u);
  EXPECT_DOUBLE_EQ(registry.GetGauge("alert_firing.drift").value(), 1.0);
  w.index = 2;
  ASSERT_EQ(engine.Evaluate(w, /*drift_active=*/0).size(), 1u);
  EXPECT_DOUBLE_EQ(registry.GetGauge("alert_firing.drift").value(), 0.0);
}

// --------------------------------------------------------------- monitor

/// A drifting window sequence with enough structure to exercise both a
/// drift detection and an alert transition.
std::vector<TimeSeriesWindow> DriftingSequence() {
  std::vector<TimeSeriesWindow> windows;
  for (int64_t i = 0; i < 16; ++i) {
    bool shifted = i >= 10;
    TimeSeriesWindow w = Window(i, Arc(0, 100, shifted ? 20 : 80, 1.0));
    w.counter_deltas["qp.queries"] = 100;
    windows.push_back(std::move(w));
  }
  return windows;
}

AlertRuleSet MonitorRules() {
  AlertRuleSet rules;
  rules.rules.push_back(Rule("drift", "drift_active", ">=", 1.0, 1));
  rules.rules.push_back(
      Rule("flow", "counter_delta:qp.queries", ">=", 1.0, 1));
  return rules;
}

TEST(HealthMonitorTest, DetectsDriftAndFiresRules) {
  HealthMonitor monitor(MonitorRules(), HealthOptions{});
  for (const TimeSeriesWindow& w : DriftingSequence()) monitor.OnWindow(w);
  EXPECT_EQ(monitor.windows_seen(), 16);
  // The flow rule fires on window 0 and stays firing.
  EXPECT_TRUE(monitor.AnyFiring());
  EXPECT_GE(monitor.FiringCount(), 1);
  // The p-hat step at window 10 was detected...
  bool detected = false;
  for (const DriftEvent& e : monitor.drift_log()) {
    detected |= e.detector == "p_hat" && e.state == "detected";
  }
  EXPECT_TRUE(detected);
  // ...and the drift_active rule saw it fire (transition in the log).
  bool drift_rule_fired = false;
  for (const AlertEvent& e : monitor.alert_log()) {
    drift_rule_fired |= e.rule == "drift" && e.state == "firing";
  }
  EXPECT_TRUE(drift_rule_fired);
}

// A window's index survives the series ring's eviction, so the count
// comes from it: a monitor that starts at the oldest retained window
// (a resume or an offline replay) reports the live run's count.
TEST(HealthMonitorTest, WindowsSeenCountsFromTheWindowIndex) {
  HealthMonitor monitor(MonitorRules(), HealthOptions{});
  EXPECT_EQ(monitor.windows_seen(), 0);
  for (int64_t i = 238; i < 250; ++i) {
    monitor.OnWindow(Window(i, Arc(0, 100, 80, 1.0)));
  }
  EXPECT_EQ(monitor.windows_seen(), 250);
  EXPECT_NE(monitor.RenderJson().find("\"windows_seen\":250,"),
            std::string::npos);
  EXPECT_NE(monitor.RenderText().find("windows_seen=250 last_window=249"),
            std::string::npos);
}

TEST(HealthMonitorTest, RenderingsAreDeterministicAndValid) {
  auto run = [] {
    HealthMonitor monitor(MonitorRules(), HealthOptions{});
    for (const TimeSeriesWindow& w : DriftingSequence()) {
      monitor.OnWindow(w);
    }
    return std::pair<std::string, std::string>(monitor.RenderText(),
                                               monitor.RenderJson());
  };
  auto [text1, json1] = run();
  auto [text2, json2] = run();
  EXPECT_EQ(text1, text2);
  EXPECT_EQ(json1, json2);
  EXPECT_TRUE(obs::IsValidJson(json1));
  EXPECT_NE(json1.find("\"schema\":\"stratlearn-health-v1\""),
            std::string::npos);
}

TEST(HealthMonitorTest, ForwardsTransitionsToEventSink) {
  std::ostringstream out;
  obs::JsonlSink sink(&out);
  HealthMonitor monitor(MonitorRules(), HealthOptions{});
  monitor.set_event_sink(&sink);
  for (const TimeSeriesWindow& w : DriftingSequence()) monitor.OnWindow(w);
  sink.Flush();
  EXPECT_NE(out.str().find("\"type\":\"drift\""), std::string::npos);
  EXPECT_NE(out.str().find("\"type\":\"alert\""), std::string::npos);
}

// ------------------------------------------------------------- series IO

TEST(SeriesIoTest, OfflineReplayReproducesOnlineReport) {
  // Online: a collector feeds the monitor live; the serialized series
  // is what --timeseries-out would have written.
  MetricsRegistry registry;
  obs::Counter& c = registry.GetCounter("qp.queries");
  TimeSeriesCollector collector(&registry, {.interval_us = 100});
  HealthMonitor online(MonitorRules(), HealthOptions{});
  collector.SetWindowCallback(
      [&online](const TimeSeriesWindow& w) { online.OnWindow(w); });
  Rng rng(7);
  for (int64_t i = 0; i < 12; ++i) {
    c.Increment(50);
    for (int64_t a = 0; a < 60; ++a) {
      obs::ArcAttemptEvent e;
      e.arc = 0;
      e.unblocked = rng.NextBernoulli(i < 8 ? 0.8 : 0.2);
      e.cost = 1.0;
      collector.On(e);
    }
    collector.AdvanceTo((i + 1) * 100);
  }
  std::string serialized = collector.SerializeJsonl();

  // Offline: parse the file back and replay through a fresh monitor.
  std::istringstream in(serialized);
  obs::health::LoadedSeries series;
  ASSERT_TRUE(obs::health::LoadTimeSeries(in, &series).ok());
  EXPECT_EQ(series.interval_us, 100);
  EXPECT_EQ(series.windows.size(), 12u);
  HealthMonitor offline(MonitorRules(), HealthOptions{});
  for (const TimeSeriesWindow& w : series.windows) offline.OnWindow(w);

  // Byte-identical decisions and reports: the acceptance criterion.
  EXPECT_EQ(online.RenderJson(), offline.RenderJson());
  EXPECT_EQ(online.RenderText(), offline.RenderText());
  EXPECT_EQ(online.drift_log().size(), offline.drift_log().size());
}

TEST(SeriesIoTest, LoadedWindowsMatchCollectorState) {
  MetricsRegistry registry;
  registry.GetCounter("qp.queries").Increment(42);
  TimeSeriesCollector collector(&registry, {.interval_us = 100});
  obs::ArcAttemptEvent e;
  e.arc = 3;
  e.unblocked = true;
  e.cost = 2.5;
  collector.On(e);
  collector.AdvanceTo(100);

  std::istringstream in(collector.SerializeJsonl());
  obs::health::LoadedSeries series;
  ASSERT_TRUE(obs::health::LoadTimeSeries(in, &series).ok());
  ASSERT_EQ(series.windows.size(), 1u);
  const TimeSeriesWindow& w = series.windows[0];
  EXPECT_EQ(w.index, 0);
  EXPECT_EQ(w.start_us, 0);
  EXPECT_EQ(w.end_us, 100);
  EXPECT_EQ(w.counter_deltas.at("qp.queries"), 42);
  ASSERT_EQ(w.arcs.size(), 1u);
  EXPECT_EQ(w.arcs[0].arc, 3u);
  EXPECT_EQ(w.arcs[0].attempts, 1);
  EXPECT_DOUBLE_EQ(w.arcs[0].MeanCost(), 2.5);
}

TEST(SeriesIoTest, RejectsMalformedInput) {
  obs::health::LoadedSeries series;
  std::istringstream missing_header("{\"window\":0}\n");
  EXPECT_FALSE(obs::health::LoadTimeSeries(missing_header, &series).ok());
  std::istringstream bad_schema(
      "{\"schema\":\"not-a-series\",\"interval_us\":100}\n");
  EXPECT_FALSE(obs::health::LoadTimeSeries(bad_schema, &series).ok());
  std::istringstream not_json(
      "{\"schema\":\"stratlearn-timeseries-v1\",\"interval_us\":100}\n"
      "not json\n");
  EXPECT_FALSE(obs::health::LoadTimeSeries(not_json, &series).ok());
}

// An integer field that is not finite or does not fit its type is a
// malformed line, not an undefined conversion (1e999 reads as +inf) or
// a silent truncation (arc 4294967296 as arc 0).
TEST(SeriesIoTest, RejectsOutOfRangeIntegers) {
  const std::string header =
      "{\"schema\":\"stratlearn-timeseries-v1\",\"interval_us\":100}\n";
  for (const char* window :
       {"{\"window\":0,\"counters\":{\"qp.queries\":{\"total\":1e999}}}",
        "{\"window\":0,\"arcs\":[{\"arc\":4294967296,\"attempts\":1}]}"}) {
    std::istringstream in(header + window + "\n");
    obs::health::LoadedSeries series;
    Status loaded = obs::health::LoadTimeSeries(in, &series);
    EXPECT_EQ(loaded.code(), StatusCode::kInvalidArgument) << window;
  }
}

// ----------------------------------------------------------- trace replay

TEST(TraceReplayTest, DriftAndAlertEventsRoundTripByteIdentical) {
  DriftEvent d;
  d.t_us = 1100;
  d.detector = "p_hat";
  d.state = "detected";
  d.arc = 2;
  d.statistic = 0.21;
  d.reference = 0.8125;
  d.threshold = 0.2628;
  d.window = 10;
  d.window_start_us = 1000;
  d.window_end_us = 1100;
  DriftEvent r;
  r.t_us = 1200;
  r.detector = "p_hat";
  r.state = "cleared";
  r.arc = 2;
  r.statistic = 0.19;
  r.reference = 0.25;
  r.threshold = 0.2628;
  r.window = 11;
  r.window_start_us = 1100;
  r.window_end_us = 1200;
  AlertEvent a;
  a.t_us = 1100;
  a.rule = "gave_up";
  a.state = "firing";
  a.severity = "critical";
  a.metric = "counter_delta:robust.gave_up";
  a.value = 17.0;
  a.threshold = 0.0;
  a.window = 10;
  a.for_windows = 2;

  std::ostringstream first;
  {
    obs::JsonlSink sink(&first);
    sink.On(d);
    sink.On(a);
    sink.On(r);
    sink.Flush();
  }
  // Replay the written trace through the reader into a second sink: the
  // re-rendered bytes must match exactly (field set, order, precision).
  std::ostringstream second;
  obs::JsonlSink resink(&second);
  obs::TraceReader reader(&resink);
  std::istringstream in(first.str());
  ASSERT_TRUE(reader.ReplayStream(in).ok());
  resink.Flush();
  EXPECT_EQ(reader.events(), 3);
  EXPECT_EQ(reader.skipped(), 0);
  EXPECT_EQ(first.str(), second.str());
}

// -------------------------------------------------------- drifting oracle

TEST(DriftingOracleTest, StepChangeSwitchesRegimes) {
  // Degenerate probabilities make the draws deterministic, so the
  // regime switch is observable without statistics.
  DriftingOracle oracle({1.0, 0.0}, {0.0, 1.0}, /*drift_at=*/5);
  Rng rng(1);
  for (int64_t i = 0; i < 5; ++i) {
    Context c = oracle.Next(rng);
    EXPECT_TRUE(c.Unblocked(0)) << "draw " << i;
    EXPECT_FALSE(c.Unblocked(1)) << "draw " << i;
  }
  for (int64_t i = 5; i < 10; ++i) {
    Context c = oracle.Next(rng);
    EXPECT_FALSE(c.Unblocked(0)) << "draw " << i;
    EXPECT_TRUE(c.Unblocked(1)) << "draw " << i;
  }
  EXPECT_EQ(oracle.draws(), 10);
  EXPECT_EQ(oracle.num_experiments(), 2u);
}

TEST(DriftingOracleTest, ProbsAtInterpolatesOverRamp) {
  DriftingOracle oracle({0.8}, {0.2}, /*drift_at=*/10, /*ramp_len=*/4);
  EXPECT_DOUBLE_EQ(oracle.ProbsAt(0)[0], 0.8);
  EXPECT_DOUBLE_EQ(oracle.ProbsAt(9)[0], 0.8);
  // Ramp draws move monotonically from before to after...
  double prev = 0.8;
  for (int64_t draw = 10; draw < 14; ++draw) {
    double p = oracle.ProbsAt(draw)[0];
    EXPECT_LT(p, prev) << "draw " << draw;
    EXPECT_GT(p, 0.2 - 1e-12) << "draw " << draw;
    prev = p;
  }
  // ...and the post-ramp regime is exactly `after`.
  EXPECT_DOUBLE_EQ(oracle.ProbsAt(14)[0], 0.2);
  EXPECT_DOUBLE_EQ(oracle.ProbsAt(1000)[0], 0.2);
}

TEST(DriftingOracleTest, StepIsSpecialCaseOfZeroRamp) {
  DriftingOracle step({0.9}, {0.1}, /*drift_at=*/3);
  EXPECT_DOUBLE_EQ(step.ProbsAt(2)[0], 0.9);
  EXPECT_DOUBLE_EQ(step.ProbsAt(3)[0], 0.1);
}

}  // namespace
}  // namespace stratlearn
