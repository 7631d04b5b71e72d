// Tests for the TimeSeriesCollector: window boundaries, delta and rate
// derivation, per-arc windowed p-hat / mean-cost series, ring-buffer
// eviction accounting, and the JSONL serialization's determinism.

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/health/series_io.h"
#include "obs/json_reader.h"
#include "obs/metrics.h"
#include "obs/timeseries.h"
#include "util/string_util.h"

namespace stratlearn {
namespace {

using obs::ArcAttemptEvent;
using obs::MetricsRegistry;
using obs::TimeSeriesCollector;
using obs::TimeSeriesOptions;
using obs::TimeSeriesWindow;

ArcAttemptEvent Attempt(uint32_t arc, bool unblocked, double cost) {
  ArcAttemptEvent e;
  e.arc = arc;
  e.unblocked = unblocked;
  e.cost = cost;
  return e;
}

TEST(TimeSeriesTest, WindowsCloseOnCadence) {
  MetricsRegistry registry;
  TimeSeriesCollector collector(&registry, {.interval_us = 100});
  registry.GetCounter("c").Increment(5);
  collector.AdvanceTo(99);  // still inside window 0
  EXPECT_EQ(collector.windows_closed(), 0);
  collector.AdvanceTo(100);  // boundary: window [0, 100) closes
  EXPECT_EQ(collector.windows_closed(), 1);
  collector.AdvanceTo(450);  // closes [100,200), [200,300), [300,400)
  EXPECT_EQ(collector.windows_closed(), 4);

  std::vector<TimeSeriesWindow> windows = collector.Windows();
  ASSERT_EQ(windows.size(), 4u);
  EXPECT_EQ(windows[0].start_us, 0);
  EXPECT_EQ(windows[0].end_us, 100);
  EXPECT_EQ(windows[3].start_us, 300);
  EXPECT_EQ(windows[3].end_us, 400);
  // The counter moved only in window 0; later windows carry zero deltas
  // (a quiet stretch is empty windows, not a gap).
  EXPECT_EQ(windows[0].counter_deltas.at("c"), 5);
  EXPECT_EQ(windows[1].counter_deltas.at("c"), 0);
  EXPECT_EQ(windows[0].cumulative.counters.at("c"), 5);
  EXPECT_EQ(windows[3].cumulative.counters.at("c"), 5);
}

TEST(TimeSeriesTest, CounterDeltasAndRates) {
  MetricsRegistry registry;
  obs::Counter& c = registry.GetCounter("qp.queries");
  TimeSeriesCollector collector(&registry, {.interval_us = 1'000'000});
  c.Increment(100);
  collector.AdvanceTo(1'000'000);
  c.Increment(300);
  collector.AdvanceTo(2'000'000);

  std::vector<TimeSeriesWindow> windows = collector.Windows();
  ASSERT_EQ(windows.size(), 2u);
  EXPECT_EQ(windows[0].counter_deltas.at("qp.queries"), 100);
  EXPECT_EQ(windows[1].counter_deltas.at("qp.queries"), 300);
  EXPECT_EQ(windows[1].cumulative.counters.at("qp.queries"), 400);
  // 300 in one second.
  EXPECT_DOUBLE_EQ(
      windows[1].Rate(windows[1].counter_deltas.at("qp.queries")), 300.0);
}

TEST(TimeSeriesTest, HistogramDeltasTrackWindowActivity) {
  MetricsRegistry registry;
  obs::Histogram& h = registry.GetHistogram("qp.query_cost", {10.0});
  TimeSeriesCollector collector(&registry, {.interval_us = 100});
  h.Record(2.0);
  h.Record(4.0);
  collector.AdvanceTo(100);
  h.Record(6.0);
  collector.AdvanceTo(200);

  std::vector<TimeSeriesWindow> windows = collector.Windows();
  ASSERT_EQ(windows.size(), 2u);
  const obs::HistogramDelta& w0 =
      windows[0].histogram_deltas.at("qp.query_cost");
  EXPECT_EQ(w0.count, 2);
  EXPECT_DOUBLE_EQ(w0.sum, 6.0);
  EXPECT_DOUBLE_EQ(w0.Mean(), 3.0);
  const obs::HistogramDelta& w1 =
      windows[1].histogram_deltas.at("qp.query_cost");
  EXPECT_EQ(w1.count, 1);
  EXPECT_DOUBLE_EQ(w1.sum, 6.0);
  EXPECT_DOUBLE_EQ(w1.Mean(), 6.0);
  EXPECT_EQ(windows[1].cumulative.histograms.at("qp.query_cost").count, 3);
}

TEST(TimeSeriesTest, PerArcWindowedEstimates) {
  // The drift-detection substrate: p-hat over *this window's* attempts.
  TimeSeriesCollector collector(nullptr, {.interval_us = 100});
  for (int i = 0; i < 8; ++i) collector.On(Attempt(0, i < 2, 1.0));
  collector.On(Attempt(3, true, 2.5));
  collector.AdvanceTo(100);
  // Window 2: arc 0 shifts to mostly-unblocked; arc 3 goes quiet.
  for (int i = 0; i < 4; ++i) collector.On(Attempt(0, true, 2.0));
  collector.AdvanceTo(200);

  std::vector<TimeSeriesWindow> windows = collector.Windows();
  ASSERT_EQ(windows.size(), 2u);
  ASSERT_EQ(windows[0].arcs.size(), 2u);
  EXPECT_EQ(windows[0].arcs[0].arc, 0u);
  EXPECT_EQ(windows[0].arcs[0].attempts, 8);
  EXPECT_DOUBLE_EQ(windows[0].arcs[0].PHat(), 0.25);
  EXPECT_DOUBLE_EQ(windows[0].arcs[0].MeanCost(), 1.0);
  EXPECT_EQ(windows[0].arcs[1].arc, 3u);
  EXPECT_DOUBLE_EQ(windows[0].arcs[1].PHat(), 1.0);
  EXPECT_DOUBLE_EQ(windows[0].arcs[1].MeanCost(), 2.5);
  // Window 2 reports only the active arc, with its windowed (not
  // cumulative) estimate.
  ASSERT_EQ(windows[1].arcs.size(), 1u);
  EXPECT_EQ(windows[1].arcs[0].arc, 0u);
  EXPECT_EQ(windows[1].arcs[0].attempts, 4);
  EXPECT_DOUBLE_EQ(windows[1].arcs[0].PHat(), 1.0);
  EXPECT_DOUBLE_EQ(windows[1].arcs[0].MeanCost(), 2.0);
}

TEST(TimeSeriesTest, FinalizeClosesPartialTrailingWindow) {
  MetricsRegistry registry;
  TimeSeriesCollector collector(&registry, {.interval_us = 100});
  registry.GetCounter("c").Increment(1);
  collector.Finalize(250);  // [0,100), [100,200), partial [200,250)
  std::vector<TimeSeriesWindow> windows = collector.Windows();
  ASSERT_EQ(windows.size(), 3u);
  EXPECT_EQ(windows[2].start_us, 200);
  EXPECT_EQ(windows[2].end_us, 250);
  EXPECT_EQ(windows[2].span_us(), 50);
  // Finalize exactly on a boundary adds no empty partial window.
  MetricsRegistry registry2;
  TimeSeriesCollector exact(&registry2, {.interval_us = 100});
  exact.Finalize(200);
  EXPECT_EQ(exact.windows_closed(), 2);
}

TEST(TimeSeriesTest, RingEvictsOldestAndCountsIt) {
  MetricsRegistry registry;
  TimeSeriesCollector collector(&registry,
                                {.interval_us = 10, .capacity = 3});
  collector.AdvanceTo(80);  // 8 windows through a 3-window ring
  EXPECT_EQ(collector.windows_closed(), 8);
  EXPECT_EQ(collector.windows_evicted(), 5);
  std::vector<TimeSeriesWindow> windows = collector.Windows();
  ASSERT_EQ(windows.size(), 3u);
  // Indices survive eviction — the retained tail is windows 5..7.
  EXPECT_EQ(windows[0].index, 5);
  EXPECT_EQ(windows[2].index, 7);
  // Serialization reports the eviction instead of hiding it.
  std::string jsonl = collector.SerializeJsonl();
  EXPECT_NE(jsonl.find("\"windows_evicted\":5"), std::string::npos);
}

TEST(TimeSeriesTest, SerializeJsonlIsValidAndDeterministic) {
  auto run = [] {
    MetricsRegistry registry;
    obs::Counter& c = registry.GetCounter("qp.queries");
    obs::Histogram& h = registry.GetHistogram("qp.query_cost", {10.0});
    TimeSeriesCollector collector(&registry, {.interval_us = 100});
    for (int w = 0; w < 3; ++w) {
      c.Increment(10 + w);
      h.Record(w + 0.5);
      collector.On(Attempt(1, w % 2 == 0, 1.5));
      collector.AdvanceTo((w + 1) * 100);
    }
    return collector.SerializeJsonl();
  };
  std::string a = run();
  EXPECT_EQ(a, run());

  std::vector<std::string> lines;
  for (const std::string& line : Split(a, '\n')) {
    if (!Trim(line).empty()) lines.push_back(line);
  }
  ASSERT_EQ(lines.size(), 4u);  // header + 3 windows
  for (const std::string& line : lines) {
    EXPECT_TRUE(obs::IsValidJson(line)) << line;
  }
  EXPECT_NE(lines[0].find("\"schema\":\"stratlearn-timeseries-v1\""),
            std::string::npos);
  EXPECT_NE(lines[1].find("\"p_hat\":1"), std::string::npos);
  EXPECT_NE(lines[1].find("\"rate_per_s\""), std::string::npos);
}

// LoadTimeSeries reads back every window field the collector counts,
// the certificate count included, so a resumed run writes its restored
// windows unchanged into the series and into later checkpoints.
TEST(TimeSeriesTest, WindowsRoundTripThroughLoadTimeSeries) {
  MetricsRegistry registry;
  obs::Counter& c = registry.GetCounter("qp.queries");
  TimeSeriesCollector collector(&registry, {.interval_us = 100});
  for (int w = 0; w < 3; ++w) {
    c.Increment(5);
    collector.On(Attempt(2, w != 1, 1.25));
    for (int k = 0; k < w; ++k) collector.On(obs::DecisionCertificateEvent{});
    collector.AdvanceTo((w + 1) * 100);
  }
  // Health entries attach to a closed window, as the monitor's are.
  collector.On(obs::DriftEvent{.t_us = 9, .detector = "p_hat",
                               .state = "detected", .arc = 2,
                               .statistic = 0.1, .reference = 1.0 / 3.0,
                               .threshold = 2.5, .window = 1,
                               .window_start_us = 100,
                               .window_end_us = 200});
  collector.On(obs::AlertEvent{.t_us = 9, .rule = "flow", .state = "firing",
                               .severity = "warning",
                               .metric = "counter_delta:qp.queries",
                               .value = 5, .threshold = 1, .window = 1,
                               .for_windows = 2});
  std::istringstream in(collector.SerializeJsonl());
  obs::health::LoadedSeries series;
  ASSERT_TRUE(obs::health::LoadTimeSeries(in, &series).ok());
  const std::vector<TimeSeriesWindow> original = collector.Windows();
  ASSERT_EQ(series.windows.size(), original.size());
  EXPECT_EQ(series.windows[2].certificates, 2);
  for (size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(TimeSeriesCollector::SerializeWindowJson(series.windows[i]),
              TimeSeriesCollector::SerializeWindowJson(original[i]));
  }
  ASSERT_EQ(series.windows[1].drift.size(), 1u);
  const obs::DriftEvent& drift = series.windows[1].drift[0];
  EXPECT_EQ(drift.detector, "p_hat");
  EXPECT_EQ(drift.arc, 2);
  EXPECT_EQ(drift.reference, 1.0 / 3.0);
  ASSERT_EQ(series.windows[1].alerts.size(), 1u);
  EXPECT_EQ(series.windows[1].alerts[0].metric, "counter_delta:qp.queries");
  EXPECT_EQ(series.windows[1].alerts[0].for_windows, 2);
  EXPECT_TRUE(series.windows[0].drift.empty());
}

TEST(TimeSeriesTest, LoadTimeSeriesRejectsNonObjectHealthEntry) {
  std::istringstream in(
      "{\"schema\":\"stratlearn-timeseries-v1\",\"interval_us\":100}\n"
      "{\"window\":0,\"drift\":[1]}\n");
  obs::health::LoadedSeries series;
  Status loaded = obs::health::LoadTimeSeries(in, &series);
  EXPECT_EQ(loaded.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(loaded.message().find("line 2"), std::string::npos);
}

TEST(TimeSeriesTest, NullRegistryYieldsArcSeriesOnly) {
  TimeSeriesCollector collector(nullptr, {.interval_us = 50});
  collector.On(Attempt(2, true, 1.0));
  collector.AdvanceTo(50);
  std::vector<TimeSeriesWindow> windows = collector.Windows();
  ASSERT_EQ(windows.size(), 1u);
  EXPECT_TRUE(windows[0].cumulative.counters.empty());
  ASSERT_EQ(windows[0].arcs.size(), 1u);
  EXPECT_EQ(windows[0].arcs[0].arc, 2u);
}

TEST(TimeSeriesTest, LongRunEvictionKeepsSeriesConsistent) {
  // A long run through a small ring: every retained window must keep
  // contiguous indices, correct bounds, and deltas that re-sum to the
  // cumulative total even though most windows were evicted.
  MetricsRegistry registry;
  obs::Counter& c = registry.GetCounter("qp.queries");
  TimeSeriesCollector collector(&registry,
                                {.interval_us = 10, .capacity = 4});
  const int64_t kWindows = 1000;
  for (int64_t w = 0; w < kWindows; ++w) {
    c.Increment(w + 1);  // distinct delta per window
    collector.On(Attempt(0, w % 2 == 0, 1.0));
    collector.AdvanceTo((w + 1) * 10);
  }
  EXPECT_EQ(collector.windows_closed(), kWindows);
  EXPECT_EQ(collector.windows_evicted(), kWindows - 4);
  std::vector<TimeSeriesWindow> windows = collector.Windows();
  ASSERT_EQ(windows.size(), 4u);
  for (size_t i = 0; i < windows.size(); ++i) {
    const TimeSeriesWindow& w = windows[i];
    EXPECT_EQ(w.index, kWindows - 4 + static_cast<int64_t>(i));
    EXPECT_EQ(w.start_us, w.index * 10);
    EXPECT_EQ(w.end_us, w.start_us + 10);
    // Window w's delta is w.index + 1 by construction.
    EXPECT_EQ(w.counter_deltas.at("qp.queries"), w.index + 1);
    ASSERT_EQ(w.arcs.size(), 1u);
    EXPECT_EQ(w.arcs[0].attempts, 1);
  }
  // The cumulative snapshot in the last window is the full-run total,
  // not just the retained tail.
  EXPECT_EQ(windows.back().cumulative.counters.at("qp.queries"),
            kWindows * (kWindows + 1) / 2);
}

TEST(TimeSeriesTest, RatesAcrossCadenceGapsCountEmptyWindows) {
  // A burst followed by a long silent stretch: AdvanceTo far ahead must
  // materialize the intermediate empty windows, each with a zero delta
  // and zero rate — a gap in activity is not a gap in the series.
  MetricsRegistry registry;
  obs::Counter& c = registry.GetCounter("qp.queries");
  TimeSeriesCollector collector(&registry, {.interval_us = 1'000'000});
  c.Increment(500);
  collector.AdvanceTo(1'000'000);
  // Another burst, then the clock jumps 4 windows ahead in one advance.
  c.Increment(250);
  collector.AdvanceTo(5'000'000);
  std::vector<TimeSeriesWindow> windows = collector.Windows();
  ASSERT_EQ(windows.size(), 5u);
  EXPECT_DOUBLE_EQ(
      windows[0].Rate(windows[0].counter_deltas.at("qp.queries")), 500.0);
  // The collector snapshots at window close: increments made before a
  // multi-window advance are attributed to the *first* window that
  // advance closes, and the remaining gap windows carry zero deltas
  // and zero rates — never a delta amortized across the stretch.
  EXPECT_EQ(windows[1].counter_deltas.at("qp.queries"), 250);
  EXPECT_DOUBLE_EQ(
      windows[1].Rate(windows[1].counter_deltas.at("qp.queries")), 250.0);
  for (int i = 2; i < 5; ++i) {
    EXPECT_EQ(windows[i].counter_deltas.at("qp.queries"), 0) << i;
    EXPECT_DOUBLE_EQ(
        windows[i].Rate(windows[i].counter_deltas.at("qp.queries")), 0.0)
        << i;
    EXPECT_EQ(windows[i].span_us(), 1'000'000) << i;
  }
}

TEST(TimeSeriesTest, ZeroArcActivityWindowsOmitArcSeries) {
  // Arc-quiet windows carry no arc entries at all (absent, not p-hat
  // 0), which is what keeps the drift detector from treating a silent
  // arc as a failing one.
  TimeSeriesCollector collector(nullptr, {.interval_us = 100});
  collector.On(Attempt(1, true, 1.0));
  collector.AdvanceTo(100);  // window 0: active
  collector.AdvanceTo(200);  // window 1: silent
  collector.On(Attempt(1, false, 2.0));
  collector.AdvanceTo(300);  // window 2: active again
  std::vector<TimeSeriesWindow> windows = collector.Windows();
  ASSERT_EQ(windows.size(), 3u);
  EXPECT_EQ(windows[0].arcs.size(), 1u);
  EXPECT_TRUE(windows[1].arcs.empty());
  ASSERT_EQ(windows[2].arcs.size(), 1u);
  // The windowed estimate restarts from the new window's attempts; it
  // does not leak the pre-gap history.
  EXPECT_EQ(windows[2].arcs[0].attempts, 1);
  EXPECT_DOUBLE_EQ(windows[2].arcs[0].PHat(), 0.0);
  EXPECT_DOUBLE_EQ(windows[2].arcs[0].MeanCost(), 2.0);
  // Serialization mirrors the omission: the quiet window's arc series
  // is an empty array, not zero-filled entries.
  std::string jsonl = collector.SerializeJsonl();
  std::vector<std::string> lines;
  for (const std::string& line : Split(jsonl, '\n')) {
    if (!Trim(line).empty()) lines.push_back(line);
  }
  ASSERT_EQ(lines.size(), 4u);
  EXPECT_NE(lines[1].find("\"attempts\":1"), std::string::npos);
  EXPECT_NE(lines[2].find("\"arcs\":[]"), std::string::npos);
}

TEST(TimeSeriesTest, InvalidOptionsAbort) {
  MetricsRegistry registry;
  EXPECT_DEATH(TimeSeriesCollector(&registry, {.interval_us = 0}),
               "interval");
  EXPECT_DEATH(
      TimeSeriesCollector(&registry, {.interval_us = 10, .capacity = 0}),
      "capacity");
}

}  // namespace
}  // namespace stratlearn
