// Tests for the src/obs observability layer: histogram bucket and
// percentile math, the metrics JSON snapshot (golden), JSON writer and
// validator, and a JSONL round-trip over a real PIB learning run.

#include <cmath>
#include <cstdint>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include <gtest/gtest.h>

#include "core/pib.h"
#include "engine/query_processor.h"
#include "obs/json_reader.h"
#include "obs/json_writer.h"
#include "obs/metrics.h"
#include "obs/observer.h"
#include "obs/openmetrics.h"
#include "obs/sinks.h"
#include "obs/timer.h"
#include "obs/trace_reader.h"
#include "util/rng.h"
#include "util/string_util.h"
#include "workload/random_tree.h"
#include "workload/synthetic_oracle.h"

namespace stratlearn {
namespace {

using obs::Histogram;
using obs::IsValidJson;
using obs::JsonWriter;
using obs::MetricsRegistry;

TEST(JsonWriterTest, NestedStructures) {
  JsonWriter w;
  w.BeginObject();
  w.Key("a").Value(int64_t{1});
  w.Key("b").BeginArray().Value(1.5).Value(true).Null().EndArray();
  w.Key("c").BeginObject().Key("d").Value("x\"y\n").EndObject();
  w.EndObject();
  EXPECT_EQ(w.str(), R"({"a":1,"b":[1.5,true,null],"c":{"d":"x\"y\n"}})");
  EXPECT_TRUE(IsValidJson(w.str()));
}

TEST(JsonWriterTest, NonFiniteDoublesBecomeNull) {
  JsonWriter w;
  w.BeginArray();
  w.Value(std::numeric_limits<double>::infinity());
  w.Value(-std::numeric_limits<double>::infinity());
  w.Value(std::nan(""));
  w.Value(-std::nan(""));
  w.EndArray();
  EXPECT_EQ(w.str(), "[null,null,null,null]");
}

/// Reference escaper: one character at a time into a temporary string,
/// printf for the \u sequences. JsonWriter escapes in place and must
/// produce the same bytes.
std::string ReferenceJsonEscape(std::string_view s) {
  std::string out;
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\b':
        out += "\\b";
        break;
      case '\f':
        out += "\\f";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += StrFormat("\\u%04x", c);
        } else {
          out += c;
        }
    }
  }
  return out;
}

TEST(JsonWriterTest, EscapesEveryByteLikeTheReference) {
  Rng rng(11);
  auto random_bytes = [&rng] {
    std::string s(rng.NextBounded(12), '\0');
    for (char& c : s) c = static_cast<char>(rng.NextBounded(256));
    return s;
  };
  std::vector<std::string> inputs = {""};
  for (int b = 0; b < 256; ++b) {
    std::string byte(1, static_cast<char>(b));
    inputs.push_back(byte);
    for (int i = 0; i < 8; ++i) {
      inputs.push_back(random_bytes() + byte + random_bytes());
      inputs.push_back("plain text " + byte + byte + " more text");
    }
  }
  for (const std::string& s : inputs) {
    const std::string escaped = ReferenceJsonEscape(s);
    JsonWriter key;
    key.BeginObject().Key(s).Null().EndObject();
    ASSERT_EQ(key.str(), "{\"" + escaped + "\":null}");
    JsonWriter value;
    value.BeginArray().Value(s).EndArray();
    ASSERT_EQ(value.str(), "[\"" + escaped + "\"]");
  }
}

/// One nested record, the shape a sink renders per event.
void WriteRecord(JsonWriter& w) {
  w.BeginObject();
  w.Key("type").Value("a\"b");
  w.Key("n").Value(int64_t{-7});
  w.Key("v").BeginArray().Value(0.1 + 0.2).Null().EndArray();
  w.Key("o").BeginObject().Key("k").Value(false).EndObject();
  w.EndObject();
}

TEST(JsonWriterTest, ClearedWriterMatchesAFreshOne) {
  JsonWriter fresh(JsonWriter::kRoundTripDigits);
  WriteRecord(fresh);

  JsonWriter reused(JsonWriter::kRoundTripDigits);
  WriteRecord(reused);  // a complete record
  reused.Clear();
  EXPECT_EQ(reused.str(), "");
  WriteRecord(reused);
  EXPECT_EQ(reused.str(), fresh.str());

  // A record abandoned with containers open and a key awaiting its value.
  reused.Clear();
  reused.BeginObject().Key("a").BeginArray().Value(true).BeginObject();
  reused.Key("pending");
  reused.Clear();
  WriteRecord(reused);
  EXPECT_EQ(reused.str(), fresh.str());

  // A top-level array left open.
  reused.Clear();
  reused.BeginArray().Value(int64_t{1});
  reused.Clear();
  WriteRecord(reused);
  EXPECT_EQ(reused.str(), fresh.str());
}

TEST(JsonValidatorTest, AcceptsAndRejects) {
  EXPECT_TRUE(IsValidJson("{}"));
  EXPECT_TRUE(IsValidJson(R"({"k":[1,2.5e-3,"s",true,false,null]})"));
  EXPECT_TRUE(IsValidJson("  -0.25  "));
  EXPECT_TRUE(IsValidJson(R"("é\n")"));
  EXPECT_FALSE(IsValidJson(""));
  EXPECT_FALSE(IsValidJson("{"));
  EXPECT_FALSE(IsValidJson("{'k':1}"));
  EXPECT_FALSE(IsValidJson("{\"k\":1,}"));
  EXPECT_FALSE(IsValidJson("[1 2]"));
  EXPECT_FALSE(IsValidJson("01"));
  EXPECT_FALSE(IsValidJson("{\"a\":1}{\"b\":2}"));  // two values
  EXPECT_FALSE(IsValidJson("\"unterminated"));
}

// One grammar for every reader: RFC 8259 numbers, whitespace and
// strings, which the DOM parser once read more loosely than this
// validator.
TEST(JsonValidatorTest, FollowsRfc8259) {
  for (const char* bad : {"01", ".5", "+1", "1.", "\"a\tb\"", "\"\\uZZZZ\"",
                          "\"\\u12\"", "1e", "-", "\v1", "[1,\f2]"}) {
    obs::JsonValue value;
    EXPECT_FALSE(obs::ParseJson(bad, &value)) << bad;
  }
  for (const char* good : {"0", "-0", "1.5e+3", "2E-2", "\"\\u00e9\"",
                           " \t\r\n[1]\n"}) {
    EXPECT_TRUE(IsValidJson(good)) << good;
  }
}

TEST(JsonValidatorTest, CapsNestingDepth) {
  auto nested = [](int depth) {
    return std::string(depth, '[') + std::string(depth, ']');
  };
  EXPECT_TRUE(IsValidJson(nested(obs::kMaxJsonDepth)));
  EXPECT_FALSE(IsValidJson(nested(obs::kMaxJsonDepth + 1)));
  EXPECT_TRUE(IsValidJson("{\"a\":" + nested(obs::kMaxJsonDepth - 1) + "}"));
  EXPECT_FALSE(IsValidJson("{\"a\":" + nested(obs::kMaxJsonDepth) + "}"));
  // Far past the cap: refused, not a stack overflow.
  EXPECT_FALSE(IsValidJson(std::string(1000000, '[')));
}

TEST(HistogramTest, BucketAssignment) {
  Histogram h({1.0, 10.0, 100.0});
  ASSERT_EQ(h.num_buckets(), 4u);  // 3 bounds + overflow
  h.Record(0.5);    // <= 1
  h.Record(1.0);    // <= 1 (bounds are inclusive upper)
  h.Record(5.0);    // <= 10
  h.Record(100.0);  // <= 100
  h.Record(1e6);    // overflow
  EXPECT_EQ(h.bucket_count(0), 2);
  EXPECT_EQ(h.bucket_count(1), 1);
  EXPECT_EQ(h.bucket_count(2), 1);
  EXPECT_EQ(h.bucket_count(3), 1);
  EXPECT_EQ(h.count(), 5);
  EXPECT_DOUBLE_EQ(h.min(), 0.5);
  EXPECT_DOUBLE_EQ(h.max(), 1e6);
  EXPECT_DOUBLE_EQ(h.sum(), 0.5 + 1.0 + 5.0 + 100.0 + 1e6);
  EXPECT_DOUBLE_EQ(h.bucket_upper(3),
                   std::numeric_limits<double>::infinity());
}

TEST(HistogramTest, PercentileInterpolation) {
  // 100 samples uniform in (0, 100]: percentile ~ value.
  Histogram h(obs::LinearBuckets(10.0, 10.0, 10));
  for (int i = 1; i <= 100; ++i) h.Record(static_cast<double>(i));
  EXPECT_NEAR(h.Percentile(50), 50.0, 10.0);
  EXPECT_NEAR(h.Percentile(90), 90.0, 10.0);
  EXPECT_DOUBLE_EQ(h.Percentile(100), 100.0);
  // Estimates never leave the observed range.
  EXPECT_GE(h.Percentile(0), h.min());
  EXPECT_LE(h.Percentile(99.9), h.max());
}

TEST(HistogramTest, PercentileDegenerateCases) {
  Histogram empty({1.0});
  EXPECT_DOUBLE_EQ(empty.Percentile(50), 0.0);
  Histogram one({1.0, 2.0});
  one.Record(1.5);
  EXPECT_DOUBLE_EQ(one.Percentile(0), 1.5);
  EXPECT_DOUBLE_EQ(one.Percentile(50), 1.5);
  EXPECT_DOUBLE_EQ(one.Percentile(100), 1.5);
}

TEST(HistogramTest, AllSamplesInOverflowBucket) {
  // Every sample lands past the last bound; the overflow bucket spans
  // [last bound, max] and interpolation stays inside [min, max].
  Histogram h({1.0, 2.0});
  for (double v : {10.0, 20.0, 30.0, 40.0}) h.Record(v);
  EXPECT_EQ(h.bucket_count(0), 0);
  EXPECT_EQ(h.bucket_count(1), 0);
  EXPECT_EQ(h.bucket_count(2), 4);
  // rank 2 of 4 in [2, 40]: 2 + 38 * 0.5 = 21.
  EXPECT_DOUBLE_EQ(h.Percentile(50), 21.0);
  // Interpolated 11.5 from the bucket span; already above min.
  EXPECT_DOUBLE_EQ(h.Percentile(25), 11.5);
  EXPECT_DOUBLE_EQ(h.Percentile(0), 10.0);    // clamped up to min
  EXPECT_DOUBLE_EQ(h.Percentile(100), 40.0);  // within = 1 -> max
}

TEST(HistogramTest, SingleSampleInOverflowBucket) {
  Histogram h({1.0});
  h.Record(50.0);
  EXPECT_DOUBLE_EQ(h.Percentile(0), 50.0);
  EXPECT_DOUBLE_EQ(h.Percentile(50), 50.0);
  EXPECT_DOUBLE_EQ(h.Percentile(100), 50.0);
}

TEST(HistogramTest, PercentileEndpointsPinned) {
  // One sample per bucket: 5 in (.,10], 15 in (10,20], 25 in (20,30].
  Histogram h({10.0, 20.0, 30.0});
  for (double v : {5.0, 15.0, 25.0}) h.Record(v);
  // p0 uses min(min, first bound) as the lower edge: exactly min.
  EXPECT_DOUBLE_EQ(h.Percentile(0), 5.0);
  // rank 1.5 falls halfway through the (10,20] bucket.
  EXPECT_DOUBLE_EQ(h.Percentile(50), 15.0);
  // p100 interpolates to the bucket top (30) then clamps to max.
  EXPECT_DOUBLE_EQ(h.Percentile(100), 25.0);
}

TEST(HistogramTest, EmptyHistogramMinMaxAreZero) {
  // Regression: min_/max_ start at +/-inf internally; the accessors and
  // every serialization must clamp the empty case to 0, never leak the
  // sentinels.
  Histogram h({1.0, 10.0});
  EXPECT_EQ(h.count(), 0);
  EXPECT_DOUBLE_EQ(h.min(), 0.0);
  EXPECT_DOUBLE_EQ(h.max(), 0.0);
  obs::HistogramSnapshot snapshot = h.Snapshot();
  EXPECT_DOUBLE_EQ(snapshot.min, 0.0);
  EXPECT_DOUBLE_EQ(snapshot.max, 0.0);
  // After the first sample both collapse to that sample.
  h.Record(3.0);
  EXPECT_DOUBLE_EQ(h.min(), 3.0);
  EXPECT_DOUBLE_EQ(h.max(), 3.0);
}

TEST(HistogramMergeTest, CombinesBucketsAndMoments) {
  Histogram a({1.0, 10.0});
  Histogram b({1.0, 10.0});
  a.Record(0.5);
  a.Record(5.0);
  b.Record(7.0);
  b.Record(2000.0);  // overflow bucket
  a.Merge(b);
  EXPECT_EQ(a.count(), 4);
  EXPECT_DOUBLE_EQ(a.sum(), 0.5 + 5.0 + 7.0 + 2000.0);
  EXPECT_DOUBLE_EQ(a.min(), 0.5);
  EXPECT_DOUBLE_EQ(a.max(), 2000.0);
  EXPECT_EQ(a.bucket_count(0), 1);
  EXPECT_EQ(a.bucket_count(1), 2);
  EXPECT_EQ(a.bucket_count(2), 1);  // overflow came across
  // `b` is untouched.
  EXPECT_EQ(b.count(), 2);
}

TEST(HistogramMergeTest, EmptySidesAreExact) {
  Histogram target({1.0});
  Histogram empty({1.0});
  // Empty into empty: still empty, min/max still clamp to 0.
  target.Merge(empty);
  EXPECT_EQ(target.count(), 0);
  EXPECT_DOUBLE_EQ(target.min(), 0.0);
  EXPECT_DOUBLE_EQ(target.max(), 0.0);
  // Empty into non-empty: a no-op that must not fold the empty side's
  // min/max sentinels (or zeros) into real extrema.
  target.Record(5.0);
  target.Merge(empty);
  EXPECT_EQ(target.count(), 1);
  EXPECT_DOUBLE_EQ(target.min(), 5.0);
  EXPECT_DOUBLE_EQ(target.max(), 5.0);
  // Non-empty into empty: the target adopts the source's extrema.
  Histogram fresh({1.0});
  fresh.Merge(target);
  EXPECT_EQ(fresh.count(), 1);
  EXPECT_DOUBLE_EQ(fresh.min(), 5.0);
  EXPECT_DOUBLE_EQ(fresh.max(), 5.0);
}

TEST(HistogramMergeTest, MismatchedBoundsAbort) {
  Histogram a({1.0, 2.0});
  Histogram coarser({1.0});
  Histogram shifted({1.0, 3.0});
  EXPECT_DEATH(a.Merge(coarser), "bounds");
  EXPECT_DEATH(a.Merge(shifted), "bounds");
}

TEST(MetricsRegistryTest, HandlesAreStableAndNamed) {
  MetricsRegistry registry;
  obs::Counter& c = registry.GetCounter("a.count");
  c.Increment();
  c.Increment(41);
  EXPECT_EQ(registry.GetCounter("a.count").value(), 42);
  registry.GetGauge("a.gauge").Set(2.5);
  EXPECT_DOUBLE_EQ(registry.GetGauge("a.gauge").value(), 2.5);
  // Custom bounds apply on first creation only.
  obs::Histogram& h = registry.GetHistogram("a.hist", {1.0, 2.0});
  EXPECT_EQ(&h, &registry.GetHistogram("a.hist"));
  EXPECT_EQ(h.num_buckets(), 3u);
}

TEST(MetricsRegistryTest, SnapshotJsonGolden) {
  MetricsRegistry registry;
  registry.GetCounter("qp.queries").Increment(3);
  registry.GetGauge("qpa.quota_remaining").Set(7);
  Histogram& h = registry.GetHistogram("qp.query_cost", {1.0, 10.0});
  h.Record(0.5);
  h.Record(4.0);
  const char* expected =
      R"({"counters":{"qp.queries":3},)"
      R"("gauges":{"qpa.quota_remaining":7},)"
      R"("histograms":{"qp.query_cost":{"count":2,"sum":4.5,"min":0.5,)"
      R"("max":4,"mean":2.25,"p50":1,"p90":4,"p99":4,)"
      R"("buckets":[{"le":1,"count":1},{"le":10,"count":1},)"
      R"({"le":"+Inf","count":0}]}}})";
  EXPECT_EQ(registry.SnapshotJson(), expected);
  EXPECT_TRUE(IsValidJson(registry.SnapshotJson()));
}

TEST(MetricsRegistryTest, NonFiniteGaugesStillRenderValidJson) {
  // Regression: a NaN or infinite gauge must not leak "nan"/"inf"
  // tokens into the snapshot (invalid JSON); they render as null.
  MetricsRegistry registry;
  registry.GetGauge("g.nan").Set(std::nan(""));
  registry.GetGauge("g.pos_inf").Set(std::numeric_limits<double>::infinity());
  registry.GetGauge("g.neg_inf").Set(-std::numeric_limits<double>::infinity());
  registry.GetGauge("g.finite").Set(1.5);
  std::string json = registry.SnapshotJson();
  EXPECT_TRUE(IsValidJson(json)) << json;
  EXPECT_EQ(json,
            R"({"counters":{},"gauges":{"g.finite":1.5,"g.nan":null,)"
            R"("g.neg_inf":null,"g.pos_inf":null},"histograms":{}})");
}

TEST(OpenMetricsTest, NameSanitization) {
  EXPECT_EQ(obs::OpenMetricsName("qp.arc_attempts"), "qp_arc_attempts");
  EXPECT_EQ(obs::OpenMetricsName("a-b c"), "a_b_c");
  EXPECT_EQ(obs::OpenMetricsName("9lives"), "_9lives");
  EXPECT_EQ(obs::OpenMetricsName(""), "_");
}

TEST(OpenMetricsTest, ExpositionGolden) {
  MetricsRegistry registry;
  registry.GetCounter("qp.queries").Increment(3);
  registry.GetGauge("qpa.quota_remaining").Set(7);
  Histogram& h = registry.GetHistogram("qp.query_cost", {1.0, 10.0});
  h.Record(0.5);
  h.Record(4.0);
  const char* expected =
      "# TYPE qp_queries counter\n"
      "qp_queries_total 3\n"
      "# TYPE qpa_quota_remaining gauge\n"
      "qpa_quota_remaining 7\n"
      "# TYPE qp_query_cost histogram\n"
      "qp_query_cost_bucket{le=\"1\"} 1\n"
      "qp_query_cost_bucket{le=\"10\"} 2\n"
      "qp_query_cost_bucket{le=\"+Inf\"} 2\n"
      "qp_query_cost_sum 4.5\n"
      "qp_query_cost_count 2\n"
      "# EOF\n";
  EXPECT_EQ(obs::OpenMetricsText(registry.Snapshot()), expected);
}

TEST(OpenMetricsTest, NonFiniteGaugesUseLiteralSpellings) {
  // Unlike JSON, the exposition format has NaN/+Inf/-Inf literals; a
  // non-finite gauge must survive the dump un-mangled.
  MetricsRegistry registry;
  registry.GetGauge("g.nan").Set(std::nan(""));
  registry.GetGauge("g.pos").Set(std::numeric_limits<double>::infinity());
  registry.GetGauge("g.neg").Set(-std::numeric_limits<double>::infinity());
  std::string text = obs::OpenMetricsText(registry.Snapshot());
  EXPECT_NE(text.find("g_nan NaN\n"), std::string::npos) << text;
  EXPECT_NE(text.find("g_pos +Inf\n"), std::string::npos) << text;
  EXPECT_NE(text.find("g_neg -Inf\n"), std::string::npos) << text;
}

TEST(ScopedTimerTest, RecordsElapsedMicros) {
  MetricsRegistry registry;
  Histogram& h = registry.GetHistogram("t.us", {1e9});
  double out = -1.0;
  {
    obs::ScopedTimer timer(&h, &out);
    volatile double sink = 0;
    for (int i = 0; i < 1000; ++i) sink = sink + i;
  }
  EXPECT_EQ(h.count(), 1);
  EXPECT_GE(out, 0.0);
  EXPECT_DOUBLE_EQ(h.sum(), out);
  // Null targets are fine.
  { obs::ScopedTimer timer(nullptr); }
}

/// Splits sink output into non-empty lines.
std::vector<std::string> Lines(const std::string& text) {
  std::vector<std::string> lines;
  for (const std::string& line : Split(text, '\n')) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

int CountLinesOfType(const std::vector<std::string>& lines,
                     const std::string& type) {
  std::string needle = "\"type\":\"" + type + "\"";
  int count = 0;
  for (const std::string& line : lines) {
    if (line.find(needle) != std::string::npos) ++count;
  }
  return count;
}

TEST(JsonlSinkTest, PibRunRoundTrip) {
  // A real learn-pib-style run: PIB watching an instrumented query
  // processor over a synthetic workload, all events into JSONL.
  Rng rng(99);
  RandomTreeOptions tree_options;
  tree_options.depth = 3;
  tree_options.min_branch = 2;
  tree_options.max_branch = 3;
  RandomTree tree = MakeRandomTree(rng, tree_options);

  std::ostringstream out;
  obs::MetricsRegistry registry;
  obs::JsonlSink sink(&out);
  obs::Observer observer(&registry, &sink);

  Pib pib(&tree.graph, Strategy::DepthFirst(tree.graph),
          PibOptions{.delta = 0.2}, &observer);
  QueryProcessor qp(&tree.graph, &observer);
  IndependentOracle oracle(tree.probs);
  const int64_t kQueries = 2000;
  for (int64_t i = 0; i < kQueries; ++i) {
    pib.Observe(qp.Execute(pib.strategy(), oracle.Next(rng)));
  }
  sink.Flush();

  std::vector<std::string> lines = Lines(out.str());
  ASSERT_FALSE(lines.empty());
  // Every line is exactly one well-formed JSON object.
  for (const std::string& line : lines) {
    EXPECT_TRUE(IsValidJson(line)) << "bad JSONL line: " << line;
    EXPECT_EQ(line.front(), '{') << line;
  }
  // Event counts agree with the learner's and processor's own getters.
  EXPECT_EQ(CountLinesOfType(lines, "climb_move"),
            static_cast<int>(pib.moves().size()));
  EXPECT_GE(pib.moves().size(), 1u) << "run too short to exercise a move";
  EXPECT_EQ(CountLinesOfType(lines, "query_start"), kQueries);
  EXPECT_EQ(CountLinesOfType(lines, "query_end"), kQueries);
  EXPECT_EQ(CountLinesOfType(lines, "sequential_test"),
            static_cast<int>(pib.contexts_processed()));

  // Metrics agree with the getters too (the acceptance criterion).
  EXPECT_EQ(registry.GetCounter("pib.moves").value(),
            static_cast<int64_t>(pib.moves().size()));
  EXPECT_EQ(registry.GetCounter("pib.contexts").value(),
            pib.contexts_processed());
  EXPECT_EQ(registry.GetCounter("qp.queries").value(), kQueries);
  EXPECT_EQ(registry.GetHistogram("qp.query_cost").count(), kQueries);
  EXPECT_TRUE(IsValidJson(registry.SnapshotJson()));
}

TEST(ChromeTraceSinkTest, EmitsLoadableJsonArray) {
  std::ostringstream out;
  {
    obs::ChromeTraceSink sink(&out);
    obs::QueryEndEvent end;
    end.query_index = 0;
    end.t_us = 10;
    end.duration_us = 5;
    end.cost = 3.5;
    end.attempts = 4;
    end.success = true;
    sink.On(end);
    obs::ClimbMoveEvent move;
    move.learner = "pib";
    move.swap = "swap <a,b>";
    move.t_us = 20;
    sink.On(move);
    obs::QuotaProgressEvent quota;
    quota.t_us = 30;
    quota.remaining_total = 12;
    sink.On(quota);
    sink.Flush();
  }
  std::string text = out.str();
  EXPECT_TRUE(IsValidJson(text)) << text;
  EXPECT_EQ(text.front(), '[');
  EXPECT_NE(text.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\":\"C\""), std::string::npos);
}

TEST(ChromeTraceSinkTest, SkippedEventsAfterADrawnOneWriteNothing) {
  std::ostringstream out;
  obs::ChromeTraceSink sink(&out);
  sink.On(obs::QueryEndEvent{0, 10, 5, 2.5, 4, 1, true});
  sink.Flush();
  const std::string drawn = out.str();
  // Query starts and arc attempts are not drawn; the sink's reused
  // writer must not hand them the query end's record.
  sink.On(obs::QueryStartEvent{1, 20});
  sink.On(obs::ArcAttemptEvent{1, 21, 3, 0, true, 1.5});
  sink.Flush();
  EXPECT_EQ(out.str(), drawn);
  EXPECT_EQ(sink.events_dropped(), 0);
  sink.Close();
  EXPECT_EQ(out.str(), drawn + "\n]\n");
  EXPECT_TRUE(IsValidJson(out.str()));
}

TEST(NullObserverTest, ExecutionUnchangedByObservation) {
  // Unobserved, metrics-only and traced processors must produce
  // identical traces on identical context streams — instrumentation is
  // read-only.
  Rng rng_a(5);
  Rng rng_b(5);
  RandomTree tree = MakeRandomTree(rng_a);
  MakeRandomTree(rng_b);  // keep the two streams aligned
  Strategy theta = Strategy::DepthFirst(tree.graph);
  IndependentOracle oracle(tree.probs);

  obs::MetricsRegistry registry;
  obs::Observer observer(&registry, nullptr);
  obs::MetricsRegistry traced_registry;
  obs::NullSink null_sink;
  obs::LockingSink locked_null(&null_sink);
  obs::Observer traced_observer(&traced_registry, &locked_null);
  QueryProcessor plain(&tree.graph);
  QueryProcessor observed(&tree.graph, &observer);
  QueryProcessor traced(&tree.graph, &traced_observer);
  for (int i = 0; i < 200; ++i) {
    Context ctx_a = oracle.Next(rng_a);
    Context ctx_b = oracle.Next(rng_b);
    ASSERT_TRUE(ctx_a == ctx_b);
    Trace ta = plain.Execute(theta, ctx_a);
    for (QueryProcessor* qp : {&observed, &traced}) {
      Trace tb = qp->Execute(theta, ctx_b);
      ASSERT_EQ(ta.cost, tb.cost);
      ASSERT_EQ(ta.successes, tb.successes);
      ASSERT_EQ(ta.attempts.size(), tb.attempts.size());
    }
  }
  EXPECT_EQ(registry.GetCounter("qp.queries").value(), 200);
  EXPECT_EQ(traced_registry.GetCounter("qp.queries").value(), 200);
}

/// A streambuf that accepts `limit` bytes, then fails every write — a
/// stand-in for a full disk or a closed pipe.
class FailingBuf : public std::streambuf {
 public:
  explicit FailingBuf(size_t limit) : limit_(limit) {}

 protected:
  int_type overflow(int_type ch) override {
    if (written_ >= limit_ || traits_type::eq_int_type(ch, traits_type::eof())) {
      return traits_type::eof();
    }
    ++written_;
    return ch;
  }
  std::streamsize xsputn(const char* /*s*/, std::streamsize n) override {
    if (written_ + static_cast<size_t>(n) > limit_) return 0;
    written_ += static_cast<size_t>(n);
    return n;
  }

 private:
  size_t limit_;
  size_t written_ = 0;
};

TEST(SinkFailureTest, JsonlSinkDisablesItselfOnWriteFailure) {
  FailingBuf buf(16);
  std::ostream out(&buf);
  obs::JsonlSink sink(&out);
  ASSERT_FALSE(sink.failed());
  // The first event overflows the 16-byte budget; the sink must latch
  // failed() and swallow everything after without crashing.
  for (int i = 0; i < 50; ++i) {
    sink.On(obs::QueryEndEvent{i, 0, 10, 2.5, 4, 1, true});
    sink.Flush();
  }
  EXPECT_TRUE(sink.failed());
  sink.Close();  // must also be a safe no-op on a failed sink
}

TEST(SinkFailureTest, ChromeSinkNeverFinalisesAFailedStream) {
  FailingBuf buf(4);  // fails during the opening "[\n"
  std::ostream out(&buf);
  {
    obs::ChromeTraceSink sink(&out);
    for (int i = 0; i < 20; ++i) {
      sink.On(obs::QueryEndEvent{i, 0, 10, 2.5, 4, 1, true});
    }
    EXPECT_TRUE(sink.failed());
  }  // destructor: a failed sink must not write the closing "]"
}

TEST(SinkFailureTest, RobustnessEventsSerializeAsJsonl) {
  std::ostringstream out;
  obs::JsonlSink sink(&out);
  sink.On(obs::RetryEvent{100, 7, 3, 0, "transient", 1, 0.25, false});
  sink.On(obs::RetryEvent{110, 7, 3, 0, "timeout", 3, 0.0, true});
  sink.On(obs::BreakerEvent{120, 7, 3, 0, "open", 8, 40});
  sink.Flush();
  std::string text = out.str();
  for (const std::string& line : Split(text, '\n')) {
    if (Trim(line).empty()) continue;
    EXPECT_TRUE(IsValidJson(line)) << line;
  }
  EXPECT_NE(text.find("\"type\":\"retry\""), std::string::npos);
  EXPECT_NE(text.find("\"gave_up\":true"), std::string::npos);
  EXPECT_NE(text.find("\"type\":\"breaker\""), std::string::npos);
  EXPECT_NE(text.find("\"state\":\"open\""), std::string::npos);
}

TEST(SinkDropTest, JsonlSinkCountsEventsDroppedAfterClose) {
  std::ostringstream out;
  obs::MetricsRegistry registry;
  obs::Counter* dropped = &registry.GetCounter("obs.trace_events_dropped");
  obs::JsonlSink sink(&out);
  sink.set_drop_counter(dropped);
  sink.On(obs::QueryEndEvent{0, 10, 5, 2.5, 4, 1, true});
  sink.Close();
  const std::string closed_text = out.str();
  ASSERT_EQ(sink.events_dropped(), 0);
  // Everything after Close() is dropped, counted, and leaves the
  // finalised output untouched.
  sink.On(obs::QueryEndEvent{1, 20, 5, 2.5, 4, 1, true});
  sink.On(
      obs::ClimbMoveEvent{30, "pib", 0, 1, 8, "swap", 1.0, 0.5, 0.5, 0.01});
  sink.On(obs::ArcAttemptEvent{1, 40, 3, 0, true, 1.5});
  EXPECT_EQ(sink.events_dropped(), 3);
  EXPECT_EQ(dropped->value(), 3);
  EXPECT_EQ(out.str(), closed_text);
}

TEST(SinkDropTest, ChromeSinkCountsEventsDroppedAfterClose) {
  std::ostringstream out;
  obs::MetricsRegistry registry;
  obs::Counter* dropped = &registry.GetCounter("obs.trace_events_dropped");
  obs::ChromeTraceSink sink(&out);
  sink.set_drop_counter(dropped);
  sink.On(obs::QueryEndEvent{0, 10, 5, 2.5, 4, 1, true});
  sink.Close();
  sink.On(obs::QueryEndEvent{1, 20, 5, 2.5, 4, 1, true});
  sink.On(obs::QueryEndEvent{2, 30, 5, 2.5, 4, 1, true});
  EXPECT_EQ(sink.events_dropped(), 2);
  EXPECT_EQ(dropped->value(), 2);
}

std::string ReadTestdata(const std::string& name) {
  std::ifstream in(std::string(STRATLEARN_TESTDATA) + "/" + name);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

/// One instance of every event type, in variant order, with every field
/// off its default: 0.1+0.2 and 1/3 need all 17 digits, ids are negative
/// where the type allows it, and strings carry quotes, backslashes and
/// newlines.
std::vector<obs::Event> SampleEvents() {
  return {
      obs::QueryStartEvent{-3, 11},
      obs::QueryEndEvent{-3, 12, 7, 0.1 + 0.2, 4, 2, true},
      obs::ArcAttemptEvent{-3, 13, 4000000000u, -2, true, 1.0 / 3.0},
      obs::ClimbMoveEvent{14, "pi\"b", 2, 77, 51, "a\\b,\nc", 70.5,
                          -1.0 / 3.0, 0.1 + 0.2, 7.65844e-06},
      obs::SequentialTestEvent{15, "pib1", 76, 51, 9, -4, 2.0 / 3.0, 1e-300,
                               true},
      obs::QuotaProgressEvent{16, -5, -6, true, 17, 1000000000000000},
      obs::RetryEvent{17, -7, 8, -9, "time\"out", 3, 0.1 + 0.2, true},
      obs::BreakerEvent{18, -10, 11, -12, "half\\open", 13, -14},
      obs::DriftEvent{20, "p_hat", "de\ntected", -17, 0.1 + 0.2, -1.0 / 3.0,
                      2.5, 18, 19, 20},
      obs::AlertEvent{21, "rule\\1", "firing", "critical", "m\n", -0.0,
                      1.0 / 3.0, 22, 23},
      obs::RecoveryEvent{22, "r\"1", "alert:any", "rebaseline", "applied",
                         -24, 25, 26, 0.1 + 0.2, 1.0 / 3.0, -27.5},
      obs::PaloStopEvent{23, 28, 29, 1.0 / 3.0, 0.1 + 0.2},
      obs::DecisionCertificateEvent{
          24, "pa\"lo", "cl\\imb", "com\nmit", 30, 31, 32, -33, 0.1 + 0.2,
          1.0 / 3.0, -2.0 / 3.0, 1e-10, 4.0, 0.125, 1e-7, 0.05, 0.025, 34,
          0.5},
  };
}

TEST(TraceFormatGoldenTest, SamplesCoverEveryEventType) {
  std::vector<obs::Event> samples = SampleEvents();
  ASSERT_EQ(samples.size(), std::variant_size_v<obs::Event>);
  for (size_t i = 0; i < samples.size(); ++i) {
    EXPECT_EQ(samples[i].index(), i);
  }
}

TEST(TraceFormatGoldenTest, JsonlPinsEveryEventType) {
  std::ostringstream out;
  {
    obs::JsonlSink sink(&out);
    for (const obs::Event& e : SampleEvents()) sink.On(e);
  }
  EXPECT_EQ(out.str(), ReadTestdata("trace/all_events.jsonl"));
}

TEST(TraceFormatGoldenTest, ChromePinsEveryEventType) {
  std::ostringstream out;
  {
    obs::ChromeTraceSink sink(&out);
    for (const obs::Event& e : SampleEvents()) sink.On(e);
  }
  EXPECT_EQ(out.str(), ReadTestdata("trace/all_events.chrome.json"));
}

/// Writes `e` as one JSONL line.
std::string JsonlLine(const obs::Event& e) {
  std::ostringstream out;
  obs::JsonlSink sink(&out);
  sink.On(e);
  sink.Flush();
  return out.str();
}

TEST(TraceReaderRoundTripTest, EveryEventTypeIsByteExact) {
  // The audit ledger and audit_verify replay decisions from the JSONL
  // stream, so writing, reading and writing again must not move a bit.
  std::vector<obs::Event> inputs = SampleEvents();
  // Awkward doubles from real learner arithmetic.
  inputs.push_back(obs::ClimbMoveEvent{
      123456789, "palo", 3, 4097, 811, "swap children 2<->5 under node 9",
      0.1 + 0.2, 1.0 / 3.0, (0.1 + 0.2) - 1.0 / 3.0,
      0.05 * 6.0 / (M_PI * M_PI * 7.0 * 7.0)});
  inputs.push_back(obs::SequentialTestEvent{987654321, "pib", 511, 129, 17,
                                            6, 2.0 / 3.0,
                                            std::sqrt(2.0) * 100.0, true});
  inputs.push_back(obs::DecisionCertificateEvent{
      42, "pib", "climb", "commit", 300, 96, 12, 4, 1.0 / 7.0, 96.0 / 7.0,
      0.1 + 0.2, 96.0 / 7.0 - (0.1 + 0.2), 4.0, std::sqrt(3.0) / 10.0,
      0.05 * 6.0 / (M_PI * M_PI * 144.0), 0.05, 0.05 / 3.0, 2048, 0.0});
  for (const obs::Event& e : inputs) {
    std::string line = JsonlLine(e);
    std::ostringstream rewritten;
    obs::JsonlSink rewriter(&rewritten);
    obs::TraceReader reader(&rewriter);
    ASSERT_TRUE(reader.ReplayLine(line).ok()) << line;
    EXPECT_EQ(reader.events(), 1) << line;
    rewriter.Flush();
    EXPECT_EQ(rewritten.str(), line);
  }
}

TEST(TraceReaderTest, OutOfRangeIntegersKeepTheirDefaults) {
  // 1e999 parses as +inf. Converting it, or -1e30, to int64_t is
  // undefined behaviour, and -1 or 3e9 do not fit a uint32_t arc or an
  // int experiment, so each such field reads like a missing one.
  std::ostringstream out;
  obs::JsonlSink rewriter(&out);
  obs::TraceReader reader(&rewriter);
  for (const char* line : {
           R"({"type":"query_end","t_us":1e999,"query_index":-1e30,)"
           R"("duration_us":5,"cost":2.5})",
           R"({"type":"sequential_test","best_neighbor":1e999,)"
           R"("at_context":-1e30,"samples":4})",
           R"({"type":"arc_attempt","arc":-1,"experiment":3e9,"cost":1e999})",
       }) {
    ASSERT_TRUE(reader.ReplayLine(line).ok()) << line;
  }
  rewriter.Flush();
  EXPECT_EQ(out.str(),
            R"({"type":"query_end","t_us":0,"query_index":0,)"
            R"("duration_us":5,"cost":2.5,"attempts":0,"successes":0,)"
            R"("success":false})"
            "\n"
            R"({"type":"sequential_test","t_us":0,"learner":"",)"
            R"("at_context":0,"samples":4,"trial_count":0,)"
            R"("best_neighbor":-1,"best_delta_sum":0,"best_threshold":0,)"
            R"("fired":false})"
            "\n"
            R"({"type":"arc_attempt","t_us":0,"query_index":0,"arc":0,)"
            R"("experiment":-1,"unblocked":false,"cost":null})"
            "\n");
}

}  // namespace
}  // namespace stratlearn
