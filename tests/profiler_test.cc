// Tests for the strategy profiler: per-arc cost attribution, confidence
// half-widths, the deterministic text/JSON reports (golden), online vs
// JSONL-replay parity over a real PIB run, the two-run diff mode, the
// TeeSink fan-out, the sink RAII close semantics, and TraceReader error
// handling.

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/pib.h"
#include "engine/query_processor.h"
#include "obs/json_reader.h"
#include "obs/observer.h"
#include "obs/profiler.h"
#include "obs/sinks.h"
#include "obs/trace_reader.h"
#include "stats/chernoff.h"
#include "workload/random_tree.h"
#include "workload/synthetic_oracle.h"

namespace stratlearn {
namespace {

using obs::ArcAttemptEvent;
using obs::DiffProfiles;
using obs::IsValidJson;
using obs::ProfileDiff;
using obs::ProfileDiffOptions;
using obs::ProfilerOptions;
using obs::QueryEndEvent;
using obs::QueryStartEvent;
using obs::StrategyProfiler;
using obs::TeeSink;
using obs::TraceReader;

ArcAttemptEvent Attempt(uint32_t arc, bool unblocked, double cost,
                        int experiment = 0) {
  ArcAttemptEvent e;
  e.arc = arc;
  e.experiment = experiment;
  e.unblocked = unblocked;
  e.cost = cost;
  return e;
}

/// Feeds `n` attempts of `arc`, of which `unblocked` succeed, each at
/// `cost`, framed as one query per attempt.
void Feed(StrategyProfiler* p, uint32_t arc, int n, int unblocked,
          double cost) {
  for (int i = 0; i < n; ++i) {
    p->On(QueryStartEvent{});
    p->On(Attempt(arc, i < unblocked, cost));
    QueryEndEvent end;
    end.cost = cost;
    end.success = i < unblocked;
    p->On(end);
  }
}

TEST(StrategyProfilerTest, ArcAttribution) {
  StrategyProfiler p;
  p.On(QueryStartEvent{});
  p.On(Attempt(0, true, 1.0, /*experiment=*/-1));
  p.On(Attempt(1, false, 2.0));
  p.On(Attempt(1, true, 2.0));
  QueryEndEvent end;
  end.cost = 5.0;
  end.attempts = 3;
  end.success = true;
  p.On(end);

  EXPECT_EQ(p.queries(), 1);
  EXPECT_EQ(p.queries_succeeded(), 1);
  EXPECT_DOUBLE_EQ(p.total_query_cost(), 5.0);
  ASSERT_EQ(p.arcs().size(), 2u);
  const obs::ArcProfile& a1 = p.arcs().at(1);
  EXPECT_EQ(a1.attempts, 2);
  EXPECT_EQ(a1.unblocked, 1);
  EXPECT_EQ(a1.blocked(), 1);
  EXPECT_DOUBLE_EQ(a1.PHat(), 0.5);
  EXPECT_DOUBLE_EQ(a1.MeanCost(), 2.0);
  EXPECT_DOUBLE_EQ(p.TotalArcCost(), 5.0);
  EXPECT_DOUBLE_EQ(p.CostShare(0), 0.2);
  EXPECT_DOUBLE_EQ(p.CostShare(1), 0.8);
  EXPECT_DOUBLE_EQ(p.CostShare(99), 0.0);
}

TEST(StrategyProfilerTest, HalfWidthMatchesHoeffding) {
  StrategyProfiler p(ProfilerOptions{.delta = 0.1});
  EXPECT_DOUBLE_EQ(p.HalfWidth(0), 1.0);  // no data: vacuous interval
  EXPECT_DOUBLE_EQ(p.HalfWidth(1), 1.0);  // clamped to the unit range
  EXPECT_DOUBLE_EQ(p.HalfWidth(400), HoeffdingDeviation(400, 0.1, 1.0));
}

TEST(StrategyProfilerTest, GoldenTextReport) {
  StrategyProfiler p;
  Feed(&p, 0, 4, 4, 1.0);
  Feed(&p, 1, 4, 1, 2.0);
  const char* expected =
      "== strategy profile ==\n"
      "queries: 8  succeeded: 5  mean cost/query: 1.5  total cost: 12\n"
      "per-arc attribution (delta=0.05, hot >= 10% share):\n"
      "   arc  attempts    unblkd   p_hat  +/-eps       mean        cum"
      "   share\n"
      "     0         4         4       1   0.612          1          4"
      "   33.3%  HOT\n"
      "     1         4         1    0.25   0.612          2          8"
      "   66.7%  HOT\n"
      "climb history: 0 moves, delta budget spent 0\n";
  EXPECT_EQ(p.ReportText(), expected);
}

TEST(StrategyProfilerTest, ReportJsonIsValidAndDeterministic) {
  StrategyProfiler a;
  StrategyProfiler b;
  for (StrategyProfiler* p : {&a, &b}) {
    Feed(p, 3, 10, 7, 0.5);
    Feed(p, 1, 2, 0, 4.0);
  }
  EXPECT_TRUE(IsValidJson(a.ReportJson()));
  EXPECT_EQ(a.ReportJson(), b.ReportJson());
  EXPECT_EQ(a.ReportText(), b.ReportText());
}

TEST(StrategyProfilerTest, OnlineAndReplayReportsAgree) {
  // One real PIB learning run, with the profiler teed next to a JSONL
  // sink; replaying the recorded trace into a fresh profiler must give
  // byte-identical reports (nothing time-based is aggregated).
  Rng rng(99);
  RandomTree tree = MakeRandomTree(rng);

  std::ostringstream trace;
  obs::JsonlSink file(&trace);
  StrategyProfiler online;
  TeeSink tee(std::vector<obs::TraceSink*>{&file, &online});
  obs::MetricsRegistry registry;
  obs::Observer observer(&registry, &tee);

  Pib pib(&tree.graph, Strategy::DepthFirst(tree.graph),
          PibOptions{.delta = 0.2}, &observer);
  QueryProcessor qp(&tree.graph, &observer);
  IndependentOracle oracle(tree.probs);
  for (int64_t i = 0; i < 2000; ++i) {
    pib.Observe(qp.Execute(pib.strategy(), oracle.Next(rng)));
  }
  file.Close();
  ASSERT_GE(pib.moves().size(), 1u) << "run too short to exercise a move";

  StrategyProfiler replayed;
  TraceReader reader(&replayed);
  std::istringstream in(trace.str());
  Status status = reader.ReplayStream(in);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(reader.skipped(), 0);
  EXPECT_EQ(online.ReportText(), replayed.ReportText());
  EXPECT_EQ(online.ReportJson(), replayed.ReportJson());
  EXPECT_EQ(online.climbs().size(), pib.moves().size());
}

TEST(ProfileDiffTest, FlagsRegressionBeyondThreshold) {
  StrategyProfiler base;
  StrategyProfiler cand;
  Feed(&base, 0, 20, 10, 1.0);
  Feed(&cand, 0, 20, 10, 1.2);  // +20% mean cost on arc 0
  Feed(&base, 1, 20, 10, 1.0);
  Feed(&cand, 1, 20, 10, 1.05);  // +5%: under the 10% threshold
  ProfileDiff diff = DiffProfiles(base, cand);
  EXPECT_TRUE(diff.has_regression);
  ASSERT_EQ(diff.arcs.size(), 2u);
  EXPECT_TRUE(diff.arcs[0].regression);
  EXPECT_NEAR(diff.arcs[0].rel_change, 0.2, 1e-12);
  EXPECT_FALSE(diff.arcs[1].regression);
  EXPECT_NE(diff.ReportText().find("verdict: REGRESSION"), std::string::npos);
}

TEST(ProfileDiffTest, ImprovementAndParityAreClean) {
  StrategyProfiler base;
  StrategyProfiler cand;
  Feed(&base, 0, 20, 10, 2.0);
  Feed(&cand, 0, 20, 10, 1.0);  // 2x faster: not a regression
  ProfileDiff diff = DiffProfiles(base, cand);
  EXPECT_FALSE(diff.has_regression);
  EXPECT_NE(diff.ReportText().find("verdict: ok"), std::string::npos);

  ProfileDiff self = DiffProfiles(base, base);
  EXPECT_FALSE(self.has_regression);
}

TEST(ProfileDiffTest, SparseArcsAreReportedButNeverFlagged) {
  StrategyProfiler base;
  StrategyProfiler cand;
  Feed(&base, 0, 3, 1, 1.0);
  Feed(&cand, 0, 3, 1, 10.0);  // huge jump, but only 3 attempts
  ProfileDiff diff = DiffProfiles(base, cand);
  ASSERT_EQ(diff.arcs.size(), 1u);
  EXPECT_FALSE(diff.has_regression);
  EXPECT_GT(diff.arcs[0].rel_change, 1.0);

  ProfileDiffOptions lax;
  lax.min_attempts = 1;
  EXPECT_TRUE(DiffProfiles(base, cand, lax).has_regression);
}

TEST(TeeSinkTest, ForwardsToAllAndSkipsNull) {
  StrategyProfiler a;
  StrategyProfiler b;
  TeeSink tee(std::vector<obs::TraceSink*>{&a, nullptr, &b});
  tee.On(QueryStartEvent{});
  tee.On(Attempt(7, true, 3.0));
  tee.On(QueryEndEvent{});
  tee.Close();
  for (StrategyProfiler* p : {&a, &b}) {
    EXPECT_EQ(p->queries(), 1);
    EXPECT_EQ(p->arcs().at(7).attempts, 1);
  }
}

TEST(SinkRaiiTest, ChromeTraceValidWithoutExplicitClose) {
  // An early exit (sink destroyed with no Flush/Close call) must still
  // leave a loadable JSON array on disk.
  std::ostringstream out;
  {
    obs::ChromeTraceSink sink(&out);
    QueryEndEvent end;
    end.query_index = 1;
    sink.On(end);
  }
  EXPECT_TRUE(IsValidJson(out.str())) << out.str();
}

TEST(SinkRaiiTest, EventsAfterCloseAreDropped) {
  std::ostringstream out;
  obs::ChromeTraceSink sink(&out);
  sink.On(QueryEndEvent{});
  sink.Close();
  std::string closed = out.str();
  EXPECT_TRUE(IsValidJson(closed));
  sink.On(QueryEndEvent{});
  sink.Close();  // idempotent
  EXPECT_EQ(out.str(), closed);

  std::ostringstream jout;
  obs::JsonlSink jsink(&jout);
  jsink.On(QueryStartEvent{});
  jsink.Close();
  std::string jclosed = jout.str();
  jsink.On(QueryStartEvent{});
  EXPECT_EQ(jout.str(), jclosed);
}

TEST(TraceReaderTest, RejectsMalformedLinesWithLineNumber) {
  StrategyProfiler p;
  TraceReader reader(&p);
  std::istringstream in(
      "{\"type\":\"query_start\",\"t_us\":0,\"query_index\":0}\n"
      "not json at all\n");
  Status status = reader.ReplayStream(in);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("line 2"), std::string::npos)
      << status.ToString();
}

TEST(TraceReaderTest, SkipsUnknownEventTypes) {
  StrategyProfiler p;
  TraceReader reader(&p);
  ASSERT_TRUE(reader.ReplayLine("{\"type\":\"from_the_future\"}").ok());
  ASSERT_TRUE(
      reader.ReplayLine("{\"type\":\"query_end\",\"cost\":2.5}").ok());
  EXPECT_EQ(reader.skipped(), 1);
  EXPECT_EQ(reader.events(), 1);
  EXPECT_EQ(p.queries(), 1);
  EXPECT_DOUBLE_EQ(p.total_query_cost(), 2.5);
}

}  // namespace
}  // namespace stratlearn
