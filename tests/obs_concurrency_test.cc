// Multi-threaded stress tests for the telemetry layer, designed to run
// under TSan (the tsan CI job runs the whole suite): N threads hammer
// the atomic metrics core, the mutex-guarded registry, the LockingSink
// wrapper and the TimeSeriesCollector, and every total must come out
// exact once the writers join — lock-free does not mean lossy.

#include <atomic>
#include <cstdint>
#include <functional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "engine/query_processor.h"
#include "obs/json_reader.h"
#include "obs/metrics.h"
#include "obs/observer.h"
#include "obs/sinks.h"
#include "obs/timeseries.h"
#include "util/rng.h"
#include "util/string_util.h"
#include "workload/random_tree.h"
#include "workload/synthetic_oracle.h"

namespace stratlearn {
namespace {

constexpr int kThreads = 8;
constexpr int kPerThread = 5000;

void RunThreads(const std::function<void(int)>& body) {
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) threads.emplace_back(body, t);
  for (std::thread& thread : threads) thread.join();
}

TEST(MetricsConcurrencyTest, CounterTotalIsExact) {
  obs::MetricsRegistry registry;
  obs::Counter& via_handle = registry.GetCounter("stress.handle");
  RunThreads([&](int) {
    for (int i = 0; i < kPerThread; ++i) {
      via_handle.Increment();
      // The lookup path must also be safe mid-flight (mutex-guarded
      // name map), not just pre-resolved handles.
      registry.GetCounter("stress.lookup").Increment(2);
    }
  });
  EXPECT_EQ(via_handle.value(), int64_t{kThreads} * kPerThread);
  EXPECT_EQ(registry.GetCounter("stress.lookup").value(),
            int64_t{kThreads} * kPerThread * 2);
}

TEST(MetricsConcurrencyTest, HistogramMomentsAreExact) {
  obs::Histogram h({1.0, 2.0, 4.0, 8.0});
  RunThreads([&](int t) {
    for (int i = 0; i < kPerThread; ++i) {
      // Values cycle 1..8; thread 0 contributes the global min (0.5)
      // and max (100) exactly once each.
      h.Record(static_cast<double>(i % 8 + 1));
      if (t == 0 && i == 17) h.Record(0.5);
      if (t == 0 && i == 4711) h.Record(100.0);
    }
  });
  int64_t expected = int64_t{kThreads} * kPerThread + 2;
  EXPECT_EQ(h.count(), expected);
  int64_t bucket_total = 0;
  for (size_t i = 0; i < h.num_buckets(); ++i) bucket_total += h.bucket_count(i);
  EXPECT_EQ(bucket_total, expected);
  EXPECT_DOUBLE_EQ(h.min(), 0.5);
  EXPECT_DOUBLE_EQ(h.max(), 100.0);
  // sum = per-thread sum of the 1..8 cycle plus the two outliers.
  double cycle_sum = 0.0;
  for (int i = 0; i < kPerThread; ++i) cycle_sum += i % 8 + 1;
  EXPECT_DOUBLE_EQ(h.sum(), kThreads * cycle_sum + 0.5 + 100.0);
}

TEST(MetricsConcurrencyTest, GaugeNeverTears) {
  obs::Gauge g;
  RunThreads([&](int t) {
    for (int i = 0; i < kPerThread; ++i) {
      g.Set(static_cast<double>(t + 1));
    }
  });
  // Last-write-wins: the final value is one of the written values,
  // never a torn bit pattern.
  double v = g.value();
  EXPECT_GE(v, 1.0);
  EXPECT_LE(v, kThreads);
  EXPECT_EQ(v, static_cast<int>(v));
}

TEST(MetricsConcurrencyTest, RegistryPointersStableUnderInsertion) {
  obs::MetricsRegistry registry;
  obs::Counter* early = &registry.GetCounter("stable.early");
  std::atomic<bool> mismatch{false};
  RunThreads([&](int t) {
    for (int i = 0; i < 500; ++i) {
      // Churn the name map with fresh insertions...
      registry.GetCounter(StrFormat("churn.%d.%d", t, i)).Increment();
      // ...while the early handle must stay valid and identical.
      if (&registry.GetCounter("stable.early") != early) {
        mismatch.store(true);
      }
      early->Increment();
    }
  });
  EXPECT_FALSE(mismatch.load());
  EXPECT_EQ(early->value(), int64_t{kThreads} * 500);
}

TEST(MetricsConcurrencyTest, ShardedHistogramsMergeExactly) {
  // The per-thread-shard pattern Merge exists for: each worker records
  // into its own histogram, the aggregator folds them after the join.
  std::vector<obs::Histogram> shards(kThreads, obs::Histogram({1.0, 10.0}));
  RunThreads([&](int t) {
    for (int i = 0; i < kPerThread; ++i) {
      shards[t].Record(static_cast<double>(t + 1));
    }
  });
  obs::Histogram merged({1.0, 10.0});
  for (const obs::Histogram& shard : shards) merged.Merge(shard);
  EXPECT_EQ(merged.count(), int64_t{kThreads} * kPerThread);
  EXPECT_DOUBLE_EQ(merged.min(), 1.0);
  EXPECT_DOUBLE_EQ(merged.max(), kThreads);
}

TEST(MetricsConcurrencyTest, SnapshotDuringWritesIsWellFormed) {
  obs::MetricsRegistry registry;
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load()) {
      obs::MetricsSnapshot snapshot = registry.Snapshot();
      for (const auto& [name, h] : snapshot.histograms) {
        // Weakly consistent is fine; negative or structurally broken is
        // not.
        EXPECT_GE(h.count, 0) << name;
        EXPECT_EQ(h.bucket_counts.size(), h.bounds.size() + 1) << name;
      }
      EXPECT_TRUE(obs::IsValidJson(registry.SnapshotJson()));
    }
  });
  RunThreads([&](int t) {
    for (int i = 0; i < 2000; ++i) {
      registry.GetCounter("snap.c").Increment();
      registry.GetHistogram("snap.h").Record(static_cast<double>(i % 7));
      registry.GetGauge("snap.g").Set(static_cast<double>(t));
    }
  });
  stop.store(true);
  reader.join();
  EXPECT_EQ(registry.GetCounter("snap.c").value(),
            int64_t{kThreads} * 2000);
  EXPECT_EQ(registry.GetHistogram("snap.h").count(),
            int64_t{kThreads} * 2000);
}

TEST(LockingSinkTest, SerialisesConcurrentEmitters) {
  std::ostringstream out;
  obs::JsonlSink jsonl(&out);
  obs::LockingSink sink(&jsonl);
  RunThreads([&](int t) {
    for (int i = 0; i < 1000; ++i) {
      obs::ArcAttemptEvent e;
      e.query_index = t * 1000 + i;
      e.arc = static_cast<uint32_t>(t);
      e.unblocked = i % 2 == 0;
      e.cost = 1.0;
      sink.On(e);
    }
  });
  sink.Flush();
  int lines = 0;
  for (const std::string& line : Split(out.str(), '\n')) {
    if (Trim(line).empty()) continue;
    ++lines;
    // Interleaved writers must never produce a torn line.
    EXPECT_TRUE(obs::IsValidJson(line)) << line;
  }
  EXPECT_EQ(lines, kThreads * 1000);
}

TEST(TimeSeriesConcurrencyTest, ArcTotalsExactAcrossWindows) {
  obs::MetricsRegistry registry;
  obs::TimeSeriesCollector collector(&registry, {.interval_us = 10});
  std::atomic<int64_t> clock{0};
  RunThreads([&](int t) {
    for (int i = 0; i < kPerThread; ++i) {
      obs::ArcAttemptEvent e;
      e.arc = static_cast<uint32_t>(t % 3);
      e.unblocked = true;
      e.cost = 2.0;
      collector.On(e);
      registry.GetCounter("ts.events").Increment();
      if (i % 100 == 0) {
        // Threads advance a shared monotone clock while others emit.
        collector.AdvanceTo(clock.fetch_add(1) + 1);
      }
    }
  });
  collector.Finalize(clock.load() + 10);
  int64_t attempts = 0;
  double cost = 0.0;
  int64_t counter_delta = 0;
  for (const obs::TimeSeriesWindow& w : collector.Windows()) {
    for (const obs::ArcWindowStats& arc : w.arcs) {
      attempts += arc.attempts;
      cost += arc.cost;
    }
    counter_delta += w.counter_deltas.at("ts.events");
  }
  // Nothing evicted (default capacity is larger than the window count),
  // so the per-window deltas must add back up to the exact totals.
  EXPECT_EQ(collector.windows_evicted(), 0);
  EXPECT_EQ(attempts, int64_t{kThreads} * kPerThread);
  EXPECT_DOUBLE_EQ(cost, 2.0 * kThreads * kPerThread);
  EXPECT_EQ(counter_delta, int64_t{kThreads} * kPerThread);
}

TEST(QueryProcessorConcurrencyTest, SharedProcessorCountsEveryQuery) {
  // The observe-while-serving scenario the atomic core exists for: one
  // QueryProcessor, one observer, many serving threads.
  Rng tree_rng(42);
  RandomTreeOptions tree_options;
  tree_options.depth = 3;
  tree_options.min_branch = 2;
  tree_options.max_branch = 2;
  RandomTree tree = MakeRandomTree(tree_rng, tree_options);
  Strategy theta = Strategy::DepthFirst(tree.graph);

  obs::MetricsRegistry registry;
  std::ostringstream out;
  obs::JsonlSink jsonl(&out);
  obs::LockingSink sink(&jsonl);
  obs::Observer observer(&registry, &sink);
  QueryProcessor qp(&tree.graph, &observer);

  constexpr int kQueriesPerThread = 500;
  std::atomic<int64_t> attempts{0};
  RunThreads([&](int t) {
    Rng rng(1000 + t);
    IndependentOracle oracle(tree.probs);
    int64_t local_attempts = 0;
    for (int i = 0; i < kQueriesPerThread; ++i) {
      Trace trace = qp.Execute(theta, oracle.Next(rng));
      local_attempts += static_cast<int64_t>(trace.attempts.size());
    }
    attempts.fetch_add(local_attempts);
  });
  sink.Flush();

  constexpr int64_t kTotal = int64_t{kThreads} * kQueriesPerThread;
  EXPECT_EQ(registry.GetCounter("qp.queries").value(), kTotal);
  EXPECT_EQ(registry.GetCounter("qp.arc_attempts").value(), attempts.load());
  EXPECT_EQ(registry.GetHistogram("qp.query_cost").count(), kTotal);
  EXPECT_EQ(registry.GetHistogram("qp.query_wall_us").count(), kTotal);

  // Every query drew a distinct ordinal: count the query_start lines
  // and check index uniqueness.
  std::set<std::string> start_lines;
  int64_t starts = 0;
  for (const std::string& line : Split(out.str(), '\n')) {
    if (line.find("\"type\":\"query_start\"") == std::string::npos) continue;
    ++starts;
    size_t q = line.find("\"query_index\":");
    ASSERT_NE(q, std::string::npos) << line;
    start_lines.insert(line.substr(q));
  }
  EXPECT_EQ(starts, kTotal);
  EXPECT_EQ(static_cast<int64_t>(start_lines.size()), kTotal);
}

}  // namespace
}  // namespace stratlearn
