#ifndef STRATLEARN_OBS_PROFILER_H_
#define STRATLEARN_OBS_PROFILER_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/trace_sink.h"

namespace stratlearn::obs {

/// Online per-arc cost attribution. One entry per arc id that appeared
/// in at least one ArcAttemptEvent.
struct ArcProfile {
  int64_t attempts = 0;
  int64_t unblocked = 0;
  double cum_cost = 0.0;

  int64_t blocked() const { return attempts - unblocked; }
  /// Empirical unblock frequency p^ (0 with no attempts).
  double PHat() const {
    return attempts == 0
               ? 0.0
               : static_cast<double>(unblocked) / static_cast<double>(attempts);
  }
  double MeanCost() const {
    return attempts == 0 ? 0.0 : cum_cost / static_cast<double>(attempts);
  }
};

/// Where each test round's best neighbour stood relative to its
/// Equation-6 threshold — the Delta~ margin trajectory of the run.
struct TestRound {
  std::string learner;
  int64_t at_context = 0;
  int64_t best_neighbor = -1;
  double margin = 0.0;
  bool fired = false;
};

/// Per-neighbour aggregate over the test rounds in which that neighbour
/// was the best candidate.
struct NeighborMargins {
  int64_t rounds_best = 0;
  double last_margin = 0.0;
  double max_margin = 0.0;
};

struct ProfilerOptions {
  /// Confidence for the p^ half-widths in reports: eps is the Hoeffding
  /// deviation at this delta, so [p^-eps, p^+eps] holds w.p. >= 1-delta
  /// per arc.
  double delta = 0.05;
  /// An arc is marked "hot" when its share of the total attributed cost
  /// reaches this fraction.
  double hot_share = 0.10;
};

/// Aggregates the PR-1 Observer event stream into per-arc cost
/// attribution: attempt counts, unblock frequencies with Chernoff-style
/// confidence half-widths, cumulative/mean traversal cost and share of
/// the total expected-cost spend, plus the learner-side story (climb
/// history, Delta~ margin trajectory, delta_i budget, quota countdown,
/// PALO certificates).
///
/// It is itself a TraceSink, so it can ride the same Observer as a file
/// sink via TeeSink (online profiling), or be fed from a recorded JSONL
/// trace via TraceReader (offline, `stratlearn_cli trace`) — both paths
/// produce identical reports because no report carries a timestamp.
class StrategyProfiler final : public TraceSink {
 public:
  explicit StrategyProfiler(ProfilerOptions options = {});

  void On(const Event& event) override;

  // ---- Aggregated state ------------------------------------------------

  const std::map<uint32_t, ArcProfile>& arcs() const { return arcs_; }
  int64_t queries() const { return queries_; }
  double total_query_cost() const { return total_query_cost_; }
  double MeanQueryCost() const {
    return queries_ == 0 ? 0.0 : total_query_cost_ / queries_;
  }
  int64_t queries_succeeded() const { return queries_succeeded_; }
  /// Sum of per-arc cumulative costs (the attribution denominator).
  double TotalArcCost() const;
  /// Share of the total attributed cost carried by `arc` (0 when
  /// nothing has been attributed yet).
  double CostShare(uint32_t arc) const;
  /// Hoeffding half-width for a p^ built from `attempts` Bernoulli
  /// observations at the profiler's delta.
  double HalfWidth(int64_t attempts) const;

  /// Hill-climbing moves in order. Reports leave out their timestamps
  /// so they stay deterministic across runs.
  const std::vector<ClimbMoveEvent>& climbs() const { return climbs_; }
  /// Total delta_i confidence budget consumed by fired moves.
  double DeltaSpent() const;
  const std::vector<TestRound>& test_rounds() const { return test_rounds_; }
  const std::map<int64_t, NeighborMargins>& neighbor_margins() const {
    return neighbor_margins_;
  }

  int64_t quota_events() const { return quota_events_; }
  int64_t quota_reached() const { return quota_reached_; }
  int64_t last_quota_remaining_total() const {
    return last_quota_remaining_total_;
  }
  const std::vector<PaloStopEvent>& palo_stops() const { return palo_stops_; }

  const ProfilerOptions& options() const { return options_; }

  // ---- Reports ---------------------------------------------------------

  /// Deterministic human-readable report: per-arc attribution table
  /// (sorted by arc id), climb history, margin trajectory summary,
  /// quota/PALO sections when present. Contains no timestamps.
  std::string ReportText() const;

  /// The same report as one deterministic JSON object.
  std::string ReportJson() const;

 private:
  ProfilerOptions options_;
  std::map<uint32_t, ArcProfile> arcs_;
  int64_t queries_ = 0;
  int64_t queries_succeeded_ = 0;
  double total_query_cost_ = 0.0;
  std::vector<ClimbMoveEvent> climbs_;
  std::vector<TestRound> test_rounds_;
  std::map<int64_t, NeighborMargins> neighbor_margins_;
  int64_t tests_fired_ = 0;
  int64_t quota_events_ = 0;
  int64_t quota_reached_ = 0;
  int64_t last_quota_remaining_total_ = 0;
  std::vector<PaloStopEvent> palo_stops_;
};

// ---- Two-run comparison (the bench regression gate) --------------------

struct ProfileDiffOptions {
  /// A per-arc regression fires when the candidate's mean traversal
  /// cost exceeds the baseline's by more than this relative fraction...
  double rel_threshold = 0.10;
  /// ...and by more than this absolute amount (guards near-zero means).
  double abs_threshold = 1e-9;
  /// Arcs with fewer attempts than this in either run are reported but
  /// never flagged (their means are noise).
  int64_t min_attempts = 10;
};

/// Per-arc comparison row. `rel_change` is (cand - base) / base mean
/// cost (0 when the baseline mean is 0).
struct ArcDiff {
  uint32_t arc = 0;
  int64_t base_attempts = 0;
  int64_t cand_attempts = 0;
  double base_mean = 0.0;
  double cand_mean = 0.0;
  double rel_change = 0.0;
  bool regression = false;
};

struct ProfileDiff {
  std::vector<ArcDiff> arcs;  // union of both runs' arcs, by arc id
  double base_mean_query_cost = 0.0;
  double cand_mean_query_cost = 0.0;
  bool has_regression = false;

  /// Deterministic table of the comparison, flagged rows marked.
  std::string ReportText() const;
};

/// Compares two aggregated runs arc by arc, flagging mean-traversal-cost
/// regressions beyond the thresholds.
ProfileDiff DiffProfiles(const StrategyProfiler& baseline,
                         const StrategyProfiler& candidate,
                         const ProfileDiffOptions& options = {});

}  // namespace stratlearn::obs

#endif  // STRATLEARN_OBS_PROFILER_H_
