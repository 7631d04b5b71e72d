#include "obs/profiler.h"

#include <algorithm>
#include <variant>

#include "obs/event_json.h"
#include "obs/json_writer.h"
#include "stats/chernoff.h"
#include "util/string_util.h"

namespace stratlearn::obs {

StrategyProfiler::StrategyProfiler(ProfilerOptions options)
    : options_(options) {}

void StrategyProfiler::On(const Event& event) {
  if (const auto* e = std::get_if<QueryEndEvent>(&event)) {
    ++queries_;
    total_query_cost_ += e->cost;
    if (e->success) ++queries_succeeded_;
  } else if (const auto* e = std::get_if<ArcAttemptEvent>(&event)) {
    ArcProfile& p = arcs_[e->arc];
    ++p.attempts;
    if (e->unblocked) ++p.unblocked;
    p.cum_cost += e->cost;
  } else if (const auto* e = std::get_if<ClimbMoveEvent>(&event)) {
    climbs_.push_back(*e);
  } else if (const auto* e = std::get_if<SequentialTestEvent>(&event)) {
    TestRound round;
    round.learner = e->learner;
    round.at_context = e->at_context;
    round.best_neighbor = e->best_neighbor;
    round.margin = e->best_delta_sum - e->best_threshold;
    round.fired = e->fired;
    if (e->fired) ++tests_fired_;
    if (e->best_neighbor >= 0) {
      NeighborMargins& m = neighbor_margins_[e->best_neighbor];
      ++m.rounds_best;
      m.last_margin = round.margin;
      m.max_margin = m.rounds_best == 1
                         ? round.margin
                         : std::max(m.max_margin, round.margin);
    }
    test_rounds_.push_back(std::move(round));
  } else if (const auto* e = std::get_if<QuotaProgressEvent>(&event)) {
    ++quota_events_;
    if (e->reached) ++quota_reached_;
    last_quota_remaining_total_ = e->remaining_total;
  } else if (const auto* e = std::get_if<PaloStopEvent>(&event)) {
    palo_stops_.push_back(*e);
  }
}

double StrategyProfiler::TotalArcCost() const {
  double total = 0.0;
  for (const auto& [arc, p] : arcs_) total += p.cum_cost;
  return total;
}

double StrategyProfiler::CostShare(uint32_t arc) const {
  double total = TotalArcCost();
  if (total <= 0.0) return 0.0;
  auto it = arcs_.find(arc);
  return it == arcs_.end() ? 0.0 : it->second.cum_cost / total;
}

double StrategyProfiler::HalfWidth(int64_t attempts) const {
  if (attempts <= 0) return 1.0;  // vacuous: p is only known to be in [0,1]
  double eps = HoeffdingDeviation(attempts, options_.delta, 1.0);
  return std::min(eps, 1.0);
}

double StrategyProfiler::DeltaSpent() const {
  double spent = 0.0;
  for (const ClimbMoveEvent& c : climbs_) spent += c.delta_spent;
  return spent;
}

std::string StrategyProfiler::ReportText() const {
  std::string out;
  out += "== strategy profile ==\n";
  out += StrFormat(
      "queries: %lld  succeeded: %lld  mean cost/query: %s  total cost: %s\n",
      static_cast<long long>(queries_),
      static_cast<long long>(queries_succeeded_),
      FormatDouble(MeanQueryCost()).c_str(),
      FormatDouble(total_query_cost_).c_str());

  double total = TotalArcCost();
  out += StrFormat(
      "per-arc attribution (delta=%s, hot >= %s%% share):\n",
      FormatDouble(options_.delta).c_str(),
      FormatDouble(100.0 * options_.hot_share).c_str());
  out += StrFormat("  %4s %9s %9s %7s %7s %10s %10s %7s\n", "arc", "attempts",
                   "unblkd", "p_hat", "+/-eps", "mean", "cum", "share");
  for (const auto& [arc, p] : arcs_) {
    double share = total <= 0.0 ? 0.0 : p.cum_cost / total;
    bool hot = share >= options_.hot_share;
    out += StrFormat("  %4u %9lld %9lld %7s %7s %10s %10s %6.1f%%%s\n", arc,
                     static_cast<long long>(p.attempts),
                     static_cast<long long>(p.unblocked),
                     FormatDouble(p.PHat(), 3).c_str(),
                     FormatDouble(HalfWidth(p.attempts), 3).c_str(),
                     FormatDouble(p.MeanCost(), 4).c_str(),
                     FormatDouble(p.cum_cost).c_str(), 100.0 * share,
                     hot ? "  HOT" : "");
  }

  out += StrFormat("climb history: %zu moves, delta budget spent %s\n",
                   climbs_.size(), FormatDouble(DeltaSpent()).c_str());
  for (const ClimbMoveEvent& c : climbs_) {
    out += StrFormat(
        "  #%lld %s @ctx %lld |S|=%lld %s: sum %s >= thr %s "
        "(margin %s, delta_i %s)\n",
        static_cast<long long>(c.move_index), c.learner.c_str(),
        static_cast<long long>(c.at_context),
        static_cast<long long>(c.samples_used), c.swap.c_str(),
        FormatDouble(c.delta_sum).c_str(), FormatDouble(c.threshold).c_str(),
        FormatDouble(c.margin).c_str(), FormatDouble(c.delta_spent).c_str());
  }

  if (!test_rounds_.empty()) {
    out += StrFormat("sequential tests: %zu rounds, %lld fired\n",
                     test_rounds_.size(),
                     static_cast<long long>(tests_fired_));
    for (const auto& [neighbor, m] : neighbor_margins_) {
      out += StrFormat(
          "  neighbour %lld: best in %lld rounds, last margin %s, "
          "max margin %s\n",
          static_cast<long long>(neighbor),
          static_cast<long long>(m.rounds_best),
          FormatDouble(m.last_margin).c_str(),
          FormatDouble(m.max_margin).c_str());
    }
  }

  if (quota_events_ > 0) {
    out += StrFormat(
        "quota progress: %lld contexts, %lld reached their aim, "
        "remaining total %lld\n",
        static_cast<long long>(quota_events_),
        static_cast<long long>(quota_reached_),
        static_cast<long long>(last_quota_remaining_total_));
  }
  for (const PaloStopEvent& s : palo_stops_) {
    out += StrFormat(
        "palo stop: @ctx %lld after %lld moves, epsilon %s, "
        "certificate %s\n",
        static_cast<long long>(s.at_context),
        static_cast<long long>(s.moves), FormatDouble(s.epsilon).c_str(),
        FormatDouble(s.worst_certificate).c_str());
  }
  return out;
}

std::string StrategyProfiler::ReportJson() const {
  JsonWriter w;
  w.BeginObject();
  w.Key("delta").Value(options_.delta);
  w.Key("hot_share").Value(options_.hot_share);

  w.Key("queries").BeginObject();
  w.Key("count").Value(queries_);
  w.Key("succeeded").Value(queries_succeeded_);
  w.Key("total_cost").Value(total_query_cost_);
  w.Key("mean_cost").Value(MeanQueryCost());
  w.EndObject();

  double total = TotalArcCost();
  w.Key("arcs").BeginArray();
  for (const auto& [arc, p] : arcs_) {
    double share = total <= 0.0 ? 0.0 : p.cum_cost / total;
    w.BeginObject();
    w.Key("arc").Value(static_cast<int64_t>(arc));
    w.Key("attempts").Value(p.attempts);
    w.Key("unblocked").Value(p.unblocked);
    w.Key("p_hat").Value(p.PHat());
    w.Key("half_width").Value(HalfWidth(p.attempts));
    w.Key("mean_cost").Value(p.MeanCost());
    w.Key("cum_cost").Value(p.cum_cost);
    w.Key("share").Value(share);
    w.Key("hot").Value(share >= options_.hot_share);
    w.EndObject();
  }
  w.EndArray();

  w.Key("climbs").BeginArray();
  for (const ClimbMoveEvent& c : climbs_) {
    w.BeginObject();
    WriteEventFields<kSkipTime>(w, c);
    w.EndObject();
  }
  w.EndArray();
  w.Key("delta_spent").Value(DeltaSpent());

  w.Key("tests").BeginObject();
  w.Key("rounds").Value(static_cast<int64_t>(test_rounds_.size()));
  w.Key("fired").Value(tests_fired_);
  w.Key("neighbors").BeginArray();
  for (const auto& [neighbor, m] : neighbor_margins_) {
    w.BeginObject();
    w.Key("neighbor").Value(neighbor);
    w.Key("rounds_best").Value(m.rounds_best);
    w.Key("last_margin").Value(m.last_margin);
    w.Key("max_margin").Value(m.max_margin);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();

  w.Key("quota").BeginObject();
  w.Key("contexts").Value(quota_events_);
  w.Key("reached").Value(quota_reached_);
  w.Key("remaining_total").Value(last_quota_remaining_total_);
  w.EndObject();

  w.Key("palo_stops").BeginArray();
  for (const PaloStopEvent& s : palo_stops_) {
    w.BeginObject();
    WriteEventFields<kSkipTime>(w, s);
    w.EndObject();
  }
  w.EndArray();

  w.EndObject();
  return w.Take();
}

ProfileDiff DiffProfiles(const StrategyProfiler& baseline,
                         const StrategyProfiler& candidate,
                         const ProfileDiffOptions& options) {
  ProfileDiff diff;
  diff.base_mean_query_cost = baseline.MeanQueryCost();
  diff.cand_mean_query_cost = candidate.MeanQueryCost();

  const auto& base_arcs = baseline.arcs();
  const auto& cand_arcs = candidate.arcs();
  std::map<uint32_t, ArcDiff> rows;
  for (const auto& [arc, p] : base_arcs) {
    ArcDiff& row = rows[arc];
    row.arc = arc;
    row.base_attempts = p.attempts;
    row.base_mean = p.MeanCost();
  }
  for (const auto& [arc, p] : cand_arcs) {
    ArcDiff& row = rows[arc];
    row.arc = arc;
    row.cand_attempts = p.attempts;
    row.cand_mean = p.MeanCost();
  }
  for (auto& [arc, row] : rows) {
    double delta = row.cand_mean - row.base_mean;
    row.rel_change = row.base_mean == 0.0 ? 0.0 : delta / row.base_mean;
    row.regression = row.base_attempts >= options.min_attempts &&
                     row.cand_attempts >= options.min_attempts &&
                     delta > options.abs_threshold &&
                     (row.base_mean == 0.0 ||
                      row.rel_change > options.rel_threshold);
    if (row.regression) diff.has_regression = true;
    diff.arcs.push_back(row);
  }
  return diff;
}

std::string ProfileDiff::ReportText() const {
  std::string out;
  out += "== trace diff (per-arc mean traversal cost) ==\n";
  out += StrFormat("mean cost/query: baseline %s, candidate %s\n",
                   FormatDouble(base_mean_query_cost).c_str(),
                   FormatDouble(cand_mean_query_cost).c_str());
  out += StrFormat("  %4s %10s %10s %10s %10s %8s\n", "arc", "base_n",
                   "cand_n", "base_mean", "cand_mean", "change");
  for (const ArcDiff& row : arcs) {
    out += StrFormat("  %4u %10lld %10lld %10s %10s %+7.1f%%%s\n", row.arc,
                     static_cast<long long>(row.base_attempts),
                     static_cast<long long>(row.cand_attempts),
                     FormatDouble(row.base_mean, 4).c_str(),
                     FormatDouble(row.cand_mean, 4).c_str(),
                     100.0 * row.rel_change,
                     row.regression ? "  REGRESSION" : "");
  }
  out += has_regression ? "verdict: REGRESSION\n" : "verdict: ok\n";
  return out;
}

}  // namespace stratlearn::obs
