#include <cmath>
#include <limits>

#include "core/expected_cost_interval.h"
#include "core/transformations.h"
#include "obs/json_reader.h"
#include "obs/json_writer.h"
#include "stats/chernoff.h"
#include "util/string_util.h"
#include "verify/verify.h"

namespace stratlearn::verify {

ArcProbProfile ParseArcProbProfile(std::string_view json,
                                   DiagnosticSink* sink) {
  ArcProbProfile profile;
  obs::JsonValue root;
  if (!obs::ParseJson(json, &root) ||
      root.kind != obs::JsonValue::Kind::kObject) {
    sink->Error("V-X005", "", "profile is not a JSON object",
                "pass a profiling run's JSON report (it has an \"arcs\" "
                "array of per-arc p_hat rows)");
    return profile;
  }
  const obs::JsonValue* arcs = root.Get("arcs");
  if (arcs == nullptr || arcs->kind != obs::JsonValue::Kind::kArray) {
    sink->Error("V-X005", "", "profile has no \"arcs\" array",
                "pass a profiling run's JSON report (it has an \"arcs\" "
                "array of per-arc p_hat rows)");
    return profile;
  }
  for (size_t i = 0; i < arcs->array.size(); ++i) {
    const obs::JsonValue& row = arcs->array[i];
    std::string location = StrFormat("arcs[%zu]", i);
    if (row.kind != obs::JsonValue::Kind::kObject) {
      sink->Error("V-X005", location, "profile arc row is not an object");
      continue;
    }
    int64_t arc = 0;
    if (!obs::ReadJsonInt(row, "arc", &arc) || arc < 0) {
      sink->Error("V-X005", location,
                  "profile arc row has no nonnegative integer \"arc\" id");
      continue;
    }
    int64_t attempts = 0;
    if (obs::ReadJsonInt(row, "attempts", &attempts) && attempts == 0) {
      // Never attempted: p_hat is a 0/0 placeholder and the half-width
      // is meaningless, so the row narrows nothing.
      continue;
    }
    double p_hat = 0.0;
    if (!obs::ReadJsonDouble(row, "p_hat", &p_hat) ||
        !std::isfinite(p_hat) || p_hat < 0.0 || p_hat > 1.0) {
      sink->Error("V-X005", location,
                  StrFormat("profile row for arc %lld needs a \"p_hat\" "
                            "in [0, 1]",
                            static_cast<long long>(arc)));
      continue;
    }
    double half_width = 0.0;
    if (row.Get("half_width") != nullptr &&
        (!obs::ReadJsonDouble(row, "half_width", &half_width) ||
         !std::isfinite(half_width) || half_width < 0.0)) {
      sink->Error("V-X005", location,
                  StrFormat("profile row for arc %lld has a malformed "
                            "\"half_width\" (want a nonnegative real)",
                            static_cast<long long>(arc)));
      continue;
    }
    uint32_t id = static_cast<uint32_t>(arc);
    if (profile.arcs.count(id) > 0) {
      sink->Error("V-X005", location,
                  StrFormat("duplicate profile row for arc %lld",
                            static_cast<long long>(arc)));
      continue;
    }
    profile.arcs[id] = {p_hat - half_width < 0.0 ? 0.0 : p_hat - half_width,
                        p_hat + half_width > 1.0 ? 1.0 : p_hat + half_width};
  }
  return profile;
}

std::vector<Interval> ExperimentIntervals(const InferenceGraph& graph,
                                          const ArcProbProfile* profile) {
  std::vector<Interval> probs(graph.num_experiments(), Interval{0.0, 1.0});
  if (profile == nullptr) return probs;
  for (size_t i = 0; i < graph.experiments().size(); ++i) {
    auto it = profile->arcs.find(graph.experiments()[i]);
    if (it != profile->arcs.end()) probs[i] = it->second;
  }
  return probs;
}

void VerifyStrategyCost(const InferenceGraph& graph, const Strategy& strategy,
                        const ArcProbProfile* profile, DiagnosticSink* sink) {
  std::vector<Interval> probs = ExperimentIntervals(graph, profile);
  IntervalCostBreakdown breakdown =
      IntervalExpectedCostBreakdown(graph, strategy, probs);

  size_t narrowed = 0;
  for (const Interval& p : probs) {
    if (p.width() < 1.0) ++narrowed;
  }

  // V-X004: the certificate itself. Every probability vector inside the
  // model's box yields an expected cost within [C_lo, C_hi].
  sink->Note("V-X004", "",
             StrFormat("certified expected-cost interval [%s, %s] for "
                       "strategy %s (%zu of %zu experiment probabilities "
                       "narrowed by a profile)",
                       FormatDouble(breakdown.total.lo).c_str(),
                       FormatDouble(breakdown.total.hi).c_str(),
                       strategy.ToString(graph).c_str(), narrowed,
                       probs.size()),
             "");
  {
    obs::JsonWriter w;
    w.BeginObject();
    w.Key("kind").Value("cost_interval");
    w.Key("file").Value(sink->file());
    w.Key("strategy").Value(strategy.ToString(graph));
    w.Key("c_lo").Value(breakdown.total.lo);
    w.Key("c_hi").Value(breakdown.total.hi);
    w.Key("narrowed_experiments").Value(static_cast<int64_t>(narrowed));
    w.Key("arcs").BeginArray();
    for (size_t i = 0; i < strategy.size(); ++i) {
      w.BeginObject();
      w.Key("arc").Value(static_cast<int64_t>(strategy.arcs()[i]));
      w.Key("attempt_lo").Value(breakdown.attempt_prob[i].lo);
      w.Key("attempt_hi").Value(breakdown.attempt_prob[i].hi);
      w.Key("cost_lo").Value(breakdown.contribution[i].lo);
      w.Key("cost_hi").Value(breakdown.contribution[i].hi);
      w.EndObject();
    }
    w.EndArray();
    w.EndObject();
    sink->AddAnalysis(w.Take());
  }

  // V-X003: attempt probability identically zero across the whole box —
  // some arc on the root path can never be unblocked under the profile.
  for (size_t i = 0; i < strategy.size(); ++i) {
    if (breakdown.attempt_prob[i].hi > 0.0) continue;
    ArcId a = strategy.arcs()[i];
    sink->Warning(
        "V-X003", StrFormat("arc %u", a),
        StrFormat("arc '%s' is never attempted under any probability in "
                  "the model: an arc on its root path has success "
                  "probability 0",
                  graph.arc(a).label.c_str()),
        "the profile reports p_hat = 0 with zero half-width upstream; "
        "remove the dead branch or re-profile with more data");
  }

  // V-X002: a sibling swap whose certified worst case undercuts this
  // strategy's certified best case. The learner would converge there
  // anyway — but only after spending Equation-6 samples on a comparison
  // the intervals already decide.
  for (const SiblingSwap& swap : AllSiblingSwaps(graph)) {
    Strategy swapped = ApplySwap(graph, strategy, swap);
    if (swapped == strategy) continue;
    Interval alt = IntervalExpectedCost(graph, swapped, probs);
    if (alt.hi < breakdown.total.lo) {
      sink->Warning(
          "V-X002", "",
          StrFormat("strategy is statically dominated: applying %s is "
                    "certified to cost at most %s, below this order's "
                    "certified minimum %s",
                    swap.ToString(graph).c_str(),
                    FormatDouble(alt.hi).c_str(),
                    FormatDouble(breakdown.total.lo).c_str()),
          "start the learner from the swapped order; PIB would pay "
          "samples to discover a comparison the intervals already "
          "decide");
    }
  }
}

void VerifyQuotaFeasibility(const LearnerConfig& config,
                            const InferenceGraph& graph,
                            const ArcProbProfile* profile,
                            DiagnosticSink* sink) {
  bool epsilon_ok = std::isfinite(config.epsilon) && config.epsilon > 0.0;
  bool delta_ok = std::isfinite(config.delta) && config.delta > 0.0 &&
                  config.delta < 1.0;
  // Out-of-range values are V-C001/V-C002/V-C006 territory.
  if (!epsilon_ok || !delta_ok || config.max_contexts <= 0) return;
  int64_t n = static_cast<int64_t>(graph.num_experiments());
  if (n == 0) return;
  std::vector<Interval> probs = ExperimentIntervals(graph, profile);
  for (ArcId arc : graph.experiments()) {
    double f_neg = graph.FNeg(arc);
    if (f_neg == 0.0) continue;
    int64_t quota =
        config.theorem3
            ? PaoReachQuota(n, f_neg, config.epsilon, config.delta)
            : PaoRetrievalQuota(n, f_neg, config.epsilon, config.delta);
    // Overflowed quotas are already a V-C004 error.
    if (quota == std::numeric_limits<int64_t>::max()) continue;
    double best_attempt = 1.0;
    for (ArcId up : graph.Pi(arc)) {
      int e = graph.arc(up).experiment;
      if (e >= 0) best_attempt *= probs[static_cast<size_t>(e)].hi;
    }
    double deliverable =
        static_cast<double>(config.max_contexts) * best_attempt;
    if (static_cast<double>(quota) > deliverable) {
      sink->Error(
          "V-X001", StrFormat("arc %u", arc),
          StrFormat("the Equation %d sample quota m(%s) = %lld is "
                    "statically infeasible: max_contexts = %lld contexts "
                    "deliver at most %s observations (optimistic attempt "
                    "probability %s)",
                    config.theorem3 ? 8 : 7, graph.arc(arc).label.c_str(),
                    static_cast<long long>(quota),
                    static_cast<long long>(config.max_contexts),
                    FormatDouble(deliverable).c_str(),
                    FormatDouble(best_attempt).c_str()),
          "no run of this length can certify the Theorem 2 guarantee; "
          "raise max_contexts or relax epsilon/delta before spending "
          "any samples");
    }
  }
}

}  // namespace stratlearn::verify
