#include "core/expected_cost.h"

#include <algorithm>
#include <numeric>

#include "util/check.h"
#include "util/string_util.h"

namespace stratlearn {

namespace {

/// Pass probability of an arc: its experiment's success probability, or 1
/// for deterministic arcs.
double PassProb(const InferenceGraph& graph, ArcId a,
                const std::vector<double>& probs) {
  int e = graph.arc(a).experiment;
  return e < 0 ? 1.0 : probs[static_cast<size_t>(e)];
}

/// Probability that no success-arc in `in_s` fires anywhere under `node`,
/// conditioned on arcs marked `forced` being unblocked. Factorises over
/// sibling subtrees because experiments are independent.
double NoSuccessProb(const InferenceGraph& graph,
                     const std::vector<double>& probs,
                     const std::vector<char>& in_s,
                     const std::vector<char>& forced, NodeId node) {
  double out = 1.0;
  for (ArcId c : graph.node(node).out_arcs) {
    const Arc& arc = graph.arc(c);
    if (graph.node(arc.to).is_success) {
      // Success nodes are leaves, so a success arc never lies on any
      // Pi(a) and is never forced.
      if (in_s[c]) out *= 1.0 - PassProb(graph, c, probs);
      continue;
    }
    double sub = NoSuccessProb(graph, probs, in_s, forced, arc.to);
    if (forced[c]) {
      out *= sub;
    } else {
      double p = PassProb(graph, c, probs);
      out *= (1.0 - p) + p * sub;
    }
  }
  return out;
}

}  // namespace

bool IsLeafOnlyExperiments(const InferenceGraph& graph) {
  for (ArcId a : graph.experiments()) {
    if (!graph.node(graph.arc(a).to).is_success) return false;
  }
  return true;
}

double LeafOnlyExpectedCost(const InferenceGraph& graph,
                            const Strategy& strategy,
                            const std::vector<double>& probs) {
  STRATLEARN_CHECK_MSG(IsLeafOnlyExperiments(graph),
                       "LeafOnlyExpectedCost requires leaf-only experiments");
  STRATLEARN_CHECK(probs.size() == graph.num_experiments());
  double cost = 0.0;
  double no_success = 1.0;  // Pr[search still running]
  for (ArcId a : strategy.arcs()) {
    if (no_success == 0.0) break;
    double p = PassProb(graph, a, probs);
    cost += graph.arc(a).ExpectedAttemptCost(p) * no_success;
    int e = graph.arc(a).experiment;
    if (e >= 0) no_success *= 1.0 - probs[static_cast<size_t>(e)];
  }
  return cost;
}

double ExactExpectedCost(const InferenceGraph& graph, const Strategy& strategy,
                         const std::vector<double>& probs) {
  STRATLEARN_CHECK(probs.size() == graph.num_experiments());
  if (IsLeafOnlyExperiments(graph)) {
    return LeafOnlyExpectedCost(graph, strategy, probs);
  }

  std::vector<char> in_s(graph.num_arcs(), 0);
  std::vector<char> forced(graph.num_arcs(), 0);
  double cost = 0.0;
  for (ArcId a : strategy.arcs()) {
    // Pr[Pi(a) unblocked].
    std::vector<ArcId> pi = graph.Pi(a);
    double pi_prob = 1.0;
    for (ArcId e : pi) {
      pi_prob *= PassProb(graph, e, probs);
      forced[e] = 1;
    }
    if (pi_prob > 0.0) {
      double no_success = NoSuccessProb(graph, probs, in_s, forced,
                                        graph.root());
      double attempt_cost =
          graph.arc(a).ExpectedAttemptCost(PassProb(graph, a, probs));
      cost += attempt_cost * pi_prob * no_success;
    }
    for (ArcId e : pi) forced[e] = 0;
    if (graph.node(graph.arc(a).to).is_success) in_s[a] = 1;
  }
  return cost;
}

double EnumeratedExpectedCost(const InferenceGraph& graph,
                              const Strategy& strategy,
                              const std::vector<double>& probs,
                              const ExecutionOptions& options) {
  size_t n = graph.num_experiments();
  STRATLEARN_CHECK_MSG(n <= 20, "EnumeratedExpectedCost is a test oracle");
  STRATLEARN_CHECK(probs.size() == n);
  QueryProcessor qp(&graph);
  double expected = 0.0;
  for (uint64_t mask = 0; mask < (uint64_t{1} << n); ++mask) {
    double weight = 1.0;
    for (size_t i = 0; i < n && weight > 0.0; ++i) {
      weight *= ((mask >> i) & 1) ? probs[i] : 1.0 - probs[i];
    }
    if (weight == 0.0) continue;
    expected +=
        weight * qp.Execute(strategy, Context::FromMask(n, mask), options).cost;
  }
  return expected;
}

double MonteCarloExpectedCost(const InferenceGraph& graph,
                              const Strategy& strategy, ContextOracle& oracle,
                              int64_t samples, Rng& rng,
                              const ExecutionOptions& options) {
  STRATLEARN_CHECK(samples > 0);
  QueryProcessor qp(&graph);
  double total = 0.0;
  for (int64_t i = 0; i < samples; ++i) {
    total += qp.Execute(strategy, oracle.Next(rng), options).cost;
  }
  return total / static_cast<double>(samples);
}

Result<OptimalResult> BruteForceOptimal(const InferenceGraph& graph,
                                        const std::vector<double>& probs,
                                        size_t max_leaves) {
  std::vector<ArcId> leaves = graph.SuccessArcs();
  if (leaves.empty()) {
    return Status::InvalidArgument("graph has no success arcs");
  }
  if (leaves.size() > max_leaves) {
    return Status::InvalidArgument(
        StrFormat("brute force limited to %zu leaves; graph has %zu",
                  max_leaves, leaves.size()));
  }
  std::sort(leaves.begin(), leaves.end());
  OptimalResult best;
  bool have_best = false;
  do {
    Strategy candidate = Strategy::FromLeafOrder(graph, leaves);
    double cost = ExactExpectedCost(graph, candidate, probs);
    if (!have_best || cost < best.cost) {
      best.strategy = candidate;
      best.cost = cost;
      have_best = true;
    }
  } while (std::next_permutation(leaves.begin(), leaves.end()));
  return best;
}

}  // namespace stratlearn
