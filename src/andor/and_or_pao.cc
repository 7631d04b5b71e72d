#include "andor/and_or_pao.h"

#include <algorithm>

#include "stats/chernoff.h"
#include "stats/counters.h"
#include "util/check.h"
#include "util/string_util.h"

namespace stratlearn {

namespace {

/// A strategy that pulls `target`'s path to the front at every internal
/// node between the root and the leaf.
AndOrStrategy AimingStrategy(const AndOrGraph& graph, AndOrNodeId target) {
  AndOrStrategy strategy = AndOrStrategy::Default(graph);
  AndOrNodeId walk = target;
  while (graph.node(walk).parent != kInvalidAndOrNode) {
    AndOrNodeId parent = graph.node(walk).parent;
    const std::vector<AndOrNodeId>& order = strategy.OrderAt(parent);
    for (size_t i = 0; i < order.size(); ++i) {
      if (order[i] == walk && i != 0) {
        strategy = strategy.WithSwappedChildren(parent, 0, i);
        break;
      }
    }
    walk = parent;
  }
  return strategy;
}

}  // namespace

std::vector<int64_t> AndOrPao::ComputeQuotas(const AndOrGraph& graph,
                                             const AndOrPaoOptions& options) {
  const int64_t n = static_cast<int64_t>(graph.num_experiments());
  double total = graph.TotalLeafCost();
  std::vector<int64_t> quotas;
  quotas.reserve(graph.num_experiments());
  for (AndOrNodeId leaf : graph.experiments()) {
    double f_neg = total - graph.node(leaf).cost;
    quotas.push_back(
        PaoRetrievalQuota(n, f_neg, options.epsilon, options.delta));
  }
  return quotas;
}

Result<AndOrPaoResult> AndOrPao::Run(const AndOrGraph& graph,
                                     ContextOracle& oracle, Rng& rng,
                                     const AndOrPaoOptions& options) {
  if (oracle.num_experiments() != graph.num_experiments()) {
    return Status::InvalidArgument(
        "oracle and graph disagree on the number of leaves");
  }
  if (options.epsilon <= 0.0 || options.delta <= 0.0 ||
      options.delta >= 1.0) {
    return Status::InvalidArgument("epsilon/delta out of range");
  }

  AndOrPaoResult result;
  result.quotas = ComputeQuotas(graph, options);
  std::vector<int64_t> remaining = result.quotas;
  std::vector<ExperimentCounter> counters(graph.num_experiments());
  AndOrProcessor processor(&graph);
  // An aiming strategy depends only on its target, so each is planned
  // once.
  std::vector<AndOrStrategy> aiming;
  aiming.reserve(graph.num_experiments());
  for (AndOrNodeId leaf : graph.experiments()) {
    aiming.push_back(AimingStrategy(graph, leaf));
  }

  auto pick_target = [&]() {
    int best = -1;
    int64_t most = 0;
    for (size_t i = 0; i < remaining.size(); ++i) {
      if (remaining[i] > most) {
        most = remaining[i];
        best = static_cast<int>(i);
      }
    }
    return best;
  };

  for (;;) {
    int target = pick_target();
    if (target < 0) break;
    if (result.contexts_used >= options.max_contexts) {
      return Status::ResourceExhausted(StrFormat(
          "AND/OR PAO sampling did not meet its quotas within %lld "
          "contexts",
          static_cast<long long>(options.max_contexts)));
    }
    ++result.contexts_used;
    const AndOrStrategy& strategy = aiming[static_cast<size_t>(target)];
    AndOrTrace trace = processor.Execute(strategy, oracle.Next(rng));
    bool target_attempted = false;
    for (const AndOrAttempt& attempt : trace.attempts) {
      int e = graph.node(attempt.leaf).experiment;
      counters[static_cast<size_t>(e)].RecordAttempt(attempt.succeeded);
      --remaining[static_cast<size_t>(e)];
      if (e == target) target_attempted = true;
    }
    if (!target_attempted) {
      // Blocked aim: an earlier outcome resolved the query (or pruned
      // the target's conjunction) first. Credit the aim so low-reach
      // leaves cannot stall the loop (Theorem 3's idea); their estimate
      // matters less for exactly the same reason they are hard to reach.
      counters[static_cast<size_t>(target)].RecordBlockedAim();
      --remaining[static_cast<size_t>(target)];
    }
  }

  result.estimates.reserve(counters.size());
  for (const ExperimentCounter& c : counters) {
    result.estimates.push_back(c.SuccessFrequency(/*fallback=*/0.5));
  }
  Result<AndOrUpsilonResult> upsilon = AndOrUpsilon(graph, result.estimates);
  if (!upsilon.ok()) return upsilon.status();
  result.strategy = upsilon->strategy;
  return result;
}

}  // namespace stratlearn
