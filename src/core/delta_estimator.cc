#include "core/delta_estimator.h"

#include <algorithm>

#include "util/check.h"

namespace stratlearn {

namespace {

/// The arc into `a`'s tail, or kInvalidArc when `a` leaves the root.
ArcId ArcAbove(const InferenceGraph& graph, ArcId a) {
  return graph.node(graph.arc(a).from).incoming;
}

/// Runs `arcs` under completion `k` like QueryProcessor::Execute: arcs
/// whose tail is unreached are skipped, every attempted arc pays its cost
/// under `k`, and the run stops at the first success. Fills `reached`
/// with the nodes it reached and sets `*stop` to the position of the arc
/// that reached a success, or arcs.size() when none did.
double Run(const InferenceGraph& graph, const std::vector<ArcId>& arcs,
           const Completion& k, std::vector<char>* reached, size_t* stop) {
  reached->assign(graph.num_nodes(), 0);
  (*reached)[graph.root()] = 1;
  *stop = arcs.size();
  double cost = 0.0;
  for (size_t i = 0; i < arcs.size(); ++i) {
    const ArcId a = arcs[i];
    const Arc& arc = graph.arc(a);
    if (!(*reached)[arc.from]) continue;
    cost += k.cost[a];
    if (!k.unblocked[a]) continue;
    (*reached)[arc.to] = 1;
    if (graph.node(arc.to).is_success) {
      *stop = i;
      break;
    }
  }
  return cost;
}

/// One block: an arc plus the part of its subtree Theta runs with it.
struct Block {
  double cost = 0.0;
  bool succeeds = false;
};

/// Cost of running `count` blocks in the given order, up to and including
/// the first one that succeeds.
double RunBlocks(const std::vector<Block>& summary, const ArcId* blocks,
                 uint32_t count) {
  double cost = 0.0;
  for (uint32_t i = 0; i < count; ++i) {
    const Block& b = summary[blocks[i]];
    cost += b.cost;
    if (b.succeeds) break;
  }
  return cost;
}

/// The experiments `trace` observed: -1 when unobserved, else the
/// observed outcome (1 = unblocked).
std::vector<signed char> ObservedOutcomes(const InferenceGraph& graph,
                                          const Trace& trace) {
  std::vector<signed char> seen(graph.num_experiments(), -1);
  for (const ArcAttempt& at : trace.attempts) {
    int e = graph.arc(at.arc).experiment;
    if (e >= 0) seen[static_cast<size_t>(e)] = at.unblocked ? 1 : 0;
  }
  return seen;
}

/// Keeps the observed outcomes. The pessimistic completion J assumes
/// unobserved success arcs blocked and unobserved internal experiments
/// unblocked, and charges unobserved arcs their maximum attempt cost; the
/// optimistic base assumes every unobserved experiment blocked and
/// charges the minimum. Deterministic arcs always succeed.
Completion Complete(const InferenceGraph& graph,
                    const std::vector<signed char>& seen, bool pessimistic) {
  Completion k;
  k.unblocked.resize(graph.num_arcs());
  k.cost.resize(graph.num_arcs());
  for (ArcId a = 0; a < graph.num_arcs(); ++a) {
    const Arc& arc = graph.arc(a);
    int outcome = arc.experiment < 0
                      ? 1
                      : seen[static_cast<size_t>(arc.experiment)];
    if (outcome >= 0) {
      k.unblocked[a] = static_cast<char>(outcome);
      k.cost[a] =
          arc.cost + (outcome != 0 ? arc.success_cost : arc.failure_cost);
    } else if (pessimistic) {
      k.unblocked[a] = graph.node(arc.to).is_success ? 0 : 1;
      k.cost[a] = arc.cost + std::max(arc.success_cost, arc.failure_cost);
    } else {
      k.unblocked[a] = 0;
      k.cost[a] = arc.cost + std::min(arc.success_cost, arc.failure_cost);
    }
  }
  return k;
}

}  // namespace

SwapNeighborhood::SwapNeighborhood(const InferenceGraph& graph,
                                   Strategy theta,
                                   const std::vector<SiblingSwap>& swaps)
    : graph_(&graph), theta_(std::move(theta)) {
  neighbors_.reserve(swaps.size());
  for (const SiblingSwap& swap : swaps) {
    Neighbor n{swap, ApplySwap(graph, theta_, swap), 0.0};
    if (n.strategy == theta_) continue;  // no-op swap (e.g. dead ends)
    n.range = SwapRange(graph, theta_, swap);
    neighbors_.push_back(std::move(n));
  }
  if (theta_ != theta_.Canonicalized(graph)) return;  // not lazy

  // A lazy strategy runs the arcs on success paths first, in leaf order,
  // and the dead-end arcs after them.
  const std::vector<ArcId>& arcs = theta_.arcs();
  const size_t num_arcs = graph.num_arcs();
  std::vector<char> on_path(num_arcs, 0);
  for (ArcId leaf : graph.SuccessArcs()) {
    for (ArcId a = leaf; a != kInvalidArc && !on_path[a];
         a = ArcAbove(graph, a)) {
      on_path[a] = 1;
      ++success_prefix_;
    }
  }
  // Hierarchical contiguity: each success-path subtree occupies the
  // positions [pos, pos + size) of Theta, its own arc first.
  std::vector<uint32_t> pos(num_arcs, 0), size(num_arcs, 0), last(num_arcs, 0);
  for (uint32_t i = success_prefix_; i-- > 0;) {
    const ArcId a = arcs[i];
    pos[a] = i;
    size[a] += 1;
    last[a] = std::max(last[a], i);
    ArcId up = ArcAbove(graph, a);
    if (up == kInvalidArc) continue;
    size[up] += size[a];
    last[up] = std::max(last[up], last[a]);
  }
  for (uint32_t i = 0; i < success_prefix_; ++i) {
    if (last[arcs[i]] - i + 1 != size[arcs[i]]) return;  // interleaved
  }

  // Plan each swap's region: P's child blocks from the first swapped one
  // to the last, in Theta's order; Theta' exchanges the two ends.
  regions_.reserve(neighbors_.size());
  std::vector<ArcId> children;
  for (const Neighbor& n : neighbors_) {
    children.clear();
    for (ArcId c : graph.node(n.swap.parent).out_arcs) {
      if (on_path[c]) children.push_back(c);
    }
    std::sort(children.begin(), children.end(),
              [&](ArcId x, ArcId y) { return pos[x] < pos[y]; });
    auto at = [&](ArcId c) {
      return static_cast<size_t>(
          std::find(children.begin(), children.end(), c) - children.begin());
    };
    size_t lo = at(n.swap.arc_a), hi = at(n.swap.arc_b);
    if (lo > hi) std::swap(lo, hi);
    Region r;
    r.parent = n.swap.parent;
    r.start = pos[children[lo]];
    r.count = static_cast<uint32_t>(hi - lo + 1);
    r.theta_begin = static_cast<uint32_t>(blocks_.size());
    blocks_.insert(blocks_.end(), children.begin() + lo,
                   children.begin() + hi + 1);
    r.alt_begin = static_cast<uint32_t>(blocks_.size());
    blocks_.insert(blocks_.end(), children.begin() + lo,
                   children.begin() + hi + 1);
    std::swap(blocks_[r.alt_begin], blocks_.back());
    regions_.push_back(r);
  }
  incremental_ = true;
}

void SwapNeighborhood::Costs(const Completion& k,
                             std::vector<double>* out) const {
  out->resize(neighbors_.size());
  std::vector<char> reached;
  size_t stop = 0;
  if (!incremental_) {
    for (size_t j = 0; j < neighbors_.size(); ++j) {
      (*out)[j] =
          Run(*graph_, neighbors_[j].strategy.arcs(), k, &reached, &stop);
    }
    return;
  }
  const std::vector<ArcId>& arcs = theta_.arcs();
  const double cost = Run(*graph_, arcs, k, &reached, &stop);

  // Every success-path arc's block, bottom-up in one reverse pass: an
  // arc's slot first accumulates the run of its head's child blocks
  // (each block is prepended to the blocks after it), then becomes the
  // arc's own block.
  std::vector<Block> summary(graph_->num_arcs());
  for (size_t i = success_prefix_; i-- > 0;) {
    const ArcId a = arcs[i];
    const Arc& arc = graph_->arc(a);
    Block& b = summary[a];
    if (!k.unblocked[a]) {
      b = {k.cost[a], false};
    } else if (graph_->node(arc.to).is_success) {
      b = {k.cost[a], true};
    } else {
      b.cost = k.cost[a] + b.cost;
    }
    ArcId up = ArcAbove(*graph_, a);
    if (up == kInvalidArc) continue;
    Block& run = summary[up];
    run.cost = b.succeeds ? b.cost : b.cost + run.cost;
    run.succeeds = run.succeeds || b.succeeds;
  }

  for (size_t j = 0; j < neighbors_.size(); ++j) {
    const Region& r = regions_[j];
    if (!reached[r.parent] || stop < r.start) {
      (*out)[j] = cost;  // the region never runs: Theta and Theta' agree
      continue;
    }
    (*out)[j] = cost - (RunBlocks(summary, &blocks_[r.theta_begin], r.count) -
                        RunBlocks(summary, &blocks_[r.alt_begin], r.count));
  }
}

double DeltaEstimator::ExactDelta(const Strategy& strategy,
                                  const Strategy& alternative,
                                  const Context& context) const {
  return processor_.Cost(strategy, context) -
         processor_.Cost(alternative, context);
}

Completion DeltaEstimator::Pessimistic(const Trace& trace) const {
  // Observed outcomes kept; unobserved success arcs blocked (Theta'
  // cannot succeed anywhere Theta did not verify); unobserved internal
  // experiments unblocked (Theta' pays their subtrees); unobserved arcs
  // charged their maximum attempt cost. c_max(Theta', J) >=
  // c(Theta', I_true), hence Delta~ under-estimates Delta.
  return Complete(*graph_, ObservedOutcomes(*graph_, trace),
                  /*pessimistic=*/true);
}

std::vector<Completion> DeltaEstimator::Optimistic(const Trace& trace) const {
  // A lower bound on c(Theta', I_true), minimised over the "single
  // favoured success path" family of consistent completions: for each
  // success arc s not observed blocked, s's whole root path unblocked
  // and every other unobserved experiment blocked (suppressing all other
  // subtree costs), plus the all-blocked completion. Unobserved arcs are
  // charged their minimum attempt cost whatever their outcome. Every
  // consistent context's Theta' execution pays at least the cheapest of
  // these (see delta_estimator_test's exhaustive check).
  std::vector<signed char> seen = ObservedOutcomes(*graph_, trace);
  std::vector<Completion> completions;
  completions.push_back(Complete(*graph_, seen, /*pessimistic=*/false));
  for (ArcId s : graph_->SuccessArcs()) {
    bool consistent = true;
    for (ArcId a = s; a != kInvalidArc && consistent;
         a = ArcAbove(*graph_, a)) {
      int e = graph_->arc(a).experiment;
      consistent = e < 0 || seen[static_cast<size_t>(e)] != 0;
    }
    if (!consistent) continue;
    Completion k = completions.front();
    for (ArcId a = s; a != kInvalidArc; a = ArcAbove(*graph_, a)) {
      k.unblocked[a] = 1;
    }
    completions.push_back(std::move(k));
  }
  return completions;
}

double DeltaEstimator::Cost(const Strategy& strategy,
                            const Completion& k) const {
  std::vector<char> reached;
  size_t stop = 0;
  return Run(*graph_, strategy.arcs(), k, &reached, &stop);
}

double DeltaEstimator::UnderEstimate(const Trace& trace,
                                     const Strategy& alternative) const {
  return trace.cost - Cost(alternative, Pessimistic(trace));
}

double DeltaEstimator::OverEstimate(const Trace& trace,
                                    const Strategy& alternative) const {
  std::vector<Completion> completions = Optimistic(trace);
  double best = Cost(alternative, completions.front());
  for (size_t i = 1; i < completions.size(); ++i) {
    best = std::min(best, Cost(alternative, completions[i]));
  }
  return trace.cost - best;
}

void DeltaEstimator::UnderEstimates(const Trace& trace,
                                    const SwapNeighborhood& hood,
                                    std::vector<double>* out) const {
  hood.Costs(Pessimistic(trace), out);
  for (double& cost : *out) cost = trace.cost - cost;
}

void DeltaEstimator::OverEstimates(const Trace& trace,
                                   const SwapNeighborhood& hood,
                                   std::vector<double>* out) const {
  std::vector<Completion> completions = Optimistic(trace);
  hood.Costs(completions.front(), out);
  std::vector<double> costs;
  for (size_t i = 1; i < completions.size(); ++i) {
    hood.Costs(completions[i], &costs);
    for (size_t j = 0; j < out->size(); ++j) {
      (*out)[j] = std::min((*out)[j], costs[j]);
    }
  }
  for (double& cost : *out) cost = trace.cost - cost;
}

}  // namespace stratlearn
