#include "core/delta_estimator.h"

#include <algorithm>

#include "util/check.h"

namespace stratlearn {

namespace {

/// The arc into `a`'s tail, or kInvalidArc when `a` leaves the root.
ArcId ArcAbove(const InferenceGraph& graph, ArcId a) {
  return graph.node(graph.arc(a).from).incoming;
}

/// c(arcs, K): the satisficing walk of `arcs` with each arc's outcome
/// and attempt cost read from completion `k`.
double RunUnder(const InferenceGraph& graph, const std::vector<ArcId>& arcs,
                const Completion& k, std::vector<char>* reached) {
  return SatisficingWalk(graph, arcs, /*stop_after=*/1, reached,
                         [&k](ArcId a, const Arc&) {
                           return WalkStep{k.unblocked[a] != 0, k.cost[a]};
                         })
      .cost;
}

using Block = SwapNeighborhood::Scratch::Block;

/// Cost of running `count` blocks in the given order, up to and including
/// the first one that succeeds.
double RunBlocks(const Block* summary, const uint32_t* blocks,
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

void SwapNeighborhood::Scratch::Reserve(const InferenceGraph& graph) {
  reached.reserve(graph.num_nodes());
  ok.reserve(graph.num_arcs() + 1);
  blocks.reserve(graph.num_arcs());
  entered.reserve(graph.num_nodes());
}

SwapNeighborhood::SwapNeighborhood(const InferenceGraph& graph,
                                   Strategy theta,
                                   const std::vector<SiblingSwap>& swaps)
    : graph_(&graph), theta_(std::move(theta)) {
  neighbors_.reserve(swaps.size());
  for (const SiblingSwap& swap : swaps) {
    Neighbor n{swap, ApplySwap(graph, theta_, swap), 0.0};
    if (n.strategy == theta_) continue;  // no-op swap (e.g. dead ends)
    n.range = SwapRange(graph, theta_, swap);
    // Arc costs are positive, so a swap that changes Theta has a range.
    STRATLEARN_CHECK(n.range > 0.0);
    neighbors_.push_back(std::move(n));
  }
  if (theta_ != theta_.Canonicalized(graph)) return;  // not lazy

  // A lazy strategy runs the arcs on success paths first, in leaf order,
  // and the dead-end arcs after them.
  const std::vector<ArcId>& arcs = theta_.arcs();
  const uint32_t n = static_cast<uint32_t>(arcs.size());
  const size_t num_arcs = graph.num_arcs();
  std::vector<char> on_path(num_arcs, 0);
  for (ArcId leaf : graph.SuccessArcs()) {
    for (ArcId a = leaf; a != kInvalidArc && !on_path[a];
         a = ArcAbove(graph, a)) {
      on_path[a] = 1;
      ++success_prefix_;
    }
  }
  std::vector<uint32_t> pos(num_arcs, 0);
  for (uint32_t i = 0; i < n; ++i) pos[arcs[i]] = i;
  std::vector<uint32_t> above(n, n);
  for (uint32_t i = 0; i < n; ++i) {
    ArcId up = ArcAbove(graph, arcs[i]);
    if (up != kInvalidArc) above[i] = pos[up];
  }
  // Hierarchical contiguity: each success-path subtree occupies the
  // positions [i, i + size) of Theta, its own arc first.
  std::vector<uint32_t> size(n, 0), last(n, 0);
  for (uint32_t i = success_prefix_; i-- > 0;) {
    size[i] += 1;
    last[i] = std::max(last[i], i);
    if (above[i] == n) continue;
    size[above[i]] += size[i];
    last[above[i]] = std::max(last[above[i]], last[i]);
  }
  for (uint32_t i = 0; i < success_prefix_; ++i) {
    if (last[i] - i + 1 != size[i]) return;  // interleaved
  }

  above_ = std::move(above);
  success_.resize(n);
  for (uint32_t i = 0; i < n; ++i) {
    success_[i] = graph.node(graph.arc(arcs[i]).to).is_success ? 1 : 0;
  }

  // Plan each swap's region: P's child blocks from the first swapped one
  // to the last, in Theta's order; Theta' exchanges the two ends.
  regions_.reserve(neighbors_.size());
  std::vector<uint32_t> children;
  for (const Neighbor& nb : neighbors_) {
    children.clear();
    for (ArcId c : graph.node(nb.swap.parent).out_arcs) {
      if (on_path[c]) children.push_back(pos[c]);
    }
    std::sort(children.begin(), children.end());
    auto at = [&](ArcId c) {
      return static_cast<size_t>(
          std::find(children.begin(), children.end(), pos[c]) -
          children.begin());
    };
    size_t lo = at(nb.swap.arc_a), hi = at(nb.swap.arc_b);
    if (lo > hi) std::swap(lo, hi);
    Region r;
    r.parent_pos = above_[children[lo]];
    r.start = children[lo];
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

  // Group the neighbours by P, each group in start order.
  order_.resize(neighbors_.size());
  for (uint32_t j = 0; j < order_.size(); ++j) order_[j] = j;
  std::stable_sort(order_.begin(), order_.end(), [&](uint32_t x, uint32_t y) {
    const Region& rx = regions_[x];
    const Region& ry = regions_[y];
    return rx.parent_pos != ry.parent_pos ? rx.parent_pos < ry.parent_pos
                                          : rx.start < ry.start;
  });
  group_at_.assign(n + 1, kNoGroup);
  for (uint32_t i = 0; i < order_.size(); ++i) {
    const uint32_t parent_pos = regions_[order_[i]].parent_pos;
    if (i > 0 && regions_[order_[i - 1]].parent_pos == parent_pos) continue;
    group_at_[parent_pos] = static_cast<uint32_t>(group_begin_.size());
    group_begin_.push_back(i);
  }
  group_begin_.push_back(static_cast<uint32_t>(order_.size()));
  incremental_ = true;
}

double SwapNeighborhood::RunTheta(const Completion& k, Scratch* scratch,
                                  size_t* stop) const {
  const std::vector<ArcId>& arcs = theta_.arcs();
  const size_t n = arcs.size();
  // ok[i]: the arc at position i was attempted and unblocked; ok[n]
  // stands for the root, which is always reached. Positions past the
  // stop keep stale values, and no region entered before the stop
  // reads them.
  scratch->ok.resize(n + 1);
  char* ok = scratch->ok.data();
  ok[n] = 1;
  scratch->entered.clear();
  if (group_at_[n] != kNoGroup) scratch->entered.push_back(group_at_[n]);
  *stop = n;
  double cost = 0.0;
  for (size_t i = 0; i < n; ++i) {
    ok[i] = 0;
    if (!ok[above_[i]]) continue;
    const ArcId a = arcs[i];
    cost += k.cost[a];
    if (!k.unblocked[a]) continue;
    ok[i] = 1;
    if (success_[i]) {
      *stop = i;
      break;
    }
    if (group_at_[i] != kNoGroup) scratch->entered.push_back(group_at_[i]);
  }

  // Every success-path arc's block, bottom-up in one reverse pass: an
  // arc's slot first accumulates the run of its head's child blocks
  // (each block is prepended to the blocks after it), then becomes the
  // arc's own block.
  scratch->blocks.assign(success_prefix_, Block{});
  Block* summary = scratch->blocks.data();
  for (size_t i = success_prefix_; i-- > 0;) {
    const ArcId a = arcs[i];
    Block& b = summary[i];
    if (!k.unblocked[a]) {
      b = {k.cost[a], false};
    } else if (success_[i]) {
      b = {k.cost[a], true};
    } else {
      b.cost = k.cost[a] + b.cost;
    }
    if (above_[i] == n) continue;
    Block& run = summary[above_[i]];
    run.cost = b.succeeds ? b.cost : b.cost + run.cost;
    run.succeeds = run.succeeds || b.succeeds;
  }
  return cost;
}

double SwapNeighborhood::NeighborCost(size_t j, const Completion& k,
                                      double theta_cost, size_t stop,
                                      Scratch* scratch) const {
  if (!incremental_) {
    return RunUnder(*graph_, neighbors_[j].strategy.arcs(), k,
                    &scratch->reached);
  }
  const Region& r = regions_[j];
  if (stop < r.start || !scratch->ok[r.parent_pos]) {
    return theta_cost;  // the region never runs: Theta and Theta' agree
  }
  return theta_cost - RegionSaving(j, *scratch);
}

double SwapNeighborhood::RegionSaving(size_t j, const Scratch& scratch) const {
  const Region& r = regions_[j];
  const Block* summary = scratch.blocks.data();
  return RunBlocks(summary, &blocks_[r.theta_begin], r.count) -
         RunBlocks(summary, &blocks_[r.alt_begin], r.count);
}

void SwapNeighborhood::Costs(const Completion& k, Scratch* scratch,
                             std::vector<double>* out) const {
  out->resize(neighbors_.size());
  size_t stop = 0;
  const double theta_cost = incremental_ ? RunTheta(k, scratch, &stop) : 0.0;
  for (size_t j = 0; j < neighbors_.size(); ++j) {
    (*out)[j] = NeighborCost(j, k, theta_cost, stop, scratch);
  }
}

void SwapNeighborhood::AddCostDifferences(const Completion& k, double cost,
                                          Scratch* scratch,
                                          std::vector<double>* sums) const {
  STRATLEARN_CHECK(sums->size() == neighbors_.size());
  double* sum = sums->data();
  size_t stop = 0;
  const double theta_cost = incremental_ ? RunTheta(k, scratch, &stop) : 0.0;
  if (!incremental_ || cost - theta_cost != 0.0) {
    for (size_t j = 0; j < neighbors_.size(); ++j) {
      sum[j] += cost - NeighborCost(j, k, theta_cost, stop, scratch);
    }
    return;
  }
  // Outside the entered regions c(Theta', K) = c(Theta, K) = cost, so
  // those neighbours would add +0.0, which leaves a sum's bits alone
  // (sums start at +0.0 and so never hold -0.0).
  for (uint32_t g : scratch->entered) {
    for (uint32_t i = group_begin_[g]; i < group_begin_[g + 1]; ++i) {
      const uint32_t j = order_[i];
      if (regions_[j].start > stop) break;
      sum[j] += cost - (theta_cost - RegionSaving(j, *scratch));
    }
  }
}

DeltaEstimator::DeltaEstimator(const InferenceGraph* graph)
    : graph_(graph),
      processor_(graph),
      base_(Complete(*graph,
                     std::vector<signed char>(graph->num_experiments(), -1),
                     /*pessimistic=*/true)),
      patched_(base_) {
  scratch_.Reserve(*graph);
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
  return RunUnder(*graph_, strategy.arcs(), k, &reached);
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

void DeltaEstimator::AddUnderEstimates(const Trace& trace,
                                       const SwapNeighborhood& hood,
                                       std::vector<double>* sums) {
  // J: J0 with the observed outcomes written in (the last attempt of an
  // experiment wins, as in ObservedOutcomes), restored to J0 afterwards.
  STRATLEARN_CHECK(base_.cost.size() == graph_->num_arcs());
  for (const ArcAttempt& at : trace.attempts) {
    const Arc& arc = graph_->arc(at.arc);
    if (arc.experiment < 0) continue;
    patched_.unblocked[at.arc] = at.unblocked ? 1 : 0;
    patched_.cost[at.arc] =
        arc.cost + (at.unblocked ? arc.success_cost : arc.failure_cost);
  }
  hood.AddCostDifferences(patched_, trace.cost, &scratch_, sums);
  for (const ArcAttempt& at : trace.attempts) {
    patched_.unblocked[at.arc] = base_.unblocked[at.arc];
    patched_.cost[at.arc] = base_.cost[at.arc];
  }
}

void DeltaEstimator::OverEstimates(const Trace& trace,
                                   const SwapNeighborhood& hood,
                                   std::vector<double>* out) {
  std::vector<Completion> completions = Optimistic(trace);
  hood.Costs(completions.front(), &scratch_, out);
  std::vector<double> costs;
  for (size_t i = 1; i < completions.size(); ++i) {
    hood.Costs(completions[i], &scratch_, &costs);
    for (size_t j = 0; j < out->size(); ++j) {
      (*out)[j] = std::min((*out)[j], costs[j]);
    }
  }
  for (double& cost : *out) cost = trace.cost - cost;
}

}  // namespace stratlearn
