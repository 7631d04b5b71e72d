#ifndef STRATLEARN_CORE_PIB1_H_
#define STRATLEARN_CORE_PIB1_H_

#include <cstdint>
#include <vector>

#include "core/delta_estimator.h"
#include "core/transformations.h"
#include "engine/query_processor.h"
#include "engine/strategy.h"
#include "graph/inference_graph.h"

namespace stratlearn {

/// The stripped-down one-shot learner of Section 3.1: a "smart filter"
/// that permits a single proposed transformation only when the
/// accumulated evidence makes the new strategy better with confidence
/// 1 - delta (Equation 2 applied to the Delta~ under-estimates).
///
/// Usage: construct with the current strategy and the proposed sibling
/// swap, feed it the trace of each query the current strategy solves,
/// and ask ShouldSwitch() when the optimizer proposes the change.
struct Pib1Options {
  double delta = 0.05;
};

class Pib1 {
 public:
  using Options = Pib1Options;

  Pib1(const InferenceGraph* graph, Strategy current, SiblingSwap swap,
       Options options = Pib1Options(), obs::Observer* observer = nullptr);

  /// Attaches an observer: pib1.* metrics plus one SequentialTest event
  /// per observed query (the filter re-tests continuously).
  void set_observer(obs::Observer* observer);

  /// Records one solved query of the current strategy.
  void Observe(const Trace& trace);

  /// Equation 2: true when sum(Delta~) exceeds
  /// Lambda * sqrt(m/2 * ln(1/delta)).
  bool ShouldSwitch() const;

  const Strategy& current() const { return hood_.strategy(); }
  /// The swapped strategy; `current()` itself when the swap is a no-op.
  const Strategy& alternative() const {
    return hood_.size() > 0 ? hood_.neighbors()[0].strategy : current();
  }

  double delta_sum() const {
    return delta_sums_.empty() ? 0.0 : delta_sums_[0];
  }
  int64_t samples() const { return samples_; }
  /// The current Equation-2 threshold (0 before any samples).
  double Threshold() const;
  /// The range Lambda = f*(r1) + f*(r2).
  double range() const { return range_; }

 private:
  DeltaEstimator estimator_;
  /// The current strategy and its one-swap neighbourhood (empty when the
  /// swap is a no-op).
  SwapNeighborhood hood_;
  Options options_;
  double range_;
  /// The Delta~ sum of the neighbourhood's one neighbour (none when the
  /// swap is a no-op).
  std::vector<double> delta_sums_;
  int64_t samples_ = 0;
  /// Audit mode: the stop certificate is emitted once, on the first
  /// observation where ShouldSwitch() becomes true.
  bool audit_reported_ = false;
  obs::Observer* observer_ = nullptr;
  struct Handles {
    obs::Counter* samples = nullptr;
    obs::Gauge* delta_sum = nullptr;
    obs::Gauge* threshold = nullptr;
  };
  Handles handles_;
};

/// The paper's literal three-counter realisation of PIB_1 for the
/// Figure 1 situation: a node with two child subtrees r_first (visited
/// first) and r_second, where each subtree's exploration is all-or-none.
/// Maintains exactly m, k_first (solution found under r_first) and
/// k_second (solution under r_second but not under r_first), and decides
/// with Equation 3. Section 3.1 notes this needs only "three counters
/// and computing Equation 3".
class ThreeCounterPib1 {
 public:
  /// `fstar_first`/`fstar_second` are f* of the two sibling arcs.
  ThreeCounterPib1(double fstar_first, double fstar_second, double delta);

  void RecordSolutionUnderFirst() {
    ++m_;
    ++k_first_;
  }
  void RecordSolutionUnderSecondOnly() {
    ++m_;
    ++k_second_;
  }
  void RecordNoSolution() { ++m_; }

  /// Equation 3.
  bool ShouldSwitch() const;

  /// The left-hand side k_second * f*(r1) - k_first * f*(r2).
  double DeltaSum() const;
  double Threshold() const;

  int64_t m() const { return m_; }
  int64_t k_first() const { return k_first_; }
  int64_t k_second() const { return k_second_; }

 private:
  double fstar_first_;
  double fstar_second_;
  double delta_;
  int64_t m_ = 0;
  int64_t k_first_ = 0;
  int64_t k_second_ = 0;
};

}  // namespace stratlearn

#endif  // STRATLEARN_CORE_PIB1_H_
