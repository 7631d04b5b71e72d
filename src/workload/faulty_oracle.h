#ifndef STRATLEARN_WORKLOAD_FAULTY_ORACLE_H_
#define STRATLEARN_WORKLOAD_FAULTY_ORACLE_H_

#include <cstdint>
#include <vector>

#include "robust/fault_plan.h"
#include "workload/oracle.h"

namespace stratlearn {

/// Decorator that injects *data* faults into an oracle's context stream:
/// each drawn context's experiment outcomes are flipped according to the
/// plan's `corrupt` rules (a retrieval backend returning wrong rows looks
/// to the learners like a context whose ground truth changed). Execution
/// faults — transient failures, timeouts, cost spikes — live in
/// robust::FaultInjector instead; the split keeps "the world lied" and
/// "the transport failed" separately testable.
///
/// The decorator owns its own RNG seeded from the plan, so the inner
/// oracle draws the exact same context stream with and without
/// corruption (tests diff the two runs). It draws one flip bit per
/// experiment and rule from that RNG and flips with Context::Flip, so a
/// lazy context still resolves only the experiments the QP attempts.
class FaultyOracle : public ContextOracle {
 public:
  /// `inner` is not owned and must outlive the decorator.
  FaultyOracle(ContextOracle* inner, const robust::FaultPlan& plan);

  Context Next(Rng& rng) override;
  size_t num_experiments() const override { return inner_->num_experiments(); }

  /// Total experiment outcomes flipped so far.
  int64_t corruptions() const { return corruptions_; }

 private:
  ContextOracle* inner_;
  /// The plan's corrupt rules only, in plan order.
  std::vector<robust::FaultRule> rules_;
  Rng rng_;
  int64_t corruptions_ = 0;
};

}  // namespace stratlearn

#endif  // STRATLEARN_WORKLOAD_FAULTY_ORACLE_H_
