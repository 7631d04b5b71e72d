#include "workload/faulty_oracle.h"

namespace stratlearn {

FaultyOracle::FaultyOracle(ContextOracle* inner,
                           const robust::FaultPlan& plan)
    : inner_(inner), rng_(plan.seed) {
  for (const robust::FaultRule& rule : plan.rules) {
    if (rule.kind == robust::FaultKind::kCorrupt && rule.probability > 0.0) {
      rules_.push_back(rule);
    }
  }
}

Context FaultyOracle::Next(Rng& rng) {
  Context context = inner_->Next(rng);
  for (const robust::FaultRule& rule : rules_) {
    for (size_t e = 0; e < context.num_experiments(); ++e) {
      if (rule.experiment >= 0 &&
          static_cast<size_t>(rule.experiment) != e) {
        continue;
      }
      if (rng_.NextBernoulli(rule.probability)) {
        context.Flip(e);
        ++corruptions_;
      }
    }
  }
  return context;
}

}  // namespace stratlearn
