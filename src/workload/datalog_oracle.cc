#include "workload/datalog_oracle.h"

#include <algorithm>

#include "util/check.h"
#include "util/math_util.h"

namespace stratlearn {

namespace {

std::vector<double> EntryWeights(const QueryWorkload& workload) {
  std::vector<double> weights;
  weights.reserve(workload.entries.size());
  for (const QueryWorkload::Entry& e : workload.entries) {
    weights.push_back(e.weight);
  }
  return weights;
}

}  // namespace

DatalogOracle::DatalogOracle(const BuiltGraph* built, const Database* db,
                             QueryWorkload workload)
    : built_(built),
      db_(db),
      workload_(std::move(workload)),
      sampler_(EntryWeights(workload_)),
      probes_(built_->graph.num_experiments()) {
  static const std::vector<SymbolId> kNoArgs;
  last_args_ = &kNoArgs;
  size_t args_needed = 0;
  for (size_t e = 0; e < probes_.size(); ++e) {
    ArcId arc = built_->graph.experiments()[e];
    Probe& probe = probes_[e];
    auto retrieval = built_->retrievals.find(arc);
    if (retrieval == built_->retrievals.end()) {
      auto guard = built_->guards.find(arc);
      STRATLEARN_CHECK_MSG(guard != built_->guards.end(),
                           "experiment arc has neither retrieval nor guard");
      probe.guard = &guard->second;
      for (const auto& [pos, constant] : probe.guard->equalities) {
        args_needed = std::max(args_needed, static_cast<size_t>(pos) + 1);
      }
      continue;
    }
    const RetrievalSpec& spec = retrieval->second;
    std::vector<size_t> bound;
    for (size_t i = 0; i < spec.args.size(); ++i) {
      const RetrievalSpec::ArgSpec& a = spec.args[i];
      if (a.source == RetrievalSpec::ArgSpec::kExistential) continue;
      bound.push_back(i);
      probe.key.push_back(a);
      if (a.source >= 0) {
        args_needed = std::max(args_needed, static_cast<size_t>(a.source) + 1);
      }
    }
    const TupleSet* facts = db_->Facts(spec.predicate);
    if (facts == nullptr || facts->arity() != spec.args.size()) continue;
    if (bound.size() == spec.args.size()) {
      probe.tuples = facts;
    } else {
      probe.projection =
          std::make_unique<const TupleSet>(facts->Project(bound));
      probe.tuples = probe.projection.get();
    }
  }
  for (const QueryWorkload::Entry& e : workload_.entries) {
    STRATLEARN_CHECK(e.args.size() >= args_needed);
  }
}

size_t DatalogOracle::num_experiments() const { return probes_.size(); }

Context DatalogOracle::ContextFor(
    const std::vector<SymbolId>& query_args) const {
  Context c(built_->graph.num_experiments());
  for (size_t e = 0; e < built_->graph.num_experiments(); ++e) {
    ArcId arc = built_->graph.experiments()[e];
    auto retrieval = built_->retrievals.find(arc);
    if (retrieval != built_->retrievals.end()) {
      c.Set(e, retrieval->second.Succeeds(*db_, query_args));
      continue;
    }
    auto guard = built_->guards.find(arc);
    STRATLEARN_CHECK_MSG(guard != built_->guards.end(),
                         "experiment arc has neither retrieval nor guard");
    c.Set(e, guard->second.Satisfied(query_args));
  }
  return c;
}

bool DatalogOracle::Resolve(size_t query, size_t experiment) const {
  const Probe& probe = probes_[experiment];
  const std::vector<SymbolId>& args = workload_.entries[query].args;
  if (probe.guard != nullptr) return probe.guard->Satisfied(args);
  return probe.tuples != nullptr && probe.tuples->ContainsKey([&](size_t i) {
    const RetrievalSpec::ArgSpec& a = probe.key[i];
    return a.source >= 0 ? args[a.source] : a.constant;
  });
}

Context DatalogOracle::Next(Rng& rng) {
  size_t query = sampler_.Next(rng);
  last_args_ = &workload_.entries[query].args;
  return Context(probes_.size(), this, query);
}

std::vector<double> DatalogOracle::TrueMarginalProbs() const {
  // Experiment-major, so one relation's probe table stays in cache; each
  // experiment still adds its queries' shares in query order.
  std::vector<double> probs(probes_.size(), 0.0);
  for (size_t i = 0; i < probs.size(); ++i) {
    for (size_t q = 0; q < workload_.entries.size(); ++q) {
      if (Resolve(q, i)) {
        probs[i] += workload_.entries[q].weight / sampler_.total();
      }
    }
  }
  // Accumulated floating-point error can push a certain event a hair
  // past 1.0; clamp so the probabilities stay valid.
  for (double& p : probs) p = ClampProbability(p);
  return probs;
}

}  // namespace stratlearn
