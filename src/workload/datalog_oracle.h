#ifndef STRATLEARN_WORKLOAD_DATALOG_ORACLE_H_
#define STRATLEARN_WORKLOAD_DATALOG_ORACLE_H_

#include <memory>
#include <vector>

#include "datalog/database.h"
#include "graph/builder.h"
#include "workload/oracle.h"

namespace stratlearn {

/// A workload of concrete queries: each entry is a tuple of constants for
/// the query form's bound positions, with a sampling weight. This models
/// "the system's user" of Section 3.1 — e.g. 60% instructor(russ), 15%
/// instructor(manolis), 25% instructor(fred).
struct QueryWorkload {
  struct Entry {
    std::vector<SymbolId> args;
    double weight = 1.0;
  };
  std::vector<Entry> entries;
};

/// Draws contexts from real <query, database> pairs: samples a query
/// from the workload in O(log n), then determines an experiment's
/// outcome by actually attempting its retrieval (or evaluating its
/// guard) against the database, when the QP first attempts it. This is
/// the bridge between the Datalog substrate and the blocked-arc-set view
/// of Note 2.
///
/// Construction compiles each experiment into a probe: a guard's
/// equalities, or the TupleSet its retrieval tests and where each key
/// value comes from. An existential retrieval tests the set of the
/// relation's projections onto its bound positions, built here once.
class DatalogOracle : public ContextOracle, private OutcomeResolver {
 public:
  /// `built` and `db` must outlive the oracle, and the oracle every
  /// context it draws (which is why it is neither copied nor moved).
  /// `db` must not be modified (no Insert, no Clear) while the oracle or
  /// any context it drew is alive: the probes hold its TupleSets and
  /// snapshot existential projections here.
  DatalogOracle(const BuiltGraph* built, const Database* db,
                QueryWorkload workload);
  DatalogOracle(const DatalogOracle&) = delete;
  DatalogOracle& operator=(const DatalogOracle&) = delete;

  Context Next(Rng& rng) override;
  size_t num_experiments() const override;

  /// Deterministically maps one concrete query to its context, eagerly,
  /// through RetrievalSpec::Succeeds and GuardSpec::Satisfied: the
  /// reference path the compiled probes are tested against.
  Context ContextFor(const std::vector<SymbolId>& query_args) const;

  /// The last sampled query's arguments (for tracing/examples); empty
  /// before the first draw.
  const std::vector<SymbolId>& last_query_args() const { return *last_args_; }

  /// Exact per-experiment marginal success probabilities under the
  /// workload distribution (the "true" p vector PAO is estimating).
  std::vector<double> TrueMarginalProbs() const;

 private:
  struct Probe {
    const GuardSpec* guard = nullptr;
    /// The retrieval's relation, or its projection; null when the
    /// retrieval can never succeed (no facts of its arity).
    const TupleSet* tuples = nullptr;
    /// One per bound position of the retrieved atom, in order.
    std::vector<RetrievalSpec::ArgSpec> key;
    /// Owns `tuples` for an existential retrieval.
    std::unique_ptr<const TupleSet> projection;
  };

  bool Resolve(size_t query, size_t experiment) const override;

  const BuiltGraph* built_;
  const Database* db_;
  QueryWorkload workload_;
  DiscreteSampler sampler_;
  std::vector<Probe> probes_;
  const std::vector<SymbolId>* last_args_;
};

}  // namespace stratlearn

#endif  // STRATLEARN_WORKLOAD_DATALOG_ORACLE_H_
