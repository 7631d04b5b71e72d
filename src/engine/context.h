#ifndef STRATLEARN_ENGINE_CONTEXT_H_
#define STRATLEARN_ENGINE_CONTEXT_H_

#include <cstdint>
#include <vector>

#include "util/check.h"

namespace stratlearn {

/// Supplies the outcomes of a Context drawn lazily: the oracle that drew
/// the context resolves each experiment only when the query processor
/// first attempts it.
class OutcomeResolver {
 public:
  /// Whether experiment `experiment` is unblocked for the drawn query
  /// `query` (an index the resolver chose when it drew the context).
  virtual bool Resolve(size_t query, size_t experiment) const = 0;

 protected:
  ~OutcomeResolver() = default;
};

/// A query-processing context, reduced to what determines every
/// strategy's cost (Note 2): the blocked/unblocked outcome of each
/// probabilistic experiment of the graph, indexed by experiment index.
///
/// The synthetic oracles sample every outcome up front. A concrete
/// <query, database> pair gives a lazy Context instead: experiment i is
/// resolved by attempting its retrieval (or guard) on the first
/// Unblocked(i) and cached, so a query costs only the retrievals the QP
/// attempts. A lazy Context fills its cache from const reads, so it must
/// not be read from two threads at once.
class Context {
 public:
  /// All experiments blocked by default.
  explicit Context(size_t num_experiments)
      : outcomes_(num_experiments, 0) {}

  /// Every outcome unresolved: `resolver` answers for `query` on first
  /// read. `resolver` must outlive the context and its copies.
  Context(size_t num_experiments, const OutcomeResolver* resolver,
          size_t query)
      : outcomes_(num_experiments, kUnresolved),
        resolver_(resolver),
        query_(query) {}

  static Context AllUnblocked(size_t n) {
    Context c(n);
    for (size_t i = 0; i < n; ++i) c.outcomes_[i] = 1;
    return c;
  }

  /// Decodes a bitmask (bit i = experiment i unblocked); n <= 64. Used to
  /// enumerate all 2^n equivalence classes exhaustively in tests.
  static Context FromMask(size_t n, uint64_t mask) {
    STRATLEARN_CHECK(n <= 64);
    Context c(n);
    for (size_t i = 0; i < n; ++i) c.outcomes_[i] = (mask >> i) & 1;
    return c;
  }

  void Set(size_t experiment, bool unblocked) {
    STRATLEARN_CHECK(experiment < outcomes_.size());
    outcomes_[experiment] = unblocked ? 1 : 0;
  }

  bool Unblocked(size_t experiment) const {
    STRATLEARN_CHECK(experiment < outcomes_.size());
    uint8_t& outcome = outcomes_[experiment];
    if (outcome == kUnresolved) [[unlikely]] {
      outcome = resolver_->Resolve(query_, experiment) ? 1 : 0;
    }
    return outcome != 0;
  }

  size_t num_experiments() const { return outcomes_.size(); }

  uint64_t EncodeMask() const {
    STRATLEARN_CHECK(outcomes_.size() <= 64);
    uint64_t mask = 0;
    for (size_t i = 0; i < outcomes_.size(); ++i) {
      if (Unblocked(i)) mask |= (uint64_t{1} << i);
    }
    return mask;
  }

  friend bool operator==(const Context& a, const Context& b) {
    if (a.num_experiments() != b.num_experiments()) return false;
    for (size_t i = 0; i < a.num_experiments(); ++i) {
      if (a.Unblocked(i) != b.Unblocked(i)) return false;
    }
    return true;
  }

 private:
  /// Marks an unresolved outcome; a resolved outcome is 0 (blocked) or 1
  /// (unblocked).
  static constexpr uint8_t kUnresolved = 2;

  mutable std::vector<uint8_t> outcomes_;
  const OutcomeResolver* resolver_ = nullptr;
  size_t query_ = 0;
};

}  // namespace stratlearn

#endif  // STRATLEARN_ENGINE_CONTEXT_H_
