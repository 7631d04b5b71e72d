#ifndef STRATLEARN_DATALOG_DATABASE_H_
#define STRATLEARN_DATALOG_DATABASE_H_

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "datalog/atom.h"
#include "util/status.h"

namespace stratlearn {

/// A fact tuple: the constant arguments of one ground atom.
using FactTuple = std::vector<SymbolId>;

/// A set of constant tuples of one arity. Each tuple is stored once, in
/// insertion order, in one row-major array; membership is answered by an
/// open-addressing hash set of tuple positions. A probe reads its key
/// through a callback, so it builds no tuple and allocates nothing.
class TupleSet {
 public:
  explicit TupleSet(size_t arity) : arity_(arity) {}

  size_t arity() const { return arity_; }
  size_t size() const { return size_; }

  /// The tuple inserted `i`-th.
  std::span<const SymbolId> operator[](size_t i) const {
    return {values_.data() + i * arity_, arity_};
  }

  /// Adds `tuple` (arity() constants) unless present; true when added.
  bool Insert(std::span<const SymbolId> tuple);

  bool Contains(std::span<const SymbolId> tuple) const {
    return ContainsKey([tuple](size_t i) { return tuple[i]; });
  }

  /// True when some tuple t has t[i] == key(i) for every i < arity().
  template <typename Key>
  bool ContainsKey(const Key& key) const {
    return !slots_.empty() && slots_[Slot(key)] != kFree;
  }

  /// The distinct projections of the tuples onto `positions`, in order
  /// of first occurrence.
  TupleSet Project(std::span<const size_t> positions) const;

 private:
  static constexpr uint32_t kFree = 0xffffffffu;

  /// The slot holding the tuple equal to `key`, or else the free slot
  /// where it would go. Requires a non-empty slot table.
  template <typename Key>
  size_t Slot(const Key& key) const {
    uint64_t h = 0;
    for (size_t i = 0; i < arity_; ++i) {
      h = (h ^ key(i)) * 0x9e3779b97f4a7c15ULL;
    }
    const size_t mask = slots_.size() - 1;
    for (size_t s = (h ^ (h >> 32)) & mask;; s = (s + 1) & mask) {
      if (slots_[s] == kFree) return s;
      const SymbolId* row = values_.data() + size_t{slots_[s]} * arity_;
      size_t i = 0;
      while (i < arity_ && row[i] == key(i)) ++i;
      if (i == arity_) return s;
    }
  }

  void Rehash(size_t capacity);

  size_t arity_;
  size_t size_ = 0;
  std::vector<SymbolId> values_;
  /// Tuple positions or kFree; a power of two at most half full.
  std::vector<uint32_t> slots_;
};

/// Store of ground atomic facts, grouped by predicate.
///
/// Supports the operations the query processor needs:
///  * `Contains` — exact ground-atom membership (the "attempted database
///    retrieval" of the paper), O(1) expected;
///  * `Match` — enumerate tuples compatible with a partially-bound
///    pattern, accelerated by a first-bound-argument index;
///  * `Facts` — a predicate's TupleSet, which compiled retrieval probes
///    test directly;
///  * `CountFacts` — per-predicate fact counts, which the Smith [Smi89]
///    baseline uses as (questionable) probability surrogates.
class Database {
 public:
  Database() = default;

  /// Inserts a ground fact. Returns InvalidArgument for non-ground atoms
  /// and FailedPrecondition on arity mismatch with earlier facts of the
  /// same predicate. Duplicate inserts are OK (set semantics).
  Status Insert(const Atom& fact);

  /// Convenience: insert predicate + constant arguments directly.
  Status Insert(SymbolId predicate, const FactTuple& args);

  /// True when the exact ground atom is present.
  bool Contains(const Atom& fact) const;
  bool Contains(SymbolId predicate, const FactTuple& args) const;

  /// Appends every stored tuple of `pattern.predicate` that agrees with
  /// `pattern` on its constant positions. Variable positions match
  /// anything (repeated variables must bind consistently).
  void Match(const Atom& pattern, std::vector<FactTuple>* out) const;

  /// The facts stored for `predicate`, or null if none were inserted.
  const TupleSet* Facts(SymbolId predicate) const;

  /// Number of facts stored for `predicate` (0 if unknown).
  int64_t CountFacts(SymbolId predicate) const;

  /// Total number of facts across predicates.
  int64_t TotalFacts() const;

  /// Arity recorded for `predicate`, or -1 if no facts were inserted.
  int Arity(SymbolId predicate) const;

  /// All predicates that have at least one fact.
  std::vector<SymbolId> Predicates() const;

  void Clear();

 private:
  struct Relation {
    TupleSet tuples;
    /// First argument -> positions of the tuples holding it. Insert
    /// keeps it for arity >= 2 only: a bound unary lookup is a
    /// membership test.
    std::unordered_map<SymbolId, std::vector<uint32_t>> first_arg_index;
  };

  std::unordered_map<SymbolId, Relation> relations_;
};

}  // namespace stratlearn

#endif  // STRATLEARN_DATALOG_DATABASE_H_
