#include "datalog/database.h"

#include <algorithm>

#include "util/check.h"
#include "util/string_util.h"

namespace stratlearn {

bool TupleSet::Insert(std::span<const SymbolId> tuple) {
  STRATLEARN_CHECK(tuple.size() == arity_);
  if (2 * (size_ + 1) > slots_.size()) {
    Rehash(std::max<size_t>(8, 2 * slots_.size()));
  }
  size_t slot = Slot([tuple](size_t i) { return tuple[i]; });
  if (slots_[slot] != kFree) return false;
  STRATLEARN_CHECK(size_ < kFree);
  slots_[slot] = static_cast<uint32_t>(size_++);
  values_.insert(values_.end(), tuple.begin(), tuple.end());
  return true;
}

void TupleSet::Rehash(size_t capacity) {
  slots_.assign(capacity, kFree);
  for (size_t t = 0; t < size_; ++t) {
    std::span<const SymbolId> row = (*this)[t];
    slots_[Slot([row](size_t i) { return row[i]; })] =
        static_cast<uint32_t>(t);
  }
}

TupleSet TupleSet::Project(std::span<const size_t> positions) const {
  TupleSet out(positions.size());
  std::vector<SymbolId> key(positions.size());
  for (size_t t = 0; t < size_; ++t) {
    std::span<const SymbolId> row = (*this)[t];
    for (size_t i = 0; i < key.size(); ++i) key[i] = row[positions[i]];
    out.Insert(key);
  }
  return out;
}

Status Database::Insert(const Atom& fact) {
  if (!fact.IsGround()) {
    return Status::InvalidArgument("database facts must be ground");
  }
  FactTuple tuple;
  tuple.reserve(fact.args.size());
  for (const Term& t : fact.args) tuple.push_back(t.symbol);
  return Insert(fact.predicate, tuple);
}

Status Database::Insert(SymbolId predicate, const FactTuple& args) {
  Relation& rel =
      relations_.try_emplace(predicate, Relation{TupleSet(args.size()), {}})
          .first->second;
  if (rel.tuples.arity() != args.size()) {
    return Status::FailedPrecondition(
        StrFormat("arity mismatch for predicate %u: have %zu, got %zu",
                  predicate, rel.tuples.arity(), args.size()));
  }
  size_t position = rel.tuples.size();
  if (rel.tuples.Insert(args) && args.size() >= 2) {
    rel.first_arg_index[args[0]].push_back(static_cast<uint32_t>(position));
  }
  return Status::OK();
}

bool Database::Contains(const Atom& fact) const {
  const TupleSet* tuples = Facts(fact.predicate);
  if (tuples == nullptr || tuples->arity() != fact.args.size() ||
      !fact.IsGround()) {
    return false;
  }
  return tuples->ContainsKey([&fact](size_t i) { return fact.args[i].symbol; });
}

bool Database::Contains(SymbolId predicate, const FactTuple& args) const {
  const TupleSet* tuples = Facts(predicate);
  return tuples != nullptr && tuples->arity() == args.size() &&
         tuples->Contains(args);
}

void Database::Match(const Atom& pattern, std::vector<FactTuple>* out) const {
  auto it = relations_.find(pattern.predicate);
  if (it == relations_.end()) return;
  const Relation& rel = it->second;
  const std::vector<Term>& args = pattern.args;
  if (rel.tuples.arity() != args.size()) return;

  // first[i]: the first position holding the same variable as position i
  // (i itself for constants and first occurrences).
  std::vector<size_t> first(args.size());
  for (size_t i = 0; i < args.size(); ++i) {
    first[i] = i;
    for (size_t j = 0; j < i && args[i].is_variable(); ++j) {
      if (args[j].is_variable() && args[j].symbol == args[i].symbol) {
        first[i] = j;
        break;
      }
    }
  }
  auto append_if_matches = [&](std::span<const SymbolId> tuple) {
    for (size_t i = 0; i < args.size(); ++i) {
      SymbolId want = args[i].is_constant() ? args[i].symbol : tuple[first[i]];
      if (tuple[i] != want) return;
    }
    out->emplace_back(tuple.begin(), tuple.end());
  };

  if (!args.empty() && args[0].is_constant()) {
    if (args.size() == 1) {
      if (rel.tuples.Contains({&args[0].symbol, 1})) {
        out->push_back({args[0].symbol});
      }
      return;
    }
    auto idx = rel.first_arg_index.find(args[0].symbol);
    if (idx == rel.first_arg_index.end()) return;
    for (uint32_t t : idx->second) append_if_matches(rel.tuples[t]);
    return;
  }
  for (size_t t = 0; t < rel.tuples.size(); ++t) {
    append_if_matches(rel.tuples[t]);
  }
}

const TupleSet* Database::Facts(SymbolId predicate) const {
  auto it = relations_.find(predicate);
  return it == relations_.end() ? nullptr : &it->second.tuples;
}

int64_t Database::CountFacts(SymbolId predicate) const {
  const TupleSet* tuples = Facts(predicate);
  return tuples == nullptr ? 0 : static_cast<int64_t>(tuples->size());
}

int64_t Database::TotalFacts() const {
  int64_t total = 0;
  for (const auto& [pred, rel] : relations_) {
    (void)pred;
    total += static_cast<int64_t>(rel.tuples.size());
  }
  return total;
}

int Database::Arity(SymbolId predicate) const {
  const TupleSet* tuples = Facts(predicate);
  return tuples == nullptr ? -1 : static_cast<int>(tuples->arity());
}

std::vector<SymbolId> Database::Predicates() const {
  std::vector<SymbolId> out;
  out.reserve(relations_.size());
  for (const auto& [pred, rel] : relations_) {
    (void)rel;
    out.push_back(pred);
  }
  return out;
}

void Database::Clear() { relations_.clear(); }

}  // namespace stratlearn
