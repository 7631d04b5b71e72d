#include "datalog/symbol_table.h"

#include <algorithm>
#include <functional>

#include "util/check.h"

namespace stratlearn {

uint32_t SymbolTable::Hash(std::string_view name) {
  uint64_t h = std::hash<std::string_view>()(name);
  return static_cast<uint32_t>(h ^ (h >> 32));
}

size_t SymbolTable::Find(std::string_view name, uint32_t hash) const {
  const size_t mask = slots_.size() - 1;
  for (size_t s = hash & mask;; s = (s + 1) & mask) {
    const Slot& slot = slots_[s];
    if (slot.id == kInvalidSymbol ||
        (slot.hash == hash && names_[slot.id] == name)) {
      return s;
    }
  }
}

void SymbolTable::Rehash(size_t capacity) {
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(capacity, Slot{});
  const size_t mask = capacity - 1;
  for (const Slot& slot : old) {
    if (slot.id == kInvalidSymbol) continue;
    size_t s = slot.hash & mask;
    while (slots_[s].id != kInvalidSymbol) s = (s + 1) & mask;
    slots_[s] = slot;
  }
}

SymbolId SymbolTable::Intern(std::string_view name) {
  if (2 * (names_.size() + 1) > slots_.size()) {
    Rehash(std::max<size_t>(16, 2 * slots_.size()));
  }
  const uint32_t hash = Hash(name);
  Slot& slot = slots_[Find(name, hash)];
  if (slot.id != kInvalidSymbol) return slot.id;
  STRATLEARN_CHECK(names_.size() < kInvalidSymbol);
  slot = Slot{hash, static_cast<SymbolId>(names_.size())};
  names_.emplace_back(name);
  return slot.id;
}

SymbolId SymbolTable::Lookup(std::string_view name) const {
  if (slots_.empty()) return kInvalidSymbol;
  return slots_[Find(name, Hash(name))].id;
}

const std::string& SymbolTable::Name(SymbolId id) const {
  STRATLEARN_CHECK(id < names_.size());
  return names_[id];
}

}  // namespace stratlearn
