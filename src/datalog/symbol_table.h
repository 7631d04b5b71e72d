#ifndef STRATLEARN_DATALOG_SYMBOL_TABLE_H_
#define STRATLEARN_DATALOG_SYMBOL_TABLE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace stratlearn {

/// Interned identifier for a predicate name, constant, or variable name.
using SymbolId = uint32_t;

inline constexpr SymbolId kInvalidSymbol = 0xffffffffu;

/// Bidirectional string <-> SymbolId interning table. All Datalog
/// structures store SymbolIds; the table is needed only to print them or
/// to parse text. Ids are dense, in first-intern order. Each name is
/// stored once; an open-addressing table of (hash, id) slots over the
/// names answers lookups, so a hit builds no string. Not thread-safe.
class SymbolTable {
 public:
  SymbolTable() = default;
  SymbolTable(const SymbolTable&) = default;
  SymbolTable& operator=(const SymbolTable&) = default;

  /// Returns the id for `name`, interning it on first use.
  SymbolId Intern(std::string_view name);

  /// Returns the id for `name` or kInvalidSymbol if it was never interned.
  SymbolId Lookup(std::string_view name) const;

  /// Returns the string for an id interned earlier. Aborts on bad ids.
  const std::string& Name(SymbolId id) const;

  size_t size() const { return names_.size(); }

 private:
  struct Slot {
    uint32_t hash = 0;
    /// The name's id, or kInvalidSymbol for a free slot.
    SymbolId id = kInvalidSymbol;
  };

  static uint32_t Hash(std::string_view name);

  /// The slot holding `name`, or else the free slot where it would go.
  /// Requires a non-empty slot table.
  size_t Find(std::string_view name, uint32_t hash) const;

  void Rehash(size_t capacity);

  std::vector<std::string> names_;
  /// A power of two at most half full.
  std::vector<Slot> slots_;
};

}  // namespace stratlearn

#endif  // STRATLEARN_DATALOG_SYMBOL_TABLE_H_
