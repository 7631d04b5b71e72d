#ifndef STRATLEARN_DATALOG_PARSER_H_
#define STRATLEARN_DATALOG_PARSER_H_

#include <string_view>
#include <vector>

#include "datalog/clause.h"
#include "datalog/database.h"
#include "datalog/rule_base.h"
#include "util/status.h"

namespace stratlearn {

/// A parsed Datalog program: facts plus rules, with the source line of
/// each clause (parallel vectors) so static analysis can point at the
/// offending clause. Facts are clauses with an empty body; groundness is
/// checked at load time (LoadProgram) or by `stratlearn_cli verify`, not
/// here, so the verifier can diagnose non-ground facts instead of
/// aborting the parse.
struct Program {
  std::vector<Clause> facts;
  std::vector<Clause> rules;
  std::vector<int> fact_lines;
  std::vector<int> rule_lines;
};

/// Recursive-descent parser for a small Datalog syntax:
///
///   prof(russ).                       % fact
///   instructor(X) :- prof(X).        % rule
///   path(X, Y) :- edge(X, Z), path(Z, Y).
///   pauper(X) :- person(X), not owns(X, anything).   % NAF literal
///
/// Identifiers starting with a lowercase letter (or digits, or quoted
/// 'strings') are constants/predicates; identifiers starting with an
/// uppercase letter or '_' are variables. '%' and '#' start comments that
/// run to end of line. Every clause ends with '.'. Body literals may be
/// negated with `not` or `\+` (negation as failure); such rules parse —
/// so the static verifier can check safety and stratification — but are
/// rejected by LoadProgram, since the executable engines implement NAF
/// at the application layer (apps/naf.h), not inside rule bodies.
class Parser {
 public:
  explicit Parser(SymbolTable* symbols) : symbols_(symbols) {}

  /// Parses a whole program text.
  Result<Program> ParseProgram(std::string_view text);

  /// Parses a single atom, e.g. a query "instructor(manolis)".
  Result<Atom> ParseAtom(std::string_view text);

  /// Loads a program's facts into `db` and rules into `rules`. Each
  /// ground fact goes into its relation as soon as it is parsed; the
  /// rules are added once the whole text has parsed. Errors rank as a
  /// syntax error anywhere, then the first fact that is not ground or
  /// whose arity differs from earlier facts of its predicate (no later
  /// fact is inserted), then the first rule that uses negation or is
  /// not range restricted. After a failure, the contents of `db` and
  /// `rules` are unspecified.
  Status LoadProgram(std::string_view text, Database* db, RuleBase* rules);

 private:
  struct Cursor {
    std::string_view text;
    size_t pos = 0;
    int line = 1;
  };

  void SkipSpace(Cursor& c);
  bool Consume(Cursor& c, char ch);
  bool ConsumeNegation(Cursor& c);
  Result<Term> ParseTerm(Cursor& c);
  /// Parse into `*atom` / `*clause`, overwriting it and keeping its
  /// argument storage, so parsing fact after fact into one Clause
  /// allocates only when a fact has more arguments than any before.
  Status ParseAtomAt(Cursor& c, Atom* atom);
  Status ParseClauseAt(Cursor& c, Clause* clause);
  Status ErrorAt(const Cursor& c, const std::string& what);

  SymbolTable* symbols_;
};

}  // namespace stratlearn

#endif  // STRATLEARN_DATALOG_PARSER_H_
