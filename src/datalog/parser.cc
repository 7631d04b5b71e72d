#include "datalog/parser.h"

#include <cctype>
#include <utility>
#include <vector>

#include "util/string_util.h"

namespace stratlearn {

namespace {

bool IsIdentStart(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}

bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

}  // namespace

void Parser::SkipSpace(Cursor& c) {
  while (c.pos < c.text.size()) {
    char ch = c.text[c.pos];
    if (ch == '\n') {
      ++c.line;
      ++c.pos;
    } else if (std::isspace(static_cast<unsigned char>(ch))) {
      ++c.pos;
    } else if (ch == '%' || ch == '#') {
      while (c.pos < c.text.size() && c.text[c.pos] != '\n') ++c.pos;
    } else {
      break;
    }
  }
}

bool Parser::Consume(Cursor& c, char ch) {
  SkipSpace(c);
  if (c.pos < c.text.size() && c.text[c.pos] == ch) {
    ++c.pos;
    return true;
  }
  return false;
}

Status Parser::ErrorAt(const Cursor& c, const std::string& what) {
  return Status::InvalidArgument(
      StrFormat("parse error at line %d: %s", c.line, what.c_str()));
}

Result<Term> Parser::ParseTerm(Cursor& c) {
  SkipSpace(c);
  if (c.pos >= c.text.size()) return ErrorAt(c, "expected term");
  char first = c.text[c.pos];

  if (first == '\'') {
    // Quoted constant.
    size_t start = ++c.pos;
    while (c.pos < c.text.size() && c.text[c.pos] != '\'') ++c.pos;
    if (c.pos >= c.text.size()) return ErrorAt(c, "unterminated quote");
    std::string_view name = c.text.substr(start, c.pos - start);
    ++c.pos;  // closing quote
    return Term::Constant(symbols_->Intern(name));
  }
  if (std::isdigit(static_cast<unsigned char>(first))) {
    size_t start = c.pos;
    while (c.pos < c.text.size() &&
           std::isdigit(static_cast<unsigned char>(c.text[c.pos]))) {
      ++c.pos;
    }
    return Term::Constant(symbols_->Intern(c.text.substr(start, c.pos - start)));
  }
  if (!IsIdentStart(first)) return ErrorAt(c, "expected term");
  size_t start = c.pos;
  while (c.pos < c.text.size() && IsIdentChar(c.text[c.pos])) ++c.pos;
  std::string_view name = c.text.substr(start, c.pos - start);
  bool is_var = std::isupper(static_cast<unsigned char>(first)) || first == '_';
  SymbolId id = symbols_->Intern(name);
  return is_var ? Term::Variable(id) : Term::Constant(id);
}

Status Parser::ParseAtomAt(Cursor& c, Atom* atom) {
  SkipSpace(c);
  if (c.pos >= c.text.size() || !IsIdentStart(c.text[c.pos]) ||
      std::isupper(static_cast<unsigned char>(c.text[c.pos]))) {
    return ErrorAt(c, "expected predicate name");
  }
  size_t start = c.pos;
  while (c.pos < c.text.size() && IsIdentChar(c.text[c.pos])) ++c.pos;
  atom->predicate = symbols_->Intern(c.text.substr(start, c.pos - start));
  atom->args.clear();
  if (!Consume(c, '(')) return Status::OK();  // propositional atom
  if (Consume(c, ')')) return Status::OK();   // empty argument list
  for (;;) {
    Result<Term> term = ParseTerm(c);
    if (!term.ok()) return term.status();
    atom->args.push_back(*term);
    if (Consume(c, ')')) break;
    if (!Consume(c, ',')) return ErrorAt(c, "expected ',' or ')'");
  }
  return Status::OK();
}

bool Parser::ConsumeNegation(Cursor& c) {
  SkipSpace(c);
  if (c.pos + 1 < c.text.size() && c.text[c.pos] == '\\' &&
      c.text[c.pos + 1] == '+') {
    c.pos += 2;
    return true;
  }
  // `not` is a keyword only when followed by a separate atom, so a
  // predicate named `not` ("not." / "not(X)") still parses as an atom.
  if (c.text.substr(c.pos, 3) == "not" &&
      c.pos + 3 < c.text.size() &&
      std::isspace(static_cast<unsigned char>(c.text[c.pos + 3]))) {
    size_t after = c.pos + 3;
    Cursor probe = c;
    probe.pos = after;
    SkipSpace(probe);
    if (probe.pos < c.text.size() && IsIdentStart(c.text[probe.pos]) &&
        !std::isupper(static_cast<unsigned char>(c.text[probe.pos]))) {
      c = probe;
      return true;
    }
  }
  return false;
}

Status Parser::ParseClauseAt(Cursor& c, Clause* clause) {
  STRATLEARN_RETURN_IF_ERROR(ParseAtomAt(c, &clause->head));
  clause->body.clear();
  clause->negated.clear();

  SkipSpace(c);
  if (c.pos + 1 < c.text.size() && c.text[c.pos] == ':' &&
      c.text[c.pos + 1] == '-') {
    c.pos += 2;
    for (;;) {
      bool negated = ConsumeNegation(c);
      STRATLEARN_RETURN_IF_ERROR(ParseAtomAt(c, &clause->body.emplace_back()));
      clause->negated.push_back(negated ? 1 : 0);
      SkipSpace(c);
      if (!Consume(c, ',')) break;
    }
  }
  if (!Consume(c, '.')) return ErrorAt(c, "expected '.' at end of clause");
  return Status::OK();
}

Result<Program> Parser::ParseProgram(std::string_view text) {
  Cursor c{text, 0, 1};
  Program program;
  for (;;) {
    SkipSpace(c);
    if (c.pos >= c.text.size()) break;
    int line = c.line;
    Clause clause;
    STRATLEARN_RETURN_IF_ERROR(ParseClauseAt(c, &clause));
    if (clause.IsFact()) {
      program.facts.push_back(std::move(clause));
      program.fact_lines.push_back(line);
    } else {
      program.rules.push_back(std::move(clause));
      program.rule_lines.push_back(line);
    }
  }
  return program;
}

Result<Atom> Parser::ParseAtom(std::string_view text) {
  Cursor c{text, 0, 1};
  Atom atom;
  STRATLEARN_RETURN_IF_ERROR(ParseAtomAt(c, &atom));
  SkipSpace(c);
  Consume(c, '.');  // trailing period is optional for queries
  SkipSpace(c);
  if (c.pos != c.text.size()) {
    return ErrorAt(c, "trailing input after atom");
  }
  return atom;
}

Status Parser::LoadProgram(std::string_view text, Database* db,
                           RuleBase* rules) {
  Cursor c{text, 0, 1};
  Clause clause;
  FactTuple tuple;
  // The first fact error; parsing goes on, since a later syntax error
  // outranks it, but no later fact is inserted.
  Status fact_error;
  std::vector<std::pair<Clause, int>> held_rules;
  for (;;) {
    SkipSpace(c);
    if (c.pos >= c.text.size()) break;
    int line = c.line;
    STRATLEARN_RETURN_IF_ERROR(ParseClauseAt(c, &clause));
    if (!clause.IsFact()) {
      held_rules.emplace_back(clause, line);
    } else if (fact_error.ok() && !clause.head.IsGround()) {
      fact_error = Status::InvalidArgument(
          StrFormat("line %d: fact '%s' is not ground", line,
                    clause.head.ToString(*symbols_).c_str()));
    } else if (fact_error.ok()) {
      tuple.clear();
      for (const Term& t : clause.head.args) tuple.push_back(t.symbol);
      fact_error = db->Insert(clause.head.predicate, tuple);
    }
  }
  STRATLEARN_RETURN_IF_ERROR(fact_error);
  for (auto& [rule, line] : held_rules) {
    if (rule.HasNegation()) {
      return Status::Unimplemented(StrFormat(
          "line %d: rule '%s' uses negation as failure, which the "
          "executable engines do not evaluate inside rule bodies "
          "(see apps/naf.h); `stratlearn_cli verify` can still check it",
          line, rule.ToString(*symbols_).c_str()));
    }
    STRATLEARN_RETURN_IF_ERROR(rules->AddRule(std::move(rule)));
  }
  return Status::OK();
}

}  // namespace stratlearn
