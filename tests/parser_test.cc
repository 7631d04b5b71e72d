#include "datalog/parser.h"

#include <gtest/gtest.h>

namespace stratlearn {
namespace {

class ParserTest : public ::testing::Test {
 protected:
  SymbolTable symbols_;
  Parser parser_{&symbols_};
};

TEST_F(ParserTest, ParsesFact) {
  Result<Program> p = parser_.ParseProgram("prof(russ).");
  ASSERT_TRUE(p.ok()) << p.status().ToString();
  ASSERT_EQ(p->facts.size(), 1u);
  EXPECT_TRUE(p->rules.empty());
  EXPECT_EQ(p->facts[0].head.ToString(symbols_), "prof(russ)");
}

TEST_F(ParserTest, ParsesRule) {
  Result<Program> p = parser_.ParseProgram("instructor(X) :- prof(X).");
  ASSERT_TRUE(p.ok()) << p.status().ToString();
  ASSERT_EQ(p->rules.size(), 1u);
  EXPECT_EQ(p->rules[0].ToString(symbols_), "instructor(X) :- prof(X).");
  EXPECT_TRUE(p->rules[0].body[0].args[0].is_variable());
}

TEST_F(ParserTest, ParsesConjunctiveBody) {
  Result<Program> p =
      parser_.ParseProgram("path(X, Y) :- edge(X, Z), path(Z, Y).");
  ASSERT_TRUE(p.ok()) << p.status().ToString();
  ASSERT_EQ(p->rules.size(), 1u);
  EXPECT_EQ(p->rules[0].body.size(), 2u);
}

TEST_F(ParserTest, FigureOneProgram) {
  const char* kProgram = R"(
    % Figure 1's knowledge base.
    instructor(X) :- prof(X).
    instructor(X) :- grad(X).
    grad(manolis).   # DB_1
  )";
  Result<Program> p = parser_.ParseProgram(kProgram);
  ASSERT_TRUE(p.ok()) << p.status().ToString();
  EXPECT_EQ(p->rules.size(), 2u);
  EXPECT_EQ(p->facts.size(), 1u);
}

TEST_F(ParserTest, CommentsAndWhitespace) {
  Result<Program> p = parser_.ParseProgram(
      "% whole-line comment\n  p(a).  # trailing comment\n\n\n q(b).");
  ASSERT_TRUE(p.ok()) << p.status().ToString();
  EXPECT_EQ(p->facts.size(), 2u);
}

TEST_F(ParserTest, QuotedAndNumericConstants) {
  Result<Program> p = parser_.ParseProgram("age('Russ Greiner', 40).");
  ASSERT_TRUE(p.ok()) << p.status().ToString();
  EXPECT_EQ(p->facts[0].head.ToString(symbols_), "age(Russ Greiner, 40)");
  EXPECT_TRUE(p->facts[0].head.IsGround());
}

TEST_F(ParserTest, UnderscoreIsVariable) {
  Result<Program> p = parser_.ParseProgram("p(X) :- q(X, _anything).");
  ASSERT_TRUE(p.ok()) << p.status().ToString();
  EXPECT_TRUE(p->rules[0].body[0].args[1].is_variable());
}

TEST_F(ParserTest, PropositionalAtoms) {
  Result<Program> p = parser_.ParseProgram("raining. wet :- raining.");
  ASSERT_TRUE(p.ok()) << p.status().ToString();
  EXPECT_EQ(p->facts.size(), 1u);
  EXPECT_EQ(p->rules.size(), 1u);
  EXPECT_EQ(p->rules[0].head.arity(), 0u);
}

TEST_F(ParserTest, MissingPeriodFails) {
  Result<Program> p = parser_.ParseProgram("p(a)");
  ASSERT_FALSE(p.ok());
  EXPECT_EQ(p.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(ParserTest, NonGroundFactParsesButLoadFails) {
  // Parsing keeps non-ground facts so the static verifier can point at
  // them (V-R002); loading into a database still rejects them.
  Result<Program> p = parser_.ParseProgram("p(X).");
  ASSERT_TRUE(p.ok());
  Database db;
  RuleBase rules;
  Status s = parser_.LoadProgram("p(X).", &db, &rules);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("not ground"), std::string::npos);
}

TEST_F(ParserTest, UppercasePredicateFails) {
  Result<Program> p = parser_.ParseProgram("Prof(russ).");
  EXPECT_FALSE(p.ok());
}

TEST_F(ParserTest, UnterminatedQuoteFails) {
  Result<Program> p = parser_.ParseProgram("p('oops).");
  EXPECT_FALSE(p.ok());
}

TEST_F(ParserTest, ErrorReportsLineNumber) {
  Result<Program> p = parser_.ParseProgram("p(a).\nq(b).\nbroken(");
  ASSERT_FALSE(p.ok());
  EXPECT_NE(p.status().message().find("line 3"), std::string::npos);
}

TEST_F(ParserTest, ParseAtomQuery) {
  Result<Atom> a = parser_.ParseAtom("instructor(manolis)");
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  EXPECT_EQ(a->ToString(symbols_), "instructor(manolis)");
  // Optional trailing period.
  EXPECT_TRUE(parser_.ParseAtom("instructor(manolis).").ok());
}

TEST_F(ParserTest, ParseAtomRejectsTrailingInput) {
  EXPECT_FALSE(parser_.ParseAtom("p(a) junk").ok());
}

TEST_F(ParserTest, LoadProgramFillsDatabaseAndRules) {
  Database db;
  RuleBase rules;
  Status s = parser_.LoadProgram(
      "instructor(X) :- prof(X). prof(russ). prof(mark).", &db, &rules);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(db.CountFacts(symbols_.Intern("prof")), 2);
  EXPECT_EQ(rules.size(), 1u);
}

// LoadProgram inserts facts as it parses, yet reports errors in the
// order of a whole parse first, then the facts, then the rules.
TEST_F(ParserTest, LoadProgramErrorPrecedence) {
  struct Case {
    const char* program;
    StatusCode code;
    const char* message;
  };
  const Case cases[] = {
      // A syntax error after a non-ground fact.
      {"p(a).\np(X).\nq(b).\nbroken(", StatusCode::kInvalidArgument,
       "parse error at line 4: expected term"},
      // A syntax error after an arity mismatch.
      {"p(a).\np(a, b).\nq(", StatusCode::kInvalidArgument,
       "parse error at line 3: expected term"},
      // A negated rule before a non-ground fact.
      {"r(X) :- s(X), not t(X).\ns(a).\np(X).",
       StatusCode::kInvalidArgument, "line 3: fact 'p(X)' is not ground"},
      // An arity mismatch before a rule that is not range restricted.
      {"p(a).\np(a, b).\nr(X) :- s(Y).", StatusCode::kFailedPrecondition,
       "arity mismatch for predicate 0: have 1, got 2"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.program);
    SymbolTable symbols;
    Parser parser(&symbols);
    Database db;
    RuleBase rules;
    Status s = parser.LoadProgram(c.program, &db, &rules);
    EXPECT_EQ(s.code(), c.code) << s.ToString();
    EXPECT_EQ(s.message(), c.message);
  }
}

TEST_F(ParserTest, EmptyArgumentList) {
  Result<Program> p = parser_.ParseProgram("p().");
  ASSERT_TRUE(p.ok()) << p.status().ToString();
  EXPECT_EQ(p->facts[0].head.arity(), 0u);
}

TEST_F(ParserTest, RoundTripThroughToString) {
  const char* clauses[] = {
      "instructor(X) :- prof(X).",
      "path(X, Y) :- edge(X, Z), path(Z, Y).",
      "prof(russ).",
  };
  for (const char* text : clauses) {
    Result<Program> p = parser_.ParseProgram(text);
    ASSERT_TRUE(p.ok()) << text;
    const Clause& c =
        p->facts.empty() ? p->rules[0] : p->facts[0];
    EXPECT_EQ(c.ToString(symbols_), text);
  }
}

}  // namespace
}  // namespace stratlearn
