#include <iterator>
#include <string>

#include <gtest/gtest.h>

#include "datalog/atom.h"
#include "datalog/clause.h"
#include "datalog/symbol_table.h"
#include "datalog/term.h"

namespace stratlearn {
namespace {

TEST(SymbolTableTest, InternIsIdempotent) {
  SymbolTable t;
  SymbolId a = t.Intern("prof");
  SymbolId b = t.Intern("prof");
  EXPECT_EQ(a, b);
  EXPECT_EQ(t.size(), 1u);
}

TEST(SymbolTableTest, DistinctNamesDistinctIds) {
  SymbolTable t;
  SymbolId a = t.Intern("prof");
  SymbolId b = t.Intern("grad");
  EXPECT_NE(a, b);
  EXPECT_EQ(t.Name(a), "prof");
  EXPECT_EQ(t.Name(b), "grad");
}

TEST(SymbolTableTest, LookupMissingReturnsInvalid) {
  SymbolTable t;
  EXPECT_EQ(t.Lookup("nothing"), kInvalidSymbol);
  t.Intern("x");
  EXPECT_EQ(t.Lookup("x"), 0u);
}

TEST(SymbolTableTest, ManySymbols) {
  SymbolTable t;
  for (int i = 0; i < 1000; ++i) {
    t.Intern("sym" + std::to_string(i));
  }
  EXPECT_EQ(t.size(), 1000u);
  EXPECT_EQ(t.Name(t.Lookup("sym500")), "sym500");
}

TEST(SymbolTableTest, IdsAreDenseThroughGrowth) {
  SymbolTable t;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    ASSERT_EQ(t.Intern("name" + std::to_string(i)), static_cast<SymbolId>(i));
  }
  EXPECT_EQ(t.size(), static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    std::string name = "name" + std::to_string(i);
    ASSERT_EQ(t.Intern(name), static_cast<SymbolId>(i));
    ASSERT_EQ(t.Lookup(name), static_cast<SymbolId>(i));
    ASSERT_EQ(t.Name(static_cast<SymbolId>(i)), name);
  }
  EXPECT_EQ(t.size(), static_cast<size_t>(n));
  EXPECT_EQ(t.Lookup("name200000"), kInvalidSymbol);
  EXPECT_EQ(t.Lookup(""), kInvalidSymbol);
}

TEST(SymbolTableTest, EmptyNameRoundTrips) {
  SymbolTable t;
  EXPECT_EQ(t.Lookup(""), kInvalidSymbol);
  SymbolId p = t.Intern("p");
  SymbolId empty = t.Intern("");  // p('') interns the empty name
  EXPECT_NE(empty, p);
  EXPECT_EQ(t.Name(empty), "");
  EXPECT_EQ(t.Lookup(""), empty);
  EXPECT_EQ(t.Intern(""), empty);
}

TEST(SymbolTableTest, CopiesAreIndependent) {
  SymbolTable a;
  a.Intern("x");
  SymbolTable b = a;
  EXPECT_EQ(a.Intern("only_a"), 1u);
  EXPECT_EQ(b.Lookup("only_a"), kInvalidSymbol);
  EXPECT_EQ(b.Intern("only_b"), 1u);
  EXPECT_EQ(a.Lookup("only_b"), kInvalidSymbol);
  EXPECT_EQ(a.Name(1), "only_a");
  EXPECT_EQ(b.Name(1), "only_b");
  EXPECT_EQ(a.Lookup("x"), 0u);
  EXPECT_EQ(b.Lookup("x"), 0u);
}

TEST(SymbolTableTest, NearNamesGetDistinctIds) {
  SymbolTable t;
  const char* names[] = {"u1", "u12", "u123", "u", "u2", "u13", "v1",
                         "U1", "u1 ", "u\xff", "u\x01"};
  for (size_t i = 0; i < std::size(names); ++i) {
    EXPECT_EQ(t.Intern(names[i]), static_cast<SymbolId>(i)) << names[i];
  }
  for (size_t i = 0; i < std::size(names); ++i) {
    EXPECT_EQ(t.Lookup(names[i]), static_cast<SymbolId>(i)) << names[i];
  }
}

TEST(TermTest, KindsAndEquality) {
  Term c = Term::Constant(3);
  Term v = Term::Variable(3);
  EXPECT_TRUE(c.is_constant());
  EXPECT_TRUE(v.is_variable());
  EXPECT_NE(c, v);
  EXPECT_EQ(c, Term::Constant(3));
  EXPECT_NE(c, Term::Constant(4));
}

TEST(AtomTest, GroundDetection) {
  SymbolTable t;
  Atom ground(t.Intern("p"), {Term::Constant(t.Intern("a"))});
  Atom open(t.Intern("p"), {Term::Variable(t.Intern("X"))});
  EXPECT_TRUE(ground.IsGround());
  EXPECT_FALSE(open.IsGround());
  Atom propositional(t.Intern("q"), {});
  EXPECT_TRUE(propositional.IsGround());
}

TEST(AtomTest, ToStringFormats) {
  SymbolTable t;
  Atom a(t.Intern("edge"),
         {Term::Constant(t.Intern("x")), Term::Variable(t.Intern("Y"))});
  EXPECT_EQ(a.ToString(t), "edge(x, Y)");
  Atom p(t.Intern("flag"), {});
  EXPECT_EQ(p.ToString(t), "flag");
}

TEST(AtomTest, HashConsistentWithEquality) {
  SymbolTable t;
  Atom a(t.Intern("p"), {Term::Constant(t.Intern("a"))});
  Atom b(t.Intern("p"), {Term::Constant(t.Intern("a"))});
  Atom c(t.Intern("p"), {Term::Constant(t.Intern("b"))});
  AtomHash h;
  EXPECT_EQ(h(a), h(b));
  EXPECT_TRUE(a == b);
  EXPECT_FALSE(a == c);
}

TEST(ClauseTest, FactDetection) {
  SymbolTable t;
  Clause fact(Atom(t.Intern("p"), {Term::Constant(t.Intern("a"))}), {});
  EXPECT_TRUE(fact.IsFact());
  Clause rule(Atom(t.Intern("p"), {Term::Variable(t.Intern("X"))}),
              {Atom(t.Intern("q"), {Term::Variable(t.Intern("X"))})});
  EXPECT_FALSE(rule.IsFact());
}

TEST(ClauseTest, RangeRestriction) {
  SymbolTable t;
  SymbolId x = t.Intern("X");
  SymbolId y = t.Intern("Y");
  // p(X) :- q(X). is range restricted.
  Clause good(Atom(t.Intern("p"), {Term::Variable(x)}),
              {Atom(t.Intern("q"), {Term::Variable(x)})});
  EXPECT_TRUE(good.IsRangeRestricted());
  // p(Y) :- q(X). is not: Y never appears in the body.
  Clause bad(Atom(t.Intern("p"), {Term::Variable(y)}),
             {Atom(t.Intern("q"), {Term::Variable(x)})});
  EXPECT_FALSE(bad.IsRangeRestricted());
  // Non-ground fact is not range restricted.
  Clause open_fact(Atom(t.Intern("p"), {Term::Variable(x)}), {});
  EXPECT_FALSE(open_fact.IsRangeRestricted());
}

TEST(ClauseTest, ToStringFormats) {
  SymbolTable t;
  SymbolId x = t.Intern("X");
  Clause rule(Atom(t.Intern("instructor"), {Term::Variable(x)}),
              {Atom(t.Intern("prof"), {Term::Variable(x)})});
  EXPECT_EQ(rule.ToString(t), "instructor(X) :- prof(X).");
  Clause fact(Atom(t.Intern("prof"), {Term::Constant(t.Intern("russ"))}), {});
  EXPECT_EQ(fact.ToString(t), "prof(russ).");
}

}  // namespace
}  // namespace stratlearn
