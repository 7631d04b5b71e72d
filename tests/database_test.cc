#include "datalog/database.h"

#include <gtest/gtest.h>

namespace stratlearn {
namespace {

class DatabaseTest : public ::testing::Test {
 protected:
  Atom MakeAtom(const std::string& pred,
                const std::vector<std::string>& consts) {
    Atom a;
    a.predicate = symbols_.Intern(pred);
    for (const auto& c : consts) {
      a.args.push_back(Term::Constant(symbols_.Intern(c)));
    }
    return a;
  }

  SymbolTable symbols_;
  Database db_;
};

TEST_F(DatabaseTest, InsertAndContains) {
  ASSERT_TRUE(db_.Insert(MakeAtom("prof", {"russ"})).ok());
  EXPECT_TRUE(db_.Contains(MakeAtom("prof", {"russ"})));
  EXPECT_FALSE(db_.Contains(MakeAtom("prof", {"manolis"})));
  EXPECT_FALSE(db_.Contains(MakeAtom("grad", {"russ"})));
}

TEST_F(DatabaseTest, DuplicateInsertIsSetSemantics) {
  ASSERT_TRUE(db_.Insert(MakeAtom("prof", {"russ"})).ok());
  ASSERT_TRUE(db_.Insert(MakeAtom("prof", {"russ"})).ok());
  EXPECT_EQ(db_.CountFacts(symbols_.Intern("prof")), 1);
}

TEST_F(DatabaseTest, NonGroundInsertRejected) {
  Atom open;
  open.predicate = symbols_.Intern("p");
  open.args.push_back(Term::Variable(symbols_.Intern("X")));
  EXPECT_EQ(db_.Insert(open).code(), StatusCode::kInvalidArgument);
}

TEST_F(DatabaseTest, ArityMismatchRejected) {
  ASSERT_TRUE(db_.Insert(MakeAtom("p", {"a"})).ok());
  EXPECT_EQ(db_.Insert(MakeAtom("p", {"a", "b"})).code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(DatabaseTest, CountsAndTotals) {
  ASSERT_TRUE(db_.Insert(MakeAtom("p", {"a"})).ok());
  ASSERT_TRUE(db_.Insert(MakeAtom("p", {"b"})).ok());
  ASSERT_TRUE(db_.Insert(MakeAtom("q", {"a", "b"})).ok());
  EXPECT_EQ(db_.CountFacts(symbols_.Intern("p")), 2);
  EXPECT_EQ(db_.CountFacts(symbols_.Intern("q")), 1);
  EXPECT_EQ(db_.CountFacts(symbols_.Intern("zzz")), 0);
  EXPECT_EQ(db_.TotalFacts(), 3);
  EXPECT_EQ(db_.Arity(symbols_.Intern("q")), 2);
  EXPECT_EQ(db_.Arity(symbols_.Intern("zzz")), -1);
}

TEST_F(DatabaseTest, MatchWithBoundFirstArgument) {
  ASSERT_TRUE(db_.Insert(MakeAtom("age", {"russ", "40"})).ok());
  ASSERT_TRUE(db_.Insert(MakeAtom("age", {"russ", "41"})).ok());
  ASSERT_TRUE(db_.Insert(MakeAtom("age", {"fred", "30"})).ok());
  Atom pattern;
  pattern.predicate = symbols_.Intern("age");
  pattern.args = {Term::Constant(symbols_.Intern("russ")),
                  Term::Variable(symbols_.Intern("X"))};
  std::vector<FactTuple> out;
  db_.Match(pattern, &out);
  EXPECT_EQ(out.size(), 2u);
}

TEST_F(DatabaseTest, MatchWithUnboundFirstArgument) {
  ASSERT_TRUE(db_.Insert(MakeAtom("age", {"russ", "40"})).ok());
  ASSERT_TRUE(db_.Insert(MakeAtom("age", {"fred", "40"})).ok());
  ASSERT_TRUE(db_.Insert(MakeAtom("age", {"mark", "30"})).ok());
  Atom pattern;
  pattern.predicate = symbols_.Intern("age");
  pattern.args = {Term::Variable(symbols_.Intern("X")),
                  Term::Constant(symbols_.Intern("40"))};
  std::vector<FactTuple> out;
  db_.Match(pattern, &out);
  EXPECT_EQ(out.size(), 2u);
}

TEST_F(DatabaseTest, MatchHonoursRepeatedVariables) {
  ASSERT_TRUE(db_.Insert(MakeAtom("edge", {"a", "a"})).ok());
  ASSERT_TRUE(db_.Insert(MakeAtom("edge", {"a", "b"})).ok());
  Atom pattern;
  pattern.predicate = symbols_.Intern("edge");
  SymbolId x = symbols_.Intern("X");
  pattern.args = {Term::Variable(x), Term::Variable(x)};
  std::vector<FactTuple> out;
  db_.Match(pattern, &out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0][0], out[0][1]);
}

TEST_F(DatabaseTest, MatchUnknownPredicateIsEmpty) {
  Atom pattern;
  pattern.predicate = symbols_.Intern("ghost");
  std::vector<FactTuple> out;
  db_.Match(pattern, &out);
  EXPECT_TRUE(out.empty());
}

TEST_F(DatabaseTest, MatchArityMismatchIsEmpty) {
  ASSERT_TRUE(db_.Insert(MakeAtom("p", {"a"})).ok());
  Atom pattern;
  pattern.predicate = symbols_.Intern("p");
  pattern.args = {Term::Variable(symbols_.Intern("X")),
                  Term::Variable(symbols_.Intern("Y"))};
  std::vector<FactTuple> out;
  db_.Match(pattern, &out);
  EXPECT_TRUE(out.empty());
}

TEST_F(DatabaseTest, PredicatesEnumerates) {
  ASSERT_TRUE(db_.Insert(MakeAtom("p", {"a"})).ok());
  ASSERT_TRUE(db_.Insert(MakeAtom("q", {"b"})).ok());
  EXPECT_EQ(db_.Predicates().size(), 2u);
}

TEST_F(DatabaseTest, ClearEmpties) {
  ASSERT_TRUE(db_.Insert(MakeAtom("p", {"a"})).ok());
  db_.Clear();
  EXPECT_EQ(db_.TotalFacts(), 0);
  EXPECT_FALSE(db_.Contains(MakeAtom("p", {"a"})));
}

TEST_F(DatabaseTest, ZeroArityFacts) {
  SymbolId rain = symbols_.Intern("rain");
  EXPECT_FALSE(db_.Contains(rain, {}));
  ASSERT_TRUE(db_.Insert(MakeAtom("rain", {})).ok());
  ASSERT_TRUE(db_.Insert(rain, {}).ok());
  EXPECT_EQ(db_.CountFacts(rain), 1);
  EXPECT_EQ(db_.Arity(rain), 0);
  EXPECT_TRUE(db_.Contains(rain, {}));
  EXPECT_TRUE(db_.Contains(MakeAtom("rain", {})));
  EXPECT_FALSE(db_.Contains(rain, {symbols_.Intern("a")}));
  Atom pattern;
  pattern.predicate = rain;
  std::vector<FactTuple> out;
  db_.Match(pattern, &out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_TRUE(out[0].empty());
}

TEST_F(DatabaseTest, SymbolIdsNearTheTopOfTheRange) {
  SymbolId pred = symbols_.Intern("edge");
  const SymbolId top = 0xffffffffu;
  for (SymbolId a = top - 3; a != 0; ++a) {  // wraps to 0 after `top`
    for (SymbolId b = top - 3; b != 0; ++b) {
      if (a == b) continue;
      ASSERT_TRUE(db_.Insert(pred, {a, b}).ok());
    }
  }
  EXPECT_EQ(db_.CountFacts(pred), 12);
  EXPECT_TRUE(db_.Contains(pred, {top, top - 1}));
  EXPECT_TRUE(db_.Contains(pred, {top - 3, top}));
  EXPECT_FALSE(db_.Contains(pred, {top, top}));
  EXPECT_FALSE(db_.Contains(pred, {0, top}));
  Atom pattern;
  pattern.predicate = pred;
  pattern.args = {Term::Constant(top), Term::Variable(symbols_.Intern("X"))};
  std::vector<FactTuple> out;
  db_.Match(pattern, &out);
  EXPECT_EQ(out.size(), 3u);
}

TEST_F(DatabaseTest, TernaryTuplesDifferingOnlyInTheLastPosition) {
  SymbolId pred = symbols_.Intern("t");
  for (SymbolId c = 0; c < 200; ++c) {
    ASSERT_TRUE(db_.Insert(pred, {7, 8, c}).ok());
  }
  EXPECT_EQ(db_.CountFacts(pred), 200);
  for (SymbolId c = 0; c < 200; ++c) EXPECT_TRUE(db_.Contains(pred, {7, 8, c}));
  EXPECT_FALSE(db_.Contains(pred, {7, 8, 200}));
  EXPECT_FALSE(db_.Contains(pred, {8, 7, 0}));
  EXPECT_FALSE(db_.Contains(pred, {7, 0, 8}));
}

TEST_F(DatabaseTest, DuplicateInsertsKeepFirstInsertionOrder) {
  SymbolId pred = symbols_.Intern("s");
  for (int round = 0; round < 3; ++round) {
    for (SymbolId a = 0; a < 50; ++a) {
      ASSERT_TRUE(db_.Insert(pred, {a, a % 7}).ok());
    }
  }
  EXPECT_EQ(db_.CountFacts(pred), 50);
  EXPECT_EQ(db_.TotalFacts(), 50);
  const TupleSet* tuples = db_.Facts(pred);
  ASSERT_NE(tuples, nullptr);
  for (SymbolId a = 0; a < 50; ++a) {
    EXPECT_EQ((*tuples)[a][0], a);
    EXPECT_EQ((*tuples)[a][1], a % 7);
  }
}

TEST_F(DatabaseTest, ContainsWithTheWrongArityIsFalse) {
  ASSERT_TRUE(db_.Insert(MakeAtom("p", {"a", "b"})).ok());
  EXPECT_TRUE(db_.Contains(MakeAtom("p", {"a", "b"})));
  EXPECT_FALSE(db_.Contains(MakeAtom("p", {"a"})));
  EXPECT_FALSE(db_.Contains(MakeAtom("p", {"a", "b", "b"})));
  EXPECT_FALSE(db_.Contains(MakeAtom("p", {})));
  SymbolId a = symbols_.Intern("a");
  EXPECT_FALSE(db_.Contains(symbols_.Intern("p"), {a}));
}

TEST_F(DatabaseTest, MatchOnUnaryRelationWithBoundArgument) {
  ASSERT_TRUE(db_.Insert(MakeAtom("prof", {"russ"})).ok());
  ASSERT_TRUE(db_.Insert(MakeAtom("prof", {"ann"})).ok());
  Atom pattern = MakeAtom("prof", {"ann"});
  std::vector<FactTuple> out;
  db_.Match(pattern, &out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], FactTuple{symbols_.Intern("ann")});
  out.clear();
  db_.Match(MakeAtom("prof", {"fred"}), &out);
  EXPECT_TRUE(out.empty());
}

TEST(TupleSetTest, ProjectKeepsDistinctProjectionsInFirstOccurrenceOrder) {
  TupleSet set(3);
  EXPECT_TRUE(set.Insert(std::vector<SymbolId>{1, 2, 3}));
  EXPECT_TRUE(set.Insert(std::vector<SymbolId>{1, 5, 3}));
  EXPECT_TRUE(set.Insert(std::vector<SymbolId>{4, 2, 6}));
  EXPECT_FALSE(set.Insert(std::vector<SymbolId>{1, 5, 3}));
  const std::vector<size_t> outer = {0, 2};
  TupleSet projected = set.Project(outer);
  ASSERT_EQ(projected.arity(), 2u);
  ASSERT_EQ(projected.size(), 2u);
  EXPECT_TRUE(projected.Contains(std::vector<SymbolId>{1, 3}));
  EXPECT_TRUE(projected.Contains(std::vector<SymbolId>{4, 6}));
  EXPECT_FALSE(projected.Contains(std::vector<SymbolId>{1, 6}));
  EXPECT_EQ(projected[1][0], 4u);
  TupleSet none = set.Project({});
  EXPECT_EQ(none.size(), 1u);
  EXPECT_TRUE(none.Contains({}));
  EXPECT_FALSE(TupleSet(2).Project({}).Contains({}));
}

TEST_F(DatabaseTest, LargeRelationLookupIsCorrect) {
  SymbolId pred = symbols_.Intern("big");
  for (int i = 0; i < 5000; ++i) {
    ASSERT_TRUE(db_.Insert(pred, {symbols_.Intern("c" + std::to_string(i))})
                    .ok());
  }
  EXPECT_EQ(db_.CountFacts(pred), 5000);
  EXPECT_TRUE(db_.Contains(pred, {symbols_.Intern("c4999")}));
  EXPECT_FALSE(db_.Contains(pred, {symbols_.Intern("c5000")}));
}

}  // namespace
}  // namespace stratlearn
