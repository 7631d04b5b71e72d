// Property/fuzz tests for every text reader: seeded random byte
// mutations of the checked-in programs, graphs, AND/OR trees,
// strategies and JSON streams must never crash, hang or leak (the suite
// runs under ASan/UBSan in CI) — a damaged input may only yield
// diagnostics. The Datalog loader must also load every mutant as its
// parse-then-insert reference does. Seeded record-level edits of the
// graph, AND/OR and strategy fixtures also check that each loader and
// its verify pass agree. The seeds are fixed so a failure is
// reproducible from the iteration number alone.

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "andor/and_or_serialization.h"
#include "datalog/database.h"
#include "datalog/parser.h"
#include "datalog/rule_base.h"
#include "datalog/symbol_table.h"
#include "engine/strategy.h"
#include "graph/serialization.h"
#include "obs/json_reader.h"
#include "util/rng.h"
#include "util/string_util.h"
#include "verify/verify.h"

namespace stratlearn {
namespace {

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Every checked-in fixture with extension `ext`, in path order.
std::vector<std::string> Fixtures(const std::string& ext) {
  std::vector<std::string> paths;
  for (const std::string& root :
       {std::string(STRATLEARN_TESTDATA),
        std::string(STRATLEARN_TESTDATA) + "/../../examples"}) {
    for (const auto& entry :
         std::filesystem::recursive_directory_iterator(root)) {
      if (entry.path().extension() == ext) {
        paths.push_back(entry.path().string());
      }
    }
  }
  std::sort(paths.begin(), paths.end());
  std::vector<std::string> texts;
  for (const std::string& path : paths) texts.push_back(ReadAll(path));
  EXPECT_FALSE(texts.empty()) << "no " << ext << " fixtures";
  return texts;
}

/// The six-arc graph every strategy fixture is written against.
Result<InferenceGraph> TwoBranchGraph() {
  return verify::DeserializeGraph(ReadAll(
      std::string(STRATLEARN_TESTDATA) + "/verify/context_two_branch.graph"));
}

std::vector<std::string> SeedCorpus() {
  const std::string testdata = STRATLEARN_TESTDATA;
  return {
      ReadAll(testdata + "/university.dl"),
      ReadAll(testdata + "/verify/clean.dl"),
      ReadAll(testdata + "/verify/p001_syntax_error.dl"),
      ReadAll(testdata + "/verify/r001_not_range_restricted.dl"),
  };
}

/// Applies 1-8 random byte edits (substitute / insert / erase) to `text`.
std::string Mutate(const std::string& text, Rng& rng) {
  std::string mutated = text;
  int edits = static_cast<int>(rng.NextBounded(8)) + 1;
  for (int e = 0; e < edits; ++e) {
    char byte = static_cast<char>(rng.NextBounded(256));
    size_t at = mutated.empty()
                    ? 0
                    : static_cast<size_t>(rng.NextBounded(mutated.size()));
    switch (rng.NextBounded(3)) {
      case 0:
        if (!mutated.empty()) mutated[at] = byte;
        break;
      case 1:
        mutated.insert(mutated.begin() + static_cast<ptrdiff_t>(at), byte);
        break;
      default:
        if (!mutated.empty()) {
          mutated.erase(mutated.begin() + static_cast<ptrdiff_t>(at));
        }
        break;
    }
  }
  return mutated;
}

/// The loader's reference: the whole program parsed first, then each
/// fact checked for groundness and inserted, then each rule added, in
/// order. LoadProgram streams facts instead and must agree with it.
Status ReferenceLoad(std::string_view text, SymbolTable* symbols,
                     Database* db, RuleBase* rules) {
  Parser parser(symbols);
  Result<Program> program = parser.ParseProgram(text);
  if (!program.ok()) return program.status();
  for (size_t i = 0; i < program->facts.size(); ++i) {
    const Clause& fact = program->facts[i];
    if (!fact.head.IsGround()) {
      return Status::InvalidArgument(StrFormat(
          "line %d: fact '%s' is not ground", program->fact_lines[i],
          fact.head.ToString(*symbols).c_str()));
    }
    STRATLEARN_RETURN_IF_ERROR(db->Insert(fact.head));
  }
  for (size_t i = 0; i < program->rules.size(); ++i) {
    const Clause& rule = program->rules[i];
    if (rule.HasNegation()) {
      return Status::Unimplemented(StrFormat(
          "line %d: rule '%s' uses negation as failure, which the "
          "executable engines do not evaluate inside rule bodies "
          "(see apps/naf.h); `stratlearn_cli verify` can still check it",
          program->rule_lines[i], rule.ToString(*symbols).c_str()));
    }
    STRATLEARN_RETURN_IF_ERROR(rules->AddRule(rule));
  }
  return Status::OK();
}

void ExpectSameSymbols(const SymbolTable& a, const SymbolTable& b) {
  ASSERT_EQ(a.size(), b.size());
  for (SymbolId id = 0; id < a.size(); ++id) {
    ASSERT_EQ(a.Name(id), b.Name(id)) << "symbol " << id;
  }
}

void ExpectSameRelations(const Database& a, const Database& b) {
  std::vector<SymbolId> predicates = a.Predicates();
  std::vector<SymbolId> other = b.Predicates();
  std::sort(predicates.begin(), predicates.end());
  std::sort(other.begin(), other.end());
  ASSERT_EQ(predicates, other);
  for (SymbolId predicate : predicates) {
    const TupleSet& x = *a.Facts(predicate);
    const TupleSet& y = *b.Facts(predicate);
    ASSERT_EQ(x.arity(), y.arity()) << "predicate " << predicate;
    ASSERT_EQ(x.size(), y.size()) << "predicate " << predicate;
    for (size_t t = 0; t < x.size(); ++t) {
      ASSERT_TRUE(std::equal(x[t].begin(), x[t].end(), y[t].begin()))
          << "predicate " << predicate << " row " << t;
    }
  }
}

// Every mutant loads exactly as the reference loads it: the same
// status (so the same error wins), the same symbol ids, and on success
// the same relations, row by row, and the same rules.
TEST(ParserFuzzTest, MutatedProgramsNeverCrash) {
  std::vector<std::string> corpus = SeedCorpus();
  Rng rng(20260806);
  int loaded_ok = 0;
  int refused_after_parse = 0;
  for (int iteration = 0; iteration < 1000; ++iteration) {
    const std::string& base = corpus[iteration % corpus.size()];
    std::string input = Mutate(base, rng);
    SCOPED_TRACE("iteration " + std::to_string(iteration));

    SymbolTable symbols;
    Parser loader(&symbols);
    Database db;
    RuleBase rules;
    Status loaded = loader.LoadProgram(input, &db, &rules);

    SymbolTable reference_symbols;
    Database reference_db;
    RuleBase reference_rules;
    Status reference = ReferenceLoad(input, &reference_symbols,
                                     &reference_db, &reference_rules);
    ASSERT_EQ(loaded.code(), reference.code()) << loaded.ToString();
    ASSERT_EQ(loaded.message(), reference.message());
    ExpectSameSymbols(symbols, reference_symbols);
    if (!loaded.ok()) {
      if (loaded.message().rfind("parse error", 0) != 0) {
        ++refused_after_parse;
      }
      continue;
    }
    ++loaded_ok;
    ExpectSameRelations(db, reference_db);
    EXPECT_EQ(rules.AllRules(), reference_rules.AllRules());
  }
  // Small mutations leave many programs loadable and refuse others for
  // a fact or a rule; if either never happens, the harness is mutating
  // garbage (or the corpus failed to load).
  EXPECT_GT(loaded_ok, 0);
  EXPECT_GT(refused_after_parse, 0);
}

TEST(ParserFuzzTest, HostileInputsYieldDiagnosticsOnly) {
  SymbolTable symbols;
  Parser parser(&symbols);
  const char* hostile[] = {
      "",
      "\0\0\0",
      ":-",
      "p(",
      "p(a) :- q(X",
      "p(a).p(a).p(a).p(a).",
      "% only a comment",
      "p(a) :- :- q(b).",
      "\xff\xfe\xfd garbage \x01\x02",
      "p(((((((((((((((((a))))))))))))))))).",
  };
  for (const char* input : hostile) {
    (void)parser.ParseProgram(input);  // must not crash
  }
}

// The graph, AND/OR, strategy and JSON readers take damaged bytes
// without a CHECK abort, a crash or a stack overflow.
TEST(ParserFuzzTest, MutatedArtifactsNeverCrash) {
  std::vector<std::string> graphs = Fixtures(".graph");
  std::vector<std::string> andors = Fixtures(".andor");
  std::vector<std::string> strategies = Fixtures(".strategy");
  std::vector<std::string> json_lines;
  for (const char* ext : {".jsonl", ".audit"}) {
    for (const std::string& text : Fixtures(ext)) {
      for (const std::string& line : Split(text, '\n')) {
        if (!line.empty()) json_lines.push_back(line);
      }
    }
  }
  ASSERT_FALSE(json_lines.empty());
  Result<InferenceGraph> context = TwoBranchGraph();
  ASSERT_TRUE(context.ok()) << context.status().ToString();
  Rng rng(20261017);
  for (int iteration = 0; iteration < 1000; ++iteration) {
    SCOPED_TRACE("iteration " + std::to_string(iteration));
    verify::DiagnosticSink sink;
    (void)verify::VerifyGraphText(
        Mutate(graphs[iteration % graphs.size()], rng), &sink);
    (void)verify::VerifyAndOrText(
        Mutate(andors[iteration % andors.size()], rng), &sink);
    (void)verify::VerifyStrategyText(
        *context, Mutate(strategies[iteration % strategies.size()], rng),
        &sink);
    obs::JsonValue value;
    (void)obs::ParseJson(Mutate(json_lines[iteration % json_lines.size()], rng),
                         &value);
  }
}

TEST(ParserFuzzTest, HostileJsonIsRefused) {
  obs::JsonValue value;
  for (const std::string& hostile :
       {std::string(1000000, '['), std::string(1000000, '{'),
        "[" + std::string(1000000, '"'), std::string(100000, '-'),
        std::string("\"\\u"), std::string("{\"a\":\0}", 7)}) {
    EXPECT_FALSE(obs::ParseJson(hostile, &value));
  }
}

// ---- One reader per format ----------------------------------------------

/// One record-level edit of the kind hand edits and partial copies make:
/// a dropped, duplicated or swapped line, an out-of-range or non-finite
/// field, an indented record, a double space, or a record broken onto a
/// second line.
std::string EditRecords(const std::string& text, Rng& rng) {
  static const char* const kValues[] = {"2",     "nan",        "inf", "-0",
                                        "1e999", "4294967296", "-1"};
  std::vector<std::string> lines = Split(text, '\n');
  size_t at = rng.NextBounded(lines.size());
  std::string line = lines[at];
  switch (rng.NextBounded(7)) {
    case 0:
      lines.erase(lines.begin() + static_cast<ptrdiff_t>(at));
      break;
    case 1:
      lines.insert(lines.begin() + static_cast<ptrdiff_t>(at), line);
      break;
    case 2:
      std::swap(lines[at], lines[rng.NextBounded(lines.size())]);
      break;
    case 3: {
      std::vector<std::string> fields = Split(line, ' ');
      fields[rng.NextBounded(fields.size())] = kValues[rng.NextBounded(7)];
      lines[at] = Join(fields, " ");
      break;
    }
    case 4:
      lines[at] = "  " + line;
      break;
    default: {
      size_t space = line.find(' ', rng.NextBounded(line.size() + 1));
      if (space != std::string::npos) {
        line.replace(space, 1, rng.NextBounded(2) == 0 ? "  " : "\n");
        lines[at] = line;
      }
      break;
    }
  }
  return Join(lines, "\n");
}

/// Inputs for one format: its fixtures, then seeded edits of them.
std::vector<std::string> EditedCorpus(const std::vector<std::string>& fixtures,
                                      uint64_t seed) {
  std::vector<std::string> inputs = fixtures;
  Rng rng(seed);
  for (int i = 0; i < 600; ++i) {
    std::string text = fixtures[i % fixtures.size()];
    for (int edits = 1 + static_cast<int>(rng.NextBounded(3)); edits > 0;
         --edits) {
      text = EditRecords(text, rng);
    }
    inputs.push_back(std::move(text));
  }
  return inputs;
}

/// True when `sink` holds a finding at `location` (an error, or with
/// `warnings` a warning too).
bool HasFindingAt(const verify::DiagnosticSink& sink,
                  const std::string& location, bool warnings) {
  for (const verify::Diagnostic& d : sink.diagnostics()) {
    bool counts = d.severity == verify::Severity::kError ||
                  (warnings && d.severity == verify::Severity::kWarning);
    if (counts && d.location == location) return true;
  }
  return false;
}

/// The location a loader error names ("line 4: ..." -> "line 4").
std::string NamedLocation(const Status& status) {
  const std::string& message = status.message();
  size_t colon = message.find(": ");
  return colon == std::string::npos ? "" : message.substr(0, colon);
}

// A graph the loader accepts verifies without an error, passes
// InferenceGraph::Validate and re-serializes to a graph that loads the
// same; a graph it refuses has a verify error on the line its status
// names.
TEST(ReaderAgreementTest, GraphLoaderAndVerifyAgree) {
  int loaded_count = 0;
  for (const std::string& text : EditedCorpus(Fixtures(".graph"), 11)) {
    SCOPED_TRACE(text);
    Result<InferenceGraph> loaded = verify::DeserializeGraph(text);
    verify::DiagnosticSink sink;
    (void)verify::VerifyGraphText(text, &sink);
    if (!loaded.ok()) {
      EXPECT_TRUE(HasFindingAt(sink, NamedLocation(loaded.status()), false))
          << loaded.status().ToString() << "\n" << sink.RenderText();
      continue;
    }
    ++loaded_count;
    EXPECT_EQ(sink.num_errors(), 0u) << sink.RenderText();
    EXPECT_TRUE(loaded->Validate().ok()) << loaded->Validate().ToString();
    Result<InferenceGraph> again =
        verify::DeserializeGraph(SerializeGraph(*loaded));
    ASSERT_TRUE(again.ok()) << again.status().ToString();
    EXPECT_EQ(SerializeGraph(*again), SerializeGraph(*loaded));
  }
  EXPECT_GT(loaded_count, 0);
}

// The same for AND/OR trees, where the loader also refuses what verify
// only warns about (V-A002, a childless internal node).
TEST(ReaderAgreementTest, AndOrLoaderAndVerifyAgree) {
  int loaded_count = 0;
  for (const std::string& text : EditedCorpus(Fixtures(".andor"), 13)) {
    SCOPED_TRACE(text);
    Result<AndOrGraph> loaded = verify::DeserializeAndOrGraph(text);
    verify::DiagnosticSink sink;
    (void)verify::VerifyAndOrText(text, &sink);
    if (!loaded.ok()) {
      EXPECT_TRUE(HasFindingAt(sink, NamedLocation(loaded.status()), true))
          << loaded.status().ToString() << "\n" << sink.RenderText();
      continue;
    }
    ++loaded_count;
    EXPECT_TRUE(sink.empty()) << sink.RenderText();
    EXPECT_TRUE(loaded->Validate().ok()) << loaded->Validate().ToString();
    Result<AndOrGraph> again =
        verify::DeserializeAndOrGraph(SerializeAndOrGraph(*loaded));
    ASSERT_TRUE(again.ok()) << again.status().ToString();
    EXPECT_EQ(SerializeAndOrGraph(*again), SerializeAndOrGraph(*loaded));
  }
  EXPECT_GT(loaded_count, 0);
}

// A strategy the loader accepts verifies without an error to the same
// strategy; one it refuses has a V-S error with the loader's message.
TEST(ReaderAgreementTest, StrategyLoaderAndVerifyAgree) {
  Result<InferenceGraph> graph = TwoBranchGraph();
  ASSERT_TRUE(graph.ok()) << graph.status().ToString();
  int loaded_count = 0;
  for (const std::string& text : EditedCorpus(Fixtures(".strategy"), 17)) {
    SCOPED_TRACE(text);
    Result<Strategy> loaded = Strategy::Deserialize(*graph, text);
    verify::DiagnosticSink sink;
    std::optional<Strategy> verified =
        verify::VerifyStrategyText(*graph, text, &sink);
    ASSERT_EQ(loaded.ok(), verified.has_value()) << sink.RenderText();
    if (loaded.ok()) {
      ++loaded_count;
      EXPECT_EQ(sink.num_errors(), 0u) << sink.RenderText();
      EXPECT_EQ(*loaded, *verified);
      continue;
    }
    bool named = false;
    for (const verify::Diagnostic& d : sink.diagnostics()) {
      named = named || d.message == loaded.status().message();
    }
    EXPECT_TRUE(named) << loaded.status().ToString() << "\n"
                       << sink.RenderText();
  }
  EXPECT_GT(loaded_count, 0);
}

}  // namespace
}  // namespace stratlearn
