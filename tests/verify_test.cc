#include "verify/verify.h"

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "obs/json_reader.h"
#include "verify/diagnostics.h"
#include "verify/sarif.h"
#include "verify/suppressions.h"

namespace stratlearn::verify {
namespace {

// Golden-file tests: every diagnostic code has one minimal fixture under
// tests/testdata/verify/ whose rendered text output is pinned in a
// matching .expected file. Regenerate after an intentional output change
// with:  STRATLEARN_REGEN_GOLDEN=1 ./verify_test

/// One golden case: the files are fed to an ArtifactVerifier in order
/// (so e.g. a graph file can provide context for a strategy file) and
/// the sink's text rendering is compared against `golden`.
struct GoldenCase {
  const char* name;
  std::vector<const char*> files;
  const char* golden;
};

const GoldenCase kGoldenCases[] = {
    // Rule-base family.
    {"r001", {"r001_not_range_restricted.dl"}, "r001.expected"},
    {"r002", {"r002_non_ground_fact.dl"}, "r002.expected"},
    {"r003", {"r003_undefined_predicate.dl"}, "r003.expected"},
    {"r004", {"r004_unused_predicate.dl"}, "r004.expected"},
    {"r005", {"r005_direct_recursion.dl"}, "r005.expected"},
    {"r006", {"r006_mutual_recursion.dl"}, "r006.expected"},
    {"r007", {"r007_unsafe_negation.dl"}, "r007.expected"},
    {"r008", {"r008_unstratified_negation.dl"}, "r008.expected"},
    {"p001", {"p001_syntax_error.dl"}, "p001.expected"},
    // Inference-graph family.
    {"g001", {"g001_not_a_tree.graph"}, "g001.expected"},
    {"g002", {"g002_dangling_node.graph"}, "g002.expected"},
    {"g003", {"g003_non_positive_cost.graph"}, "g003.expected"},
    {"g004", {"g004_success_not_leaf.graph"}, "g004.expected"},
    {"g005", {"g005_dead_end.graph"}, "g005.expected"},
    {"g006", {"g006_depth_bound.graph"}, "g006.expected"},
    {"g008", {"g008_malformed_record.graph"}, "g008.expected"},
    {"g009", {"g009_build_failure.dl"}, "g009.expected"},
    {"g003_non_finite", {"g003_non_finite_cost.graph"},
     "g003_non_finite.expected"},
    {"g008_out_of_order", {"g008_out_of_order.graph"},
     "g008_out_of_order.expected"},
    {"g008_retrieval", {"g008_retrieval_not_experiment.graph"},
     "g008_retrieval.expected"},
    {"g008_success_root", {"g008_success_root.graph"},
     "g008_success_root.expected"},
    // AND/OR family.
    {"a001", {"a001_dangling_parent.andor"}, "a001.expected"},
    {"a002", {"a002_childless_internal.andor"}, "a002.expected"},
    {"a003", {"a003_leaf_with_children.andor"}, "a003.expected"},
    {"a004", {"a004_non_positive_leaf_cost.andor"}, "a004.expected"},
    {"a005", {"a005_multiple_roots.andor"}, "a005.expected"},
    {"a006", {"a006_malformed_record.andor"}, "a006.expected"},
    {"a004_non_finite", {"a004_non_finite_leaf_cost.andor"},
     "a004_non_finite.expected"},
    {"a006_indented", {"a006_indented_record.andor"},
     "a006_indented.expected"},
    // Strategy family (verified against the two-branch context graph).
    {"s001",
     {"context_two_branch.graph", "s001_dangling_arc.strategy"},
     "s001.expected"},
    {"s002",
     {"context_two_branch.graph", "s002_not_permutation.strategy"},
     "s002.expected"},
    {"s003",
     {"context_two_branch.graph", "s003_order_violation.strategy"},
     "s003.expected"},
    {"s004",
     {"context_two_branch.graph", "s004_swap_unreachable.strategy"},
     "s004.expected"},
    {"s005", {"s005_no_context.strategy"}, "s005.expected"},
    {"s001_past_32_bits",
     {"context_two_branch.graph", "s001_id_past_32_bits.strategy"},
     "s001_past_32_bits.expected"},
    {"s001_negative",
     {"context_two_branch.graph", "s001_negative_id.strategy"},
     "s001_negative.expected"},
    // Ids may continue on the lines after the header.
    {"x004_second_line",
     {"context_two_branch.graph", "x004_ids_on_second_line.strategy"},
     "x004_second_line.expected"},
    // Alert-config family.
    {"al001", {"al001_malformed.alerts"}, "al001.expected"},
    {"al002", {"al002_unknown_selector.alerts"}, "al002.expected"},
    {"al003", {"al003_bad_threshold.alerts"}, "al003.expected"},
    {"al004", {"al004_duplicate_id.alerts"}, "al004.expected"},
    {"al005", {"al005_empty.alerts"}, "al005.expected"},
    // Learner-config family.
    {"c001", {"c001_epsilon_range.cfg"}, "c001.expected"},
    {"c002", {"c002_delta_range.cfg"}, "c002.expected"},
    {"c003", {"c003_schedule_divergence.cfg"}, "c003.expected"},
    {"c004",
     {"context_two_branch.graph", "c004_quota_overflow.cfg"},
     "c004.expected"},
    {"c005",
     {"context_two_branch.graph", "c005_quota_exceeds_contexts.cfg"},
     "c005.expected"},
    {"c006", {"c006_non_positive_counts.cfg"}, "c006.expected"},
    {"c007", {"c007_unknown_key.cfg"}, "c007.expected"},
    // Adornment-dataflow family (fixpoint binding-pattern analysis).
    {"d001", {"d001_never_called.dl"}, "d001.expected"},
    {"d002", {"d002_all_free_scan.dl"}, "d002.expected"},
    {"d003", {"d003_filter_literal.dl"}, "d003.expected"},
    {"d004", {"d004_no_sip_order.dl"}, "d004.expected"},
    {"d005", {"d005_iteration_cap.dl"}, "d005.expected"},
    {"d006", {"d006_all_free_form.dl"}, "d006.expected"},
    // Abstract cost-interpretation family. A *.json file in the list is
    // fed as a --profile StrategyProfiler report, not as an artifact.
    {"x001",
     {"x001_profile.json", "x001_deep.graph", "x001_infeasible_quota.cfg"},
     "x001.expected"},
    {"x002",
     {"x002_profile.json", "x002_skewed.graph", "x002_left_first.strategy"},
     "x002.expected"},
    {"x003",
     {"x003_profile.json", "x001_deep.graph", "x003_order.strategy"},
     "x003.expected"},
    {"x004",
     {"x004_profile.json", "context_two_branch.graph",
      "x004_order.strategy"},
     "x004.expected"},
    {"x005", {"x005_bad_profile.json"}, "x005.expected"},
    // Suppression-baseline family. A *.suppressions file in the list is
    // parsed and applied to everything fed before it.
    {"sup001", {"clean.dl", "sup001_malformed.suppressions"},
     "sup001.expected"},
    {"sup002", {"r004_unused_predicate.dl", "sup002_stale.suppressions"},
     "sup002.expected"},
};

std::string FixturePath(const std::string& name) {
  return std::string(STRATLEARN_VERIFY_TESTDATA) + "/" + name;
}

std::string ReadFixture(const std::string& name) {
  std::ifstream in(FixturePath(name));
  EXPECT_TRUE(in.good()) << "missing fixture " << name;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

bool HasSuffix(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/// Feeds one case's files into a verifier; diagnostics carry the bare
/// fixture names, keeping the golden files checkout-path independent.
/// *.json files become the verifier's probability profile (the CLI's
/// --profile) and *.suppressions files are applied as a baseline (the
/// CLI's --suppressions); everything else is a verifiable artifact.
void FeedCase(ArtifactVerifier* verifier, DiagnosticSink* sink,
              const std::vector<const char*>& files) {
  for (const char* file : files) {
    std::string text = ReadFixture(file);
    if (HasSuffix(file, ".json")) {
      sink->set_file(file);
      verifier->set_profile(ParseArcProbProfile(text, sink));
    } else if (HasSuffix(file, ".suppressions")) {
      SuppressionSet set = ParseSuppressions(text, file, sink);
      ApplySuppressions(set, file, sink);
    } else {
      verifier->AddText(file, text);
    }
  }
}

/// Runs one golden case through a fresh verifier.
std::string RunCase(const GoldenCase& c) {
  DiagnosticSink sink;
  ArtifactVerifier verifier(&sink);
  FeedCase(&verifier, &sink, c.files);
  return sink.RenderText();
}

bool RegenRequested() {
  const char* env = std::getenv("STRATLEARN_REGEN_GOLDEN");
  return env != nullptr && std::string(env) == "1";
}

TEST(VerifyGolden, AllCases) {
  for (const GoldenCase& c : kGoldenCases) {
    SCOPED_TRACE(c.name);
    std::string rendered = RunCase(c);
    if (RegenRequested()) {
      std::ofstream out(FixturePath(c.golden));
      out << rendered;
      continue;
    }
    EXPECT_EQ(rendered, ReadFixture(c.golden));
  }
}

TEST(VerifyGolden, EveryCaseMentionsItsCode) {
  if (RegenRequested()) GTEST_SKIP();
  for (const GoldenCase& c : kGoldenCases) {
    SCOPED_TRACE(c.name);
    // Uppercase the letter prefix and keep the digits after it
    // ("al001" -> "V-AL001", "g008_out_of_order" -> "V-G008").
    std::string code = "V-";
    const char* rest = c.name;
    for (; *rest != '\0' &&
           !std::isdigit(static_cast<unsigned char>(*rest));
         ++rest) {
      code += static_cast<char>(
          std::toupper(static_cast<unsigned char>(*rest)));
    }
    for (; std::isdigit(static_cast<unsigned char>(*rest)); ++rest) {
      code += *rest;
    }
    EXPECT_NE(RunCase(c).find("[" + code + "]"), std::string::npos)
        << "fixture does not trigger its own diagnostic code";
  }
}

// Two independent runs over the same inputs must render byte-identical
// JSON (no timestamps, pointers, or hash-order leaks).
TEST(VerifyDeterminism, JsonByteIdentical) {
  auto render_all = [] {
    DiagnosticSink sink;
    ArtifactVerifier verifier(&sink);
    for (const GoldenCase& c : kGoldenCases) {
      FeedCase(&verifier, &sink, c.files);
    }
    return sink.RenderJson();
  };
  std::string first = render_all();
  std::string second = render_all();
  EXPECT_EQ(first, second);
  EXPECT_TRUE(obs::IsValidJson(first));
  // Also pinned: the combined JSON report over every golden case, so a
  // rendering change to any family (including the analyses sections)
  // shows up as a reviewable golden diff.
  if (RegenRequested()) {
    std::ofstream out(FixturePath("all_cases.json.expected"));
    out << first;
  } else {
    EXPECT_EQ(first, ReadFixture("all_cases.json.expected"));
  }
}

TEST(VerifyDeterminism, TextByteIdentical) {
  for (const GoldenCase& c : kGoldenCases) {
    SCOPED_TRACE(c.name);
    EXPECT_EQ(RunCase(c), RunCase(c));
  }
}

void CompareOrRegen(const std::string& golden, const std::string& rendered) {
  if (RegenRequested()) {
    std::ofstream out(FixturePath(golden));
    out << rendered;
    return;
  }
  EXPECT_EQ(rendered, ReadFixture(golden));
}

// Project mode: the testdata project/ tree (a program, a graph, a
// nested strategy + config, and one unrecognised notes.txt) is walked
// in kind-priority order, so the graph's context is live when the
// strategy under sub/ verifies. Pinned as a text golden.
TEST(VerifyProjectGolden, TestdataProject) {
  auto run = [] {
    DiagnosticSink sink;
    ArtifactVerifier verifier(&sink);
    EXPECT_TRUE(
        VerifyProject(&verifier, FixturePath("project"), &sink).ok());
    return sink.RenderText();
  };
  std::string rendered = run();
  EXPECT_EQ(rendered, run());  // byte-deterministic walk order
  CompareOrRegen("project.expected", rendered);
}

TEST(VerifyProjectGolden, MissingDirectoryIsAnError) {
  DiagnosticSink sink;
  ArtifactVerifier verifier(&sink);
  EXPECT_FALSE(
      VerifyProject(&verifier, FixturePath("no_such_dir"), &sink).ok());
}

// SARIF rendering over a mixed run (an adornment note, a build error,
// a certified cost interval): byte-exact against a pinned golden, and
// byte-identical across runs.
TEST(SarifGolden, ProjectRun) {
  auto run = [] {
    DiagnosticSink sink;
    ArtifactVerifier verifier(&sink);
    EXPECT_TRUE(
        VerifyProject(&verifier, FixturePath("project"), &sink).ok());
    return RenderSarif(sink);
  };
  std::string rendered = run();
  EXPECT_EQ(rendered, run());
  EXPECT_TRUE(obs::IsValidJson(rendered));
  CompareOrRegen("project.sarif.expected", rendered);
}

// --Werror in the machine formats: a warning renders as
// "severity":"error" with a "promoted" marker, and the summary's exit
// code moves to 2. Pinned as a JSON golden.
TEST(WerrorGolden, JsonPromotesWarnings) {
  DiagnosticSink sink;
  ArtifactVerifier verifier(&sink);
  verifier.AddText("r004_unused_predicate.dl",
                   ReadFixture("r004_unused_predicate.dl"));
  std::string rendered = sink.RenderJson(/*werror=*/true);
  EXPECT_TRUE(obs::IsValidJson(rendered));
  EXPECT_NE(rendered.find("\"severity\":\"error\""), std::string::npos);
  EXPECT_NE(rendered.find("\"promoted\":true"), std::string::npos);
  EXPECT_NE(rendered.find("\"exit_code\":2"), std::string::npos);
  CompareOrRegen("werror_r004.json.expected", rendered);
}

TEST(WerrorGolden, SarifPromotesWarnings) {
  DiagnosticSink sink;
  ArtifactVerifier verifier(&sink);
  verifier.AddText("r004_unused_predicate.dl",
                   ReadFixture("r004_unused_predicate.dl"));
  std::string rendered = RenderSarif(sink, /*werror=*/true);
  EXPECT_NE(rendered.find("\"level\":\"error\""), std::string::npos);
  EXPECT_NE(rendered.find("\"promoted\":true"), std::string::npos);
  EXPECT_EQ(rendered.find("\"level\":\"warning\""), std::string::npos);
}

// The suppression baseline round-trip: a baseline generated from a
// run's findings suppresses exactly those findings on the next run.
TEST(SuppressionsTest, BaselineRoundTripSuppressesEverything) {
  DiagnosticSink first;
  ArtifactVerifier v1(&first);
  v1.AddText("r004_unused_predicate.dl",
             ReadFixture("r004_unused_predicate.dl"));
  ASSERT_GT(first.diagnostics().size(), 0u);
  std::string baseline = RenderSuppressionBaseline(first);

  DiagnosticSink second;
  ArtifactVerifier v2(&second);
  v2.AddText("r004_unused_predicate.dl",
             ReadFixture("r004_unused_predicate.dl"));
  SuppressionSet set = ParseSuppressions(baseline, "base", &second);
  size_t suppressed = ApplySuppressions(set, "base", &second);
  EXPECT_EQ(suppressed, first.diagnostics().size());
  EXPECT_EQ(second.ExitCode(), 0);
  EXPECT_EQ(second.num_suppressed(), suppressed);
}

// V-G007 is only reachable through a loaded program whose database lacks
// a retrieval's relation (from files, V-R003 subsumes it), so it is
// exercised directly against a hand-built graph.
TEST(VerifyBuiltGraphTest, RetrievalWithoutBackingRelationIsG007) {
  SymbolTable symbols;
  BuiltGraph built;
  NodeId root = built.graph.AddRoot("goal");
  auto added = built.graph.AddRetrieval(root, 1.0, "get");
  RetrievalSpec spec;
  spec.predicate = symbols.Intern("ghost");
  built.retrievals[added.arc] = spec;
  Database db;  // no facts for 'ghost'
  DiagnosticSink sink;
  VerifyBuiltGraph(built, db, symbols, &sink);
  ASSERT_EQ(sink.num_errors(), 1u);
  EXPECT_EQ(sink.diagnostics()[0].code, "V-G007");
}

TEST(VerifyBuiltGraphTest, CleanGraphHasNoFindings) {
  SymbolTable symbols;
  Database db;
  ASSERT_TRUE(db.Insert(symbols.Intern("e"), {symbols.Intern("a")}).ok());
  BuiltGraph built;
  NodeId root = built.graph.AddRoot("goal");
  auto added = built.graph.AddRetrieval(root, 1.0, "get-e");
  RetrievalSpec spec;
  spec.predicate = symbols.Intern("e");
  built.retrievals[added.arc] = spec;
  DiagnosticSink sink;
  VerifyBuiltGraph(built, db, symbols, &sink);
  EXPECT_TRUE(sink.empty()) << sink.RenderText();
}

TEST(DiagnosticSinkTest, ExitCodeContract) {
  DiagnosticSink clean;
  EXPECT_EQ(clean.ExitCode(), 0);
  clean.Note("V-X000", "", "fyi");
  EXPECT_EQ(clean.ExitCode(), 0);

  DiagnosticSink warns;
  warns.Warning("V-X000", "", "hm");
  EXPECT_EQ(warns.ExitCode(), 1);
  EXPECT_EQ(warns.ExitCode(/*werror=*/true), 2);
  EXPECT_FALSE(warns.HasBlocking());
  EXPECT_TRUE(warns.HasBlocking(/*werror=*/true));

  DiagnosticSink errors;
  errors.Error("V-X000", "", "bad");
  EXPECT_EQ(errors.ExitCode(), 2);
  EXPECT_TRUE(errors.HasBlocking());
}

TEST(GuardLoadedProgramTest, UndefinedPredicateBlocks) {
  SymbolTable symbols;
  Parser parser(&symbols);
  Database db;
  RuleBase rules;
  ASSERT_TRUE(parser
                  .LoadProgram("instructor(X) :- prauf(X). prof(russ).",
                               &db, &rules)
                  .ok());
  Result<QueryForm> form = QueryForm::Parse("instructor(b)", &symbols);
  ASSERT_TRUE(form.ok());
  Result<BuiltGraph> built = BuildInferenceGraph(rules, *form, &symbols);
  ASSERT_TRUE(built.ok());
  Status guarded = GuardLoadedProgram(rules, *built, db, symbols);
  ASSERT_FALSE(guarded.ok());
  EXPECT_EQ(guarded.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(guarded.message().find("V-R003"), std::string::npos);
}

TEST(GuardLoadedProgramTest, CleanProgramPasses) {
  SymbolTable symbols;
  Parser parser(&symbols);
  Database db;
  RuleBase rules;
  ASSERT_TRUE(parser
                  .LoadProgram("instructor(X) :- prof(X). prof(russ).",
                               &db, &rules)
                  .ok());
  Result<QueryForm> form = QueryForm::Parse("instructor(b)", &symbols);
  ASSERT_TRUE(form.ok());
  Result<BuiltGraph> built = BuildInferenceGraph(rules, *form, &symbols);
  ASSERT_TRUE(built.ok());
  EXPECT_TRUE(GuardLoadedProgram(rules, *built, db, symbols).ok());
}

TEST(LearnerConfigTest, DefaultsAreClean) {
  DiagnosticSink sink;
  VerifyLearnerConfig(LearnerConfig{}, nullptr, &sink);
  EXPECT_TRUE(sink.empty()) << sink.RenderText();
}

TEST(LearnerConfigTest, ScheduleConstantMatchesSixOverPiSquared) {
  // 6/pi^2: the unique constant making sum(delta * c / i^2) == delta.
  double pi = 3.14159265358979323846;
  EXPECT_NEAR(kConvergentScheduleC, 6.0 / (pi * pi), 1e-15);
}

// ---- Recovery policies (V-RC) --------------------------------------------

TEST(RecoveryPolicyPass, ParsesFullPolicy) {
  DiagnosticSink sink;
  robust::RecoveryPolicy policy = ParseRecoveryPolicy(
      "# transient-drift reaction\n"
      "stratlearn-recovery v1\n"
      "on drift:p_hat rebaseline id=rewind cooldown=4\n"
      "on drift:any rebaseline\n"
      "on alert:latency rebaseline\n",
      &sink);
  EXPECT_TRUE(sink.empty()) << sink.RenderText();
  ASSERT_EQ(policy.rules.size(), 3u);
  EXPECT_EQ(policy.rules[0].id, "rewind");
  EXPECT_EQ(policy.rules[0].cooldown, 4);
  // Unnamed rules default to "<trigger>-><action>".
  EXPECT_EQ(policy.rules[1].id, "drift:any->rebaseline");
  EXPECT_EQ(policy.rules[1].cooldown, 0);
  EXPECT_EQ(policy.rules[2].trigger, "alert:latency");
}

TEST(RecoveryPolicyPass, UnknownDirectivesAndOptionsAreRC001) {
  DiagnosticSink sink;
  robust::RecoveryPolicy policy = ParseRecoveryPolicy(
      "stratlearn-recovery v1\n"
      "ring 2\n"
      "on drift:any rebaseline trials_factor=0.5\n"
      "on drift:p_hat rebaseline probe_cooldown=16\n",
      &sink);
  EXPECT_EQ(sink.num_errors(), 3u);
  EXPECT_EQ(sink.RenderText().find("V-RC003"), std::string::npos);
  EXPECT_TRUE(policy.rules.empty());
}

TEST(RecoveryPolicyPass, MissingHeaderIsRC001) {
  DiagnosticSink sink;
  ParseRecoveryPolicy("on drift:p_hat rebaseline\n", &sink);
  EXPECT_TRUE(sink.HasBlocking());
  EXPECT_NE(sink.RenderText().find("V-RC001"), std::string::npos);
}

TEST(RecoveryPolicyPass, UnknownTriggerIsRC002) {
  DiagnosticSink sink;
  robust::RecoveryPolicy policy = ParseRecoveryPolicy(
      "stratlearn-recovery v1\n"
      "on drift:entropy rebaseline\n",
      &sink);
  EXPECT_TRUE(sink.HasBlocking());
  EXPECT_NE(sink.RenderText().find("V-RC002"), std::string::npos);
  EXPECT_TRUE(policy.rules.empty());  // malformed rules are dropped
}

// The Page-Hinkley mean-cost and counter-rate detectors are gone, and
// so are their triggers.
TEST(RecoveryPolicyPass, DeletedDetectorTriggersAreRC002) {
  for (const char* trigger : {"drift:mean_cost", "drift:rate"}) {
    DiagnosticSink sink;
    robust::RecoveryPolicy policy = ParseRecoveryPolicy(
        std::string("stratlearn-recovery v1\non ") + trigger +
            " rebaseline\n",
        &sink);
    EXPECT_TRUE(sink.HasBlocking()) << trigger;
    EXPECT_NE(sink.RenderText().find("V-RC002"), std::string::npos)
        << trigger;
    EXPECT_TRUE(policy.rules.empty()) << trigger;
  }
}

TEST(RecoveryPolicyPass, BadActionsAndRangesAreRC003) {
  DiagnosticSink sink;
  ParseRecoveryPolicy(
      "stratlearn-recovery v1\n"
      "on drift:p_hat reboot\n"
      "on drift:any rollback\n"
      "on alert:any restart_scoped\n"
      "on drift:p_hat quarantine\n"
      "on drift:any rebaseline cooldown=-1\n",
      &sink);
  EXPECT_EQ(sink.num_errors(), 5u);
  EXPECT_EQ(sink.RenderText().find("V-RC001"), std::string::npos);
  EXPECT_EQ(sink.RenderText().find("V-RC002"), std::string::npos);
}

TEST(RecoveryPolicyPass, DuplicateRuleIdIsRC004) {
  DiagnosticSink sink;
  robust::RecoveryPolicy policy = ParseRecoveryPolicy(
      "stratlearn-recovery v1\n"
      "on drift:p_hat rebaseline id=react\n"
      "on drift:any rebaseline id=react\n",
      &sink);
  EXPECT_TRUE(sink.HasBlocking());
  EXPECT_NE(sink.RenderText().find("V-RC004"), std::string::npos);
  ASSERT_EQ(policy.rules.size(), 1u);  // the first keeps the name
  EXPECT_EQ(policy.rules[0].trigger, "drift:p_hat");
}

TEST(RecoveryPolicyPass, EmptyPolicyWarnsRC005) {
  DiagnosticSink sink;
  ParseRecoveryPolicy("stratlearn-recovery v1\n", &sink);
  EXPECT_FALSE(sink.HasBlocking());  // a warning, not an error
  EXPECT_EQ(sink.num_warnings(), 1u);
  EXPECT_NE(sink.RenderText().find("V-RC005"), std::string::npos);
}

TEST(RecoveryPolicyPass, GoodRulesSurviveBadNeighbours) {
  DiagnosticSink sink;
  robust::RecoveryPolicy policy = ParseRecoveryPolicy(
      "stratlearn-recovery v1\n"
      "on drift:sparkle rebaseline\n"
      "on drift:p_hat rebaseline cooldown=2\n",
      &sink);
  EXPECT_TRUE(sink.HasBlocking());
  ASSERT_EQ(policy.rules.size(), 1u);
  EXPECT_EQ(policy.rules[0].trigger, "drift:p_hat");
  EXPECT_EQ(policy.rules[0].cooldown, 2);
}

}  // namespace
}  // namespace stratlearn::verify
