// Tests for the decision-audit layer (src/obs/audit): the AuditLog
// certificate writer, the reader's structural checks, full-precision
// round-trips, the delta-budget ledger discipline across seeds, the
// audit_every subsampling contract, and the V-AUD verify passes.

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/pao.h"
#include "core/pib.h"
#include "core/pib1.h"
#include "engine/query_processor.h"
#include "obs/audit/audit_log.h"
#include "obs/audit/audit_reader.h"
#include "obs/metrics.h"
#include "obs/observer.h"
#include "util/rng.h"
#include "verify/diagnostics.h"
#include "verify/verify.h"
#include "workload/random_tree.h"
#include "workload/synthetic_oracle.h"

namespace stratlearn {
namespace {

using obs::AuditFile;
using obs::AuditLog;
using obs::AuditLogOptions;
using obs::DecisionCertificateEvent;

Result<AuditFile> Parse(const std::string& text) {
  std::istringstream in(text);
  return obs::ReadAuditLog(in);
}

DecisionCertificateEvent MakeCert(double delta_step, double spent) {
  DecisionCertificateEvent e;
  e.t_us = 1;
  e.learner = "pib";
  e.decision = "climb";
  e.verdict = "reject";
  e.at_context = 10;
  e.samples = 10;
  e.trials = 10;
  e.subject = 0;
  e.mean = -0.5;
  e.delta_sum = -5.0;
  e.threshold = 3.0;
  e.margin = -8.0;
  e.range = 4.0;
  e.epsilon_n = 1.25;
  e.delta_step = delta_step;
  e.delta_budget = 0.2;
  e.delta_spent_total = spent;
  e.bound_samples = 42;
  e.epsilon = 0.0;
  return e;
}

TEST(AuditLogTest, HeaderCertificateSummaryRoundTrip) {
  std::ostringstream out;
  AuditLogOptions options;
  options.delta_budget = 0.2;
  options.window = 2;
  options.have_baselines = true;
  options.incumbent_expected_cost = 3.8;
  options.oracle_expected_cost = 2.6;
  AuditLog log(&out, options);

  obs::ArcAttemptEvent arc;
  arc.query_index = 0;
  arc.arc = 3;
  arc.experiment = 1;
  arc.unblocked = true;
  arc.cost = 1.5;
  log.On(arc);
  arc.unblocked = false;
  log.On(arc);

  // Gnarly doubles must survive the JSONL round-trip bit for bit.
  DecisionCertificateEvent cert = MakeCert(0.1 + 0.02, 1.0 / 7.0);
  cert.mean = 0.1 + 0.2;            // 0.30000000000000004
  cert.threshold = 2.0 / 3.0;
  cert.margin = cert.delta_sum - cert.threshold;
  log.On(cert);

  obs::QueryEndEvent end;
  end.cost = 2.25;
  log.On(end);
  end.cost = 1.75;
  log.On(end);  // closes the 2-query window
  log.Close();
  ASSERT_TRUE(log.ok());
  EXPECT_EQ(log.certificates_written(), 1);

  Result<AuditFile> parsed = Parse(out.str());
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  const AuditFile& file = parsed.value();
  EXPECT_EQ(file.header.window, 2);
  EXPECT_EQ(file.header.delta_budget, 0.2);
  EXPECT_TRUE(file.header.have_baselines);
  EXPECT_EQ(file.header.incumbent_expected_cost, 3.8);

  ASSERT_EQ(file.certificates.size(), 1u);
  const DecisionCertificateEvent& e = file.certificates[0].event;
  EXPECT_EQ(e.learner, "pib");
  EXPECT_EQ(e.mean, 0.1 + 0.2);  // exact bits, not approximate
  EXPECT_EQ(e.delta_step, 0.1 + 0.02);
  EXPECT_EQ(e.delta_spent_total, 1.0 / 7.0);
  EXPECT_EQ(e.threshold, 2.0 / 3.0);
  EXPECT_EQ(e.bound_samples, 42);
  ASSERT_EQ(file.certificates[0].arcs.size(), 1u);
  EXPECT_EQ(file.certificates[0].arcs[0].arc, 3);
  EXPECT_EQ(file.certificates[0].arcs[0].attempts, 2);
  EXPECT_EQ(file.certificates[0].arcs[0].successes, 1);
  EXPECT_EQ(file.certificates[0].arcs[0].cost, 3.0);

  ASSERT_EQ(file.regrets.size(), 1u);
  EXPECT_EQ(file.regrets[0].queries, 2);
  EXPECT_EQ(file.regrets[0].total_cost, 4.0);
  EXPECT_TRUE(file.regrets[0].have_baselines);
  EXPECT_EQ(file.regrets[0].incumbent_total, 3.8 * 2.0);
  EXPECT_EQ(file.regrets[0].regret_vs_incumbent, 4.0 - 3.8 * 2.0);

  ASSERT_TRUE(file.summary.present);
  EXPECT_EQ(file.summary.queries, 2);
  EXPECT_EQ(file.summary.certificates, 1);
  EXPECT_EQ(file.summary.rejects, 1);
  EXPECT_TRUE(file.summary.budget_ok);
}

TEST(AuditReaderTest, RejectsStructuralDamage) {
  EXPECT_FALSE(Parse("").ok());
  EXPECT_FALSE(Parse("not-the-magic\n").ok());
  EXPECT_FALSE(Parse("stratlearn-audit v1\n").ok());  // no header
  EXPECT_FALSE(
      Parse("stratlearn-audit v1\n{\"record\":\"header\"}\nnot json\n").ok());
  EXPECT_FALSE(Parse("stratlearn-audit v1\n{\"record\":\"header\"}\n"
                     "{\"record\":\"header\"}\n")
                   .ok());  // duplicate header
  EXPECT_FALSE(Parse("stratlearn-audit v1\n{\"record\":\"header\"}\n"
                     "{\"record\":\"wat\"}\n")
                   .ok());  // unknown record kind
  // Non-contiguous seq: a spliced-out certificate must not parse.
  EXPECT_FALSE(
      Parse("stratlearn-audit v1\n{\"record\":\"header\"}\n"
            "{\"record\":\"certificate\",\"seq\":1,\"learner\":\"pib\","
            "\"decision\":\"climb\",\"verdict\":\"reject\",\"arcs\":[]}\n")
          .ok());
  // Missing summary is fine (crash before Close), flagged via present.
  Result<AuditFile> truncated =
      Parse("stratlearn-audit v1\n{\"record\":\"header\"}\n");
  ASSERT_TRUE(truncated.ok());
  EXPECT_FALSE(truncated.value().summary.present);
}

TEST(AuditReaderTest, OutOfRangeIntegersKeepTheirDefaults) {
  // 1e999 parses as +inf. Converting it, or -1e30, to int64_t is
  // undefined behaviour, so such a field reads like a missing one.
  Result<AuditFile> parsed = Parse(
      "stratlearn-audit v1\n"
      "{\"record\":\"header\",\"window\":1e999}\n"
      "{\"record\":\"certificate\",\"seq\":0,\"t_us\":1e999,"
      "\"learner\":\"pib\",\"decision\":\"climb\",\"verdict\":\"reject\","
      "\"samples\":-1e30,\"subject\":1e999,\"bound_samples\":7,"
      "\"arcs\":[{\"arc\":-1e30,\"attempts\":1e999,\"successes\":2}]}\n"
      "{\"record\":\"regret\",\"queries\":1e999,\"queries_total\":-1e30,"
      "\"window_cost\":1.5}\n"
      "{\"record\":\"summary\",\"queries\":-1e30,\"commits\":3}\n");
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  const AuditFile& file = parsed.value();
  EXPECT_EQ(file.header.window, 0);
  ASSERT_EQ(file.certificates.size(), 1u);
  const DecisionCertificateEvent& e = file.certificates[0].event;
  EXPECT_EQ(e.t_us, 0);
  EXPECT_EQ(e.samples, 0);
  EXPECT_EQ(e.subject, -1);
  EXPECT_EQ(e.bound_samples, 7);
  ASSERT_EQ(file.certificates[0].arcs.size(), 1u);
  EXPECT_EQ(file.certificates[0].arcs[0].arc, -1);
  EXPECT_EQ(file.certificates[0].arcs[0].attempts, 0);
  EXPECT_EQ(file.certificates[0].arcs[0].successes, 2);
  ASSERT_EQ(file.regrets.size(), 1u);
  EXPECT_EQ(file.regrets[0].queries, 0);
  EXPECT_EQ(file.regrets[0].queries_total, 0);
  EXPECT_EQ(file.regrets[0].window_cost, 1.5);
  EXPECT_EQ(file.summary.queries, 0);
  EXPECT_EQ(file.summary.commits, 3);
}

// A full PIB run with certificates on: the ledger must be the running
// sum of delta_steps, monotone, and within budget — for every seed.
TEST(AuditLedgerTest, PibLedgerStaysWithinBudgetAcrossSeeds) {
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    Rng rng(seed);
    RandomTreeOptions tree_options;
    tree_options.depth = 3;
    tree_options.min_branch = 2;
    tree_options.max_branch = 3;
    RandomTree tree = MakeRandomTree(rng, tree_options);

    std::ostringstream out;
    AuditLogOptions options;
    options.delta_budget = 0.2;
    AuditLog log(&out, options);
    obs::MetricsRegistry registry;
    obs::Observer observer(&registry, &log);
    observer.UseManualClock();
    observer.set_audit_enabled(true);

    Pib pib(&tree.graph, Strategy::DepthFirst(tree.graph),
            PibOptions{.delta = 0.2}, &observer);
    QueryProcessor qp(&tree.graph, &observer);
    IndependentOracle oracle(tree.probs);
    for (int64_t i = 0; i < 500; ++i) {
      pib.Observe(qp.Execute(pib.strategy(), oracle.Next(rng)));
      observer.AdvanceManualClock(i + 1);
    }
    log.Close();

    Result<AuditFile> parsed = Parse(out.str());
    ASSERT_TRUE(parsed.ok()) << "seed " << seed;
    const AuditFile& file = parsed.value();
    ASSERT_FALSE(file.certificates.empty()) << "seed " << seed;
    double running = 0.0;
    double last = 0.0;
    for (const obs::AuditCertificate& cert : file.certificates) {
      const DecisionCertificateEvent& e = cert.event;
      running += e.delta_step;
      EXPECT_EQ(e.delta_spent_total, running)
          << "seed " << seed << " cert " << cert.seq;
      EXPECT_GE(e.delta_spent_total, last);
      EXPECT_LE(e.delta_spent_total, e.delta_budget)
          << "seed " << seed << " cert " << cert.seq;
      last = e.delta_spent_total;
    }
    ASSERT_TRUE(file.summary.present);
    EXPECT_TRUE(file.summary.budget_ok) << "seed " << seed;
    EXPECT_EQ(file.summary.certificates,
              static_cast<int64_t>(file.certificates.size()));
  }
}

// audit_every subsamples only the high-volume reject certificates;
// commits are always certified.
TEST(AuditLedgerTest, AuditEverySubsamplesRejectsNotCommits) {
  auto run = [](int64_t every) {
    Rng rng(7);
    RandomTreeOptions tree_options;
    tree_options.depth = 3;
    tree_options.min_branch = 2;
    tree_options.max_branch = 3;
    RandomTree tree = MakeRandomTree(rng, tree_options);
    std::ostringstream out;
    AuditLog log(&out, AuditLogOptions{.delta_budget = 0.2});
    obs::MetricsRegistry registry;
    obs::Observer observer(&registry, &log);
    observer.UseManualClock();
    observer.set_audit_enabled(true);
    observer.set_audit_every(every);
    Pib pib(&tree.graph, Strategy::DepthFirst(tree.graph),
            PibOptions{.delta = 0.2}, &observer);
    QueryProcessor qp(&tree.graph, &observer);
    IndependentOracle oracle(tree.probs);
    for (int64_t i = 0; i < 500; ++i) {
      pib.Observe(qp.Execute(pib.strategy(), oracle.Next(rng)));
      observer.AdvanceManualClock(i + 1);
    }
    log.Close();
    Result<AuditFile> parsed = Parse(out.str());
    EXPECT_TRUE(parsed.ok());
    return parsed.value();
  };
  AuditFile full = run(1);
  AuditFile sampled = run(10);
  ASSERT_TRUE(full.summary.present);
  ASSERT_TRUE(sampled.summary.present);
  EXPECT_EQ(full.summary.commits, sampled.summary.commits);
  EXPECT_GT(full.summary.rejects, sampled.summary.rejects);
  EXPECT_GT(sampled.summary.rejects, 0);
  // Subsampling skips the skipped tests' delta in the ledger too, so
  // the sampled ledger must come in under the full one.
  EXPECT_LT(sampled.summary.delta_spent_total,
            full.summary.delta_spent_total);
  EXPECT_TRUE(sampled.summary.budget_ok);
}

// PAO quota certificates: one "met" certificate per experiment, margin
// >= 0, delta/(2n) ledger steps.
TEST(AuditLedgerTest, PaoQuotaCertificates) {
  Rng rng(7);
  RandomTreeOptions tree_options;
  tree_options.depth = 2;
  tree_options.min_branch = 2;
  tree_options.max_branch = 2;
  RandomTree tree = MakeRandomTree(rng, tree_options);
  std::ostringstream out;
  AuditLog log(&out, AuditLogOptions{.delta_budget = 0.2});
  obs::MetricsRegistry registry;
  obs::Observer observer(&registry, &log);
  observer.UseManualClock();
  observer.set_audit_enabled(true);

  IndependentOracle oracle(tree.probs);
  PaoOptions options;
  options.epsilon = 1.0;
  options.delta = 0.2;
  options.mode = PaoOptions::Mode::kTheorem3;
  Result<PaoResult> run = Pao::Run(tree.graph, oracle, rng, options,
                                   &observer);
  ASSERT_TRUE(run.ok()) << run.status().message();
  log.Close();

  Result<AuditFile> parsed = Parse(out.str());
  ASSERT_TRUE(parsed.ok());
  const AuditFile& file = parsed.value();
  size_t experiments = tree.graph.experiments().size();
  ASSERT_EQ(file.certificates.size(), experiments);
  double expected_step = 0.2 / (2.0 * static_cast<double>(experiments));
  for (const obs::AuditCertificate& cert : file.certificates) {
    const DecisionCertificateEvent& e = cert.event;
    EXPECT_EQ(e.learner, "pao");
    EXPECT_EQ(e.decision, "quota");
    EXPECT_EQ(e.verdict, "met");
    EXPECT_GE(e.margin, 0.0);  // samples >= quota at the transition
    EXPECT_EQ(e.delta_step, expected_step);
    EXPECT_EQ(e.threshold, static_cast<double>(e.bound_samples));
  }
  ASSERT_TRUE(file.summary.present);
  EXPECT_EQ(file.summary.quotas_met,
            static_cast<int64_t>(experiments));
  EXPECT_TRUE(file.summary.budget_ok);
}

// PIB_1's single certificate spends the whole budget at once.
TEST(AuditLedgerTest, Pib1SingleCertificate) {
  Rng rng(3);
  RandomTreeOptions tree_options;
  tree_options.depth = 2;
  tree_options.min_branch = 2;
  tree_options.max_branch = 2;
  RandomTree tree = MakeRandomTree(rng, tree_options);
  std::vector<SiblingSwap> swaps = AllSiblingSwaps(tree.graph);
  ASSERT_FALSE(swaps.empty());

  std::ostringstream out;
  AuditLog log(&out, AuditLogOptions{.delta_budget = 0.3});
  obs::MetricsRegistry registry;
  obs::Observer observer(&registry, &log);
  observer.UseManualClock();
  observer.set_audit_enabled(true);

  // Drive the one-shot filter toward a switch: feed it traces from an
  // oracle that favours the alternative until it fires (or give up).
  Strategy initial = Strategy::DepthFirst(tree.graph);
  QueryProcessor qp(&tree.graph, &observer);
  bool fired = false;
  for (const SiblingSwap& swap : swaps) {
    Pib1 pib1(&tree.graph, initial, swap, Pib1Options{.delta = 0.3},
              &observer);
    IndependentOracle oracle(tree.probs);
    for (int64_t i = 0; i < 400 && !pib1.ShouldSwitch(); ++i) {
      pib1.Observe(qp.Execute(initial, oracle.Next(rng)));
      observer.AdvanceManualClock(i + 1);
    }
    if (pib1.ShouldSwitch()) {
      fired = true;
      break;
    }
  }
  log.Close();
  Result<AuditFile> parsed = Parse(out.str());
  ASSERT_TRUE(parsed.ok());
  const AuditFile& file = parsed.value();
  if (fired) {
    ASSERT_EQ(file.certificates.size(), 1u);
    const DecisionCertificateEvent& e = file.certificates[0].event;
    EXPECT_EQ(e.learner, "pib1");
    EXPECT_EQ(e.verdict, "stop");
    EXPECT_EQ(e.delta_step, 0.3);
    EXPECT_EQ(e.delta_spent_total, 0.3);
    EXPECT_GE(e.margin, 0.0);
  } else {
    // No swap looked better under this tree: no decision, no spend.
    EXPECT_TRUE(file.certificates.empty());
  }
}

// The V-AUD verify passes: clean streams verify clean; ledger and
// verdict tampering are errors; a missing summary is only a warning.
TEST(VerifyAuditTest, CleanStreamHasNoFindings) {
  std::ostringstream out;
  AuditLog log(&out, AuditLogOptions{.delta_budget = 0.2});
  log.On(MakeCert(0.05, 0.05));
  log.Close();
  verify::DiagnosticSink sink;
  verify::VerifyAuditText(out.str(), &sink);
  EXPECT_EQ(sink.num_errors(), 0u) << out.str();
  EXPECT_EQ(sink.num_warnings(), 0u);
}

TEST(VerifyAuditTest, OverspentLedgerIsAnError) {
  std::ostringstream out;
  AuditLog log(&out, AuditLogOptions{.delta_budget = 0.2});
  DecisionCertificateEvent e = MakeCert(0.25, 0.25);  // > budget 0.2
  log.On(e);
  log.Close();
  verify::DiagnosticSink sink;
  verify::VerifyAuditText(out.str(), &sink);
  EXPECT_GT(sink.num_errors(), 0u);
  bool found = false;
  for (const verify::Diagnostic& d : sink.diagnostics()) {
    if (d.code == "V-AUD002") found = true;
  }
  EXPECT_TRUE(found);
}

// A rebaseline re-opens nothing: it keeps PIB's trial counter, so a
// ledger that runs past the budget after one is still a finding.
TEST(VerifyAuditTest, OverspendAfterRebaselineIsAnError) {
  std::ostringstream out;
  AuditLog log(&out, AuditLogOptions{.delta_budget = 0.2});
  DecisionCertificateEvent rebaseline;
  rebaseline.t_us = 1;
  rebaseline.learner = "recovery";
  rebaseline.decision = "drift:p_hat->rebaseline";
  rebaseline.verdict = "rebaseline";
  rebaseline.samples = 1;
  rebaseline.trials = 1;
  rebaseline.subject = -1;
  rebaseline.delta_sum = 1.0;
  rebaseline.threshold = 1.0;
  log.On(rebaseline);
  log.On(MakeCert(0.15, 0.15));
  log.On(MakeCert(0.1, 0.25));  // sums past the 0.2 budget
  log.Close();
  verify::DiagnosticSink sink;
  verify::VerifyAuditText(out.str(), &sink);
  bool found = false;
  for (const verify::Diagnostic& d : sink.diagnostics()) {
    EXPECT_EQ(d.code, "V-AUD002") << sink.RenderText();
    found = found ||
            d.message.find("overspent its delta budget") != std::string::npos;
  }
  EXPECT_TRUE(found) << sink.RenderText();
}

// A learner's ledger never goes down, even when the running sum of the
// steps agrees with it.
TEST(VerifyAuditTest, LedgerThatGoesDownIsAnError) {
  std::ostringstream out;
  AuditLog log(&out, AuditLogOptions{.delta_budget = 0.2});
  log.On(MakeCert(0.1, 0.1));
  log.On(MakeCert(-0.05, 0.05));
  log.Close();
  verify::DiagnosticSink sink;
  verify::VerifyAuditText(out.str(), &sink);
  bool found = false;
  for (const verify::Diagnostic& d : sink.diagnostics()) {
    found = found || (d.code == "V-AUD002" &&
                      d.message.find("went down") != std::string::npos);
  }
  EXPECT_TRUE(found) << sink.RenderText();
}

TEST(VerifyAuditTest, NonConservativeVerdictIsAnError) {
  std::ostringstream out;
  AuditLog log(&out, AuditLogOptions{.delta_budget = 0.2});
  DecisionCertificateEvent e = MakeCert(0.05, 0.05);
  e.verdict = "commit";  // margin is -8: claims a crossing it never made
  log.On(e);
  log.Close();
  verify::DiagnosticSink sink;
  verify::VerifyAuditText(out.str(), &sink);
  bool found = false;
  for (const verify::Diagnostic& d : sink.diagnostics()) {
    if (d.code == "V-AUD003") found = true;
  }
  EXPECT_TRUE(found);
}

TEST(VerifyAuditTest, MissingSummaryIsAWarning) {
  std::ostringstream out;
  AuditLog log(&out, AuditLogOptions{.delta_budget = 0.2});
  log.On(MakeCert(0.05, 0.05));
  log.Flush();  // no Close: simulates a crash mid-run
  verify::DiagnosticSink sink;
  verify::VerifyAuditText(out.str(), &sink);
  EXPECT_EQ(sink.num_errors(), 0u);
  EXPECT_EQ(sink.num_warnings(), 1u);
}

TEST(VerifyAuditTest, GarbageIsAnError) {
  verify::DiagnosticSink sink;
  verify::VerifyAuditText("stratlearn-audit v1\nnot json at all\n", &sink);
  EXPECT_GT(sink.num_errors(), 0u);
  bool found = false;
  for (const verify::Diagnostic& d : sink.diagnostics()) {
    if (d.code == "V-AUD001") found = true;
  }
  EXPECT_TRUE(found);
}

}  // namespace
}  // namespace stratlearn
