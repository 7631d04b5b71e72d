#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <variant>
#include <vector>

#include "core/pib.h"
#include "engine/query_processor.h"
#include "obs/events.h"
#include "obs/metrics.h"
#include "obs/observer.h"
#include "obs/trace_sink.h"
#include "robust/checkpoint.h"
#include "robust/fault_injector.h"
#include "robust/fault_plan.h"
#include "robust/recovery/controller.h"
#include "robust/recovery/policy.h"
#include "util/rng.h"
#include "workload/random_tree.h"
#include "workload/synthetic_oracle.h"

namespace stratlearn {
namespace {

using robust::CheckpointData;
using robust::CheckpointRing;
using robust::MatchesTrigger;
using robust::RecoveryController;
using robust::RecoveryPolicy;
using robust::RecoveryRule;

obs::DriftEvent Detected(const char* detector, int64_t arc, int64_t window) {
  obs::DriftEvent e;
  e.detector = detector;
  e.state = "detected";
  e.arc = arc;
  e.statistic = 0.2;
  e.reference = 0.8;
  e.threshold = 0.3;
  e.window = window;
  return e;
}

obs::TimeSeriesWindow WindowAt(int64_t index) {
  obs::TimeSeriesWindow w;
  w.index = index;
  return w;
}

RecoveryRule Rule(const char* trigger, const char* action,
                  int64_t cooldown = 0) {
  RecoveryRule rule;
  rule.id = std::string(trigger) + "->" + action;
  rule.trigger = trigger;
  rule.action = action;
  rule.cooldown = cooldown;
  return rule;
}

/// Captures recovery and certificate events for assertion.
class RecordingSink final : public obs::TraceSink {
 public:
  void On(const obs::Event& event) override {
    if (const auto* e = std::get_if<obs::RecoveryEvent>(&event)) {
      recovery.push_back(*e);
    } else if (const auto* e =
                   std::get_if<obs::DecisionCertificateEvent>(&event)) {
      certs.push_back(*e);
    }
  }
  std::vector<obs::RecoveryEvent> recovery;
  std::vector<obs::DecisionCertificateEvent> certs;
};

/// A small learned Pib over a flat 3-leaf tree, with some contexts
/// observed so trials/sums are nonzero.
struct PibFixture {
  PibFixture()
      : rng(7),
        tree(MakeFlatTree(rng, 3)),
        pib(&tree.graph, Strategy::DepthFirst(tree.graph),
            PibOptions{.delta = 0.2}, nullptr) {
    IndependentOracle oracle({0.3, 0.7, 0.5});
    QueryProcessor qp(&tree.graph, nullptr);
    for (int i = 0; i < 50; ++i) {
      pib.Observe(qp.Execute(pib.strategy(), oracle.Next(rng)));
    }
  }

  Rng rng;
  RandomTree tree;
  Pib pib;
};

// ---- Trigger matching ----------------------------------------------------

TEST(MatchesTriggerTest, DriftTriggersMatchDetectorAndStateOnly) {
  RecoveryRule rule = Rule("drift:p_hat", "rebaseline");
  EXPECT_TRUE(MatchesTrigger(rule, Detected("p_hat", 2, 0)));
  EXPECT_FALSE(MatchesTrigger(rule, Detected("mean_cost", 2, 0)));

  obs::DriftEvent cleared = Detected("p_hat", 2, 0);
  cleared.state = "cleared";
  EXPECT_FALSE(MatchesTrigger(rule, cleared));

  RecoveryRule any = Rule("drift:any", "rebaseline");
  EXPECT_TRUE(MatchesTrigger(any, Detected("mean_cost", 2, 0)));
  EXPECT_TRUE(MatchesTrigger(any, Detected("rate", -1, 0)));
}

TEST(MatchesTriggerTest, ArcScopedActionsNeedATargetArc) {
  RecoveryRule scoped = Rule("drift:any", "restart_scoped");
  EXPECT_TRUE(MatchesTrigger(scoped, Detected("p_hat", 0, 0)));
  // Counter-rate detections carry no arc to scope the restart to.
  EXPECT_FALSE(MatchesTrigger(scoped, Detected("rate", -1, 0)));

  // Alert transitions never justify an arc-scoped action.
  obs::AlertEvent alert;
  alert.rule = "latency";
  alert.state = "firing";
  EXPECT_FALSE(MatchesTrigger(scoped, alert));
  EXPECT_TRUE(MatchesTrigger(Rule("alert:latency", "rebaseline"), alert));
  EXPECT_TRUE(MatchesTrigger(Rule("alert:any", "rollback"), alert));
  alert.state = "resolved";
  EXPECT_FALSE(MatchesTrigger(Rule("alert:latency", "rebaseline"), alert));
}

// ---- Checkpoint ring -----------------------------------------------------

CheckpointData HealthyCheckpoint(PibFixture& fx, int64_t queries) {
  CheckpointData data;
  data.learner = "pib";
  data.seed = 7;
  data.queries_done = queries;
  data.rng_state = fx.rng.SaveState();
  data.pib = fx.pib.GetCheckpoint();
  data.health.present = true;
  data.health.healthy = true;
  data.health.windows_seen = queries / 10;
  return data;
}

TEST(CheckpointRingTest, RotationPrunesOldestSlot) {
  PibFixture fx;
  std::string base = ::testing::TempDir() + "/ring_rotate.ckpt";
  CheckpointRing ring(base, 2);
  ASSERT_TRUE(ring.Write(HealthyCheckpoint(fx, 100)).ok());
  ASSERT_TRUE(ring.Write(HealthyCheckpoint(fx, 200)).ok());
  ASSERT_TRUE(ring.Write(HealthyCheckpoint(fx, 300)).ok());
  EXPECT_EQ(ring.writes(), 3);
  EXPECT_EQ(ring.cursor(), 1);  // slot 0 was just overwritten by 300

  // The ring holds {300, 200}; 100 was pruned by rotation.
  Result<CheckpointData> newest = ring.LoadNewestGood(fx.tree.graph);
  ASSERT_TRUE(newest.ok()) << newest.status().ToString();
  EXPECT_EQ(newest->queries_done, 300);
  Result<CheckpointData> slot1 =
      robust::LoadCheckpoint(ring.SlotPath(1), fx.tree.graph);
  ASSERT_TRUE(slot1.ok());
  EXPECT_EQ(slot1->queries_done, 200);
  for (int64_t s = 0; s < ring.slots(); ++s) {
    std::remove(ring.SlotPath(s).c_str());
  }
}

TEST(CheckpointRingTest, SkipsUnhealthyUnstampedAndCorruptSlots) {
  PibFixture fx;
  std::string base = ::testing::TempDir() + "/ring_skip.ckpt";
  CheckpointRing ring(base, 3);
  ASSERT_TRUE(ring.Write(HealthyCheckpoint(fx, 100)).ok());
  CheckpointData unhealthy = HealthyCheckpoint(fx, 200);
  unhealthy.health.healthy = false;
  ASSERT_TRUE(ring.Write(unhealthy).ok());
  CheckpointData unstamped = HealthyCheckpoint(fx, 300);
  unstamped.health.present = false;
  ASSERT_TRUE(ring.Write(unstamped).ok());

  // 300 has no verdict and 200 was flagged; only 100 is known-good.
  Result<CheckpointData> newest = ring.LoadNewestGood(fx.tree.graph);
  ASSERT_TRUE(newest.ok()) << newest.status().ToString();
  EXPECT_EQ(newest->queries_done, 100);

  // Damage the healthy slot too: the ring degrades to NotFound instead
  // of restoring corrupt state.
  FILE* f = std::fopen(ring.SlotPath(0).c_str(), "a");
  ASSERT_NE(f, nullptr);
  std::fputs("tamper", f);
  std::fclose(f);
  EXPECT_FALSE(ring.LoadNewestGood(fx.tree.graph).ok());
  for (int64_t s = 0; s < ring.slots(); ++s) {
    std::remove(ring.SlotPath(s).c_str());
  }
}

TEST(CheckpointRingTest, RestoreCursorIgnoresOutOfRangeValues) {
  CheckpointRing ring(::testing::TempDir() + "/ring_cursor.ckpt", 3);
  ring.RestoreCursor(2, 8);
  EXPECT_EQ(ring.cursor(), 2);
  EXPECT_EQ(ring.writes(), 8);
  ring.RestoreCursor(5, 9);  // out of range: keep the current rotation
  EXPECT_EQ(ring.cursor(), 2);
  EXPECT_EQ(ring.writes(), 8);
  ring.RestoreCursor(-1, 9);
  EXPECT_EQ(ring.cursor(), 2);
}

// ---- Recovery controller -------------------------------------------------

TEST(RecoveryControllerTest, DecideOnlyRecordsWithoutExecuting) {
  PibFixture fx;
  int64_t trials_before = fx.pib.trial_count();
  RecoveryPolicy policy;
  policy.rules.push_back(Rule("drift:p_hat", "rebaseline"));
  RecoveryController controller(std::move(policy));
  controller.BindPib(&fx.pib);  // bound but not live

  std::vector<obs::health::RecoveryLogEntry> fired = controller.OnWindow(
      WindowAt(3), {Detected("p_hat", 1, 3)}, {});
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0].rule, "drift:p_hat->rebaseline");
  EXPECT_EQ(fired[0].action, "rebaseline");
  EXPECT_EQ(fired[0].window, 3);
  EXPECT_EQ(fired[0].arc, -1);  // rebaseline is global
  EXPECT_EQ(fired[0].matched, 1);
  EXPECT_EQ(controller.decisions(), 1);
  EXPECT_EQ(controller.actions_applied(), 0);
  EXPECT_EQ(fx.pib.trial_count(), trials_before);  // untouched
}

TEST(RecoveryControllerTest, CooldownSuppressesRefiringPerTarget) {
  RecoveryPolicy policy;
  policy.rules.push_back(Rule("drift:any", "rebaseline", /*cooldown=*/2));
  RecoveryController controller(std::move(policy));

  EXPECT_EQ(
      controller.OnWindow(WindowAt(0), {Detected("p_hat", 1, 0)}, {}).size(),
      1u);
  EXPECT_TRUE(
      controller.OnWindow(WindowAt(1), {Detected("p_hat", 1, 1)}, {})
          .empty());
  EXPECT_TRUE(
      controller.OnWindow(WindowAt(2), {Detected("p_hat", 1, 2)}, {})
          .empty());
  EXPECT_EQ(
      controller.OnWindow(WindowAt(3), {Detected("p_hat", 1, 3)}, {}).size(),
      1u);
  EXPECT_EQ(controller.decisions(), 2);
}

TEST(RecoveryControllerTest, ArcScopedRuleFiresOncePerDriftedArc) {
  RecoveryPolicy policy;
  policy.rules.push_back(Rule("drift:p_hat", "restart_scoped"));
  RecoveryController controller(std::move(policy));

  // Two arcs drift in one window (arc 2 twice); entries are per arc,
  // ascending, with the matched count folded in.
  std::vector<obs::health::RecoveryLogEntry> fired = controller.OnWindow(
      WindowAt(0),
      {Detected("p_hat", 2, 0), Detected("p_hat", 0, 0),
       Detected("p_hat", 2, 0)},
      {});
  ASSERT_EQ(fired.size(), 2u);
  EXPECT_EQ(fired[0].arc, 0);
  EXPECT_EQ(fired[0].matched, 1);
  EXPECT_EQ(fired[1].arc, 2);
  EXPECT_EQ(fired[1].matched, 2);
}

TEST(RecoveryControllerTest, RebaselineRewindsTheBoundLearner) {
  PibFixture fx;
  int64_t trials_before = fx.pib.trial_count();
  ASSERT_GT(trials_before, 1);

  RecoveryPolicy policy;
  RecoveryRule rule = Rule("drift:p_hat", "rebaseline");
  rule.trials_factor = 0.5;
  policy.rules.push_back(rule);
  RecoveryController controller(std::move(policy));
  controller.BindPib(&fx.pib);
  controller.set_live(true);

  controller.OnWindow(WindowAt(0), {Detected("p_hat", 1, 0)}, {});
  EXPECT_EQ(controller.actions_applied(), 1);
  EXPECT_EQ(fx.pib.trial_count(), trials_before / 2);
  for (const PibSnapshot::Neighbor& n : fx.pib.Snapshot().neighbors) {
    EXPECT_DOUBLE_EQ(n.delta_sum, 0.0);  // stale evidence dropped
  }
}

TEST(RecoveryControllerTest, UnboundTargetDegradesToSkipped) {
  RecoveryPolicy policy;
  policy.rules.push_back(Rule("drift:p_hat", "rebaseline"));
  RecoveryController controller(std::move(policy));
  controller.set_live(true);  // live, but no Pib bound

  obs::MetricsRegistry registry;
  RecordingSink sink;
  obs::Observer observer(&registry, &sink);
  controller.BindObserver(&observer);

  controller.OnWindow(WindowAt(0), {Detected("p_hat", 1, 0)}, {});
  EXPECT_EQ(controller.decisions(), 1);
  EXPECT_EQ(controller.actions_applied(), 0);
  ASSERT_EQ(sink.recovery.size(), 1u);
  EXPECT_EQ(sink.recovery[0].outcome, "skipped_unsupported");
}

TEST(RecoveryControllerTest, RollbackRestoresNewestGoodKeepingLedger) {
  PibFixture fx;
  std::string base = ::testing::TempDir() + "/ring_rollback.ckpt";
  CheckpointRing ring(base, 2);

  // Stamp a known-good slot, then keep learning and spend some of the
  // audit ledger so the rollback has something it must NOT rewind.
  ASSERT_TRUE(ring.Write(HealthyCheckpoint(fx, 50)).ok());
  Pib::Checkpoint good = fx.pib.GetCheckpoint();
  IndependentOracle oracle({0.3, 0.7, 0.5});
  QueryProcessor qp(&fx.tree.graph, nullptr);
  for (int i = 0; i < 30; ++i) {
    fx.pib.Observe(qp.Execute(fx.pib.strategy(), oracle.Next(fx.rng)));
  }
  Pib::Checkpoint drifted = fx.pib.GetCheckpoint();
  drifted.audit_delta_spent = 0.125;
  drifted.audit_rounds = 9;
  ASSERT_TRUE(fx.pib.RestoreCheckpoint(drifted).ok());

  RecoveryPolicy policy;
  policy.ring = 2;
  policy.rules.push_back(Rule("drift:p_hat", "rollback"));
  RecoveryController controller(std::move(policy));
  controller.BindPib(&fx.pib);
  controller.BindRing(&ring);
  controller.BindGraph(&fx.tree.graph);
  controller.set_live(true);

  controller.OnWindow(WindowAt(0), {Detected("p_hat", 1, 0)}, {});
  EXPECT_EQ(controller.actions_applied(), 1);
  // Learner state rewound to the ring slot...
  EXPECT_EQ(fx.pib.contexts_processed(), good.contexts);
  EXPECT_EQ(fx.pib.trial_count(), good.trials);
  // ...but confidence already consumed stays consumed (monotone ledger).
  EXPECT_DOUBLE_EQ(fx.pib.GetCheckpoint().audit_delta_spent, 0.125);
  EXPECT_EQ(fx.pib.GetCheckpoint().audit_rounds, 9);
  for (int64_t s = 0; s < ring.slots(); ++s) {
    std::remove(ring.SlotPath(s).c_str());
  }
}

TEST(RecoveryControllerTest, RollbackWithEmptyRingSkips) {
  PibFixture fx;
  CheckpointRing ring(::testing::TempDir() + "/ring_empty.ckpt", 2);
  RecoveryPolicy policy;
  policy.ring = 2;
  policy.rules.push_back(Rule("drift:p_hat", "rollback"));
  RecoveryController controller(std::move(policy));
  controller.BindPib(&fx.pib);
  controller.BindRing(&ring);
  controller.BindGraph(&fx.tree.graph);
  controller.set_live(true);

  obs::MetricsRegistry registry;
  RecordingSink sink;
  obs::Observer observer(&registry, &sink);
  controller.BindObserver(&observer);

  int64_t contexts_before = fx.pib.contexts_processed();
  controller.OnWindow(WindowAt(0), {Detected("p_hat", 1, 0)}, {});
  EXPECT_EQ(controller.actions_applied(), 0);
  EXPECT_EQ(fx.pib.contexts_processed(), contexts_before);
  ASSERT_EQ(sink.recovery.size(), 1u);
  EXPECT_EQ(sink.recovery[0].outcome, "skipped_no_checkpoint");
}

TEST(RecoveryControllerTest, QuarantineForcesBreakerOpenWithProbe) {
  robust::FaultPlan plan;  // no breaker threshold configured at all
  robust::FaultInjector injector(plan);
  for (int i = 0; i < 10; ++i) injector.BeginQuery();

  RecoveryPolicy policy;
  RecoveryRule rule = Rule("drift:p_hat", "quarantine");
  rule.probe_cooldown = 4;
  policy.rules.push_back(rule);
  RecoveryController controller(std::move(policy));
  controller.BindInjector(&injector);
  controller.set_live(true);

  controller.OnWindow(WindowAt(0), {Detected("p_hat", 2, 0)}, {});
  EXPECT_EQ(controller.actions_applied(), 1);
  EXPECT_TRUE(injector.BreakerLedger(2).forced);
  // Forced open for 4 resilient queries from query 10, then the normal
  // half-open probe schedule applies.
  EXPECT_TRUE(injector.BreakerOpen(2, 11));
  EXPECT_TRUE(injector.BreakerOpen(2, 14));
  EXPECT_EQ(injector.CheckBreaker(2, 15),
            robust::BreakerDecision::kHalfOpenProbe);
  EXPECT_TRUE(injector.RecordRecovery(2));  // probe succeeded: closed
  EXPECT_FALSE(injector.BreakerOpen(2, 16));
}

TEST(RecoveryControllerTest, LiveActionEmitsEventAndCountCertificate) {
  PibFixture fx;
  RecoveryPolicy policy;
  policy.rules.push_back(Rule("drift:p_hat", "rebaseline"));
  RecoveryController controller(std::move(policy));
  controller.BindPib(&fx.pib);
  controller.set_live(true);

  obs::MetricsRegistry registry;
  RecordingSink sink;
  obs::Observer observer(&registry, &sink);
  observer.set_audit_enabled(true);
  controller.BindObserver(&observer);

  controller.OnWindow(WindowAt(5),
                      {Detected("p_hat", 1, 5), Detected("p_hat", 1, 5)},
                      {});
  ASSERT_EQ(sink.recovery.size(), 1u);
  const obs::RecoveryEvent& event = sink.recovery[0];
  EXPECT_EQ(event.rule, "drift:p_hat->rebaseline");
  EXPECT_EQ(event.action, "rebaseline");
  EXPECT_EQ(event.outcome, "applied");
  EXPECT_EQ(event.window, 5);
  EXPECT_EQ(event.matched, 2);

  // The certificate's test is count-based: delta_sum = matched
  // transitions against threshold 1, margin = matched - 1, no delta
  // charged — audit_verify recounts transitions to re-derive it.
  ASSERT_EQ(sink.certs.size(), 1u);
  const obs::DecisionCertificateEvent& cert = sink.certs[0];
  EXPECT_EQ(cert.learner, "recovery");
  EXPECT_EQ(cert.decision, "drift:p_hat->rebaseline");
  EXPECT_EQ(cert.verdict, "rebaseline");
  EXPECT_EQ(cert.trials, 1);
  EXPECT_DOUBLE_EQ(cert.delta_sum, 2.0);
  EXPECT_DOUBLE_EQ(cert.threshold, 1.0);
  EXPECT_DOUBLE_EQ(cert.margin, 1.0);
}

}  // namespace
}  // namespace stratlearn
