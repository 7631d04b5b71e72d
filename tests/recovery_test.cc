#include <gtest/gtest.h>

#include <string>
#include <variant>
#include <vector>

#include "core/pib.h"
#include "engine/query_processor.h"
#include "obs/events.h"
#include "obs/metrics.h"
#include "obs/observer.h"
#include "obs/trace_sink.h"
#include "robust/recovery/controller.h"
#include "robust/recovery/policy.h"
#include "util/rng.h"
#include "workload/random_tree.h"
#include "workload/synthetic_oracle.h"

namespace stratlearn {
namespace {

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
  EXPECT_FALSE(MatchesTrigger(Rule("drift:sparkle", "rebaseline"),
                              Detected("p_hat", 2, 0)));

  obs::DriftEvent cleared = Detected("p_hat", 2, 0);
  cleared.state = "cleared";
  EXPECT_FALSE(MatchesTrigger(rule, cleared));

  RecoveryRule any = Rule("drift:any", "rebaseline");
  EXPECT_TRUE(MatchesTrigger(any, Detected("p_hat", 2, 0)));
  EXPECT_FALSE(MatchesTrigger(any, cleared));
}

TEST(MatchesTriggerTest, AlertTriggersMatchRuleAndStateOnly) {
  obs::AlertEvent alert;
  alert.rule = "latency";
  alert.state = "firing";
  EXPECT_TRUE(MatchesTrigger(Rule("alert:latency", "rebaseline"), alert));
  EXPECT_TRUE(MatchesTrigger(Rule("alert:any", "rebaseline"), alert));
  EXPECT_FALSE(MatchesTrigger(Rule("alert:errors", "rebaseline"), alert));
  alert.state = "resolved";
  EXPECT_FALSE(MatchesTrigger(Rule("alert:latency", "rebaseline"), alert));
}

// ---- Recovery controller -------------------------------------------------

TEST(RecoveryControllerTest, DecideOnlyRecordsWithoutExecuting) {
  PibFixture fx;
  int64_t samples_before = fx.pib.samples_in_epoch();
  ASSERT_GT(samples_before, 0);
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
  EXPECT_EQ(fired[0].arc, -1);  // no action targets one arc
  EXPECT_EQ(fired[0].matched, 1);
  EXPECT_EQ(controller.decisions(), 1);
  EXPECT_EQ(controller.actions_applied(), 0);
  EXPECT_EQ(fx.pib.samples_in_epoch(), samples_before);  // not rebaselined
}

TEST(RecoveryControllerTest, CooldownSuppressesRefiring) {
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

TEST(RecoveryControllerTest, RebaselineZeroesSumsAndKeepsTrialCount) {
  PibFixture fx;
  int64_t trials_before = fx.pib.trial_count();
  ASSERT_GT(trials_before, 1);

  RecoveryPolicy policy;
  policy.rules.push_back(Rule("drift:p_hat", "rebaseline"));
  RecoveryController controller(std::move(policy));
  controller.BindPib(&fx.pib);
  controller.set_live(true);

  controller.OnWindow(WindowAt(0), {Detected("p_hat", 1, 0)}, {});
  EXPECT_EQ(controller.actions_applied(), 1);
  // A fresh epoch, as after a climb: the next test draws the next
  // delta_i rung, so no rung of the 6/pi^2 schedule is spent twice.
  EXPECT_EQ(fx.pib.trial_count(), trials_before);
  EXPECT_EQ(fx.pib.samples_in_epoch(), 0);
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
