#ifndef STRATLEARN_WORKLOAD_SYNTHETIC_ORACLE_H_
#define STRATLEARN_WORKLOAD_SYNTHETIC_ORACLE_H_

#include <vector>

#include "workload/oracle.h"

namespace stratlearn {

/// Samples each experiment's outcome independently: experiment i is
/// unblocked with probability p[i]. This realises the independence
/// assumption under which Upsilon_AOT (and hence PAO) is exact.
class IndependentOracle : public ContextOracle {
 public:
  explicit IndependentOracle(std::vector<double> success_probs);

  Context Next(Rng& rng) override;
  size_t num_experiments() const override { return probs_.size(); }

  const std::vector<double>& success_probs() const { return probs_; }

 private:
  std::vector<double> probs_;
};

/// A finite mixture of independent profiles: each draw first picks a
/// profile by weight, then samples outcomes from that profile's
/// probability vector. With distinct profiles the per-experiment
/// marginals become *dependent*, exercising the caveat of footnote 8 —
/// PIB stays correct on such workloads, PAO's optimality guarantee does
/// not apply.
class MixtureOracle : public ContextOracle {
 public:
  struct Profile {
    double weight = 1.0;
    std::vector<double> success_probs;
  };

  explicit MixtureOracle(std::vector<Profile> profiles);

  Context Next(Rng& rng) override;
  size_t num_experiments() const override;

  /// Marginal success probability of each experiment under the mixture.
  std::vector<double> MarginalProbs() const;

 private:
  std::vector<Profile> profiles_;
  DiscreteSampler sampler_;
};

/// A *non-stationary* independent oracle: per-experiment success
/// probabilities start at `before` and shift to `after` at draw
/// `drift_at` — as a step when `ramp_len` is 0, or linearly
/// interpolated over the next `ramp_len` draws. This deliberately
/// violates the stationarity assumption of Section 2.1 that PIB's and
/// PAO's guarantees rest on; it exists to exercise the statistical
/// drift detectors in obs/health, which watch the telemetry stream for
/// exactly this kind of workload shift.
///
/// `set_revert_at(draw)` arms a second, reverse shift: from that draw
/// on the pre-drift `before` vector applies again (stepwise — the ramp
/// only shapes the forward shift). A drift-then-revert workload is the
/// shape transient regressions take in production: after the revert,
/// pre-drift state is correct again, so a reaction that keeps it
/// re-converges faster than a cold restart. Without a revert the shift
/// is permanent; the drift_recover bench judges the recovery
/// controller's rebaseline on both shapes, against no reaction and
/// against a cold restart.
class DriftingOracle : public ContextOracle {
 public:
  DriftingOracle(std::vector<double> before, std::vector<double> after,
                 int64_t drift_at, int64_t ramp_len = 0);

  /// Arms the revert: draws >= `revert_at` use `before` again. Must be
  /// past the forward shift (and its ramp); 0 disarms.
  void set_revert_at(int64_t revert_at);
  int64_t revert_at() const { return revert_at_; }

  Context Next(Rng& rng) override;
  size_t num_experiments() const override { return before_.size(); }

  /// The probability vector in effect for draw number `draw` (0-based).
  std::vector<double> ProbsAt(int64_t draw) const;

  /// Number of contexts drawn so far.
  int64_t draws() const { return draws_; }

 private:
  std::vector<double> before_;
  std::vector<double> after_;
  int64_t drift_at_;
  int64_t ramp_len_;
  int64_t revert_at_ = 0;  // 0 = never revert
  int64_t draws_ = 0;
};

}  // namespace stratlearn

#endif  // STRATLEARN_WORKLOAD_SYNTHETIC_ORACLE_H_
