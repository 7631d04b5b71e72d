#include "workload/synthetic_oracle.h"

#include "util/check.h"

namespace stratlearn {

IndependentOracle::IndependentOracle(std::vector<double> success_probs)
    : probs_(std::move(success_probs)) {
  for (double p : probs_) STRATLEARN_CHECK(p >= 0.0 && p <= 1.0);
}

Context IndependentOracle::Next(Rng& rng) {
  Context c(probs_.size());
  for (size_t i = 0; i < probs_.size(); ++i) {
    c.Set(i, rng.NextBernoulli(probs_[i]));
  }
  return c;
}

namespace {

std::vector<double> ProfileWeights(
    const std::vector<MixtureOracle::Profile>& profiles) {
  STRATLEARN_CHECK(!profiles.empty());
  std::vector<double> weights;
  weights.reserve(profiles.size());
  for (const MixtureOracle::Profile& p : profiles) {
    STRATLEARN_CHECK(p.success_probs.size() ==
                     profiles[0].success_probs.size());
    weights.push_back(p.weight);
  }
  return weights;
}

}  // namespace

MixtureOracle::MixtureOracle(std::vector<Profile> profiles)
    : profiles_(std::move(profiles)), sampler_(ProfileWeights(profiles_)) {}

Context MixtureOracle::Next(Rng& rng) {
  const Profile& profile = profiles_[sampler_.Next(rng)];
  Context c(profile.success_probs.size());
  for (size_t i = 0; i < profile.success_probs.size(); ++i) {
    c.Set(i, rng.NextBernoulli(profile.success_probs[i]));
  }
  return c;
}

size_t MixtureOracle::num_experiments() const {
  return profiles_[0].success_probs.size();
}

std::vector<double> MixtureOracle::MarginalProbs() const {
  std::vector<double> out(num_experiments(), 0.0);
  for (const Profile& p : profiles_) {
    for (size_t i = 0; i < out.size(); ++i) {
      out[i] += p.weight / sampler_.total() * p.success_probs[i];
    }
  }
  return out;
}

DriftingOracle::DriftingOracle(std::vector<double> before,
                               std::vector<double> after, int64_t drift_at,
                               int64_t ramp_len)
    : before_(std::move(before)),
      after_(std::move(after)),
      drift_at_(drift_at),
      ramp_len_(ramp_len) {
  STRATLEARN_CHECK(before_.size() == after_.size());
  STRATLEARN_CHECK(drift_at_ >= 0);
  STRATLEARN_CHECK(ramp_len_ >= 0);
  for (double p : before_) STRATLEARN_CHECK(p >= 0.0 && p <= 1.0);
  for (double p : after_) STRATLEARN_CHECK(p >= 0.0 && p <= 1.0);
}

void DriftingOracle::set_revert_at(int64_t revert_at) {
  STRATLEARN_CHECK(revert_at == 0 || revert_at >= drift_at_ + ramp_len_);
  revert_at_ = revert_at;
}

std::vector<double> DriftingOracle::ProbsAt(int64_t draw) const {
  if (revert_at_ > 0 && draw >= revert_at_) return before_;
  if (draw < drift_at_) return before_;
  if (ramp_len_ == 0 || draw >= drift_at_ + ramp_len_) return after_;
  // Linear ramp: the first post-drift draw already moves 1/ramp_len of
  // the way, the last one lands exactly on `after`.
  double t = static_cast<double>(draw - drift_at_ + 1) /
             static_cast<double>(ramp_len_);
  std::vector<double> out(before_.size());
  for (size_t i = 0; i < out.size(); ++i) {
    out[i] = before_[i] + t * (after_[i] - before_[i]);
  }
  return out;
}

Context DriftingOracle::Next(Rng& rng) {
  std::vector<double> probs = ProbsAt(draws_);
  ++draws_;
  Context c(probs.size());
  for (size_t i = 0; i < probs.size(); ++i) {
    c.Set(i, rng.NextBernoulli(probs[i]));
  }
  return c;
}

}  // namespace stratlearn
