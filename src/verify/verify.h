#ifndef STRATLEARN_VERIFY_VERIFY_H_
#define STRATLEARN_VERIFY_VERIFY_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "andor/and_or_graph.h"
#include "core/expected_cost_interval.h"
#include "datalog/adornment.h"
#include "datalog/database.h"
#include "datalog/parser.h"
#include "datalog/rule_base.h"
#include "datalog/symbol_table.h"
#include "engine/strategy.h"
#include "graph/builder.h"
#include "graph/inference_graph.h"
#include "obs/audit/audit_reader.h"
#include "obs/health/alerts.h"
#include "robust/recovery/policy.h"
#include "verify/diagnostics.h"

namespace stratlearn::verify {

/// Greiner's guarantees only hold under structural preconditions — a
/// tree-shaped inference graph for Upsilon_AOT, strategies that are true
/// permutations of the arcs, epsilon/delta in range, a delta_i schedule
/// that sums to <= delta. The passes in this header check those
/// preconditions statically, before a learner ever runs, and report
/// findings through a DiagnosticSink (see README.md for the code table).

struct VerifyOptions {
  /// V-G006: arcs deeper than this suggest a runaway unfolding (matches
  /// BuildOptions.max_depth's default).
  int max_depth = 32;
  /// Promote warnings to errors for exit-code purposes (--Werror).
  bool werror = false;
  /// Iteration cap for the verify subsystem's dataflow fixpoints
  /// (V-D005 when hit). Overridable per file with the
  /// `% verify-dataflow-cap: N` directive.
  int64_t dataflow_max_iterations = 100000;
};

// ---- Rule-base passes (V-R...) -----------------------------------------

/// Range restriction/safety, non-ground facts, undefined and unused
/// predicates, direct/mutual recursion, NAF safety and stratification.
/// `form` (optional) exempts the query predicate from the unused check.
void VerifyProgram(const Program& program, const SymbolTable& symbols,
                   const QueryForm* form, DiagnosticSink* sink);

// ---- Rule-base dataflow passes (V-D...) --------------------------------

/// Binding-pattern (adornment) dataflow: starting from the query form's
/// pattern, a worklist fixpoint propagates adornments from rule heads
/// into rule bodies in sideways-information-passing order, yielding the
/// set of patterns every predicate can be called with (the static half
/// of QSQ's subquery tables). `max_iterations` caps the fixpoint; the
/// result's `converged` flag is false when it was hit.
AdornmentAnalysis AnalyzeAdornments(const Program& program,
                                    const SymbolTable& symbols,
                                    const QueryForm& form,
                                    int64_t max_iterations = 100000);

/// Runs AnalyzeAdornments and reports on it: unreachable predicates
/// (V-D001), extensional relations only ever scanned in full (V-D002),
/// literals that never bind a variable (V-D003), rule bodies with no
/// feasible SIP order (V-D004), fixpoint non-convergence (V-D005) and
/// all-free query forms (V-D006). Attaches the per-predicate adornment
/// table to the sink as an "adornments" analysis section.
AdornmentAnalysis VerifyAdornments(const Program& program,
                                   const SymbolTable& symbols,
                                   const QueryForm& form,
                                   DiagnosticSink* sink,
                                   const VerifyOptions& options = {});

// ---- Inference-graph passes (V-G...) -----------------------------------

/// Semantic checks over a built (tree-shaped by construction) graph:
/// structural validation, dead-end subtrees, depth bound, retrieval
/// arcs with no backing relation in `db`.
void VerifyBuiltGraph(const BuiltGraph& built, const Database& db,
                      const SymbolTable& symbols, DiagnosticSink* sink,
                      const VerifyOptions& options = {});

/// The one reader of "stratlearn-graph v1" text. Records must be
/// well formed with 0/1 flags (V-G008); the arcs must form a tree rooted
/// at node 0 (V-G001) over declared nodes (V-G002) with positive, finite
/// costs (V-G003) and success nodes as leaves (V-G004). A file that
/// passes those must also list arc i as leading from an earlier node to
/// node i + 1, mark every retrieval (D) arc an experiment and keep the
/// root a non-success node (V-G008). Dead ends (V-G005) and deep arcs
/// (V-G006) are warnings. Reports every finding; returns the graph when
/// none is an error.
std::optional<InferenceGraph> VerifyGraphText(
    std::string_view text, DiagnosticSink* sink,
    const VerifyOptions& options = {});

/// The loader for the same text: VerifyGraphText's graph, or its first
/// error as InvalidArgument ("line 4: ... [V-G002]").
Result<InferenceGraph> DeserializeGraph(std::string_view text);

/// The one reader of "stratlearn-andor v1" text: malformed records
/// (V-A006), forward or dangling parents (V-A001), leaves used as
/// parents (V-A003), leaf costs that are not positive and finite
/// (V-A004), stray extra roots (V-A005), and childless internal nodes
/// (V-A002, a warning). Reports every finding; returns the tree when
/// there is none at all, since AndOrGraph refuses a childless internal
/// node.
std::optional<AndOrGraph> VerifyAndOrText(std::string_view text,
                                          DiagnosticSink* sink);

/// The loader for the same text: VerifyAndOrText's tree, or its first
/// error (else its V-A002 warning) as InvalidArgument.
Result<AndOrGraph> DeserializeAndOrGraph(std::string_view text);

// ---- Strategy passes (V-S...) ------------------------------------------

/// Reads "stratlearn-strategy v1 ..." text through Strategy::Deserialize
/// and reports its findings: a missing header, tokens that are not arc
/// ids and ids outside the graph (V-S001), a sequence that is not a
/// permutation of the arcs (V-S002), and arcs ordered before their tail
/// is reached (V-S003). A strategy that passes is returned, after a
/// V-S004 warning when the sibling-swap set T(Theta) cannot reach it
/// from the default strategy (PIB can only learn hierarchically
/// contiguous strategies).
std::optional<Strategy> VerifyStrategyText(const InferenceGraph& graph,
                                           std::string_view text,
                                           DiagnosticSink* sink);

// ---- Learner-config passes (V-C...) ------------------------------------

/// The delta_i = delta * schedule_c / i^2 sequential-test schedule sums
/// to delta exactly when schedule_c = 6/pi^2 (Section 3.2).
inline constexpr double kConvergentScheduleC = 0.60792710185402662866;

/// A learner configuration, as read from a *.cfg file or assembled from
/// CLI flags. Defaults mirror the CLI's.
struct LearnerConfig {
  double delta = 0.05;
  double epsilon = 0.5;
  int64_t queries = 5000;
  int64_t test_every = 1;
  int64_t max_contexts = 10'000'000;
  /// Numerator constant of the delta_i schedule (see above).
  double schedule_c = kConvergentScheduleC;
  /// Extra simultaneous hypotheses k charged against each test round
  /// (1 when, as in PIB, the trial counter already advances by |T| per
  /// context and the threshold absorbs the union bound).
  int64_t hypotheses = 1;
  bool theorem3 = false;
};

/// Parses "key = value" lines ('#'/'%' comments). Unknown keys and
/// unparseable lines become diagnostics, not hard errors.
LearnerConfig ParseLearnerConfig(std::string_view text, DiagnosticSink* sink);

/// Range checks epsilon/delta, delta_i-schedule convergence (with the
/// k-hypothesis Bonferroni term), iteration counts, and — when `graph`
/// is given — the Equation 7/8 sample quotas m(d_i)/m'(e_i): overflow
/// and quotas no run of `max_contexts` contexts could ever meet.
void VerifyLearnerConfig(const LearnerConfig& config,
                         const InferenceGraph* graph, DiagnosticSink* sink);

// ---- Strategy abstract-interpretation passes (V-X...) -------------------

/// Per-arc success-probability intervals measured by a profiling run
/// (StrategyProfiler::ReportJson): arc id -> [p_hat - eps, p_hat + eps]
/// clamped to [0, 1]. Arcs absent from the profile keep the vacuous
/// [0, 1], so a partial profile still yields sound (just wider) bounds.
struct ArcProbProfile {
  std::map<uint32_t, Interval> arcs;
};

/// Parses a profiler JSON report (anything with an "arcs" array of
/// {arc, p_hat, half_width, ...} rows) into a probability model.
/// Malformed structure or out-of-range values are V-X005 errors; rows
/// with zero attempts carry no information and are skipped.
ArcProbProfile ParseArcProbProfile(std::string_view json,
                                   DiagnosticSink* sink);

/// The experiment-indexed interval vector for `graph` under `profile`
/// (every experiment [0, 1] when `profile` is null).
std::vector<Interval> ExperimentIntervals(const InferenceGraph& graph,
                                          const ArcProbProfile* profile);

/// Abstract cost interpretation of one strategy over the probability
/// model: emits the certified expected-cost enclosure [C_lo, C_hi] as a
/// V-X004 note plus a "cost_interval" analysis section, arcs that are
/// never attempted under any probability in the model (V-X003), and
/// sibling orders whose certified worst case beats this strategy's
/// certified best case — statically dominated orders PIB would pay
/// samples to discover (V-X002).
void VerifyStrategyCost(const InferenceGraph& graph, const Strategy& strategy,
                        const ArcProbProfile* profile, DiagnosticSink* sink);

/// Theorem 2/3 quota feasibility under the probability model: each
/// context delivers at most one observation of experiment e, and only
/// when Pi(e) is fully unblocked, so max_contexts * prod_{a in Pi(e)}
/// p_hi(a) bounds the deliverable samples from above. A quota beyond
/// that is unattainable no matter what the world looks like — V-X001,
/// an error, unlike V-C005's "quota exceeds the context budget"
/// warning, because the profile-strengthened bound certifies the
/// learner cannot finish.
void VerifyQuotaFeasibility(const LearnerConfig& config,
                            const InferenceGraph& graph,
                            const ArcProbProfile* profile,
                            DiagnosticSink* sink);

// ---- Alert-config passes (V-AL...) -------------------------------------

/// Parses and verifies a "stratlearn-alerts v1" rule file. Malformed
/// lines (V-AL001), unknown metric selectors (V-AL002), non-positive
/// thresholds/for-durations (V-AL003) and duplicate rule ids (V-AL004)
/// are errors; an empty rule set is a warning (V-AL005). Only clean
/// rules land in the returned set, so this doubles as the production
/// loader for the CLI health paths (which refuse to run when the sink
/// has blocking findings).
obs::health::AlertRuleSet ParseAlertRules(std::string_view text,
                                          DiagnosticSink* sink);

// ---- Recovery-policy passes (V-RC...) ----------------------------------

/// Parses and verifies a "stratlearn-recovery v1" policy file (the
/// recovery controller's trigger -> action map). Missing header /
/// malformed lines (V-RC001), unknown triggers (V-RC002), unknown
/// actions or out-of-range options (V-RC003) and duplicate rule ids
/// (V-RC004) are errors; a policy with no rules is a warning (V-RC005).
/// Only clean rules land in the returned policy, so this doubles as the
/// production loader for the CLI recovery paths.
robust::RecoveryPolicy ParseRecoveryPolicy(std::string_view text,
                                           DiagnosticSink* sink);

// ---- Audit-log passes (V-AUD...) ---------------------------------------

/// Verifies a "stratlearn-audit v1" decision-certificate stream
/// (obs::AuditLog): parse/shape failures are V-AUD001, delta-ledger
/// violations (a running sum that disagrees with the steps or goes
/// down, an overspent budget) V-AUD002,
/// non-conservative certificates (verdict disagreeing with the margin's
/// sign, broken margin identity) V-AUD003, and summary records that
/// disagree with the stream they close V-AUD004 (missing summary is a
/// warning: the run may have crashed before Close). Full re-derivation
/// of every threshold from the raw event trace is tools/audit_verify's
/// job; these passes are the trace-free subset.
void VerifyAuditText(std::string_view text, DiagnosticSink* sink);

/// The same passes over an already parsed stream (V-AUD002..V-AUD004);
/// `stratlearn_cli audit` reports their errors as its findings.
void VerifyAuditFile(const obs::AuditFile& file, DiagnosticSink* sink);

// ---- Robustness passes (V-K...) ----------------------------------------

/// Verifies a "stratlearn-crc32" checksummed container (the learner
/// checkpoint format): header shape, payload length (truncation) and
/// CRC-32 integrity (bit corruption) — V-K001 on failure. When the
/// payload is a "stratlearn-checkpoint v1", the loader's own record
/// rules (robust::CheckCheckpoint) run over it without a graph, one
/// V-K002 finding per bad line and per missing required record. Ids are
/// checked against the graph when a run resumes.
void VerifyChecksummedText(std::string_view text, DiagnosticSink* sink);

// ---- Drivers ------------------------------------------------------------

/// Verifies a sequence of artifact files (`stratlearn_cli verify`),
/// dispatching on content: Datalog programs (with optional
/// `% verify-form:`, `% verify-strategy:` and `% verify-config:`
/// directives), "stratlearn-graph v1" files, "stratlearn-andor v1"
/// files, and key=value learner configs (*.cfg). A program-with-form or
/// graph file that verifies cleanly becomes the *graph context* that
/// later strategy and config files are checked against; each file is
/// read once, and the graph or strategy its pass read is the one the
/// later passes use.
class ArtifactVerifier {
 public:
  ArtifactVerifier(DiagnosticSink* sink, VerifyOptions options = {});

  /// Reads and verifies one file. Returns non-OK only when the file
  /// cannot be read at all (analysis findings go to the sink).
  Status AddFile(const std::string& path);

  /// In-memory variant (`name` scopes the diagnostics).
  void AddText(const std::string& name, std::string_view text);

  /// The current graph context, if any (for tests).
  const InferenceGraph* graph_context() const {
    return graph_context_ ? &*graph_context_ : nullptr;
  }

  /// Probability model for the V-X passes (--profile). Without one the
  /// cost interpretation runs over the vacuous [0, 1] intervals.
  void set_profile(ArcProbProfile profile) { profile_ = std::move(profile); }
  const ArcProbProfile* profile() const {
    return profile_ ? &*profile_ : nullptr;
  }

 private:
  void VerifyDatalog(std::string_view text);
  void VerifyConfig(std::string_view text);

  DiagnosticSink* sink_;
  VerifyOptions options_;
  std::optional<InferenceGraph> graph_context_;
  std::optional<ArcProbProfile> profile_;
};

/// Project mode (`verify --project <dir>`): walks `dir` recursively,
/// collects every artifact whose extension the verifier understands
/// (.dl, .graph, .andor, .strategy, .cfg, .alerts, .ckpt) and feeds
/// them through `verifier` in a deterministic order — context providers
/// first (programs, then graphs), context consumers after (AND/OR
/// trees, strategies, configs, alerts, checkpoints), lexicographic
/// within each kind — so a project's strategy and config files are
/// checked against the graph its program defines, whatever the
/// filesystem enumeration order. Diagnostics are scoped to paths
/// relative to `dir`. Returns NotFound when `dir` is not a directory;
/// an artifact-free directory is a V-P002 warning, not an error.
Status VerifyProject(ArtifactVerifier* verifier, const std::string& dir,
                     DiagnosticSink* sink);

/// The error-level guard the CLI entry points run after loading a
/// program and building its graph, before any learning: undefined
/// predicates, recursion, structural graph checks, retrievals with no
/// backing relation. Returns FailedPrecondition carrying the rendered
/// diagnostics when any error-severity finding exists.
Status GuardLoadedProgram(const RuleBase& rules, const BuiltGraph& built,
                          const Database& db, const SymbolTable& symbols);

}  // namespace stratlearn::verify

#endif  // STRATLEARN_VERIFY_VERIFY_H_
