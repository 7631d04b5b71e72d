#ifndef STRATLEARN_VERIFY_DIAGNOSTICS_H_
#define STRATLEARN_VERIFY_DIAGNOSTICS_H_

#include <string>
#include <vector>

namespace stratlearn::verify {

/// How bad a finding is. Errors invalidate the paper's guarantees (a
/// learner run over the artifact would be meaningless); warnings mark
/// inputs that run but probably not as intended; notes are FYIs.
enum class Severity { kNote, kWarning, kError };

/// Stable lowercase name ("note", "warning", "error").
const char* SeverityName(Severity severity);

/// One static-analysis finding. `code` is a stable identifier from the
/// diagnostic-code table in README.md ("V-R001", ...); `file` is the
/// artifact the finding is about (may be empty for in-memory checks);
/// `location` narrows it down inside the artifact ("line 3", "arc 2",
/// "key epsilon", ... — empty when the finding is about the whole
/// artifact); `hint` suggests the fix.
struct Diagnostic {
  std::string code;
  Severity severity = Severity::kError;
  std::string file;
  std::string location;
  std::string message;
  std::string hint;

  /// "<location>: <message> [<code>]", as a loader's error or a report
  /// line quotes the finding.
  std::string Brief() const;
};

/// Collects diagnostics in the (deterministic) order the passes emit
/// them and renders them as text or JSON. Exit-code policy matches the
/// CLI contract: 0 clean (notes allowed), 1 warnings, 2 errors;
/// `werror` promotes warnings to errors.
class DiagnosticSink {
 public:
  DiagnosticSink() = default;

  /// The `file` of subsequently reported diagnostics (passes report
  /// locations only; the driver scopes them to the artifact under
  /// analysis).
  void set_file(std::string file) { file_ = std::move(file); }
  const std::string& file() const { return file_; }

  void Report(Diagnostic diagnostic);

  /// Convenience emitters using the current file scope.
  void Error(std::string code, std::string location, std::string message,
             std::string hint = "");
  void Warning(std::string code, std::string location, std::string message,
               std::string hint = "");
  void Note(std::string code, std::string location, std::string message,
            std::string hint = "");

  const std::vector<Diagnostic>& diagnostics() const { return diagnostics_; }
  size_t size() const { return diagnostics_.size(); }
  bool empty() const { return diagnostics_.empty(); }

  size_t num_errors() const { return num_errors_; }
  size_t num_warnings() const { return num_warnings_; }
  size_t num_notes() const { return num_notes_; }
  size_t num_suppressed() const { return num_suppressed_; }

  /// Removes every diagnostic matching `match`, recomputing the
  /// severity counts; removed findings count as *suppressed* in the
  /// summary line and in JSON/SARIF. Returns how many were removed.
  /// This is the baseline mechanism: CI suppresses the pinned findings
  /// and gates on what remains.
  template <typename Pred>
  size_t Suppress(const Pred& match) {
    std::vector<Diagnostic> kept;
    kept.reserve(diagnostics_.size());
    size_t removed = 0;
    for (Diagnostic& d : diagnostics_) {
      if (match(static_cast<const Diagnostic&>(d))) {
        ++removed;
      } else {
        kept.push_back(std::move(d));
      }
    }
    diagnostics_ = std::move(kept);
    num_suppressed_ += removed;
    RecountSeverities();
    return removed;
  }

  /// Attaches a machine-readable analysis result (a raw JSON object,
  /// e.g. an adornment table or a cost-interval certificate) to the
  /// report. Sections render in insertion order under the top-level
  /// "analyses" key of RenderJson and the run's property bag in SARIF;
  /// the text rendering ignores them (passes emit a note instead).
  void AddAnalysis(std::string json_object) {
    analyses_.push_back(std::move(json_object));
  }
  const std::vector<std::string>& analyses() const { return analyses_; }

  /// True when the artifact set must not be used (>= 1 error, or >= 1
  /// warning under `werror`).
  bool HasBlocking(bool werror = false) const {
    return num_errors_ > 0 || (werror && num_warnings_ > 0);
  }

  /// 0 = clean, 1 = warnings only, 2 = errors (warnings count as errors
  /// under `werror`).
  int ExitCode(bool werror = false) const;

  /// Compiler-style rendering, one finding per line plus indented
  /// hints, ending in a summary line. Deterministic: no timestamps, no
  /// pointers, insertion order.
  std::string RenderText(bool werror = false) const;

  /// The same content as one deterministic JSON object:
  /// {"diagnostics": [...], "analyses": [...], "summary": {...}}.
  /// Under `werror` a promoted warning renders with
  /// "severity": "error" (and "promoted": true) so downstream tooling
  /// sees the severity the exit code acts on, not the pre-promotion
  /// one; the summary keeps the raw errors/warnings split.
  std::string RenderJson(bool werror = false) const;

 private:
  void RecountSeverities();

  std::string file_;
  std::vector<Diagnostic> diagnostics_;
  std::vector<std::string> analyses_;
  size_t num_errors_ = 0;
  size_t num_warnings_ = 0;
  size_t num_notes_ = 0;
  size_t num_suppressed_ = 0;
};

}  // namespace stratlearn::verify

#endif  // STRATLEARN_VERIFY_DIAGNOSTICS_H_
