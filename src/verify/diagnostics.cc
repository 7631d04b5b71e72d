#include "verify/diagnostics.h"

#include "obs/json_writer.h"
#include "util/string_util.h"

namespace stratlearn::verify {

const char* SeverityName(Severity severity) {
  switch (severity) {
    case Severity::kNote: return "note";
    case Severity::kWarning: return "warning";
    case Severity::kError: return "error";
  }
  return "unknown";
}

void DiagnosticSink::Report(Diagnostic diagnostic) {
  switch (diagnostic.severity) {
    case Severity::kError: ++num_errors_; break;
    case Severity::kWarning: ++num_warnings_; break;
    case Severity::kNote: ++num_notes_; break;
  }
  diagnostics_.push_back(std::move(diagnostic));
}

void DiagnosticSink::Error(std::string code, std::string location,
                           std::string message, std::string hint) {
  Report({std::move(code), Severity::kError, file_, std::move(location),
          std::move(message), std::move(hint)});
}

void DiagnosticSink::Warning(std::string code, std::string location,
                             std::string message, std::string hint) {
  Report({std::move(code), Severity::kWarning, file_, std::move(location),
          std::move(message), std::move(hint)});
}

void DiagnosticSink::Note(std::string code, std::string location,
                          std::string message, std::string hint) {
  Report({std::move(code), Severity::kNote, file_, std::move(location),
          std::move(message), std::move(hint)});
}

void DiagnosticSink::RecountSeverities() {
  num_errors_ = num_warnings_ = num_notes_ = 0;
  for (const Diagnostic& d : diagnostics_) {
    switch (d.severity) {
      case Severity::kError: ++num_errors_; break;
      case Severity::kWarning: ++num_warnings_; break;
      case Severity::kNote: ++num_notes_; break;
    }
  }
}

int DiagnosticSink::ExitCode(bool werror) const {
  if (num_errors_ > 0 || (werror && num_warnings_ > 0)) return 2;
  if (num_warnings_ > 0) return 1;
  return 0;
}

std::string Diagnostic::Brief() const {
  return StrFormat("%s%s%s [%s]", location.c_str(),
                   location.empty() ? "" : ": ", message.c_str(),
                   code.c_str());
}

std::string DiagnosticSink::RenderText(bool werror) const {
  std::string out;
  for (const Diagnostic& d : diagnostics_) {
    std::string where = d.file;
    if (!d.location.empty()) {
      if (!where.empty()) where += ":";
      where += d.location;
    }
    if (!where.empty()) where += ": ";
    out += StrFormat("%s%s: %s [%s]\n", where.c_str(),
                     SeverityName(d.severity), d.message.c_str(),
                     d.code.c_str());
    if (!d.hint.empty()) {
      out += StrFormat("  hint: %s\n", d.hint.c_str());
    }
  }
  out += StrFormat("%zu error(s), %zu warning(s), %zu note(s)%s%s\n",
                   num_errors_, num_warnings_, num_notes_,
                   num_suppressed_ > 0
                       ? StrFormat(", %zu suppressed", num_suppressed_)
                             .c_str()
                       : "",
                   werror && num_warnings_ > 0
                       ? " [warnings promoted by -Werror]"
                       : "");
  return out;
}

std::string DiagnosticSink::RenderJson(bool werror) const {
  obs::JsonWriter w;
  w.BeginObject();
  w.Key("diagnostics").BeginArray();
  for (const Diagnostic& d : diagnostics_) {
    // --Werror is a severity promotion, not just an exit-code flip:
    // tooling consuming the report must see the effective severity.
    bool promoted = werror && d.severity == Severity::kWarning;
    w.BeginObject();
    w.Key("code").Value(d.code);
    w.Key("severity").Value(promoted ? SeverityName(Severity::kError)
                                     : SeverityName(d.severity));
    if (promoted) w.Key("promoted").Value(true);
    w.Key("file").Value(d.file);
    w.Key("location").Value(d.location);
    w.Key("message").Value(d.message);
    w.Key("hint").Value(d.hint);
    w.EndObject();
  }
  w.EndArray();
  if (!analyses_.empty()) {
    w.Key("analyses").BeginArray();
    for (const std::string& section : analyses_) w.Raw(section);
    w.EndArray();
  }
  w.Key("summary").BeginObject();
  w.Key("errors").Value(static_cast<int64_t>(num_errors_));
  w.Key("warnings").Value(static_cast<int64_t>(num_warnings_));
  w.Key("notes").Value(static_cast<int64_t>(num_notes_));
  w.Key("suppressed").Value(static_cast<int64_t>(num_suppressed_));
  w.Key("werror").Value(werror);
  w.Key("exit_code").Value(static_cast<int64_t>(ExitCode(werror)));
  w.EndObject();
  w.EndObject();
  return w.Take();
}

}  // namespace stratlearn::verify
