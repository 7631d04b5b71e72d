#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "util/string_util.h"
#include "verify/verify.h"

namespace stratlearn::verify {

namespace {

/// Extracts the text after the first occurrence of `directive` on any
/// line of `text`, or an empty string.
std::string FindDirective(std::string_view text, std::string_view directive) {
  for (const std::string& line : Split(text, '\n')) {
    size_t pos = line.find(directive);
    if (pos == std::string::npos) continue;
    return std::string(Trim(std::string_view(line).substr(
        pos + directive.size())));
  }
  return "";
}

}  // namespace

ArtifactVerifier::ArtifactVerifier(DiagnosticSink* sink,
                                   VerifyOptions options)
    : sink_(sink), options_(options) {}

Status ArtifactVerifier::AddFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return Status::NotFound(StrFormat("cannot open '%s'", path.c_str()));
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  AddText(path, buffer.str());
  return Status::OK();
}

void ArtifactVerifier::AddText(const std::string& name,
                               std::string_view text) {
  sink_->set_file(name);
  std::string_view trimmed = Trim(text);
  if (StartsWith(trimmed, "stratlearn-crc32")) {
    VerifyChecksummedText(text, sink_);
    return;
  }
  if (StartsWith(trimmed, "stratlearn-graph v1")) {
    std::optional<InferenceGraph> graph =
        VerifyGraphText(text, sink_, options_);
    if (graph) graph_context_ = std::move(*graph);
    return;
  }
  if (StartsWith(trimmed, "stratlearn-andor v1")) {
    (void)VerifyAndOrText(text, sink_);
    return;
  }
  if (StartsWith(trimmed, "stratlearn-alerts v1")) {
    (void)ParseAlertRules(text, sink_);
    return;
  }
  if (StartsWith(trimmed, "stratlearn-recovery v1")) {
    (void)ParseRecoveryPolicy(text, sink_);
    return;
  }
  if (StartsWith(trimmed, "stratlearn-audit v1")) {
    VerifyAuditText(text, sink_);
    return;
  }
  if (StartsWith(trimmed, "stratlearn-strategy v1")) {
    if (!graph_context_) {
      sink_->Error("V-S005", "",
                   "strategy file has no graph context; verify it after "
                   "the program or graph file it belongs to",
                   "pass the .dl (with a % verify-form: directive) or "
                   ".graph file before the strategy file");
      return;
    }
    std::optional<Strategy> strategy =
        VerifyStrategyText(*graph_context_, text, sink_);
    if (strategy) {
      VerifyStrategyCost(*graph_context_, *strategy, profile(), sink_);
    }
    return;
  }
  bool is_config = name.size() >= 4 &&
                   name.compare(name.size() - 4, 4, ".cfg") == 0;
  if (is_config) {
    VerifyConfig(text);
  } else {
    VerifyDatalog(text);
  }
}

void ArtifactVerifier::VerifyConfig(std::string_view text) {
  LearnerConfig config = ParseLearnerConfig(text, sink_);
  VerifyLearnerConfig(config, graph_context(), sink_);
  if (graph_context() != nullptr) {
    VerifyQuotaFeasibility(config, *graph_context(), profile(), sink_);
  }
}

void ArtifactVerifier::VerifyDatalog(std::string_view text) {
  SymbolTable symbols;
  Parser parser(&symbols);
  Result<Program> program = parser.ParseProgram(text);
  if (!program.ok()) {
    sink_->Error("V-P001", "",
                 StrFormat("syntax error: %s",
                           program.status().message().c_str()));
    return;
  }

  std::string form_text = FindDirective(text, "% verify-form:");
  Result<QueryForm> form = Status::NotFound("no % verify-form: directive");
  if (!form_text.empty()) {
    form = QueryForm::Parse(form_text, &symbols);
    if (!form.ok()) {
      sink_->Error("V-P001", "",
                   StrFormat("bad %% verify-form: directive '%s': %s",
                             form_text.c_str(),
                             form.status().message().c_str()),
                   "expected e.g. '% verify-form: instructor(b)'");
    }
  }

  size_t errors_before = sink_->num_errors();
  VerifyProgram(*program, symbols, form.ok() ? &*form : nullptr, sink_);

  if (form.ok()) {
    VerifyOptions dataflow_options = options_;
    std::string cap_text = FindDirective(text, "% verify-dataflow-cap:");
    if (!cap_text.empty()) {
      char* end = nullptr;
      long long cap = std::strtoll(cap_text.c_str(), &end, 10);
      if (end != cap_text.c_str() + cap_text.size() || cap <= 0) {
        sink_->Error("V-P001", "",
                     StrFormat("bad %% verify-dataflow-cap: directive "
                               "'%s': expected a positive integer",
                               cap_text.c_str()));
      } else {
        dataflow_options.dataflow_max_iterations = cap;
      }
    }
    (void)VerifyAdornments(*program, symbols, *form, sink_,
                           dataflow_options);
  }

  bool uses_negation = false;
  for (const Clause& rule : program->rules) {
    uses_negation = uses_negation || rule.HasNegation();
  }

  if (form.ok() && sink_->num_errors() == errors_before && !uses_negation) {
    Database db;
    RuleBase rules;
    Status loaded = Status::OK();
    for (const Clause& fact : program->facts) {
      loaded = db.Insert(fact.head);
      if (!loaded.ok()) break;
    }
    for (const Clause& rule : program->rules) {
      if (!loaded.ok()) break;
      loaded = rules.AddRule(rule);
    }
    BuildOptions build_options;
    build_options.max_depth = options_.max_depth;
    Result<BuiltGraph> built =
        loaded.ok()
            ? BuildInferenceGraph(rules, *form, &symbols, build_options)
            : Result<BuiltGraph>(loaded);
    if (!built.ok()) {
      sink_->Error("V-G009", "",
                   StrFormat("inference graph construction failed: %s",
                             built.status().message().c_str()),
                   "the PAO/PIB learners need a buildable graph for this "
                   "query form");
    } else {
      VerifyBuiltGraph(*built, db, symbols, sink_, options_);
      if (sink_->num_errors() == errors_before) {
        graph_context_ = std::move(built->graph);
      }
    }
  } else if (form.ok() && uses_negation &&
             sink_->num_errors() == errors_before) {
    sink_->Note("V-G009", "",
                "graph context not built: the program uses negation as "
                "failure, which the inference-graph builder does not "
                "support",
                "");
  }

  std::string strategy_text = FindDirective(text, "% verify-strategy:");
  if (!strategy_text.empty()) {
    if (!graph_context_) {
      sink_->Error("V-S005", "",
                   "cannot check % verify-strategy: no graph context "
                   "(the program must verify cleanly with a "
                   "% verify-form: directive first)");
    } else {
      // The directive holds a strategy file's arc ids.
      std::optional<Strategy> strategy = VerifyStrategyText(
          *graph_context_, "stratlearn-strategy v1 " + strategy_text, sink_);
      if (strategy) {
        VerifyStrategyCost(*graph_context_, *strategy, profile(), sink_);
      }
    }
  }

  std::string config_text = FindDirective(text, "% verify-config:");
  if (!config_text.empty()) {
    std::string config_lines = Join(Split(config_text, ' '), "\n");
    VerifyConfig(config_lines);
  }
}

namespace {

/// Feed order of an artifact kind in project mode: context providers
/// (programs define graphs) before context consumers. -1 = not ours.
int KindPriority(const std::string& extension) {
  if (extension == ".dl") return 0;
  if (extension == ".graph") return 1;
  if (extension == ".andor") return 2;
  if (extension == ".strategy") return 3;
  if (extension == ".cfg") return 4;
  if (extension == ".alerts") return 5;
  if (extension == ".ckpt") return 6;
  if (extension == ".audit") return 7;
  if (extension == ".recovery") return 8;
  return -1;
}

}  // namespace

Status VerifyProject(ArtifactVerifier* verifier, const std::string& dir,
                     DiagnosticSink* sink) {
  namespace fs = std::filesystem;
  std::error_code ec;
  if (!fs::is_directory(dir, ec)) {
    return Status::NotFound(
        StrFormat("'%s' is not a directory", dir.c_str()));
  }
  std::vector<std::pair<int, std::string>> artifacts;
  for (fs::recursive_directory_iterator it(dir, ec), end;
       !ec && it != end; it.increment(ec)) {
    if (!it->is_regular_file(ec)) continue;
    int priority = KindPriority(it->path().extension().string());
    if (priority < 0) continue;
    artifacts.emplace_back(
        priority, fs::relative(it->path(), dir, ec).generic_string());
  }
  std::sort(artifacts.begin(), artifacts.end());
  if (artifacts.empty()) {
    sink->set_file(dir);
    sink->Warning("V-P002", "",
                  "project directory contains no verifiable artifacts",
                  "recognised extensions: .dl .graph .andor .strategy "
                  ".cfg .alerts .ckpt .audit .recovery");
    return Status::OK();
  }
  for (const auto& [priority, relative] : artifacts) {
    std::ifstream in((fs::path(dir) / relative));
    if (!in) {
      sink->set_file(relative);
      sink->Error("V-P003", "", "artifact became unreadable mid-walk",
                  "check permissions and re-run");
      continue;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    verifier->AddText(relative, buffer.str());
  }
  return Status::OK();
}

Status GuardLoadedProgram(const RuleBase& rules, const BuiltGraph& built,
                          const Database& db, const SymbolTable& symbols) {
  DiagnosticSink sink;
  const std::vector<Clause>& all = rules.AllRules();
  for (size_t i = 0; i < all.size(); ++i) {
    const Clause& rule = all[i];
    for (const Atom& literal : rule.body) {
      SymbolId pred = literal.predicate;
      if (!rules.IsIntensional(pred) && db.Arity(pred) < 0) {
        sink.Error("V-R003", StrFormat("rule %zu", i),
                   StrFormat("predicate '%s' in '%s' is used but never "
                             "defined: it heads no rule and has no "
                             "facts, so this literal can never succeed",
                             symbols.Name(pred).c_str(),
                             rule.ToString(symbols).c_str()),
                   "define the predicate or fix the spelling");
      }
    }
  }
  VerifyBuiltGraph(built, db, symbols, &sink);
  if (sink.HasBlocking()) {
    return Status::FailedPrecondition(
        StrFormat("static verification failed:\n%s",
                  sink.RenderText().c_str()));
  }
  return Status::OK();
}

}  // namespace stratlearn::verify
