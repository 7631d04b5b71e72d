#include "robust/checkpoint.h"

#include <charconv>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <type_traits>
#include <utility>

#include "util/file_util.h"
#include "util/string_util.h"

namespace stratlearn::robust {

namespace {

/// What one field admits. Every number is parsed whole-token; arc and
/// node ids are also checked against the graph when there is one.
enum class Kind {
  kWord64,   // any uint64: the seed and RNG state words
  kInteger,  // any int64
  kCount,    // int64 >= 0
  kOffset,   // int64 >= -1, where -1 means "none"
  kFlag,     // 0 or 1
  kReal,     // any double, written with 17 significant digits
  kAmount,   // double >= 0
  kArc,      // arc id
  kNode,     // node id
  kLearner,  // pib or pao
  kWord,     // one token
  kJson,     // the rest of the line: one JSON object
};

/// Which part of a checkpoint a record belongs to. The writer emits a
/// section only when the data has it (HasSection); reading any record
/// of an optional section (one with a PresenceFlag) marks it present.
enum class Section {
  kCore,
  kInjector,
  kPib,
  kPao,
  kHealth,
  kSeries,
  kAudit,
  kCount
};

/// Whether a record must appear whenever its section does.
enum class Need { kOptional, kRequired };

constexpr std::string_view kStrategyKey = "stratlearn-strategy v1";

/// The checkpoint schema: every record once, in file order, with its
/// key, section, need and typed fields. `r.One` declares a record that
/// appears at most once, `r.Rows` one line per element of a vector. The
/// fields callback calls `f(name, kind, member)` per field,
/// `f.Optional()` before a tail that older files lack, and
/// `f.Check(ok, what)` for a bound across fields. The writer, the
/// loader and verify's V-K002 pass all walk this one list.
template <typename D, typename R>
void Records(D& d, R& r) {
  using K = Kind;
  using S = Section;
  r.One("learner", S::kCore, Need::kRequired,
        [&](auto& f) { f("learner", K::kLearner, d.learner); });
  r.One("seed", S::kCore, Need::kOptional,
        [&](auto& f) { f("seed", K::kWord64, d.seed); });
  r.One("queries_done", S::kCore, Need::kOptional,
        [&](auto& f) { f("queries", K::kCount, d.queries_done); });
  r.One("rng", S::kCore, Need::kRequired, [&](auto& f) {
    for (auto& word : d.rng_state) f("state", K::kWord64, word);
  });

  r.One("injector_rng", S::kInjector, Need::kRequired, [&](auto& f) {
    for (auto& word : d.injector.rng_state) f("state", K::kWord64, word);
  });
  r.One("injector_queries", S::kInjector, Need::kRequired,
        [&](auto& f) { f("queries", K::kCount, d.injector.query_count); });
  r.Rows("breaker", S::kInjector, d.injector.breakers, [](auto& b, auto& f) {
    f("arc", K::kArc, b.arc);
    f("failures", K::kCount, b.consecutive_failures);
    f("open_until", K::kInteger, b.open_until);
    f.Optional();  // rows written before half-open probes end here
    f("open_rounds", K::kCount, b.open_rounds);
  });

  r.One(kStrategyKey, S::kPib, Need::kRequired,
        [&](auto& f) { f("arc", K::kArc, d.pib.strategy); });
  r.One("pib.contexts", S::kPib, Need::kRequired,
        [&](auto& f) { f("contexts", K::kCount, d.pib.contexts); });
  r.One("pib.trials", S::kPib, Need::kRequired,
        [&](auto& f) { f("trials", K::kCount, d.pib.trials); });
  r.One("pib.samples", S::kPib, Need::kRequired,
        [&](auto& f) { f("samples", K::kCount, d.pib.samples); });
  r.One("pib.deltas", S::kPib, Need::kOptional, [&](auto& f) {
    f("delta_sum", K::kReal, d.pib.neighbor_delta_sums);
  });
  r.One("pib.audit", S::kPib, Need::kOptional, [&](auto& f) {
    f("delta_spent", K::kAmount, d.pib.audit_delta_spent);
    f("rounds", K::kCount, d.pib.audit_rounds);
  });
  r.Rows("pib.move", S::kPib, d.pib.moves, [](auto& m, auto& f) {
    f("at_context", K::kCount, m.at_context);
    f("samples_used", K::kCount, m.samples_used);
    f("parent", K::kNode, m.swap.parent);
    f("arc_a", K::kArc, m.swap.arc_a);
    f("arc_b", K::kArc, m.swap.arc_b);
    f("delta_sum", K::kReal, m.delta_sum);
    f("threshold", K::kReal, m.threshold);
    f("delta_spent", K::kReal, m.delta_spent);
  });

  r.One("pao.contexts", S::kPao, Need::kRequired,
        [&](auto& f) { f("contexts", K::kCount, d.qpa.contexts); });
  r.One("pao.remaining", S::kPao, Need::kOptional,
        [&](auto& f) { f("remaining", K::kInteger, d.qpa.remaining); });
  r.Rows("pao.counter", S::kPao, d.qpa.counters, [](auto& c, auto& f) {
    f("attempts", K::kCount, c.attempts);
    f("successes", K::kCount, c.successes);
    f("blocked_aims", K::kCount, c.blocked_aims);
  });

  r.One("health", S::kHealth, Need::kOptional, [&](auto& f) {
    f("healthy", K::kFlag, d.health.healthy);
    f("windows_seen", K::kCount, d.health.windows_seen);
    f("drift_active", K::kCount, d.health.drift_active);
    f("firing", K::kCount, d.health.firing);
  });
  r.One("ts.cursor", S::kSeries, Need::kRequired, [&](auto& f) {
    f("window_start", K::kCount, d.ts_window_start);
    f("next_index", K::kCount, d.ts_next_index);
    f("evicted", K::kCount, d.ts_evicted);
  });
  r.Rows("ts", S::kSeries, d.ts_windows,
         [](auto& window, auto& f) { f("window", K::kJson, window); });

  r.One("audit.cursor", S::kAudit, Need::kRequired, [&](auto& f) {
    f("bytes", K::kOffset, d.audit.bytes);
    f("certificates", K::kCount, d.audit.certificates);
    f("commits", K::kCount, d.audit.commits);
    f("rejects", K::kCount, d.audit.rejects);
    f("stops", K::kCount, d.audit.stops);
    f("quotas_met", K::kCount, d.audit.quotas_met);
    f("queries", K::kCount, d.audit.queries);
    f("window_queries", K::kCount, d.audit.window_queries);
    f("windows_written", K::kCount, d.audit.windows_written);
    f("window_cost", K::kReal, d.audit.window_cost);
    f("total_cost", K::kReal, d.audit.total_cost);
  });
  r.Rows("audit.epoch", S::kAudit, d.audit.epoch, [](auto& a, auto& f) {
    f("arc", K::kArc, a.arc);
    f("experiment", K::kOffset, a.experiment);
    f("attempts", K::kCount, a.attempts);
    f("successes", K::kCount, a.successes);
    f("cost", K::kReal, a.cost);
    f.Check(a.successes <= a.attempts, "<successes> exceeds <attempts>");
  });
  r.Rows("audit.ledger", S::kAudit, d.audit.ledgers, [](auto& l, auto& f) {
    f("learner", K::kWord, l.learner);
    f("spent", K::kAmount, l.spent);
    f("budget", K::kAmount, l.budget);
  });
}

template <typename T>
constexpr bool kIsVector = false;
template <typename T>
constexpr bool kIsVector<std::vector<T>> = true;

template <typename D>
auto PresenceFlag(D& d, Section s) -> decltype(&d.has_injector) {
  switch (s) {
    case Section::kInjector: return &d.has_injector;
    case Section::kHealth: return &d.health.present;
    case Section::kSeries: return &d.has_timeseries;
    case Section::kAudit: return &d.has_audit;
    default: return nullptr;
  }
}

bool HasSection(const CheckpointData& d, Section s) {
  if (const bool* present = PresenceFlag(d, s)) return *present;
  switch (s) {
    case Section::kPib: return d.learner == "pib";
    case Section::kPao: return d.learner == "pao";
    default: return true;
  }
}

/// Writes every record whose section `d` has, one " <value>" per field.
class Writer {
 public:
  Writer(const CheckpointData& d, std::string* out) : d_(d), out_(out) {}

  template <typename Fields>
  void One(std::string_view key, Section s, Need, Fields&& fields) {
    if (!HasSection(d_, s)) return;
    *out_ += key;
    fields(*this);
    *out_ += '\n';
  }
  template <typename Vec, typename Fields>
  void Rows(std::string_view key, Section s, const Vec& rows,
            Fields&& fields) {
    for (const auto& row : rows) {
      One(key, s, Need::kOptional, [&](Writer& w) { fields(row, w); });
    }
  }

  template <typename T>
  void operator()(const char* name, Kind kind, const T& value) {
    if constexpr (kIsVector<T>) {
      for (const auto& v : value) (*this)(name, kind, v);
    } else if constexpr (std::is_same_v<T, Strategy>) {
      (*this)(name, kind, value.arcs());
    } else {
      *out_ += ' ';
      if constexpr (std::is_same_v<T, std::string>) {
        *out_ += value;
      } else if constexpr (std::is_same_v<T, bool>) {
        *out_ += value ? '1' : '0';
      } else if constexpr (std::is_floating_point_v<T>) {
        *out_ += FormatDouble(value, 17);
      } else {
        char digits[24];
        out_->append(digits,
                     std::to_chars(digits, digits + sizeof(digits), value).ptr);
      }
    }
  }
  void Optional() {}
  void Check(bool, const char*) {}

 private:
  const CheckpointData& d_;
  std::string* out_;
};

/// Parses one line's tokens into the members a record binds, stopping
/// at the first that does not fit, and collects the record's layout
/// (" <arc> [<open_rounds>]") for messages; over an empty line it only
/// describes the record.
class FieldReader {
 public:
  FieldReader(std::string_view rest, const InferenceGraph* graph)
      : rest_(Trim(rest)), tokens_(SplitFields(rest)), graph_(graph) {}

  template <typename T>
  void operator()(const char* name, Kind kind, T& member) {
    layout_ += layout_.ends_with('[') ? "<" : " <";
    layout_ += name;
    layout_ += kIsVector<T> || std::is_same_v<T, Strategy> ? "...>" : ">";
    if (!stopped_) Read(name, kind, member);
  }
  void Optional() {
    layout_ += " [";
    stopped_ = stopped_ || next_ == tokens_.size();
  }
  void Check(bool ok, const char* what) {
    if (!stopped_ && !ok) Fail(what);
  }

  std::string layout() const {
    return layout_.find('[') != std::string::npos ? layout_ + "]" : layout_;
  }
  /// Why the line does not fit the record, or "" when it does.
  std::string error() const {
    if (error_.empty() && (short_ || next_ < tokens_.size())) {
      return "expects" + layout();
    }
    return error_;
  }

 private:
  template <typename T>
  void Read(const char* name, Kind kind, T& member) {
    if constexpr (kIsVector<T>) {
      member.clear();
      while (!stopped_ && next_ < tokens_.size()) {
        Take(name, kind, tokens_[next_++], &member.emplace_back());
      }
    } else if constexpr (std::is_same_v<T, Strategy>) {
      std::vector<ArcId> arcs;
      Read(name, kind, arcs);
      if (stopped_ || graph_ == nullptr) return;
      Result<Strategy> strategy = Strategy::FromArcOrder(*graph_, arcs);
      if (!strategy.ok()) {
        Fail("is not a strategy of this graph: " +
             strategy.status().message());
        return;
      }
      member = *std::move(strategy);
    } else if (next_ == tokens_.size()) {
      short_ = stopped_ = true;
    } else if (kind == Kind::kJson) {
      next_ = tokens_.size();
      Take(name, kind, rest_, &member);
    } else {
      Take(name, kind, tokens_[next_++], &member);
    }
  }

  template <typename T>
  bool Parse(Kind kind, std::string_view token, T* out) const {
    if constexpr (std::is_same_v<T, std::string>) {
      bool ok = true;
      if (kind == Kind::kLearner) {
        ok = token == "pib" || token == "pao";
      } else if (kind == Kind::kJson) {
        ok = token.size() >= 2 && token.front() == '{' && token.back() == '}';
      }
      if (ok) *out = std::string(token);
      return ok;
    } else if constexpr (std::is_same_v<T, bool>) {
      if (token != "0" && token != "1") return false;
      *out = token == "1";
      return true;
    } else if constexpr (std::is_floating_point_v<T>) {
      double value = 0.0;
      if (!ParseDouble(token, &value)) return false;
      if (kind == Kind::kAmount && value < 0.0) return false;
      *out = value;
      return true;
    } else {
      T value{};
      if (!ParseInteger(token, &value)) return false;
      int64_t lowest = kind == Kind::kInteger ? INT64_MIN
                       : kind == Kind::kOffset ? -1
                                               : 0;
      if (std::cmp_less(value, lowest) ||
          std::cmp_greater_equal(value, Limit(kind))) {
        return false;
      }
      *out = value;
      return true;
    }
  }

  /// One past the largest admissible id (no limit without a graph).
  uint64_t Limit(Kind kind) const {
    if (graph_ != nullptr && kind == Kind::kArc) return graph_->num_arcs();
    if (graph_ != nullptr && kind == Kind::kNode) return graph_->num_nodes();
    return std::numeric_limits<uint64_t>::max();
  }

  template <typename T>
  void Take(const char* name, Kind kind, std::string_view token, T* out) {
    if (Parse(kind, token, out)) return;
    static constexpr const char* kWhat[] = {  // in Kind order
        "an unsigned 64-bit integer", "an integer", "a non-negative integer",
        "an integer >= -1", "0 or 1", "a number", "a number >= 0",
        "an arc id", "a node id", "pib or pao", "a word",
        "one JSON object"};
    std::string what = kWhat[static_cast<int>(kind)];
    if (Limit(kind) != std::numeric_limits<uint64_t>::max()) {
      what += StrFormat(" below %llu",
                        static_cast<unsigned long long>(Limit(kind)));
    }
    std::string shown(token.substr(0, 40));
    if (token.size() > 40) shown += "...";
    Fail(StrFormat("<%s> must be %s, got '%s'", name, what.c_str(),
                   shown.c_str()));
  }

  void Fail(std::string error) {
    stopped_ = true;
    error_ = std::move(error);
  }

  std::string_view rest_;
  std::vector<std::string> tokens_;
  const InferenceGraph* graph_;
  size_t next_ = 0;
  bool stopped_ = false;
  bool short_ = false;
  std::string layout_;
  std::string error_;
};

/// Reads a payload line by line against Records(), then reports every
/// required record its section lacks.
class Reader {
 public:
  Reader(const InferenceGraph* graph, std::vector<CheckpointFinding>* findings)
      : graph_(graph), findings_(findings) {}

  /// With `first_only`, stops at the first bad line.
  CheckpointData Read(std::string_view text, bool first_only) {
    const std::string no_header = StrFormat(
        "checkpoint must start with '%s'",
        std::string(kCheckpointHeader).c_str());
    bool saw_header = false;
    int number = 0;
    for (const std::string& raw : Split(text, '\n')) {
      ++number;
      line_ = Trim(raw);
      if (line_.empty()) continue;
      if (!saw_header) {
        if (line_ != kCheckpointHeader) {
          findings_->push_back({number, no_header});
          return std::move(data_);
        }
        saw_header = true;
        continue;
      }
      number_ = number;
      matched_ = {};
      error_.clear();
      Records(data_, *this);
      if (matched_.empty()) {
        error_ = StrFormat("unknown directive '%s'",
                           std::string(line_.substr(0, line_.find(' ')))
                               .c_str());
      } else {
        seen_.push_back(matched_);
      }
      if (!error_.empty()) {
        findings_->push_back({number, error_});
        if (first_only) return std::move(data_);
      }
    }
    if (!saw_header) {
      findings_->push_back({0, no_header});
      return std::move(data_);
    }
    at_end_ = true;
    Records(data_, *this);
    return std::move(data_);
  }

  template <typename Fields>
  void One(std::string_view key, Section s, Need need, Fields&& fields) {
    if (at_end_) {
      if (need == Need::kRequired && HasSection(data_, s) && !Seen(key)) {
        FieldReader layout("", graph_);
        fields(layout);
        findings_->push_back(
            {opened_[static_cast<size_t>(s)],
             StrFormat("missing required record '%s%s'",
                       std::string(key).c_str(), layout.layout().c_str())});
      }
      return;
    }
    if (!Starts(key)) return;
    if (Seen(key)) {
      Match(key, s, "appears twice");
      return;
    }
    FieldReader f(line_.substr(key.size()), graph_);
    fields(f);
    Match(key, s, f.error());
  }

  template <typename Vec, typename Fields>
  void Rows(std::string_view key, Section s, Vec& rows, Fields&& fields) {
    if (at_end_ || !Starts(key)) return;
    FieldReader f(line_.substr(key.size()), graph_);
    fields(rows.emplace_back(), f);
    if (!Match(key, s, f.error())) rows.pop_back();
  }

 private:
  bool Starts(std::string_view key) const {
    return StartsWith(line_, key) &&
           (line_.size() == key.size() || line_[key.size()] == ' ');
  }
  /// Whether an earlier line was a `key` record.
  bool Seen(std::string_view key) const {
    for (std::string_view k : seen_) {
      if (k == key) return true;
    }
    return false;
  }

  /// Marks this line as a `key` record (and its optional section as
  /// present), keeps the line's first error, and says if it read clean.
  bool Match(std::string_view key, Section s, const std::string& error) {
    matched_ = key;
    if (bool* present = PresenceFlag(data_, s)) {
      *present = true;
      int& opened = opened_[static_cast<size_t>(s)];
      if (opened == 0) opened = number_;
    }
    if (!error.empty() && error_.empty()) {
      error_ = StrFormat("'%s' %s", std::string(key).c_str(), error.c_str());
    }
    return error.empty();
  }

  const InferenceGraph* graph_;
  std::vector<CheckpointFinding>* findings_;
  CheckpointData data_;
  std::string_view line_;
  int number_ = 0;
  std::string_view matched_;
  std::string error_;
  std::vector<std::string_view> seen_;
  /// The line that first opened each optional section: a record missing
  /// from it is reported there (0, no line, for the sections every
  /// checkpoint has).
  int opened_[static_cast<size_t>(Section::kCount)] = {};
  bool at_end_ = false;
};

}  // namespace

std::string SerializeCheckpoint(const CheckpointData& data) {
  std::string out(kCheckpointHeader);
  out += '\n';
  Writer writer(data, &out);
  Records(data, writer);
  return out;
}

Result<CheckpointData> ParseCheckpoint(const InferenceGraph& graph,
                                       std::string_view text) {
  std::vector<CheckpointFinding> findings;
  CheckpointData data =
      Reader(&graph, &findings).Read(text, /*first_only=*/true);
  if (findings.empty()) return data;
  const CheckpointFinding& first = findings.front();
  return Status::FailedPrecondition(
      first.line > 0 ? StrFormat("checkpoint line %d: %s", first.line,
                                 first.message.c_str())
                     : "checkpoint: " + first.message);
}

std::vector<CheckpointFinding> CheckCheckpoint(std::string_view text) {
  std::vector<CheckpointFinding> findings;
  (void)Reader(nullptr, &findings).Read(text, /*first_only=*/false);
  return findings;
}

Status WriteCheckpoint(const std::string& path, const CheckpointData& data) {
  if (!WriteFileChecksummed(path, SerializeCheckpoint(data))) {
    return Status::Internal(
        StrFormat("cannot write checkpoint '%s'", path.c_str()));
  }
  return Status::OK();
}

Result<CheckpointData> LoadCheckpoint(const std::string& path,
                                      const InferenceGraph& graph) {
  Result<std::string> payload = ReadFileChecksummed(path);
  if (!payload.ok()) return payload.status();
  return ParseCheckpoint(graph, *payload);
}

}  // namespace stratlearn::robust
