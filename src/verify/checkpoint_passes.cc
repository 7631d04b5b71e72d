#include <string>

#include "robust/checkpoint.h"
#include "util/file_util.h"
#include "util/string_util.h"
#include "verify/verify.h"

namespace stratlearn::verify {

void VerifyChecksummedText(std::string_view text, DiagnosticSink* sink) {
  // Passed untrimmed: the header's byte count covers the payload
  // verbatim, trailing newline included.
  Result<std::string> payload = DecodeChecksummed(text, "container");
  if (!payload.ok()) {
    sink->Error("V-K001", "", std::string(payload.status().message()),
                "the file was truncated or bit-flipped since it was "
                "written; restore it from a backup or restart the run "
                "without --resume");
    return;
  }
  if (StartsWith(Trim(*payload), robust::kCheckpointHeader)) {
    // The loader's own record rules, run without the program's graph.
    for (const robust::CheckpointFinding& finding :
         robust::CheckCheckpoint(*payload)) {
      sink->Error("V-K002",
                  finding.line > 0 ? StrFormat("line %d", finding.line) : "",
                  finding.message);
    }
    return;
  }
  sink->Note("V-K001", "",
             "checksummed container verified, but its payload is not a "
             "known stratlearn artifact; only integrity was checked");
}

}  // namespace stratlearn::verify
