#ifndef STRATLEARN_TOOLS_OFFLINE_HEALTH_H_
#define STRATLEARN_TOOLS_OFFLINE_HEALTH_H_

#include <string>

namespace stratlearn::tools {

/// Offline health replay: loads "stratlearn-alerts v1" rules (through
/// the V-AL verify passes), parses a serialized
/// "stratlearn-timeseries-v1" file, and feeds every window through the
/// same HealthMonitor the live runs use. Prints the health report in
/// `format` ("text" or "json") to stdout; when `report_out` is
/// non-empty, also writes the "stratlearn-health-v1" JSON there.
/// Backs `stratlearn_cli health`.
///
/// When `recovery_path` is non-empty, the "stratlearn-recovery v1"
/// policy is loaded (through the V-RC verify passes) and a decide-only
/// RecoveryController is hooked onto the monitor, so the report's
/// recovery transcript reproduces the live run's decisions byte for
/// byte — the offline half of the online/offline replay check.
///
/// Exit contract: 0 healthy, 1 alerts firing, 2 usage error (bad
/// flags, unreadable/malformed inputs, alert rules or recovery policy
/// with verify errors). `usage` is printed on a missing --alerts flag.
int RunOfflineHealth(const std::string& series_path,
                     const std::string& alerts_path,
                     const std::string& format,
                     const std::string& report_out,
                     const std::string& recovery_path, const char* usage);

/// Renders a "stratlearn-timeseries-v1" file, read by
/// obs::health::LoadTimeSeries, as per-window text tables on stdout: a
/// pure function of the file's content, which the report never names,
/// so two byte-identical series render byte-identically. Backs
/// `stratlearn_cli series`. Exit contract: 0 report written, 1 cannot
/// open the file, 2 malformed series.
int RunSeriesReport(const std::string& series_path);

}  // namespace stratlearn::tools

#endif  // STRATLEARN_TOOLS_OFFLINE_HEALTH_H_
