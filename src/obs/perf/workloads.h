#ifndef STRATLEARN_OBS_PERF_WORKLOADS_H_
#define STRATLEARN_OBS_PERF_WORKLOADS_H_

#include <string>

namespace stratlearn::obs::perf {

/// Runs the canonical behaviour workloads behind `stratlearn_cli bench`
/// and returns one line per workload:
///
///   <name> work_units=<17 significant digits> <counter>=<value> ...
///
/// with the counters in name order. The workloads are:
///   fig1_execute   — QueryProcessor::Execute on the Figure 1/2 graphs
///   pib_climb      — a full PIB hill-climb over a context stream
///   pao_quota      — a PAO/QP^A Theorem-3 quota run
///   audit_overhead — the pib_climb loop with decision certificates on
///   drift_detect   — the health pipeline on a drifting and a stationary
///                    stream
///   drift_recover  — rebaseline against no reaction and a cold restart,
///                    on a transient and a permanent drift
/// Each workload is built once at seed 19920602, runs one warmup
/// repetition, then five repetitions whose work units and counters are
/// summed; every repetition continues the instance's RNG stream. The
/// text depends only on the code, never on the clock or the host, so
/// tests/testdata/bench/golden.txt pins it byte for byte. Every workload
/// also checks its own contract in process and aborts when it fails.
std::string RunCanonicalBench();

}  // namespace stratlearn::obs::perf

#endif  // STRATLEARN_OBS_PERF_WORKLOADS_H_
