#ifndef STRATLEARN_OBS_HEALTH_SERIES_IO_H_
#define STRATLEARN_OBS_HEALTH_SERIES_IO_H_

#include <cstdint>
#include <istream>
#include <vector>

#include "obs/timeseries.h"
#include "util/status.h"

namespace stratlearn::obs::health {

/// A "stratlearn-timeseries-v1" file parsed back into the in-memory
/// window representation, so the offline `health` pipeline feeds the
/// same HealthMonitor code path as a live run, `series` renders it and a
/// resumed run restores its checkpointed windows. The serializer writes
/// doubles at round-trip precision, which is what makes the offline
/// detector decisions bit-identical to the online ones.
struct LoadedSeries {
  int64_t interval_us = 0;
  int64_t capacity = 0;
  int64_t windows_closed = 0;
  int64_t windows_evicted = 0;
  std::vector<TimeSeriesWindow> windows;
};

/// Parses a series stream, the only reader of series lines.
/// InvalidArgument (with a line number) on a missing/unknown schema
/// header or a malformed window line. Each window's drift and alert
/// entries are read back through their field lists; the monitor itself
/// re-derives every decision from the data and never reads them.
Status LoadTimeSeries(std::istream& in, LoadedSeries* out);

}  // namespace stratlearn::obs::health

#endif  // STRATLEARN_OBS_HEALTH_SERIES_IO_H_
