#include "obs/timeseries.h"

#include <utility>
#include <variant>

#include "obs/event_json.h"
#include "obs/json_writer.h"
#include "util/check.h"

namespace stratlearn::obs {

TimeSeriesCollector::TimeSeriesCollector(const MetricsRegistry* registry,
                                         TimeSeriesOptions options)
    : registry_(registry), options_(options) {
  STRATLEARN_CHECK_MSG(options_.interval_us > 0,
                       "time-series interval must be positive");
  STRATLEARN_CHECK_MSG(options_.capacity > 0,
                       "time-series capacity must be positive");
}

void TimeSeriesCollector::On(const Event& event) {
  if (const auto* e = std::get_if<ArcAttemptEvent>(&event)) {
    std::lock_guard<std::mutex> lock(mutex_);
    ArcCumulative& cum = arcs_[e->arc];
    ++cum.attempts;
    if (e->unblocked) ++cum.unblocked;
    cum.cost += e->cost;
  } else if (std::holds_alternative<DecisionCertificateEvent>(event)) {
    std::lock_guard<std::mutex> lock(mutex_);
    ++certificates_;
  } else if (const auto* e = std::get_if<DriftEvent>(&event)) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (TimeSeriesWindow* w = RetainedWindowLocked(e->window)) {
      w->drift.push_back(*e);
    }
  } else if (const auto* e = std::get_if<AlertEvent>(&event)) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (TimeSeriesWindow* w = RetainedWindowLocked(e->window)) {
      w->alerts.push_back(*e);
    }
  }
}

TimeSeriesWindow* TimeSeriesCollector::RetainedWindowLocked(int64_t index) {
  for (auto it = windows_.rbegin(); it != windows_.rend(); ++it) {
    if (it->index == index) return &*it;
    if (it->index < index) break;
  }
  return nullptr;
}

void TimeSeriesCollector::SetWindowCallback(
    std::function<void(const TimeSeriesWindow&)> cb) {
  std::lock_guard<std::mutex> lock(mutex_);
  window_callback_ = std::move(cb);
}

void TimeSeriesCollector::AdvanceTo(int64_t now_us) {
  std::vector<TimeSeriesWindow> closed;
  std::function<void(const TimeSeriesWindow&)> cb;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    while (now_us >= window_start_ + options_.interval_us) {
      CloseWindowLocked(window_start_ + options_.interval_us, &closed);
    }
    cb = window_callback_;
  }
  // Deliver outside the lock: the callback may emit events that come
  // straight back into this collector through a tee.
  if (cb) {
    for (const TimeSeriesWindow& window : closed) cb(window);
  }
}

void TimeSeriesCollector::Finalize(int64_t now_us) {
  std::vector<TimeSeriesWindow> closed;
  std::function<void(const TimeSeriesWindow&)> cb;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    while (now_us >= window_start_ + options_.interval_us) {
      CloseWindowLocked(window_start_ + options_.interval_us, &closed);
    }
    if (now_us > window_start_) CloseWindowLocked(now_us, &closed);
    cb = window_callback_;
  }
  if (cb) {
    for (const TimeSeriesWindow& window : closed) cb(window);
  }
}

void TimeSeriesCollector::CloseWindowLocked(
    int64_t end_us, std::vector<TimeSeriesWindow>* closed) {
  TimeSeriesWindow window;
  window.index = next_index_++;
  window.start_us = window_start_;
  window.end_us = end_us;
  if (registry_ != nullptr) {
    // Lock order: collector mutex, then the registry's internal lock.
    // Safe because the registry never calls back into a collector.
    window.cumulative = registry_->Snapshot();
  }
  for (const auto& [name, total] : window.cumulative.counters) {
    auto prev = last_cumulative_.counters.find(name);
    int64_t before = prev == last_cumulative_.counters.end() ? 0
                                                             : prev->second;
    window.counter_deltas.emplace(name, total - before);
  }
  for (const auto& [name, h] : window.cumulative.histograms) {
    HistogramDelta delta;
    delta.count = h.count;
    delta.sum = h.sum;
    auto prev = last_cumulative_.histograms.find(name);
    if (prev != last_cumulative_.histograms.end()) {
      delta.count -= prev->second.count;
      delta.sum -= prev->second.sum;
    }
    window.histogram_deltas.emplace(name, delta);
  }
  for (const auto& [arc, cum] : arcs_) {
    ArcWindowStats stats;
    stats.arc = arc;
    stats.attempts = cum.attempts;
    stats.unblocked = cum.unblocked;
    stats.cost = cum.cost;
    auto prev = last_arcs_.find(arc);
    if (prev != last_arcs_.end()) {
      stats.attempts -= prev->second.attempts;
      stats.unblocked -= prev->second.unblocked;
      stats.cost -= prev->second.cost;
    }
    if (stats.attempts != 0) window.arcs.push_back(stats);
  }
  window.certificates = certificates_ - last_certificates_;

  last_cumulative_ = window.cumulative;
  last_arcs_ = arcs_;
  last_certificates_ = certificates_;
  window_start_ = end_us;
  if (window_callback_) closed->push_back(window);
  windows_.push_back(std::move(window));
  if (windows_.size() > options_.capacity) {
    windows_.pop_front();
    ++evicted_;
  }
}

std::vector<TimeSeriesWindow> TimeSeriesCollector::Windows() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return {windows_.begin(), windows_.end()};
}

int64_t TimeSeriesCollector::windows_closed() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return next_index_;
}

int64_t TimeSeriesCollector::windows_evicted() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return evicted_;
}

int64_t TimeSeriesCollector::window_start_us() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return window_start_;
}

Status TimeSeriesCollector::Restore(int64_t window_start_us,
                                    int64_t next_index, int64_t evicted,
                                    std::vector<TimeSeriesWindow> windows) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (next_index_ != 0 || !windows_.empty() || evicted_ != 0) {
    return Status::FailedPrecondition(
        "time-series state can only be restored into a fresh collector");
  }
  if (next_index < 0 || evicted < 0 || evicted > next_index ||
      windows.size() > options_.capacity ||
      static_cast<int64_t>(windows.size()) + evicted != next_index) {
    return Status::FailedPrecondition(
        "restored time-series cursor is inconsistent");
  }
  int64_t expect = evicted;
  int64_t last_end = 0;
  for (const TimeSeriesWindow& window : windows) {
    if (window.index != expect++ || window.end_us < window.start_us ||
        window.start_us < last_end) {
      return Status::FailedPrecondition(
          "restored time-series windows are out of order");
    }
    last_end = window.end_us;
  }
  if (window_start_us < last_end) {
    return Status::FailedPrecondition(
        "restored window start precedes the last closed boundary");
  }
  window_start_ = window_start_us;
  next_index_ = next_index;
  evicted_ = evicted;
  windows_.assign(std::make_move_iterator(windows.begin()),
                  std::make_move_iterator(windows.end()));
  return Status::OK();
}

std::string TimeSeriesCollector::SerializeJsonl() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string out;
  {
    JsonWriter w;
    w.BeginObject();
    w.Key("schema").Value("stratlearn-timeseries-v1");
    w.Key("interval_us").Value(options_.interval_us);
    w.Key("capacity").Value(static_cast<int64_t>(options_.capacity));
    w.Key("windows_closed").Value(next_index_);
    w.Key("windows_evicted").Value(evicted_);
    w.EndObject();
    out += w.Take();
    out += '\n';
  }
  for (const TimeSeriesWindow& window : windows_) {
    out += SerializeWindowJson(window);
    out += '\n';
  }
  return out;
}

std::string TimeSeriesCollector::SerializeWindowJson(
    const TimeSeriesWindow& window) {
  // Round-trip precision: the offline `health` pipeline re-derives
  // detector statistics from this file and must reproduce the online
  // run's decisions bit-for-bit.
  JsonWriter w(JsonWriter::kRoundTripDigits);
  {
    w.BeginObject();
    w.Key("window").Value(window.index);
    w.Key("start_us").Value(window.start_us);
    w.Key("end_us").Value(window.end_us);
    w.Key("counters").BeginObject();
    for (const auto& [name, total] : window.cumulative.counters) {
      auto delta = window.counter_deltas.find(name);
      int64_t d = delta == window.counter_deltas.end() ? 0 : delta->second;
      w.Key(name).BeginObject();
      w.Key("total").Value(total);
      w.Key("delta").Value(d);
      w.Key("rate_per_s").Value(window.Rate(d));
      w.EndObject();
    }
    w.EndObject();
    w.Key("gauges").BeginObject();
    for (const auto& [name, value] : window.cumulative.gauges) {
      w.Key(name).Value(value);
    }
    w.EndObject();
    w.Key("histograms").BeginObject();
    for (const auto& [name, delta] : window.histogram_deltas) {
      const HistogramSnapshot& total = window.cumulative.histograms.at(name);
      w.Key(name).BeginObject();
      w.Key("count_total").Value(total.count);
      w.Key("count_delta").Value(delta.count);
      w.Key("sum_total").Value(total.sum);
      w.Key("sum_delta").Value(delta.sum);
      w.Key("mean_delta").Value(delta.Mean());
      w.EndObject();
    }
    w.EndObject();
    w.Key("arcs").BeginArray();
    for (const ArcWindowStats& arc : window.arcs) {
      w.BeginObject();
      w.Key("arc").Value(static_cast<int64_t>(arc.arc));
      w.Key("attempts").Value(arc.attempts);
      w.Key("unblocked").Value(arc.unblocked);
      w.Key("cost").Value(arc.cost);
      w.Key("p_hat").Value(arc.PHat());
      w.Key("mean_cost").Value(arc.MeanCost());
      w.EndObject();
    }
    w.EndArray();
    // Health decisions only appear when a monitor attributed some to
    // this window, so series without monitoring serialize as before;
    // likewise certificate counts only appear on audit-enabled runs.
    if (window.certificates != 0) {
      w.Key("certificates").Value(window.certificates);
    }
    if (!window.drift.empty()) {
      w.Key("drift").BeginArray();
      for (const DriftEvent& e : window.drift) {
        w.BeginObject();
        WriteEventFields<kWindowDriftSkip>(w, e);
        w.EndObject();
      }
      w.EndArray();
    }
    if (!window.alerts.empty()) {
      w.Key("alerts").BeginArray();
      for (const AlertEvent& e : window.alerts) {
        w.BeginObject();
        WriteEventFields<kWindowAlertSkip>(w, e);
        w.EndObject();
      }
      w.EndArray();
    }
    w.EndObject();
  }
  return w.Take();
}

}  // namespace stratlearn::obs
