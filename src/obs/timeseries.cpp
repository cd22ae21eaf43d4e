#include "obs/timeseries.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "common/check.hpp"
#include "obs/metrics.hpp"

namespace pd::obs {

namespace {
/// Buckets per recorder series before pair-merge compaction kicks in.
constexpr std::size_t kSeriesCapacity = 512;
static_assert(FlightRecorder::kSamplePeriod > 0);
static_assert(kSeriesCapacity >= 2);
}  // namespace

FlightSeries::FlightSeries(std::size_t capacity) : capacity_(capacity) {
  PD_CHECK(capacity_ >= 2, "flight series needs >= 2 buckets");
}

void FlightSeries::record(sim::TimePoint t, double v) {
  ++total_;
  if (buckets_.empty() || buckets_.back().n >= merge_) {
    if (buckets_.size() == capacity_) compact();
    // After an odd-count compaction the tail bucket regains headroom
    // under the doubled budget; keep folding into it in that case.
    if (buckets_.empty() || buckets_.back().n >= merge_) {
      buckets_.push_back(FlightPoint{t, 0, v, v, 0.0});
    }
  }
  FlightPoint& b = buckets_.back();
  ++b.n;
  b.min = std::min(b.min, v);
  b.max = std::max(b.max, v);
  b.sum += v;
}

void FlightSeries::compact() {
  std::size_t w = 0;
  std::size_t i = 0;
  for (; i + 1 < buckets_.size(); i += 2) {
    FlightPoint m = buckets_[i];
    const FlightPoint& b = buckets_[i + 1];
    m.n += b.n;
    m.min = std::min(m.min, b.min);
    m.max = std::max(m.max, b.max);
    m.sum += b.sum;
    buckets_[w++] = m;
  }
  if (i < buckets_.size()) buckets_[w++] = buckets_[i];
  buckets_.resize(w);
  merge_ *= 2;
}

void FlightSeries::absorb(FlightSeries& other) {
  if (other.buckets_.empty()) {
    other.total_ = 0;
    return;
  }
  std::vector<FlightPoint> merged;
  merged.reserve(buckets_.size() + other.buckets_.size());
  std::size_t a = 0;
  std::size_t b = 0;
  while (a < buckets_.size() && b < other.buckets_.size()) {
    // Stable: this-first on equal timestamps, so merge order (shard
    // order) fully determines the result.
    if (other.buckets_[b].t0 < buckets_[a].t0) {
      merged.push_back(other.buckets_[b++]);
    } else {
      merged.push_back(buckets_[a++]);
    }
  }
  merged.insert(merged.end(), buckets_.begin() + static_cast<long>(a),
                buckets_.end());
  merged.insert(merged.end(), other.buckets_.begin() + static_cast<long>(b),
                other.buckets_.end());
  buckets_ = std::move(merged);
  merge_ = std::max(merge_, other.merge_);
  total_ += other.total_;
  other.buckets_.clear();
  other.total_ = 0;
  while (buckets_.size() > capacity_) compact();
}

double FlightSeries::peak() const {
  double p = 0.0;
  bool first = true;
  for (const FlightPoint& b : buckets_) {
    if (first || b.max > p) p = b.max;
    first = false;
  }
  return p;
}

double FlightSeries::last_mean() const {
  return buckets_.empty() ? 0.0 : buckets_.back().mean();
}

void FlightRecorder::probe(std::string_view name, std::string_view labels,
                           std::function<double()> fn) {
  PD_CHECK(fn != nullptr, "flight probe needs a callback");
  const std::string key = metric_key(name, labels);
  PD_CHECK(series_.find(key) == series_.end(),
           "flight series " << key << " already registered");
  auto [it, inserted] =
      series_.emplace(key, FlightSeries(kSeriesCapacity));
  (void)inserted;
  probes_.push_back(Probe{&it->second, std::move(fn)});
}

FlightSeries& FlightRecorder::series(std::string_view name,
                                     std::string_view labels) {
  const std::string key = metric_key(name, labels);
  auto it = series_.find(key);
  if (it == series_.end()) {
    it = series_.emplace(key, FlightSeries(kSeriesCapacity)).first;
  }
  return it->second;
}

const FlightSeries* FlightRecorder::find(std::string_view name,
                                         std::string_view labels) const {
  auto it = series_.find(metric_key(name, labels));
  return it == series_.end() ? nullptr : &it->second;
}

void FlightRecorder::start(sim::Scheduler& sched) {
  PD_CHECK(sched_ == nullptr, "flight recorder already started");
  sched_ = &sched;
  // First tick at the next period multiple: shard clocks may sit at
  // different points after setup, but each shard's clock is itself
  // deterministic, so the tick grid is too.
  const sim::TimePoint t0 =
      (sched.now() / kSamplePeriod + 1) * kSamplePeriod;
  pending_ = sched_->schedule_background_at(t0, [this] { tick(); });
}

void FlightRecorder::stop() {
  if (sched_ != nullptr && pending_ != sim::kInvalidEvent) {
    sched_->cancel(pending_);
  }
  pending_ = sim::kInvalidEvent;
  sched_ = nullptr;
}

void FlightRecorder::tick() {
  sample(sched_->now());
  pending_ =
      sched_->schedule_background_after(kSamplePeriod, [this] { tick(); });
}

void FlightRecorder::sample(sim::TimePoint t) {
  ++samples_;
  for (Probe& p : probes_) p.series->record(t, p.fn());
}

void FlightRecorder::merge_from(FlightRecorder& other) {
  other.stop();
  other.probes_.clear();
  for (auto& [key, s] : other.series_) {
    auto it = series_.find(key);
    if (it == series_.end()) {
      it = series_.emplace(key, FlightSeries(kSeriesCapacity)).first;
    }
    it->second.absorb(s);
  }
  other.series_.clear();
  samples_ += other.samples_;
  other.samples_ = 0;
}

double FlightRecorder::peak_over(std::string_view name) const {
  double p = 0.0;
  for (const auto& [key, s] : series_) {
    const std::string_view base =
        std::string_view(key).substr(0, key.find('{'));
    if (base == name) p = std::max(p, s.peak());
  }
  return p;
}

std::size_t FlightRecorder::memory_bytes() const {
  std::size_t total = 0;
  for (const auto& [key, s] : series_) {
    total += key.size() + s.memory_bytes() + sizeof(FlightSeries);
  }
  return total;
}

std::string FlightRecorder::to_json() const {
  std::string out = "{\n";
  out += "  \"sample_period_ns\": " + std::to_string(kSamplePeriod);
  out += ",\n  \"samples\": " + std::to_string(samples_);
  out += ",\n  \"series\": {";
  bool first = true;
  for (const auto& [key, s] : series_) {
    if (!first) out += ",";
    first = false;
    out += "\n    \"" + json_escape(key) + "\": {\"count\": " +
           std::to_string(s.total_samples()) +
           ", \"per_bucket\": " + std::to_string(s.samples_per_bucket()) +
           ", \"points\": [";
    bool pfirst = true;
    for (const FlightPoint& b : s.buckets()) {
      if (!pfirst) out += ",";
      pfirst = false;
      out += "[" + std::to_string(b.t0) + "," + std::to_string(b.n) + "," +
             fmt_double(b.min) + "," + fmt_double(b.max) + "," +
             fmt_double(b.mean()) + "]";
    }
    out += "]}";
  }
  out += "\n  }\n}\n";
  return out;
}

std::string FlightRecorder::to_csv() const {
  std::string out = "series,t_ns,samples,min,max,mean\n";
  for (const auto& [key, s] : series_) {
    const std::string field = csv_field(key);
    for (const FlightPoint& b : s.buckets()) {
      out += field + "," + std::to_string(b.t0) + "," + std::to_string(b.n) +
             "," + fmt_double(b.min) + "," + fmt_double(b.max) + "," +
             fmt_double(b.mean()) + "\n";
    }
  }
  return out;
}

void FlightRecorder::write_json(const std::string& path) const {
  std::ofstream f(path);
  PD_CHECK(f.good(), "cannot open " << path << " for writing");
  f << to_json();
}

void FlightRecorder::write_csv(const std::string& path) const {
  std::ofstream f(path);
  PD_CHECK(f.good(), "cannot open " << path << " for writing");
  f << to_csv();
}

std::string FlightRecorder::dashboard(std::string_view filter,
                                      std::size_t width) const {
  char head[160];
  std::snprintf(head, sizeof head,
                "flight recorder: %zu series, %llu samples @ %.3f ms, %.1f KiB\n",
                series_.size(),
                static_cast<unsigned long long>(samples_),
                sim::to_ms(kSamplePeriod),
                static_cast<double>(memory_bytes()) / 1024.0);
  std::string out = head;
  for (const auto& [key, s] : series_) {
    if (!filter.empty() && key.find(filter) == std::string::npos) continue;
    std::vector<double> maxima;
    maxima.reserve(s.buckets().size());
    for (const FlightPoint& b : s.buckets()) maxima.push_back(b.max);
    char line[256];
    std::snprintf(line, sizeof line, "  %-44s peak %-10.4g last %-10.4g |",
                  key.c_str(), s.peak(), s.last_mean());
    out += line;
    out += render_sparkline(maxima, width);
    out += "|\n";
  }
  return out;
}

std::string render_sparkline(const std::vector<double>& values,
                             std::size_t width) {
  // Pure ASCII so the dashboard renders identically in logs and dumb
  // terminals; index 0 is "empty column", 1 is "present but ~zero".
  static constexpr char kRamp[] = " .:-=+*#%@";
  static constexpr std::size_t kLevels = sizeof(kRamp) - 2;  // top index
  if (width == 0) return {};
  std::string out(width, ' ');
  if (values.empty()) return out;
  double vmax = values[0];
  for (double v : values) vmax = std::max(vmax, v);
  const std::size_t n = values.size();
  const std::size_t cols = std::min(width, n);
  for (std::size_t c = 0; c < cols; ++c) {
    // Column c aggregates values [c*n/cols, (c+1)*n/cols) by max.
    const std::size_t lo = c * n / cols;
    const std::size_t hi = std::max(lo + 1, (c + 1) * n / cols);
    double v = values[lo];
    for (std::size_t i = lo + 1; i < hi && i < n; ++i) {
      v = std::max(v, values[i]);
    }
    std::size_t level = 1;
    if (vmax > 0.0 && v > 0.0) {
      level = 1 + static_cast<std::size_t>(
                      std::ceil(v / vmax * static_cast<double>(kLevels - 1)));
      level = std::min(level, kLevels);
    }
    if (v == 0.0 && vmax > 0.0) level = 1;
    out[c] = kRamp[level];
  }
  return out;
}

}  // namespace pd::obs
