#include "obs/metrics.hpp"

#include <cmath>
#include <cstdio>
#include <fstream>

#include "common/check.hpp"

namespace pd::obs {

std::string fmt_double(double v) {
  if (std::isnan(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

std::string csv_field(std::string_view s) {
  if (s.find_first_of(",\"\n") == std::string_view::npos) {
    return std::string(s);
  }
  std::string out = "\"";
  for (char c : s) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

std::vector<std::string> parse_csv_line(std::string_view line) {
  std::vector<std::string> fields;
  std::string cur;
  bool quoted = false;
  for (std::size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (quoted) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          cur += '"';
          ++i;
        } else {
          quoted = false;
        }
      } else {
        cur += c;
      }
    } else if (c == '"' && cur.empty()) {
      quoted = true;
    } else if (c == ',') {
      fields.push_back(std::move(cur));
      cur.clear();
    } else {
      cur += c;
    }
  }
  fields.push_back(std::move(cur));
  return fields;
}

namespace {

void append_histogram_json(std::string& out, const sim::LatencyHistogram& h) {
  out += "{\"count\":" + std::to_string(h.count());
  out += ",\"min_ns\":" + std::to_string(h.min());
  out += ",\"max_ns\":" + std::to_string(h.max());
  out += ",\"mean_ns\":" + fmt_double(h.mean_ns());
  out += ",\"p50_ns\":" + std::to_string(h.quantile(0.5));
  out += ",\"p90_ns\":" + std::to_string(h.quantile(0.9));
  out += ",\"p99_ns\":" + std::to_string(h.quantile(0.99));
  out += ",\"p999_ns\":" + std::to_string(h.quantile(0.999));
  out += "}";
}

}  // namespace

std::string metric_key(std::string_view name, std::string_view labels) {
  PD_CHECK(!name.empty(), "metric needs a name");
  if (labels.empty()) return std::string(name);
  std::string key(name);
  key += '{';
  key += labels;
  key += '}';
  return key;
}

Registry::Instrument& Registry::at_or_create(std::string_view name,
                                             std::string_view labels) {
  return instruments_[metric_key(name, labels)];
}

Counter& Registry::counter(std::string_view name, std::string_view labels) {
  Instrument& i = at_or_create(name, labels);
  PD_CHECK(!i.gauge && !i.histogram,
           "metric " << metric_key(name, labels) << " is not a counter");
  if (!i.counter) i.counter = std::make_unique<Counter>();
  return *i.counter;
}

Gauge& Registry::gauge(std::string_view name, std::string_view labels) {
  Instrument& i = at_or_create(name, labels);
  PD_CHECK(!i.counter && !i.histogram,
           "metric " << metric_key(name, labels) << " is not a gauge");
  if (!i.gauge) i.gauge = std::make_unique<Gauge>();
  return *i.gauge;
}

Histogram& Registry::histogram(std::string_view name, std::string_view labels) {
  Instrument& i = at_or_create(name, labels);
  PD_CHECK(!i.counter && !i.gauge,
           "metric " << metric_key(name, labels) << " is not a histogram");
  if (!i.histogram) i.histogram = std::make_unique<Histogram>();
  return *i.histogram;
}

bool Registry::has(std::string_view name, std::string_view labels) const {
  return instruments_.find(metric_key(name, labels)) != instruments_.end();
}

const Counter& Registry::counter_at(std::string_view name,
                                    std::string_view labels) const {
  auto it = instruments_.find(metric_key(name, labels));
  PD_CHECK(it != instruments_.end() && it->second.counter,
           "no counter " << metric_key(name, labels));
  return *it->second.counter;
}

const Histogram& Registry::histogram_at(std::string_view name,
                                        std::string_view labels) const {
  auto it = instruments_.find(metric_key(name, labels));
  PD_CHECK(it != instruments_.end() && it->second.histogram,
           "no histogram " << metric_key(name, labels));
  return *it->second.histogram;
}

void Registry::reset() { instruments_.clear(); }

void Registry::merge_from(const Registry& other) {
  for (const auto& [key, inst] : other.instruments_) {
    // Split the canonical key back into (name, labels).
    std::string_view name = key;
    std::string_view labels;
    if (const auto brace = key.find('{'); brace != std::string::npos) {
      name = std::string_view(key).substr(0, brace);
      labels = std::string_view(key).substr(brace + 1,
                                            key.size() - brace - 2);
    }
    if (inst.counter) {
      counter(name, labels).inc(inst.counter->value());
    } else if (inst.gauge) {
      gauge(name, labels).add(inst.gauge->value());
    } else if (inst.histogram) {
      histogram(name, labels).merge(*inst.histogram);
    }
  }
}

std::string Registry::to_json() const {
  std::string out = "{\n";
  bool first = true;
  for (const auto& [key, inst] : instruments_) {
    if (!first) out += ",\n";
    first = false;
    out += "  \"" + json_escape(key) + "\": ";
    if (inst.counter) {
      out += std::to_string(inst.counter->value());
    } else if (inst.gauge) {
      out += fmt_double(inst.gauge->value());
    } else if (inst.histogram) {
      append_histogram_json(out, inst.histogram->hist());
    } else {
      out += "null";
    }
  }
  out += "\n}\n";
  return out;
}

std::string Registry::to_csv() const {
  std::string out = "key,kind,count,min_ns,max_ns,mean,p50_ns,p90_ns,p99_ns,p999_ns\n";
  for (const auto& [key, inst] : instruments_) {
    // Keys carry caller-supplied labels; quote so a comma inside
    // `{a=1,b=2}` cannot shift the remaining columns.
    out += csv_field(key);
    if (inst.counter) {
      out += ",counter,,,," + std::to_string(inst.counter->value()) + ",,,,";
    } else if (inst.gauge) {
      out += ",gauge,,,," + fmt_double(inst.gauge->value()) + ",,,,";
    } else if (inst.histogram) {
      const auto& h = inst.histogram->hist();
      out += ",histogram," + std::to_string(h.count()) + "," +
             std::to_string(h.min()) + "," + std::to_string(h.max()) + "," +
             fmt_double(h.mean_ns()) + "," + std::to_string(h.quantile(0.5)) +
             "," + std::to_string(h.quantile(0.9)) + "," +
             std::to_string(h.quantile(0.99)) + "," +
             std::to_string(h.quantile(0.999));
    }
    out += "\n";
  }
  return out;
}

void Registry::write_json(const std::string& path) const {
  std::ofstream f(path);
  PD_CHECK(f.good(), "cannot open " << path << " for writing");
  f << to_json();
}

void Registry::write_csv(const std::string& path) const {
  std::ofstream f(path);
  PD_CHECK(f.good(), "cannot open " << path << " for writing");
  f << to_csv();
}

}  // namespace pd::obs
