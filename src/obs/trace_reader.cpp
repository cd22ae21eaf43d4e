#include "obs/trace_reader.hpp"

#include <cmath>
#include <map>

#include "common/check.hpp"
#include "obs/runcompare.hpp"

namespace pd::obs {
namespace {

std::int64_t round_ns(double us) {
  return static_cast<std::int64_t>(std::llround(us * 1e3));
}

/// Member `key` of `obj` as a string ("" when absent or not a string).
std::string str_at(const JsonValue* obj, std::string_view key) {
  const JsonValue* v = obj != nullptr ? obj->find(key) : nullptr;
  return v != nullptr && v->kind == JsonValue::Kind::kString ? v->string : "";
}

/// Member `key` of `obj` as a number (0 when absent or not a number).
double num_at(const JsonValue* obj, std::string_view key) {
  const JsonValue* v = obj != nullptr ? obj->find(key) : nullptr;
  return v != nullptr && v->kind == JsonValue::Kind::kNumber ? v->number : 0.0;
}

/// The ph:"X" slices of a parsed trace, tracks resolved from the ph:"M"
/// thread_name metadata that precedes them.
std::vector<ReadSpan> spans_of(const JsonValue& doc) {
  const JsonValue* events = doc.find("traceEvents");
  PD_CHECK(events != nullptr && events->kind == JsonValue::Kind::kArray,
           "trace JSON has no traceEvents array");

  std::map<int, std::string> tid_names;
  std::vector<ReadSpan> spans;
  for (const JsonValue& ev : events->elements) {
    PD_CHECK(ev.kind == JsonValue::Kind::kObject,
             "traceEvents entry is not an object");
    const std::string ph = str_at(&ev, "ph");
    const int tid = static_cast<int>(num_at(&ev, "tid"));
    const JsonValue* a = ev.find("args");
    if (ph == "M" && str_at(&ev, "name") == "thread_name") {
      tid_names[tid] = str_at(a, "name");
    } else if (ph == "X") {
      ReadSpan s;
      s.name = str_at(&ev, "name");
      auto it = tid_names.find(tid);
      s.track = it != tid_names.end() ? it->second : std::to_string(tid);
      s.begin_ns = round_ns(num_at(&ev, "ts"));
      s.dur_ns = round_ns(num_at(&ev, "dur"));
      s.trace_id = static_cast<std::uint64_t>(num_at(a, "trace_id"));
      s.span_id = static_cast<std::uint32_t>(num_at(a, "span_id"));
      s.parent_id = static_cast<std::uint32_t>(num_at(a, "parent_id"));
      spans.push_back(std::move(s));
    }
  }
  return spans;
}

}  // namespace

std::vector<ReadSpan> read_chrome_trace(const std::string& json) {
  return spans_of(json_parse(json));
}

std::vector<ReadSpan> read_chrome_trace_file(const std::string& path) {
  return spans_of(json_parse_file(path));
}

}  // namespace pd::obs
