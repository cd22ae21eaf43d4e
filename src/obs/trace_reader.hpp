// Reader for the Chrome trace-event JSON written by obs::Tracer.
//
// Shared by the end-to-end tracing test (which asserts span nesting and hop
// order on a parsed trace) and the tools/trace_inspect CLI. The document is
// parsed by obs::json_parse (runcompare.hpp), the one JSON parser in obs;
// this layer only walks the "traceEvents" array.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace pd::obs {

/// One ph:"X" slice from the export, times converted back to nanoseconds.
struct ReadSpan {
  std::string name;
  std::string track;  // resolved from thread_name metadata
  std::uint64_t trace_id = 0;
  std::uint32_t span_id = 0;
  std::uint32_t parent_id = 0;
  std::int64_t begin_ns = 0;
  std::int64_t dur_ns = 0;

  [[nodiscard]] std::int64_t end_ns() const { return begin_ns + dur_ns; }
};

/// Parse a Chrome trace-event JSON document. Throws pd::CheckFailure on
/// malformed input. Metadata (ph:"M") events are consumed to resolve track
/// names; only ph:"X" slices are returned, in document order.
std::vector<ReadSpan> read_chrome_trace(const std::string& json);

/// Convenience: read and parse a trace file.
std::vector<ReadSpan> read_chrome_trace_file(const std::string& path);

}  // namespace pd::obs
