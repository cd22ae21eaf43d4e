// Structural run comparison (ISSUE 6 tentpole, half 2).
//
// Every obs artifact — metrics.json, critpath.json, slo reports, the
// flight recorder's timeseries.json, the ledger, the fig16 --scale JSON —
// is plain JSON produced deterministically from simulated time. This
// module parses two such files, flattens them into dotted key paths
// (`results[0].sim_p50_ms`, `series.engine.tx_backlog{node=1}.points[3][2]`),
// and diffs the leaves under configurable absolute/relative thresholds,
// so a bench regression gates on the artifact itself instead of a
// human eyeball. tools/report_diff is the CLI; tools/run_all.sh wires it
// into the golden gates. json_parse is also the parser under
// obs::read_chrome_trace.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace pd::obs {

/// Minimal JSON document value (objects preserve member order).
struct JsonValue {
  enum class Kind : std::uint8_t {
    kNull,
    kBool,
    kNumber,
    kString,
    kObject,
    kArray
  };

  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<std::pair<std::string, JsonValue>> members;  ///< kObject
  std::vector<JsonValue> elements;                         ///< kArray

  /// First member with `key`, or nullptr (objects only).
  [[nodiscard]] const JsonValue* find(std::string_view key) const;
};

/// Parse a complete JSON document; throws CheckFailure on malformed
/// input (with byte offset). Handles the constructs our exporters emit
/// plus \uXXXX escapes.
JsonValue json_parse(std::string_view text);
JsonValue json_parse_file(const std::string& path);

/// One scalar leaf of a flattened document.
struct FlatValue {
  bool is_number = false;
  double number = 0.0;
  std::string text;  ///< canonical form for strings/bools/null
};

/// Flatten to dotted leaf paths: object members join with '.', array
/// elements append "[i]". Deterministic for deterministic input.
std::map<std::string, FlatValue> flatten_json(const JsonValue& v);

struct DiffOptions {
  /// A numeric difference passes when |a-b| <= abs_tol OR the relative
  /// difference (against max(|a|,|b|)) <= rel_tol. Defaults require
  /// exact equality.
  double abs_tol = 0.0;
  double rel_tol = 0.0;
  /// Keys containing any of these substrings are skipped.
  std::vector<std::string> ignore;
  /// When non-empty, only keys containing one of these are compared.
  std::vector<std::string> only;
};

struct DiffFinding {
  std::string key;
  std::string detail;      ///< human-readable "a -> b" or structural note
  double delta_abs = 0.0;  ///< 0 for structural findings
  double delta_rel = 0.0;
};

struct DiffReport {
  std::size_t compared = 0;  ///< leaves examined after filtering
  std::vector<DiffFinding> findings;

  [[nodiscard]] bool clean() const { return findings.empty(); }
  /// Findings sorted by relative delta (structural first), at most
  /// `max_lines` rows plus a summary line.
  [[nodiscard]] std::string format(std::size_t max_lines = 40) const;
};

/// Compare baseline `a` against candidate `b`. Missing or extra keys are
/// structural findings; numeric leaves compare under the thresholds;
/// non-numeric leaves must match exactly.
DiffReport diff_runs(const JsonValue& a, const JsonValue& b,
                     const DiffOptions& opt);

}  // namespace pd::obs
