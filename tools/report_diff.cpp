// Structurally compare two observability/bench JSON artifacts.
//
//   $ tools/report_diff baseline.json candidate.json
//   $ tools/report_diff a.json b.json --rel 0.01 --only sim_
//   $ tools/report_diff a.json b.json --abs 5 --ignore wall_ --ignore rss
//
// Both files are flattened to dotted leaf paths and every leaf compared:
// missing/extra keys and type changes are always regressions; numeric
// leaves pass when the difference is within --abs OR --rel; strings must
// match exactly. Exit 0 when clean, 1 on any regression, 2 on usage/IO
// errors — so run_all.sh can gate on artifacts directly. Works on any of
// our exports: metrics.json, critpath.json, timeseries.json, SLO reports,
// ledger.json, fig16_boutique --scale --json.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "obs/runcompare.hpp"

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s <baseline.json> <candidate.json>\n"
               "          [--abs X] [--rel X] [--ignore SUBSTR]...\n"
               "          [--only SUBSTR]... [--max-print N] [--quiet]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const char* path_a = nullptr;
  const char* path_b = nullptr;
  pd::obs::DiffOptions opt;
  std::size_t max_print = 40;
  bool quiet = false;

  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) return nullptr;
      return argv[++i];
    };
    if (std::strcmp(arg, "--abs") == 0) {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      opt.abs_tol = std::strtod(v, nullptr);
    } else if (std::strcmp(arg, "--rel") == 0) {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      opt.rel_tol = std::strtod(v, nullptr);
    } else if (std::strcmp(arg, "--ignore") == 0) {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      opt.ignore.emplace_back(v);
    } else if (std::strcmp(arg, "--only") == 0) {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      opt.only.emplace_back(v);
    } else if (std::strcmp(arg, "--max-print") == 0) {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      max_print = static_cast<std::size_t>(std::strtoul(v, nullptr, 10));
    } else if (std::strcmp(arg, "--quiet") == 0) {
      quiet = true;
    } else if (arg[0] == '-') {
      return usage(argv[0]);
    } else if (path_a == nullptr) {
      path_a = arg;
    } else if (path_b == nullptr) {
      path_b = arg;
    } else {
      return usage(argv[0]);
    }
  }
  if (path_a == nullptr || path_b == nullptr) return usage(argv[0]);

  pd::obs::JsonValue a;
  pd::obs::JsonValue b;
  try {
    a = pd::obs::json_parse_file(path_a);
    b = pd::obs::json_parse_file(path_b);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "report_diff: %s\n", e.what());
    return 2;
  }

  const pd::obs::DiffReport report = pd::obs::diff_runs(a, b, opt);
  if (report.clean()) {
    if (!quiet) {
      std::printf("report_diff: OK — %zu leaves match (%s vs %s)\n",
                  report.compared, path_a, path_b);
    }
    return 0;
  }
  std::printf("report_diff: REGRESSION — %s vs %s\n", path_a, path_b);
  std::fputs(report.format(max_print).c_str(), stdout);
  return 1;
}
