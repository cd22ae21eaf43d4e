// perfbench_run: repeat one workload for a wall-clock budget and print one
// JSON line with its modeled metrics, per-layer counts, wall-clock medians
// and any invariant violations. run.py drives it; see README.md.
//
//   perfbench_run --workload NAME --seed N --seconds S [--traced]
//                 [--spans FILE]
//
// Every repetition rebuilds the cluster with the same seed, so modeled
// results must agree bit for bit across repetitions; only wall clock
// varies, and the wall figures are reported as best-of-repetitions.
#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <iostream>
#include <string>

#include "stats.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

constexpr int kMinReps = 3;

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string str(const std::string& s) { return "\"" + s + "\""; }

std::string object(const std::map<std::string, double>& m) {
  std::string out = "{";
  for (const auto& [k, v] : m) {
    out += (out.size() > 1 ? ", " : "") + str(k) + ": " + num(v);
  }
  return out + "}";
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

/// Pin the calling thread to the `i`-th CPU it may run on (round robin).
void pin_to_nth_cpu(const cpu_set_t& allowed, int i) {
  const int n = CPU_COUNT(&allowed);
  int seen = 0;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    if (seen++ == i % n) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      sched_setaffinity(0, sizeof one, &one);
      return;
    }
  }
}

int usage() {
  std::cerr << "usage: perfbench_run --workload NAME --seed N --seconds S "
               "[--traced] [--spans FILE]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  double seconds = 0;
  std::string spans_path;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const auto arg = [&] { return i + 1 < argc ? argv[++i] : nullptr; };
    if (std::strcmp(argv[i], "--workload") == 0) {
      const char* v = arg();
      if (v == nullptr) return usage();
      opts.workload = v;
    } else if (std::strcmp(argv[i], "--seed") == 0) {
      const char* v = arg();
      if (v == nullptr) return usage();
      opts.seed = std::strtoull(v, nullptr, 10);
      have_seed = true;
    } else if (std::strcmp(argv[i], "--seconds") == 0) {
      const char* v = arg();
      if (v == nullptr) return usage();
      seconds = std::strtod(v, nullptr);
    } else if (std::strcmp(argv[i], "--traced") == 0) {
      opts.traced = true;
    } else if (std::strcmp(argv[i], "--spans") == 0) {
      const char* v = arg();
      if (v == nullptr) return usage();
      spans_path = v;
    } else {
      return usage();
    }
  }
  bool known = false;
  for (const auto& n : workload_names()) known = known || n == opts.workload;
  if (!known || !have_seed || !(seconds > 0)) return usage();

  // A fixed mmap threshold turns off glibc's adaptive one, which otherwise
  // lets later repetitions reuse the first one's freed, already-faulted
  // pages: every repetition then pays the same page-fault cost in setup.
  mallopt(M_MMAP_THRESHOLD, 256 * 1024);

  // Repetitions of a single-threaded workload rotate over the CPUs the
  // process may use. On a shared host one CPU can run a third slower than
  // another for minutes at a time (a busy sibling hyperthread); with the
  // best-of-repetitions rule below, rotation keeps a run from being stuck
  // on the slow one.
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  const bool rotate = workload_threads(opts.workload) == 1 &&
                      sched_getaffinity(0, sizeof allowed, &allowed) == 0 &&
                      CPU_COUNT(&allowed) > 1;

  SpanLog spans;
  SpanLog* span_log = opts.traced ? &spans : nullptr;
  const auto start = std::chrono::steady_clock::now();
  const auto budget = std::chrono::duration<double>(seconds);

  RepResult first;
  std::map<std::string, std::vector<double>> wall;
  std::vector<std::vector<double>> slices;  // per rep, window slice seconds
  std::vector<std::string> violations;
  int reps = 0;
  while (reps < kMinReps || std::chrono::steady_clock::now() - start < budget) {
    if (rotate) pin_to_nth_cpu(allowed, reps);
    RepResult r;
    try {
      r = run_rep(opts, span_log);
    } catch (const std::exception& e) {
      std::cerr << "perfbench_run: " << opts.workload << " failed: " << e.what()
                << "\n";
      return 1;
    }
    for (const auto& v : r.violations) {
      violations.push_back("rep " + std::to_string(reps) + ": " + v);
    }
    if (reps == 0) {
      first = r;
    } else if (r.modeled != first.modeled || r.counts != first.counts ||
               r.crit != first.crit) {
      violations.push_back("rep " + std::to_string(reps) +
                           ": modeled results differ from rep 0 "
                           "(the simulation is not deterministic)");
    }
    for (const auto& [k, v] : r.wall) wall[k].push_back(v);
    slices.push_back(std::move(r.window_slice_s));
    ++reps;
    if (!violations.empty()) break;
  }
  if (span_log != nullptr) {
    if (spans.open_spans() != 0) {
      violations.push_back("benchmark spans left open: " +
                           std::to_string(spans.open_spans()));
    }
    if (!spans_path.empty()) {
      std::ofstream out(spans_path);
      out << spans.to_json();
      if (!out) violations.push_back("cannot write spans to " + spans_path);
    }
  }

  // Wall figures are best-of-repetitions: a shared host only ever slows a
  // repetition down (a noisy neighbour, a busy sibling hyperthread), so the
  // fastest is the steadiest estimate of the program's own speed. Times are
  // taken piece by piece: every repetition simulates the same window slices
  // and runs the same setup steps, so each slice and each setup step counts
  // at its fastest, and a stall that hit one repetition for a few slices
  // costs nothing. setup_s is the sum of its fastest parts. The barrier
  // share comes from the fastest repetition; memory figures are medians.
  const auto best = [&](const char* key, bool highest) {
    const std::vector<double>& v = wall[key];
    std::size_t at = 0;
    for (std::size_t i = 1; i < v.size(); ++i) {
      if (highest ? v[i] > v[at] : v[i] < v[at]) at = i;
    }
    return at;
  };
  std::map<std::string, double> wall_report;
  for (const auto& [k, v] : wall) wall_report[k] = median(v);
  const double window_s = sum_of_minima(slices);
  if (!(window_s > 0)) {
    violations.push_back("repetitions ran different window slices");
  }
  wall_report["sim_req_per_wall_s"] =
      ratio(static_cast<double>(first.window_requests), window_s);
  wall_report["sim.wall_ns_per_event"] =
      ratio(window_s * 1e9, static_cast<double>(first.window_events));
  const std::size_t fastest = best("sim_req_per_wall_s", true);
  wall_report["pdes.barrier_wait_share"] =
      wall["pdes.barrier_wait_share"][fastest];
  double setup_s = 0;
  for (const char* k : {"setup.build_s", "setup.deploy_s", "setup.ingress_s",
                        "setup.connect_s"}) {
    wall_report[k] = wall[k][best(k, false)];
    setup_s += wall_report[k];
  }
  wall_report["setup_s"] = setup_s;
  std::string viol = "[";
  for (std::size_t i = 0; i < violations.size(); ++i) {
    std::string v = violations[i];
    for (char& c : v) c = c == '"' || c == '\\' ? '\'' : c;
    viol += (i > 0 ? ", " : "") + str(v);
  }
  viol += "]";

  std::cout << "{\"workload\": " << str(opts.workload)
            << ", \"seed\": " << opts.seed
            << ", \"traced\": " << (opts.traced ? "true" : "false")
            << ", \"reps\": " << reps << ", \"attempted\": " << first.attempted
            << ", \"failed\": " << first.failed
            << ", \"peak_rss_mib\": " << num(peak_rss_mib())
            << ", \"modeled\": " << object(first.modeled)
            << ", \"counts\": " << object(first.counts)
            << ", \"crit\": " << object(first.crit)
            << ", \"wall\": " << object(wall_report)
            << ", \"violations\": " << viol << "}" << std::endl;
  return violations.empty() ? 0 : 1;
}
