#!/usr/bin/env python3
"""Repository benchmark: build the library of this checkout and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/ (which compiles ../src from source) into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that variable is
unset, then runs the workload for S wall seconds.

--trace 0 (measured run): every instrument off; prints the end-to-end metrics.
--trace 1 (traced run): one measured pass, then a pass with shard tracing and
profiling on; prints the per-layer metrics, the tracing overhead, and writes
the benchmark's own spans next to the build.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics. Any invariant violation prints correct: false and exits 1.
See perfbench/README.md for the metrics and workloads.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# name -> (unit, where it comes from in a measured pass)
END_TO_END = {
    "setup_s": ("s", "wall"),
    "sim_req_per_wall_s": ("req/s", "wall"),
    "peak_rss_mib": ("MiB", "top"),
    "model_rps": ("req/sim-s", "modeled"),
    "p50_us": ("us", "modeled"),
    "p99_us": ("us", "modeled"),
    "secondary_p99_us": ("us", "modeled"),
    "ok_ratio": ("ratio", "modeled"),
    "slo_ok_ratio": ("ratio", "modeled"),
}

SETUP_PARTS = ["setup.build_s", "setup.deploy_s", "setup.ingress_s", "setup.connect_s"]
WALL_LAYERS = SETUP_PARTS + [
    "sim.wall_ns_per_event",
    "pdes.barrier_wait_share",
    "mem.rss_after_setup_mib",
    "mem.run_growth_mib",
]
CRIT_CLASSES = ["service", "queue", "transport", "rdma", "dma"]


def layer_units():
    """Unit of every per-layer metric, in the order they are reported."""
    units = {
        "sim.events_per_req": "count/req",
        "sim.wall_ns_per_event": "ns",
        "sim.events_per_sim_s": "1/sim-s",
        "pdes.epochs_per_sim_s": "1/sim-s",
        "pdes.skip_ahead_share": "ratio",
        "pdes.mailbox_msgs_per_req": "count/req",
        "pdes.barrier_wait_share": "ratio",
        "pdes.shard_events_max_over_mean": "ratio",
    }
    for part in SETUP_PARTS:
        units[part] = "s"
    units.update({
        "mem.rss_after_setup_mib": "MiB",
        "mem.run_growth_mib": "MiB",
        "mem.pool_footprint_mib": "MiB",
        "mem.pool_peak_use_ratio": "ratio",
        "core.tx_msgs_per_req": "count/req",
        "core.rx_msgs_per_req": "count/req",
        "core.engine_busy_share": "ratio",
        "core.tx_backlog_peak": "count",
        "core.retransmits": "count",
        "core.requests_shed": "count",
        "core.error_completions": "count",
        "rdma.wrs_per_req": "count/req",
        "rdma.payload_bytes_per_req": "B/req",
        "rdma.cache_miss_wr_share": "ratio",
        "rdma.rnr_events": "count",
        "conn.establishments": "count",
        "fn.invocations_per_req": "count/req",
        "fn.compute_us_per_req": "us/req",
        "cpu.host_busy_share": "ratio",
        "store.reads_per_req": "count/req",
        "store.updates_per_req": "count/req",
        "store.cas_conflict_ratio": "ratio",
        "store.fallbacks": "count",
        "store.errors": "count",
        "fabric.frames_per_req": "count/req",
        "fabric.frames_dropped": "count",
        "dpu.dma_transfers_per_req": "count/req",
        "dpu.dma_bytes_per_req": "B/req",
        "ingress.retries": "count",
        "ingress.timeouts": "count",
        "ingress.bad_gateway": "count",
        "ingress.pending_peak": "count",
        "ingress.workers": "count",
        "workload.sent": "count",
        "workload.completed": "count",
        "workload.errors": "count",
        "workload.refused": "count",
        "workload.duplicates": "count",
    })
    for q in ("p50", "p99"):
        for cls in CRIT_CLASSES:
            units["crit.%s.%s_us" % (q, cls)] = "us"
        units["crit.%s_us" % q] = "us"
    units["obs.trace_overhead"] = "ratio"
    units["obs.trace_rss_mib"] = "MiB"
    return units


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out_dir):
    """Configure and build the benchmark (both no-ops when up to date);
    output goes to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", HERE, "-B", out_dir, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", out_dir, "-j", jobs, "--target", "perfbench_run"]]
    for cmd in steps:
        if subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr) != 0:
            raise RuntimeError("build failed: " + " ".join(cmd))
    return os.path.join(out_dir, "perfbench_run")


def run_pass(binary, args, traced, spans_path=None):
    """Run one pass of the workload binary and return its parsed JSON line."""
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    if traced:
        cmd.append("--traced")
        if spans_path:
            cmd += ["--spans", spans_path]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("workload printed no result (exit %d)" % proc.returncode)
    result = json.loads(lines[-1])
    result["exit_code"] = proc.returncode
    return result


def pass_problems(res, label):
    problems = ["%s: %s" % (label, v) for v in res["violations"]]
    if res["exit_code"] != 0 and not problems:
        problems.append("%s: exit code %d" % (label, res["exit_code"]))
    return problems


def end_to_end(res):
    metrics = {}
    for name, (unit, src) in END_TO_END.items():
        value = res[name] if src == "top" else res[src][name]
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def per_layer(base, traced):
    """Per-layer metrics: counts and wall figures from the measured pass,
    the critical-path breakdown and tracing cost from the traced pass."""
    values = dict(base["counts"])
    for name in WALL_LAYERS:
        values[name] = base["wall"][name]
    values.update(traced["crit"])
    untraced_rate = base["wall"]["sim_req_per_wall_s"]
    values["obs.trace_overhead"] = (
        1.0 - traced["wall"]["sim_req_per_wall_s"] / untraced_rate if untraced_rate else 0.0)
    values["obs.trace_rss_mib"] = traced["peak_rss_mib"] - base["peak_rss_mib"]
    return {name: {"value": values[name], "unit": unit}
            for name, unit in layer_units().items()}


def traced_problems(base, traced):
    problems = []
    # The tracer promises never to perturb the simulation: the traced pass
    # must reproduce the measured pass's modeled results bit for bit.
    for section in ("modeled", "counts"):
        if base[section] != traced[section]:
            diff = sorted(k for k in base[section]
                          if base[section][k] != traced[section].get(k))
            problems.append("traced %s differ from the measured pass: %s"
                            % (section, ", ".join(diff)))
    parts = sum(base["wall"][p] for p in SETUP_PARTS)
    setup = base["wall"]["setup_s"]
    if abs(parts - setup) > 0.05 * setup:
        problems.append("setup parts sum to %.6f s, setup_s is %.6f s" % (parts, setup))
    return problems


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["shop_2node", "tenants_dwrr", "scale_32node"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1 or args.seed < 0:
        ap.error("--seconds must be >= 1 and --seed >= 0")

    out_dir = build_dir()
    binary = build(out_dir)

    base = run_pass(binary, args, traced=False)
    problems = pass_problems(base, "measured")
    if args.trace == 0:
        metrics = end_to_end(base)
    else:
        spans = os.path.join(out_dir, "spans_%s_%d.json" % (args.workload, args.seed))
        traced = run_pass(binary, args, traced=True, spans_path=spans)
        problems += pass_problems(traced, "traced")
        problems += traced_problems(base, traced)
        metrics = per_layer(base, traced) if not problems else {}
        log("benchmark spans written to " + spans)
    for p in problems:
        log("VIOLATION " + p)
    print(json.dumps({"correct": not problems, "attempted": base["attempted"],
                      "failed": base["failed"], "metrics": metrics}))
    return 0 if not problems else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, OSError, ValueError, KeyError,
            subprocess.TimeoutExpired) as e:
        log("error: %s" % e)
        sys.exit(2)
