#!/bin/sh
# Full verification run: build, tests, every figure bench. Produces
# test_output.txt and bench_output.txt at the repo root. Every build
# configures with -DPALLADIUM_WERROR=ON, so any compiler warning fails it.
#
# Modes:
#   tools/run_all.sh         build + tier-1 tests + all benches
#   tools/run_all.sh asan    build with -DPD_SANITIZE=address,undefined into
#                            build-asan/ and run the tier-1 tests under
#                            ASan/UBSan, one ctest job per CPU (no benches;
#                            sanitized runs are slow)
#   tools/run_all.sh chaos   build, run the chaos-labeled ctest suite, then
#                            sweep 10 fault-plan seeds through the boutique
#                            demo; fails if any seed loses a request, if
#                            seed 5's stdout differs from the committed
#                            golden, or if cmp passes a perturbed copy
#   tools/run_all.sh tsan    build with -DPD_SANITIZE=thread into build-tsan/
#                            and smoke the parallel epoch-barrier loop (the
#                            pdes determinism suite + a tiny threaded
#                            fig16_boutique --scale point) under
#                            ThreadSanitizer
#   tools/run_all.sh overload  build, run the overload-labeled ctest suite
#                            (admission/autoscaler units + the scenario
#                            acceptance tests), then sweep all four overload
#                            scenarios (control off AND on) at --threads
#                            1/2/4 into overload_report/; fails if the
#                            per-tenant SLO artifacts differ across thread
#                            counts, drift from the committed golden, or if
#                            report_diff passes a perturbed artifact
#   tools/run_all.sh ledger  build, run the ledger-labeled ctest suite
#                            (blame conservation + merge/thread identity +
#                            the blame-policy acceptance tests), then sweep
#                            the noisy_neighbor scenario (control off AND
#                            on, --policy blame) at --threads 1/2/4 into
#                            ledger_report/; fails if the SLO or ledger
#                            artifacts differ across thread counts, drift
#                            from the committed golden, or if report_diff
#                            passes a perturbed artifact
#   tools/run_all.sh cartstore  build, run the onesided-labeled ctest suite
#                            (one-sided verb semantics + cart-store accept-
#                            ance), then sweep the RPC-vs-one-sided-READ cart
#                            ablation at --threads 1/2/4 into cart_report/;
#                            fails if the artifacts differ across thread
#                            counts, drift from the committed golden, or if
#                            report_diff passes a perturbed artifact
#   tools/run_all.sh scale   build, run the pdes-labeled ctest suite (which
#                            includes the 32-node leaf-sharded determinism
#                            tests), then the fig16_boutique --scale point
#                            (128 clients) at --threads 1/2/4 into
#                            scale_report/; fails if the model leaves (sim
#                            latencies, events, requests, cross-shard posts)
#                            differ across thread counts, the epoch counters
#                            differ between --threads 2 and 4, the --threads
#                            2 run drifts from the committed golden, or if
#                            report_diff passes a perturbed artifact; then a
#                            64-worker point (256 clients) at --threads 1/4
#                            whose deterministic leaves must match
#   tools/run_all.sh obs     build, run the obs-report + obs-ts ctest labels,
#                            then an observability boutique sweep: critical-
#                            path + flamegraph + SLO + flight-recorder
#                            timeline artifacts into obs_report/, byte-
#                            compared across --threads 1/2/4; the flame
#                            graph is cmp'd and the timeline and metrics
#                            snapshot are diffed (report_diff) against
#                            their committed goldens
set -e
cd "$(dirname "$0")/.."

# Every build and the sanitized test run use one job per CPU. The count is
# explicit: a bare --parallel under Unix Makefiles (the generator the tier-1
# command configures build/ with) means `make -j` with no limit.
jobs=$(nproc)

# gate LOG CMD...: run CMD, show its output and append it to LOG; a
# non-zero exit fails the mode. /bin/sh is dash, which has no pipefail, so
# a plain `CMD | tee LOG` would report tee's status and hide CMD's failure:
# the status travels through a file instead and is checked directly.
gate() {
  log=$1
  shift
  { if "$@"; then st=0; else st=$?; fi; echo "$st" > "$log.status"; } 2>&1 \
    | tee -a "$log"
  st=$(cat "$log.status")
  rm -f "$log.status"
  if [ "$st" -ne 0 ]; then
    echo "FAILED (exit $st): $*" >&2
    exit 1
  fi
}

# configure DIR [ARGS...]: configure DIR with warnings as errors plus ARGS.
# Ninja is asked for only when DIR has no CMakeCache.txt yet: CMake refuses
# to switch the generator of a configured tree, and the tier-1 command
# (`cmake -B build -S .`) configures build/ with the default generator.
configure() {
  dir=$1
  shift
  if [ -f "$dir/CMakeCache.txt" ]; then
    cmake -B "$dir" -DPALLADIUM_WERROR=ON "$@"
  else
    cmake -B "$dir" -G Ninja -DPALLADIUM_WERROR=ON "$@"
  fi
}

if [ "$1" = "chaos" ]; then
  configure build
  cmake --build build --parallel "$jobs"
  : > chaos_output.txt
  gate chaos_output.txt ctest --test-dir build -L chaos --output-on-failure
  rm -rf chaos_report && mkdir -p chaos_report
  # chaos_seed SEED: one seeded run, its stdout kept in chaos_report/.
  chaos_seed() {
    if ./build/examples/boutique_demo --chaos "$1" \
        > "chaos_report/seed$1.txt"; then st=0; else st=$?; fi
    cat "chaos_report/seed$1.txt"
    return "$st"
  }
  for seed in 1 2 3 4 5 6 7 8 9 10; do
    echo "=== boutique_demo --chaos $seed ===" | tee -a chaos_output.txt
    gate chaos_output.txt chaos_seed "$seed"
  done
  if grep -q "LOST REQUESTS" chaos_output.txt; then
    echo "chaos sweep FAILED: a seed lost requests silently" >&2
    exit 1
  fi
  # Golden gate: seed 5's stdout is simulated time only, so its retransmit,
  # pool-rebuild and error counts must match the committed golden byte for
  # byte; any drift means the reliability layer changed.
  gate chaos_output.txt cmp tools/golden/chaos_seed5.txt chaos_report/seed5.txt
  # ...and the gate must fail loudly on a copy with one count changed.
  sed 's/\([0-9][0-9]*\) retransmits/9\1 retransmits/' chaos_report/seed5.txt \
    > chaos_report/perturbed.txt
  if cmp -s tools/golden/chaos_seed5.txt chaos_report/perturbed.txt; then
    echo "chaos sweep FAILED: perturbed copy matched the golden" >&2
    exit 1
  fi
  echo "cmp: perturbed copy rejected (as it must be)"
  echo "chaos sweep passed: 10 seeds, no request silently lost, seed 5 golden"
  exit 0
fi

if [ "$1" = "tsan" ]; then
  configure build-tsan -DPD_SANITIZE=thread -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build build-tsan --parallel "$jobs" --target pdes_test fig16_boutique
  : > tsan_output.txt
  gate tsan_output.txt env TSAN_OPTIONS=halt_on_error=1 \
    ctest --test-dir build-tsan -L pdes --output-on-failure
  # The determinism suite runs the sharded boutique at 1/2/4 worker
  # threads; a tiny multi-switch leaf-sharded point adds the run_until +
  # drain path and the adaptive-horizon skip-ahead under TSan too.
  TSAN_OPTIONS=halt_on_error=1 \
    ./build-tsan/bench/fig16_boutique --scale --nodes 4 --cells 2 \
    --switch 2 --threads 2 --clients "8" \
    --json build-tsan/bench_smoke.json > /dev/null
  echo "tsan smoke passed: parallel epoch loop is data-race-clean"
  exit 0
fi

if [ "$1" = "overload" ]; then
  configure build
  cmake --build build --parallel "$jobs"
  : > overload_output.txt
  gate overload_output.txt \
    ctest --test-dir build -L overload --output-on-failure
  rm -rf overload_report && mkdir -p overload_report
  # One full scenario sweep (flash_crowd, noisy_neighbor, diurnal, chaos_2x;
  # control off then on) per worker-thread count. The bench exits non-zero
  # if any run loses a request silently.
  for t in 1 2 4; do
    echo "=== overload_scenarios --threads $t (all scenarios, off+on) ===" \
      | tee -a overload_output.txt
    gate overload_output.txt ./build/bench/overload_scenarios \
      --scenario all --control both --seconds 2 --threads "$t" \
      --json "overload_report/t$t.json"
  done
  # Determinism gate: the per-tenant SLO tables must be byte-identical for
  # every thread count.
  cmp overload_report/t1.json overload_report/t2.json
  cmp overload_report/t1.json overload_report/t4.json
  echo "overload_report/t*.json identical across --threads 1/2/4" \
    | tee -a overload_output.txt
  # Run-diff gate: the artifact is fully deterministic (simulated time
  # only), so any drift from the committed golden means control-loop
  # behavior changed and the golden must be re-recorded deliberately.
  gate overload_output.txt ./build/tools/report_diff \
    tools/golden/overload_slo.json overload_report/t1.json
  # ...and report_diff itself must fail loudly on a perturbed artifact.
  sed 's/"shed_admission": /"shed_admission": 9/' overload_report/t1.json \
    > overload_report/perturbed.json
  if ./build/tools/report_diff --quiet overload_report/t1.json \
      overload_report/perturbed.json; then
    echo "overload sweep FAILED: report_diff passed a perturbed artifact" >&2
    exit 1
  fi
  echo "report_diff: perturbed artifact rejected (as it must be)"
  echo "overload sweep passed: explicit shedding, SLOs held, deterministic"
  exit 0
fi

if [ "$1" = "ledger" ]; then
  configure build
  cmake --build build --parallel "$jobs"
  : > ledger_output.txt
  gate ledger_output.txt ctest --test-dir build -L ledger --output-on-failure
  rm -rf ledger_report && mkdir -p ledger_report
  # The noisy-neighbor scenario (control off then on, blame-driven
  # shedding) per worker-thread count, emitting both the SLO artifact and
  # the resource-ledger artifact (blame matrix included).
  for t in 1 2 4; do
    echo "=== overload_scenarios noisy_neighbor --policy blame --threads $t ===" \
      | tee -a ledger_output.txt
    gate ledger_output.txt ./build/bench/overload_scenarios \
      --scenario noisy_neighbor --control both --policy blame --seconds 2 \
      --threads "$t" --json "ledger_report/t$t.json" \
      --ledger-json "ledger_report/t${t}_ledger.json"
  done
  # Determinism gate: both artifacts must be byte-identical for every
  # thread count — the ledger merges per-shard maps in sorted-key order,
  # independent of how shards map to workers.
  for t in 2 4; do
    cmp ledger_report/t1.json "ledger_report/t$t.json"
    cmp ledger_report/t1_ledger.json "ledger_report/t${t}_ledger.json"
  done
  echo "ledger_report/t*_ledger.json identical across --threads 1/2/4" \
    | tee -a ledger_output.txt
  # Run-diff gate: the ledger is fully deterministic (simulated time
  # only), so any drift from the committed golden means attribution or
  # control behavior changed and the golden must be re-recorded
  # deliberately (tools/README.md, "Re-recording a golden").
  gate ledger_output.txt ./build/tools/report_diff tools/golden/ledger.json \
    ledger_report/t1_ledger.json
  # ...and report_diff itself must fail loudly on a perturbed artifact.
  sed 's/"busy_ns":/"busy_ns":9/' ledger_report/t1_ledger.json \
    > ledger_report/perturbed.json
  if ./build/tools/report_diff --quiet ledger_report/t1_ledger.json \
      ledger_report/perturbed.json; then
    echo "ledger sweep FAILED: report_diff passed a perturbed artifact" >&2
    exit 1
  fi
  echo "report_diff: perturbed artifact rejected (as it must be)"
  # The CLI path over the same artifact: the aggressor->victim matrix,
  # loud failure on a non-ledger input.
  ./build/tools/trace_inspect --interference ledger_report/t1_ledger.json
  if ./build/tools/trace_inspect --interference ledger_report/t1.json \
      2> /dev/null; then
    echo "ledger sweep FAILED: --interference accepted a non-ledger file" >&2
    exit 1
  fi
  echo "ledger sweep passed: attribution conserved, deterministic, blamed"
  exit 0
fi

if [ "$1" = "cartstore" ]; then
  configure build
  cmake --build build --parallel "$jobs"
  : > cartstore_output.txt
  gate cartstore_output.txt \
    ctest --test-dir build -L onesided --output-on-failure
  rm -rf cart_report && mkdir -p cart_report
  # One full RPC-vs-remote-READ cart ablation (home / viewcart / addtocart
  # chains, both modes) per worker-thread count.
  for t in 1 2 4; do
    echo "=== fig12_rdma_primitives --cart-store --threads $t (rpc vs store) ===" \
      | tee -a cartstore_output.txt
    gate cartstore_output.txt ./build/bench/fig12_rdma_primitives \
      --cart-store --seconds 2 --threads "$t" --json "cart_report/t$t.json"
  done
  # Determinism gate: the ablation tables must be byte-identical for every
  # thread count.
  cmp cart_report/t1.json cart_report/t2.json
  cmp cart_report/t1.json cart_report/t4.json
  echo "cart_report/t*.json identical across --threads 1/2/4" \
    | tee -a cartstore_output.txt
  # Run-diff gate: the artifact is fully deterministic (simulated time
  # only), so any drift from the committed golden means the one-sided data
  # path changed and the golden must be re-recorded deliberately.
  gate cartstore_output.txt ./build/tools/report_diff \
    tools/golden/cart_store.json cart_report/t1.json
  # ...and report_diff itself must fail loudly on a perturbed artifact.
  sed 's/"cart_invocations": /"cart_invocations": 9/' cart_report/t1.json \
    > cart_report/perturbed.json
  if ./build/tools/report_diff --quiet cart_report/t1.json \
      cart_report/perturbed.json; then
    echo "cartstore sweep FAILED: report_diff passed a perturbed artifact" >&2
    exit 1
  fi
  echo "report_diff: perturbed artifact rejected (as it must be)"
  echo "cartstore sweep passed: one-sided READ path deterministic, no fallbacks"
  exit 0
fi

if [ "$1" = "scale" ]; then
  configure build
  cmake --build build --parallel "$jobs"
  : > scale_output.txt
  gate scale_output.txt ctest --test-dir build -L pdes --output-on-failure
  rm -rf scale_report && mkdir -p scale_report
  # The ISSUE 9 scale point (32 workers / 4 leaf switches / 16 cells, one
  # shard per leaf) per worker-thread count.
  for t in 1 2 4; do
    echo "=== fig16_boutique --scale --clients 128 --threads $t ===" \
      | tee -a scale_output.txt
    gate scale_output.txt ./build/bench/fig16_boutique --scale \
      --clients "128" --threads "$t" --json "scale_report/t$t.json"
  done
  # Model leaves: simulated latencies, event counts, requests, cross-shard
  # posts. Protocol leaves: epoch and skip-ahead counts, which depend on
  # the driver (one-thread serial windows vs threaded epochs), so they are
  # compared between threaded runs only. No leaf is wall clock.
  model="--only sim_ --only .events --only .requests --only pdes_mailbox"
  protocol="--only pdes_epochs --only pdes_skip_ahead"
  # scale_diff A B ONLY...: diff the ONLY leaves of B against A. The exit
  # status is checked directly: piped into tee, a mismatch would be masked.
  scale_diff() {
    a=$1
    b=$2
    shift 2
    if ./build/tools/report_diff "$@" "$a" "$b" >> scale_output.txt 2>&1; then
      echo "$b: deterministic leaves ($*) match $a" | tee -a scale_output.txt
    else
      tail -20 scale_output.txt
      echo "scale sweep FAILED: $b differs from $a" >&2
      exit 1
    fi
  }
  # Determinism gate: model leaves identical across thread counts, protocol
  # leaves identical between the threaded runs.
  for t in 2 4; do
    scale_diff scale_report/t1.json "scale_report/t$t.json" $model
  done
  scale_diff scale_report/t2.json scale_report/t4.json $model $protocol
  # Golden gate: drift from the committed scale-point artifact (a --threads
  # 2 run) means the model or the epoch protocol changed and the golden
  # must be re-recorded deliberately (tools/README.md, "Re-recording a
  # golden").
  scale_diff tools/golden/pdes_scale.json scale_report/t2.json $model $protocol
  # ...and report_diff itself must fail loudly on a perturbed artifact.
  sed 's/"pdes_epochs": /"pdes_epochs": 9/' scale_report/t2.json \
    > scale_report/perturbed.json
  if ./build/tools/report_diff --quiet --only pdes_epochs \
      scale_report/t2.json scale_report/perturbed.json; then
    echo "scale sweep FAILED: report_diff passed a perturbed artifact" >&2
    exit 1
  fi
  echo "report_diff: perturbed artifact rejected (as it must be)"
  # Threading stress: 64 workers / 8 leaf switches / 32 cells at 256
  # clients, t1 vs t4. The single gateway bounds this point (same RPS as
  # the 32-worker point at twice the mean latency), so it stresses the
  # epoch protocol, not the data plane. No golden: only thread identity.
  for t in 1 4; do
    echo "=== fig16_boutique --scale --nodes 64 --cells 32 --clients 256 --threads $t ===" \
      | tee -a scale_output.txt
    gate scale_output.txt ./build/bench/fig16_boutique --scale --nodes 64 \
      --cells 32 --clients "256" --threads "$t" \
      --json "scale_report/n64_t$t.json"
  done
  scale_diff scale_report/n64_t1.json scale_report/n64_t4.json $model
  echo "scale sweep passed: 32- and 64-node epoch protocol deterministic across threads"
  exit 0
fi

if [ "$1" = "obs" ]; then
  configure build
  cmake --build build --parallel "$jobs"
  : > obs_output.txt
  gate obs_output.txt \
    ctest --test-dir build -L "obs-report|obs-ts" --output-on-failure
  rm -rf obs_report && mkdir -p obs_report
  # One boutique sweep per worker-thread count, each emitting the full
  # artifact set: critical-path attribution JSON, collapsed-stack
  # flamegraph, SLO watchdog log, trace, metrics snapshot, and the flight
  # recorder's gauge timeline. --strict promotes healthy-run invariants
  # (open spans, routeless drops) to hard failures.
  for t in 1 2 4; do
    echo "=== boutique_demo --threads $t (critpath + flame + slo + timeline) ===" \
      | tee -a obs_output.txt
    gate obs_output.txt ./build/examples/boutique_demo --threads "$t" \
      --seconds 2 --strict --trace --critpath --flame --slo --timeline \
      --prefix "obs_report/t$t"
  done
  # Determinism gate: the simulated-time observability artifacts must be
  # byte-identical for every thread count.
  for f in critpath.json flame.folded metrics.json timeseries.json \
           timeseries.csv; do
    cmp obs_report/t1_$f obs_report/t2_$f
    cmp obs_report/t1_$f obs_report/t4_$f
    echo "obs_report/*_$f identical across --threads 1/2/4" \
      | tee -a obs_output.txt
  done
  # Golden gates (same workload, same seed — any drift means behavior
  # changed): the collapsed-stack profile must match its golden byte for
  # byte, and the timeline and metrics snapshot must match theirs
  # structurally. The cross-thread cmp above cannot catch a change that
  # moves every thread count alike. report_diff itself must fail loudly
  # on a perturbed artifact.
  gate obs_output.txt cmp tools/golden/boutique_flame.folded \
    obs_report/t1_flame.folded
  gate obs_output.txt ./build/tools/report_diff \
    tools/golden/boutique_metrics.json obs_report/t1_metrics.json
  gate obs_output.txt ./build/tools/report_diff \
    tools/golden/boutique_timeseries.json obs_report/t1_timeseries.json
  sed 's/"samples": /"samples": 9/' obs_report/t1_timeseries.json \
    > obs_report/perturbed.json
  if ./build/tools/report_diff --quiet obs_report/t1_timeseries.json \
      obs_report/perturbed.json; then
    echo "obs sweep FAILED: report_diff passed a perturbed artifact" >&2
    exit 1
  fi
  echo "report_diff: perturbed artifact rejected (as it must be)"
  # The CLI path over the same artifacts: summary + critpath table, the
  # timeline dashboard, and loud failure on an empty input.
  ./build/tools/trace_inspect --summary obs_report/t1_trace.json \
    > obs_report/summary.txt
  head -20 obs_report/summary.txt
  gate obs_output.txt \
    ./build/tools/trace_inspect --critpath obs_report/t1_trace.json
  ./build/tools/trace_inspect --timeline obs_report/t1_timeseries.json \
    > obs_report/timeline.txt
  head -20 obs_report/timeline.txt
  echo "obs sweep passed: attribution exact and thread-count independent"
  exit 0
fi

if [ "$1" = "asan" ]; then
  configure build-asan -DPD_SANITIZE=address,undefined \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build build-asan --parallel "$jobs"
  : > test_output.txt
  gate test_output.txt env ASAN_OPTIONS=detect_leaks=1 \
    UBSAN_OPTIONS=halt_on_error=1 \
    ctest --test-dir build-asan -j"$jobs" --output-on-failure
  exit 0
fi

configure build
cmake --build build --parallel "$jobs"
: > test_output.txt
gate test_output.txt ctest --test-dir build
: > bench_output.txt
for b in build/bench/*; do
  if [ -x "$b" ] && [ -f "$b" ]; then gate bench_output.txt "$b"; fi
done
