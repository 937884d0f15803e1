#!/usr/bin/env bash
# scripts/ci.sh [job...] — the project's CI checks, defined once. Every
# job of .github/workflows/ci.yml is a single `scripts/ci.sh <job>` step,
# so a job that passes here passes in CI, and a check added here is a
# check CI runs.
#
#   scripts/ci.sh                                        # every job, in CI order
#   scripts/ci.sh test lint golden-figures policy-smoke  # the quick subset (~20 s)
#   scripts/ci.sh serve-smoke                            # one job
#
# Jobs: test, lint, race, golden-figures, policy-smoke, bench-smoke,
# bench-module, serve-smoke, estimate-smoke, fleet-smoke, store-smoke,
# autoscale-smoke and perf; each is the job-<name> function below. Artifacts go to ci-out/
# at the repo root (gitignored, emptied at the start of every invocation,
# uploaded by CI); scratch files and binaries go to a mktemp directory.
# Every job writes only there: no job touches a committed file.
set -euo pipefail
cd "$(dirname "$0")/.."

all_jobs=(test lint race golden-figures policy-smoke bench-smoke bench-module
  serve-smoke estimate-smoke fleet-smoke store-smoke autoscale-smoke perf)

out=ci-out
tmp=$(mktemp -d)
# Stop any server a failed job left running before removing its files.
trap 'kill $(jobs -p) 2>/dev/null || true; rm -rf "$tmp"' EXIT

# The paper's running example (Figure 2): selective spends 12 energy units.
pset='{"tasks":[{"period_ms":5,"deadline_ms":4,"wcet_ms":3,"m":2,"k":4},{"period_ms":10,"deadline_ms":10,"wcet_ms":3,"m":1,"k":2}]}'
simreq="{\"set\":$pset,\"approach\":\"selective\",\"horizon_ms\":20}"

step() { printf '\n== %s ==\n' "$1"; }

# build CMD... — build each cmd/CMD once per invocation into $tmp.
build() {
  local c
  for c in "$@"; do
    [ -x "$tmp/$c" ] || go build -o "$tmp/$c" "./cmd/$c"
  done
}

# wait_for FILE — poll until FILE is non-empty (10 s).
wait_for() {
  local _
  for _ in $(seq 1 100); do [ -s "$1" ] && return 0; sleep 0.1; done
  echo "timed out waiting for $1" >&2
  return 1
}

# servd NAME [flag...] — start mkservd on an ephemeral port in the
# background, logging to $tmp/NAME.log; sets pid and addr.
servd() {
  local name=$1
  shift
  "$tmp/mkservd" -addr 127.0.0.1:0 -addrfile "$tmp/$name.addr" "$@" > "$tmp/$name.log" 2>&1 &
  pid=$!
  wait_for "$tmp/$name.addr"
  addr=$(cat "$tmp/$name.addr")
}

# post PATH BODY — POST a JSON body to the server at $addr.
post() { curl -sf -X POST "http://$addr$1" -H 'Content-Type: application/json' -d "$2"; }

# validate FILE PYTHON — run the (indented) PYTHON with FILE's JSON
# document bound to doc; a failed assert fails the job.
validate() {
  python3 -c 'import json, sys, textwrap; doc = json.load(open(sys.argv[1])); exec(textwrap.dedent(sys.argv[2]))' "$@"
}

# Format, vet, build and test (CI runs this across the supported Go
# versions).
job-test() {
  step gofmt
  local unformatted
  unformatted=$(gofmt -s -l .)
  if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    return 1
  fi
  step "go vet"
  go vet ./...
  step "go build"
  go build ./...
  step "go test"
  go test ./...
}

# Project static analysis: cmd/mklint (stdlib go/ast + go/types, no
# external analyzers) enforces the reproduction's invariants —
# determinism of the simulator, tolerance-safe float comparisons, context
# plumbing, hot-path allocation hygiene (propagated through the
# whole-program call graph), goroutine termination, lock discipline,
# error handling, stray printing and the package DAG; the depdag deny
# edge (the engine must not import concrete policies) makes this run the
# policy-layering gate too. The run is ratcheted against the committed
# findings baseline: new findings fail, and fixed-but-still-baselined
# findings fail until the baseline is refreshed. mklint is built (not
# `go run`) so its exit contract survives — 1 means findings, 2 means
# the linter itself broke. The JSON report plus a freshly refreshed
# baseline and its diff are written even when the run fails, so findings
# are inspectable — and the baseline refresh committable — without
# rerunning.
job-lint() {
  step "go vet"
  go vet ./...
  step "mklint (ratcheted against results/lint_baseline.json)"
  go build -o "$tmp/mklint" ./cmd/mklint
  local status=0
  "$tmp/mklint" -json "$out/mklint.json" -baseline results/lint_baseline.json ./... || status=$?
  "$tmp/mklint" -baseline "$out/lint_baseline.refreshed.json" -update-baseline ./...
  diff -u results/lint_baseline.json "$out/lint_baseline.refreshed.json" > "$out/lint_baseline.diff" || true
  return "$status"
}

# The experiment harness fans simulations out over sync.WaitGroup/Mutex
# workers; gate every change under the race detector.
job-race() {
  step "go test -race"
  go test -race ./...
}

# The paper's worked examples (Figures 1-5) must reproduce bit-exactly:
# regenerate the ASCII Gantt charts and diff against the committed
# goldens under results/golden/. The paper-size Figure-6 sweep (all three
# scenarios, ~1 s) must reproduce results/fig6{a,b,c}.csv, whose every
# set the R-pattern filter decides, both with the session cache (6b/6c
# reuse 6a's memoized interval draws) and with -nocache (fresh
# generation).
job-golden-figures() {
  build mktrace mkbench
  local status=0 fig dir f
  step "golden figures 1-5 vs results/golden/"
  for fig in 1 2 3 4 5; do
    "$tmp/mktrace" -fig "$fig" > "$tmp/fig$fig.txt"
    if ! diff -u "results/golden/fig$fig.txt" "$tmp/fig$fig.txt"; then
      echo "figure $fig regressed (regenerate goldens only if the change is intended)" >&2
      status=1
    fi
  done
  step "Fig-6 CSVs (mkbench -fig all, cached and -nocache) vs results/fig6{a,b,c}.csv"
  mkdir -p "$tmp/cached" "$tmp/nocache"
  "$tmp/mkbench" -fig all -sets 20 -candidates 5000 -csv "$tmp/cached" -q > /dev/null
  "$tmp/mkbench" -fig all -nocache -sets 20 -candidates 5000 -csv "$tmp/nocache" -q > /dev/null
  for dir in "$tmp/cached" "$tmp/nocache"; do
    for f in a b c; do
      if ! diff -u "results/fig6$f.csv" "$dir/fig6$f.csv"; then
        echo "figure 6$f CSV regressed in ${dir##*/} (regenerate only if the change is intended)" >&2
        status=1
      fi
    done
  done
  return "$status"
}

# Policy smoke: the pluggable-policy subsystem's end-to-end gate. The
# full-size DBP k-sequence sweep (mkablate -ksweep, the Fig. 7 family;
# cheap — the exact test walks hyperperiods, not wall-clock horizons)
# must reproduce results/golden/fig7_ksweep.csv byte-for-byte, so any
# drift in the DBP distance rule, the exact walker, or the workload
# generator fails visibly. The layering half of the gate is the lint job.
job-policy-smoke() {
  step "DBP ksweep vs results/golden/fig7_ksweep.csv"
  go run ./cmd/mkablate -ksweep -sets 25 -candidates 5000 -lo 0.2 -hi 1.0 -q > "$tmp/fig7_ksweep.csv"
  if ! diff -u results/golden/fig7_ksweep.csv "$tmp/fig7_ksweep.csv"; then
    echo "fig7 ksweep regressed (regenerate the golden only if the change is intended)" >&2
    return 1
  fi
}

# The repository benchmark (_benchmark/, a module of its own that imports
# this one through a replace directive) is invisible to ./... here; vet
# and test it so an API change that breaks it fails CI, not the benchmark.
job-bench-module() {
  step "_benchmark: go vet + go test"
  (cd _benchmark && go vet ./... && go test ./...)
}

# Benchmark smoke: one iteration of every bench (catches bench rot) and a
# reduced Figure-6a sweep emitting the versioned BENCH_ci.json artifact
# for the cross-PR perf trajectory.
job-bench-smoke() {
  step "go test -bench (1x)"
  go test -bench . -benchtime 1x ./...
  step "mkbench -json smoke"
  go run ./cmd/mkbench -fig 6a -sets 3 -candidates 800 -q -json -jsonout "$out/BENCH_ci.json"
  validate "$out/BENCH_ci.json" '
    assert doc["schema"] == "mkss-bench/v1", doc["schema"]
    assert doc["rows"], "empty series"
    print("schema %s: %d intervals, %.0f ms wall clock"
          % (doc["schema"], len(doc["rows"]), doc["wall_clock_ms"]))'
}

# Serving smoke: boot mkservd on an ephemeral port, exercise every
# endpoint, drive a short mkload burst (its BENCH_serve.json artifact
# feeds the cross-PR serving-perf trajectory), and verify the SIGTERM
# drain exits cleanly with zero aborted in-flight requests.
job-serve-smoke() {
  build mkservd mkload
  step "mkservd + mkload burst + graceful drain"
  servd mkservd -drain 10s
  curl -sf "http://$addr/healthz" | grep -q '"ok"'
  post /v1/simulate "$simreq" | grep -q '"active_energy":12'
  "$tmp/mkload" -addr "$addr" -duration 2s -c 8 \
    -mix simulate=0.9,analyze=0.08,sweep=0.02 -out "$out/BENCH_serve.json" -q
  curl -sf "http://$addr/metrics" | grep -q '^mkservd_requests_total '
  kill -TERM "$pid"
  wait "$pid" # graceful drain must exit 0
  grep '0 in-flight aborted' "$tmp/mkservd.log"
  validate "$out/BENCH_serve.json" '
    assert doc["schema"] == "mkss-bench/v1", doc["schema"]
    assert doc["bench"] == "serve", doc["bench"]
    assert doc["requests"] > 0, "no successful requests"
    assert doc["errors"] == 0, "%d errors" % doc["errors"]
    print("%d requests at %.0f req/s, %d coalesced, p99 %.2f ms"
          % (doc["requests"], doc["req_per_sec"], doc["coalesced"], doc["latency"]["p99_ms"]))'
}

# Estimate smoke: the analytical twin's two-tier serving. GET
# /v1/estimate must answer closed-form (backend "twin", no execution
# slot) and stay fast under a pure-estimate mkload burst (p99 < 25 ms —
# generous for shared runners; the unit tests pin the real < 1 ms
# budget), and refine=true must fall through to the /v1/simulate path
# byte-identically.
job-estimate-smoke() {
  build mkservd mkload
  step "twin fast path + refine fallthrough"
  servd est -q
  curl -sf --get "http://$addr/v1/estimate" --data-urlencode "set=$pset" \
    --data-urlencode approach=dp --data-urlencode horizon_ms=20 \
    | grep -q '"backend":"twin"'
  curl -sf --get "http://$addr/v1/estimate" --data-urlencode "set=$pset" \
    --data-urlencode approach=selective --data-urlencode horizon_ms=20 \
    --data-urlencode refine=true > "$tmp/refined.json"
  post /v1/simulate "$simreq" > "$tmp/simulated.json"
  cmp "$tmp/refined.json" "$tmp/simulated.json"
  grep -q '"active_energy":12' "$tmp/refined.json"
  # A pure-estimate burst: the top-level latency summary is then the
  # estimate endpoint's, so the closed-form p99 is assertable directly.
  "$tmp/mkload" -addr "$addr" -duration 2s -c 8 -mix estimate=1 -out "$out/BENCH_estimate.json" -q
  kill -TERM "$pid"
  wait "$pid"
  validate "$out/BENCH_estimate.json" '
    assert doc["schema"] == "mkss-bench/v1", doc["schema"]
    assert doc["mix"] == {"estimate": 1}, doc["mix"]
    assert doc["requests"] > 0, "no successful requests"
    assert doc["errors"] == 0, "%d errors" % doc["errors"]
    p99 = doc["latency"]["p99_ms"]
    assert p99 < 25, "estimate p99 %.2f ms >= 25 ms: the closed-form fast path regressed" % p99
    print("%d estimates at %.0f req/s, p99 %.2f ms" % (doc["requests"], doc["req_per_sec"], p99))'
}

# Fleet smoke: boot two mkservd workers, run a distributed sweep with
# mkfleet, kill one worker as soon as the first row lands (its units must
# be marked down and retried on the survivor), and require the merged
# stream to be byte-identical to the in-process reference run. The
# BENCH_fleet.json accounting document is the cross-PR artifact.
job-fleet-smoke() {
  build mkservd mkfleet
  step "mkfleet over 2 workers, one killed mid-run"
  servd w1 -q
  local w1=$pid a1=$addr
  servd w2 -q
  local w2=$pid
  # Kill worker 2 the moment the first row is merged: still mid-run (8 of
  # 9 units outstanding), so the fleet must mark it down and retry its
  # units on the survivor. The whole sweep can finish in ~50 ms, so the
  # watcher polls every 5 ms; at 50 ms it often fired after the last unit.
  (
    for _ in $(seq 1 6000); do
      grep -q '"type":"row"' "$tmp/fleet.jsonl" 2> /dev/null && break
      sleep 0.005
    done
    kill -9 "$w2"
  ) &
  "$tmp/mkfleet" -workers "$a1,$addr" -scenario both -seed 2020 -sets 3 \
    -candidates 4000 -checkpoint "$tmp/fleet.ckpt" -out "$tmp/fleet.jsonl" \
    -bench "$out/BENCH_fleet.json" 2> "$tmp/fleet.log" || { cat "$tmp/fleet.log" >&2; return 1; }
  cat "$tmp/fleet.log"
  grep -q 'sweep complete' "$tmp/fleet.log"
  "$tmp/mkfleet" -local -scenario both -seed 2020 -sets 3 -candidates 4000 -out "$tmp/local.jsonl" -q
  grep '"type":"row"' "$tmp/fleet.jsonl" > "$tmp/fleet_rows.jsonl"
  grep '"type":"row"' "$tmp/local.jsonl" > "$tmp/local_rows.jsonl"
  cmp "$tmp/fleet_rows.jsonl" "$tmp/local_rows.jsonl"
  kill "$w1"
  validate "$out/BENCH_fleet.json" '
    assert doc["schema"] == "mkss-bench/v1", doc["schema"]
    assert doc["bench"] == "fleet", doc["bench"]
    s = doc["summary"]
    assert s["units"] == 9, s["units"]
    marks = sum(w["markdowns"] for w in s["workers"])
    assert marks >= 1, "killed worker never marked down"
    print("%d units over %d workers, %d retried, %d markdowns, %.0f ms wall clock"
          % (s["units"], doc["workers"], s["retried"], marks, s["elapsed_ms"]))'
}

# Store smoke: a cold mkservd run fills the persistent result store (one
# simulate plus a reduced 3-interval sweep), then a restarted server
# re-answers the same requests purely from disk — the simulate body and
# every sweep row must be byte-identical, with zero store misses on the
# warm run. The warm /healthz snapshot is the STORE_stats.json artifact.
job-store-smoke() {
  build mkservd
  step "persistent result store across a restart"
  local permreq="{\"set\":$pset,\"approach\":\"selective\",\"scenario\":\"permanent\",\"seed\":42,\"horizon_ms\":20}"
  local sweepreq='{"scenario":"both","seed":7,"sets_per_interval":2,"max_candidates":40,"lo":0.3,"hi":0.6,"approaches":["st"]}'
  local run
  for run in cold warm; do
    servd "st-$run" -store "$tmp/store" -q
    post /v1/simulate "$permreq" > "$tmp/${run}_sim.json"
    post /v1/sweep "$sweepreq" > "$tmp/${run}_sweep.jsonl"
    # The sweep "done" line carries wall-clock timing; rows are the contract.
    grep '"type":"row"' "$tmp/${run}_sweep.jsonl" > "$tmp/${run}_rows.jsonl"
    [ "$run" = cold ] || curl -sf "http://$addr/healthz" > "$out/STORE_stats.json"
    kill -TERM "$pid"
    wait "$pid"
  done
  cmp "$tmp/cold_sim.json" "$tmp/warm_sim.json"
  cmp "$tmp/cold_rows.jsonl" "$tmp/warm_rows.jsonl"
  validate "$out/STORE_stats.json" '
    st = doc["store"]
    assert st["hits"] == 4, st    # 1 simulate + 3 sweep units
    assert st["misses"] == 0, st  # nothing recomputed on the warm run
    assert st["keys"] == 4, st
    print("%d keys in %d segment(s), %d bytes; warm run: %d hits, 0 misses"
          % (st["keys"], st["segments"], st["disk_bytes"], st["hits"]))'
}

# Autoscale smoke: a standalone elastic pool (mkfleet -pool) with a
# single-slot baseline worker must grow above min under an mkload
# -distinct burst and drain back to min once the burst ends.
job-autoscale-smoke() {
  build mkfleet mkload
  step "elastic pool grows under burst, drains to min"
  "$tmp/mkfleet" -pool -min 1 -max 3 -worker-inflight 1 \
    -scale-interval 200ms -scale-cooldown 500ms \
    -pool-addrfile "$tmp/pool.addr" -pool-status "$tmp/pool.json" 2> "$tmp/pool.log" &
  local poold=$!
  wait_for "$tmp/pool.addr"
  # -distinct defeats coalescing and the store, and the long horizon makes
  # each run tens of milliseconds, so the burst saturates the single-slot
  # baseline worker and builds real queue depth.
  "$tmp/mkload" -addr "$(cat "$tmp/pool.addr")" -duration 3s -c 12 -mix simulate=1 -distinct \
    -horizon 200000 -out "$out/BENCH_pool.json" -q &
  local loadpid=$! size grew=0 drained=0
  for _ in $(seq 1 100); do
    size=$(sed -nE 's/.*"size":([0-9]+).*/\1/p' "$tmp/pool.json" 2> /dev/null || true)
    if [ -n "$size" ] && [ "$size" -gt 1 ]; then grew=1; break; fi
    sleep 0.1
  done
  wait "$loadpid"
  if [ "$grew" = 0 ]; then
    echo "pool never scaled above the baseline under burst" >&2
    cat "$tmp/pool.log" >&2
    return 1
  fi
  for _ in $(seq 1 200); do
    size=$(sed -nE 's/.*"size":([0-9]+).*/\1/p' "$tmp/pool.json" 2> /dev/null || true)
    if [ "$size" = 1 ]; then drained=1; break; fi
    sleep 0.1
  done
  if [ "$drained" = 0 ]; then
    echo "pool never drained back to min after the burst" >&2
    cat "$tmp/pool.log" >&2
    return 1
  fi
  grep 'pool scaling up' "$tmp/pool.log"
  grep 'pool scaling down' "$tmp/pool.log"
  kill -TERM "$poold"
  wait "$poold"
}

# Perf regression gate: rerun the Simulate benchmarks at count=6 and
# compare against the committed results/bench_baseline.txt on two axes —
# allocs/op of every BenchmarkSimulate* (machine-independent, tight 15%
# margin) and ns/op of the BenchmarkSimulateSweep* wall-clock benches
# (generous 40% margin for shared-runner noise; catches the
# order-of-magnitude engine regressions allocs/op cannot see). Then a
# reduced Figure-6a sweep regenerates BENCH_pr6.json and a summary line
# is appended to a copy of results/bench_trajectory.jsonl (the committed
# log holds one line per PR, so the perf history is queryable across
# PRs). benchstat, when on PATH, adds the informational full comparison
# but is never required.
job-perf() {
  step "perf gate (allocs/op + sweep wall clock vs results/bench_baseline.txt, count=6)"
  go test -run '^$' -bench 'BenchmarkSimulate' -benchmem -count 6 . | tee "$out/bench_new.txt"
  PATH="$PATH:$(go env GOPATH)/bin" scripts/benchgate.sh results/bench_baseline.txt "$out/bench_new.txt"
  step "BENCH_pr6.json + perf trajectory"
  go run ./cmd/mkbench -fig 6a -sets 4 -candidates 1200 -q -json -jsonout "$out/BENCH_pr6.json"
  cp results/bench_trajectory.jsonl "$out/bench_trajectory.jsonl"
  scripts/trajectory.sh "$out/BENCH_pr6.json" "$out/bench_trajectory.jsonl" ci
  tail -2 "$out/bench_trajectory.jsonl"
}

run=("$@")
[ "${#run[@]}" -gt 0 ] || run=("${all_jobs[@]}")
for job in "${run[@]}"; do
  if ! declare -F "job-$job" > /dev/null; then
    echo "ci.sh: unknown job \"$job\" (jobs: ${all_jobs[*]})" >&2
    exit 2
  fi
done
rm -rf "$out"
mkdir -p "$out"
for job in "${run[@]}"; do
  printf '\n### %s\n' "$job"
  "job-$job"
done
printf '\nall checks passed: %s\n' "${run[*]}"
