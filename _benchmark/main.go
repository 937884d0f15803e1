// Command mkperf is the repository benchmark. It runs one workload for a
// fixed measuring window, checks every output it produced, and prints
// one JSON result line as the last line of standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end metrics of
// BENCHMARK.json; with -trace 1 the run repeats the workload's work
// single-threaded with spans recorded around every call into a layer's
// public functions, and the metrics are the per-layer ones.
//
// Workloads (see BENCHMARK.json for why each exists):
//
//	fig6-sweep   the paper's Fig-6 sweep, all three scenarios, paper size
//	ksweep       the Fig-7 k-sequence sweep (DBPExact over four seeds)
//	serve-mix    in-process mkservd, two closed-loop clients, cold/hit/estimate
//	fleet-sweep  mkfleet coordinator over two in-process mkservd workers
//
// Usage, from the repository root (run.sh builds and runs the binary):
//
//	bash _benchmark/run.sh --workload ksweep --seed 3 --seconds 10 --trace 0
//	bash _benchmark/run.sh --workload ksweep --seed 3 --heldout --trace 0
//
// The benchmark lives in its own module so the repository's `go test
// ./...` and lint walk never see it; it drives the program only through
// the layers' exported functions.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// heldOutBase offsets the workload seed under -heldout. Development and
// the committed steadiness runs use seeds below it, so a later gain
// claim can be re-checked on seeds nobody tuned against.
const heldOutBase = 1 << 40

// options are the parsed command-line flags.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// tiny shrinks every workload to a smoke-test size (self-tests).
	tiny bool
	// out is the directory for scratch files, traces and run details.
	out string
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mkperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var traceFlag int
	var heldout bool
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames(), " | "))
	fs.Uint64Var(&o.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	fs.BoolVar(&heldout, "heldout", false, "use the held-out seed range (seed + 2^40), never used while developing")
	fs.Float64Var(&o.seconds, "seconds", 10, "measuring window in seconds")
	fs.IntVar(&traceFlag, "trace", 0, "0 = end-to-end metrics, 1 = traced run with per-layer metrics")
	fs.BoolVar(&o.tiny, "tiny", false, "smoke-test sizes (self-tests)")
	fs.StringVar(&o.out, "out", ".bench_build", "directory for scratch files, traces and run details")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if traceFlag != 0 && traceFlag != 1 {
		fmt.Fprintln(stderr, "mkperf: -trace must be 0 or 1")
		return 2
	}
	o.trace = traceFlag == 1
	if heldout {
		o.seed += heldOutBase
	}
	w, ok := workloads[o.workload]
	if !ok {
		fmt.Fprintf(stderr, "mkperf: unknown workload %q (want %s)\n", o.workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	if o.seconds <= 0 {
		fmt.Fprintln(stderr, "mkperf: -seconds must be positive")
		return 2
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		fmt.Fprintf(stderr, "mkperf: %v\n", err)
		return 1
	}
	scratch, err := os.MkdirTemp(o.out, "run-")
	if err != nil {
		fmt.Fprintf(stderr, "mkperf: %v\n", err)
		return 1
	}
	defer os.RemoveAll(scratch)

	ctx := context.Background()
	env := &env{opts: o, scratch: scratch}
	if o.trace {
		env.rec = newRecorder()
	}
	out, err := w(ctx, env)
	if err != nil {
		fmt.Fprintf(stderr, "mkperf: %s: %v\n", o.workload, err)
		return 1
	}
	if _, ok := out.e2e["peak_rss_mb"]; !ok {
		out.e2e["peak_rss_mb"] = peakRSSMB()
	}
	res := out.result(o.trace)
	if err := writeDetails(o, env, out); err != nil {
		fmt.Fprintf(stderr, "mkperf: %v\n", err)
		return 1
	}
	printSummary(stderr, o, out, res)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "mkperf: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// env is what a workload runs with.
type env struct {
	opts    options
	scratch string    // private scratch directory, removed at exit
	rec     *recorder // nil unless tracing
}

// deadline returns the end of a measuring window that starts now.
func (e *env) deadline() time.Time {
	return time.Now().Add(time.Duration(e.opts.seconds * float64(time.Second)))
}

// runner runs one workload end to end and reports what it measured.
type runner func(ctx context.Context, e *env) (*outcome, error)

var workloads = map[string]runner{
	"fig6-sweep":  runFig6,
	"ksweep":      runKSweep,
	"serve-mix":   runServeMix,
	"fleet-sweep": runFleet,
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// outcome is one workload run's measurements and check results.
type outcome struct {
	attempted, failed int
	// problems holds the first few check failures, for the summary.
	problems []string
	e2e      map[string]float64
	layer    map[string]float64
	// detail is extra context for the run-details file: sample counts,
	// per-class latencies, the tail percentile used.
	detail map[string]any
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layer: map[string]float64{}, detail: map[string]any{}}
}

// check counts n operations as attempted and, when err is non-nil, as
// failed.
func (o *outcome) check(n int, err error) {
	o.attempted += n
	if err != nil {
		o.failed += n
		if len(o.problems) < 8 {
			o.problems = append(o.problems, err.Error())
		}
	}
}

// metric is one named measurement in the printed result.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (o *outcome) result(traced bool) result {
	res := result{
		Correct:   o.failed == 0 && len(o.problems) == 0 && o.attempted > 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   map[string]metric{},
	}
	cat, vals := endToEnd, o.e2e
	if traced {
		cat, vals = perLayer, o.layer
	}
	for _, m := range cat {
		v := vals[m.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		res.Metrics[m.name] = metric{Value: v, Unit: m.unit}
	}
	return res
}

func printSummary(w io.Writer, o options, out *outcome, res result) {
	mode := "end-to-end"
	if o.trace {
		mode = "traced"
	}
	errRatio := 0.0
	if out.attempted > 0 {
		errRatio = float64(out.failed) / float64(out.attempted)
	}
	fmt.Fprintf(w, "%s seed=%d (%s): correct=%v attempted=%d failed=%d error_ratio=%.4g\n",
		o.workload, o.seed, mode, res.Correct, out.attempted, out.failed, errRatio)
	for _, p := range out.problems {
		fmt.Fprintf(w, "  check failed: %s\n", p)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(w, "  %-32s %14.6g %s\n", n, m.Value, m.Unit)
	}
	keys := make([]string, 0, len(out.detail))
	for k := range out.detail {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if _, list := out.detail[k].([]float64); !list {
			fmt.Fprintf(w, "  [%s] %v\n", k, out.detail[k])
		}
	}
}

// writeDetails saves the run's extra context and, when tracing, its
// spans, under the output directory.
func writeDetails(o options, e *env, out *outcome) error {
	dir := filepath.Join(o.out, "runs")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	mode := 0
	if o.trace {
		mode = 1
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d", o.workload, o.seed, mode))
	doc := map[string]any{
		"workload": o.workload, "seed": o.seed, "trace": mode,
		"attempted": out.attempted, "failed": out.failed, "problems": out.problems,
		"end_to_end": out.e2e, "per_layer": out.layer, "detail": out.detail,
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(base+".json", data, 0o644); err != nil {
		return err
	}
	if e.rec != nil {
		return e.rec.writeJSONL(base + ".spans.jsonl")
	}
	return nil
}

// resetPeakRSS resets the process's peak resident set (VmHWM) to its
// current resident set, so the next peakRSSMB covers one unit of work.
// It is a no-op where /proc/self/clear_refs is not writable.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%f", &kb); err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}
