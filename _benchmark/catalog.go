package main

import (
	"sort"
	"time"
)

// metricDef names one metric and its unit. The tables below are the
// benchmark's half of BENCHMARK.json: a self-test keeps the two in step.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, printed with
// tracing off. Every workload reports every one of them; "operation" and
// "unit of work" are defined per workload in BENCHMARK.json.
var endToEnd = []metricDef{
	{"wall_s", "s"},        // median wall clock of one fixed unit of work
	{"p50_ms", "ms"},       // median operation latency
	{"tail_ms", "ms"},      // median of up to ten windows' tails (see windowedTail)
	{"ops_per_s", "1/s"},   // completed operations per second of the window
	{"setup_s", "s"},       // median of the run's repeated set-ups
	{"peak_rss_mb", "MiB"}, // VmHWM of the benchmark process
}

// approaches and scenarios are the per-approach and per-scenario metric
// suffixes.
var (
	approachKeys = []string{"st", "dp", "selective", "dbp"}
	scenarioKeys = []string{"none", "permanent", "both"}
	classKeys    = []string{"cold", "hit", "estimate", "sweep"}
)

// perLayer are the traced run's metrics, one group per layer. Times and
// counts are per unit of work (serve-mix: per 1000 requests, except the
// workload.* pool-generation figures, which are per set-up).
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	defs := []metricDef{
		{"workload.candidates", "count"},
		{"workload.generate_s", "s"},
		{"workload.accept_ratio", "ratio"},
		{"rta.filter_calls", "count"},
		{"rta.filter_s", "s"},
		{"rta.filter_pass_ratio", "ratio"},
		{"rta.filter_allocs_per_call", "count"},
		{"rta.filter_bytes_per_call", "B"},
		{"analysis.products_s", "s"},
		{"analysis.cache_hit_ratio", "ratio"},
		{"analysis.profile_us", "us"},
		{"postpone.theta_s", "s"},
		{"rta.dbp_exact_calls", "count"},
		{"rta.dbp_exact_us_per_call", "us"},
		{"rta.dbp_exact_ratio", "ratio"},
	}
	for _, a := range approachKeys {
		defs = append(defs,
			metricDef{"sim.run_s." + a, "s"},
			metricDef{"sim.ns_per_job." + a, "ns"},
			metricDef{"sim.allocs_per_run." + a, "count"},
			metricDef{"sim.dispatches." + a, "count"},
		)
	}
	for _, sc := range scenarioKeys {
		defs = append(defs, metricDef{"experiment.sweep_s." + sc, "s"})
	}
	defs = append(defs,
		metricDef{"experiment.self_s", "s"},
		metricDef{"estimate.twin_us", "us"},
		metricDef{"estimate.twin_cold_us", "us"},
		metricDef{"store.get_us", "us"},
		metricDef{"store.put_us", "us"},
		metricDef{"store.hit_ratio", "ratio"},
		metricDef{"store.bytes_written", "B"},
	)
	for _, c := range classKeys {
		defs = append(defs,
			metricDef{"serve.handler_us." + c, "us"},
			metricDef{"serve.self_us." + c, "us"},
			metricDef{"serve.transport_us." + c, "us"},
		)
	}
	defs = append(defs,
		metricDef{"serve.coalesced", "count"},
		metricDef{"serve.rejected", "count"},
		metricDef{"fleet.units", "count"},
		metricDef{"fleet.dispatched", "count"},
		metricDef{"fleet.retried", "count"},
		metricDef{"fleet.hedged", "count"},
		metricDef{"fleet.overhead_s", "s"},
		metricDef{"trace.overhead_ratio", "ratio"},
		metricDef{"trace.coverage_ratio", "ratio"},
	)
	return defs
}

// ---- sample statistics ----

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; xs need not be sorted. Zero for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailLevel is the highest percentile, capped at p99, that leaves at
// least ten samples beyond it in a sample of n (never below the median).
func tailLevel(n int) float64 {
	q := 0.99
	if n > 0 {
		q = min(q, 1-10/float64(n))
	}
	return max(q, 0.5)
}

// tailWindowOps is the fewest operations a tail window holds.
const tailWindowOps = 100

// windowedTail splits ops, in the order they finished, into up to ten
// windows of at least tailWindowOps operations each, takes each window's
// tail at tailLevel of the window's size, and returns the median of the
// windows' tails and the level. A burst of interference on the host
// lands in one or two windows and moves their tails, not the median.
func windowedTail(ops []float64) (tail, level float64) {
	n := max(1, min(10, len(ops)/tailWindowOps))
	level = tailLevel(len(ops) / n)
	tails := make([]float64, 0, n)
	for k := 0; k < n; k++ {
		tails = append(tails, quantile(ops[k*len(ops)/n:(k+1)*len(ops)/n], level))
	}
	return median(tails), level
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// latencies accumulates operation latencies and unit walls over a
// measuring window and turns them into the end-to-end metrics.
type latencies struct {
	ops     []float64 // ms
	units   []float64 // s
	rss     []float64 // MiB, peak resident set per unit
	elapsed time.Duration
}

// unitDone records one finished unit of work: its wall clock and the
// peak resident set it reached, which is then reset for the next unit.
func (l *latencies) unitDone(wall time.Duration) {
	l.units = append(l.units, wall.Seconds())
	if rss := peakRSSMB(); rss > 0 {
		l.rss = append(l.rss, rss)
	}
	resetPeakRSS()
}

func (l *latencies) fill(out *outcome) {
	out.e2e["wall_s"] = median(l.units)
	if len(l.rss) > 0 {
		out.e2e["peak_rss_mb"] = median(l.rss)
	}
	out.e2e["p50_ms"] = median(l.ops)
	tail, q := windowedTail(l.ops)
	out.e2e["tail_ms"] = tail
	if l.elapsed > 0 {
		out.e2e["ops_per_s"] = float64(len(l.ops)) / l.elapsed.Seconds()
	}
	out.detail["ops"] = len(l.ops)
	out.detail["units"] = len(l.units)
	out.detail["unit_walls_s"] = l.units
	out.detail["tail_percentile"] = q * 100
}

// repeatSetup runs setup n times and returns the last set-up's value and
// closer together with every set-up's duration in seconds; every earlier
// set-up is torn down before the next one starts.
func repeatSetup[T any](n int, setup func() (T, func(), error)) (T, func(), []float64, error) {
	var last T
	var lastClose func()
	var ds []float64
	for i := 0; i < n; i++ {
		if lastClose != nil {
			lastClose()
		}
		t0 := time.Now()
		v, closer, err := setup()
		d := time.Since(t0)
		if err != nil {
			return last, nil, nil, err
		}
		ds = append(ds, d.Seconds())
		last, lastClose = v, closer
	}
	return last, lastClose, ds, nil
}

// setupRuns is how many times an untraced run sets up; setup_s is the
// median.
const setupRuns = 5

// setupDone reports the set-up times: setup_s is their median.
func (o *outcome) setupDone(ds []float64) {
	o.e2e["setup_s"] = median(ds)
	o.detail["setup_times_s"] = ds
}
