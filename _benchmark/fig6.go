package main

import (
	"bytes"
	"context"
	"embed"
	"fmt"
	"runtime"
	"strings"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/task"
	"repro/internal/timeu"
	"repro/internal/workload"
)

// golden holds the committed outputs the workloads must reproduce
// byte for byte: results/fig6{a,b,c}.csv and results/golden/fig7_ksweep.csv
// as of the commit that defined the benchmark.
//
//go:embed golden/*.csv
var golden embed.FS

func goldenFile(name string) []byte {
	data, err := golden.ReadFile("golden/" + name)
	if err != nil {
		panic(err) // embedded at build time; a missing file is a build bug
	}
	return data
}

// goldenSeed is the master seed the committed Fig-6 CSVs were made with.
const goldenSeed = 2020

// fig6Scenarios are the sweep's three fault settings, in figure order.
var fig6Scenarios = []struct {
	key, fig string
	sc       fault.Scenario
}{
	{"none", "fig6a.csv", fault.NoFault},
	{"permanent", "fig6b.csv", fault.PermanentOnly},
	{"both", "fig6c.csv", fault.PermanentAndTransient},
}

// fig6Config is the sweep for one scenario: the paper's defaults, or a
// three-interval smoke size under -tiny.
func fig6Config(e *env, sc fault.Scenario, seed uint64) experiment.Config {
	cfg := experiment.DefaultConfig(sc)
	cfg.Seed = seed
	if e.opts.tiny {
		cfg.Intervals = workload.Intervals(0.3, 0.6, 0.1)
		cfg.SetsPerInterval = 3
		cfg.MaxCandidates = 300
	}
	return cfg
}

// fig6Unit is the fixed unit of work: one master seed's sweep under all
// three scenarios with one analysis cache, as mkbench -fig all runs it.
// It returns the three reports and each scenario sweep's duration.
func fig6Unit(ctx context.Context, e *env, seed uint64, workers int, pool *sim.ScratchPool) ([]*experiment.Report, []time.Duration, error) {
	cache := analysis.NewCache(0)
	var reps []*experiment.Report
	var ds []time.Duration
	for _, s := range fig6Scenarios {
		cfg := fig6Config(e, s.sc, seed)
		cfg.Workers = workers
		cfg.Cache = cache
		cfg.ScratchPool = pool
		t0 := time.Now()
		rep, err := experiment.RunContext(ctx, cfg)
		ds = append(ds, time.Since(t0))
		if err != nil {
			return nil, nil, err
		}
		reps = append(reps, rep)
	}
	return reps, ds, nil
}

// checkFig6Report verifies every row's aggregated counters: the
// structural identities of metrics.Counters, including busy + idle +
// sleep + dead = horizon on each processor.
func checkFig6Report(rep *experiment.Report) error {
	for _, row := range rep.Rows {
		for _, a := range rep.Approaches {
			if bad := row.Counters[a].CheckInvariants(row.HorizonTotal); len(bad) > 0 {
				return fmt.Errorf("%s %v %s: %s", rep.Scenario, row.Interval, a, bad[0])
			}
		}
	}
	return nil
}

func setsIn(rep *experiment.Report) int {
	n := 0
	for _, row := range rep.Rows {
		n += len(row.Sets)
	}
	return n
}

// checkGoldenCSV compares a sweep's CSV to the committed one.
func checkGoldenCSV(name string, got []byte) error {
	want := goldenFile(name)
	if !bytes.Equal(got, want) {
		return fmt.Errorf("%s differs from the committed CSV (first difference at byte %d)", name, firstDiff(got, want))
	}
	return nil
}

func firstDiff(a, b []byte) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return i
		}
	}
	if len(a) == len(b) {
		return -1
	}
	return min(len(a), len(b))
}

// fig6Seed is the master seed of measured unit i.
func fig6Seed(seed uint64, i int) uint64 { return stats.DeriveSeed(seed, uint64(i)) }

// fig6Golden runs the seed-2020 unit through produce and checks its CSVs
// and invariants; it is the workload's set-up and correctness anchor.
func fig6Golden(e *env, out *outcome, produce func(seed uint64) ([]*experiment.Report, error)) error {
	reps, err := produce(goldenSeed)
	if err != nil {
		return err
	}
	for i, rep := range reps {
		err := checkFig6Report(rep)
		if err == nil && !e.opts.tiny {
			err = checkGoldenCSV(fig6Scenarios[i].fig, []byte(rep.CSV()))
		}
		out.check(setsIn(rep), err)
	}
	return nil
}

func runFig6(ctx context.Context, e *env) (*outcome, error) {
	if e.rec != nil {
		return runFig6Traced(ctx, e)
	}
	out := newOutcome()
	pool := sim.NewScratchPool()
	workers := 2
	_, _, setup, err := repeatSetup(setupRuns, func() (struct{}, func(), error) {
		return struct{}{}, nil, fig6Golden(e, out, func(seed uint64) ([]*experiment.Report, error) {
			reps, _, err := fig6Unit(ctx, e, seed, workers, pool)
			return reps, err
		})
	})
	if err != nil {
		return nil, err
	}
	out.setupDone(setup)

	var lat latencies
	resetPeakRSS()
	start := time.Now()
	end := e.deadline()
	for i := 0; i == 0 || time.Now().Before(end); i++ {
		t0 := time.Now()
		reps, ds, err := fig6Unit(ctx, e, fig6Seed(e.opts.seed, i), workers, pool)
		if err != nil {
			return nil, err
		}
		lat.unitDone(time.Since(t0))
		for j, rep := range reps {
			lat.ops = append(lat.ops, ms(ds[j]))
			out.check(setsIn(rep), checkFig6Report(rep))
		}
	}
	lat.elapsed = time.Since(start)
	lat.fill(out)
	return out, nil
}

// ---- traced run ----

// fig6Trace rebuilds experiment.RunContext's per-interval loop from the
// layers' exported calls, single-threaded, so each layer gets its own
// span. Generation uses a twin generator whose built-in filter is
// reduced to the first synchronous busy period (SchedCap = 1 µs): it
// draws exactly the candidates the sweep's generator draws, because the
// random stream never depends on the filter's verdict, and it rejects
// only sets the full filter rejects too. The full R-pattern filter then
// runs as its own span. The set-up checks the rebuilt loop against the
// committed CSVs, so any drift from the real sweep fails the run.
type fig6Trace struct {
	e           *env
	rec         *recorder
	scr         *sim.Scratch
	allocSample []allocCase // sets kept for the allocation pass
	gen         genStats
	dispatches  map[string]int
	jobs        map[string]int
}

type allocCase struct {
	set     *task.Set
	prods   *analysis.Products
	horizon timeu.Time
	sc      fault.Scenario
	seed    uint64
}

var fig6Approaches = []core.Approach{core.ST, core.DP, core.Selective}

// unit runs one master seed's three scenario sweeps under one root span
// and returns the reports, which match experiment.RunContext's.
func (t *fig6Trace) unit(ctx context.Context, seed uint64) ([]*experiment.Report, *analysis.Cache, error) {
	root := t.rec.begin("bench.unit", -1, 0)
	defer t.rec.end(root)
	cache := analysis.NewCache(0)
	var reps []*experiment.Report
	for _, s := range fig6Scenarios {
		rep, err := t.sweep(ctx, root, s.key, fig6Config(t.e, s.sc, seed), cache)
		if err != nil {
			return nil, nil, err
		}
		reps = append(reps, rep)
	}
	return reps, cache, nil
}

func (t *fig6Trace) sweep(ctx context.Context, parent int, key string, cfg experiment.Config, cache *analysis.Cache) (*experiment.Report, error) {
	sp := t.rec.begin("experiment.sweep."+key, parent, 0)
	defer t.rec.end(sp)
	rep := &experiment.Report{Scenario: cfg.Scenario, Approaches: fig6Approaches}
	for ivIdx, iv := range cfg.Intervals {
		row := experiment.Row{
			Interval:   iv,
			NormMean:   map[core.Approach]float64{},
			NormCI:     map[core.Approach]float64{},
			Violations: map[core.Approach]int{},
			Counters:   map[core.Approach]metrics.Counters{},
		}
		before := t.gen.candidates
		sets := generateSets(t.rec, sp, cfg.Workload, stats.DeriveSeed(cfg.Seed, uint64(ivIdx)), iv, cfg.SetsPerInterval, cfg.MaxCandidates, &t.gen)
		row.Candidates = t.gen.candidates - before
		for si, s := range sets {
			faultSeed := stats.DeriveSeed(cfg.Seed, uint64(1_000_000+ivIdx*10_000+si))
			sr, err := t.runSet(ctx, sp, s, cfg, cache, faultSeed)
			if err != nil {
				return nil, err
			}
			row.Sets = append(row.Sets, sr)
		}
		aggregateRow(&row, fig6Approaches)
		rep.Rows = append(rep.Rows, row)
	}
	return rep, nil
}

// runSet mirrors experiment.RunSet with the offline products forced
// up front, so the engine spans hold engine time only.
func (t *fig6Trace) runSet(ctx context.Context, parent int, s *task.Set, cfg experiment.Config, cache *analysis.Cache, faultSeed uint64) (experiment.SetResult, error) {
	horizon := simHorizon(s, cfg.MinHorizon, cfg.HorizonCap)
	sr := experiment.SetResult{
		Set: s, Horizon: horizon,
		Active:   map[core.Approach]float64{},
		Norm:     map[core.Approach]float64{},
		Violated: map[core.Approach]bool{},
		Counters: map[core.Approach]metrics.Counters{},
	}
	prods := cache.Get(s, analysis.Options{})
	if err := forceProducts(t.rec, parent, prods); err != nil {
		return sr, err
	}
	if len(t.allocSample) < 40 {
		t.allocSample = append(t.allocSample, allocCase{set: s, prods: prods, horizon: horizon, sc: cfg.Scenario, seed: faultSeed})
	}
	for _, a := range fig6Approaches {
		var res *sim.Result
		var err error
		t.rec.do("sim.run."+approachKey(a), parent, func() {
			res, err = runEngine(ctx, s, a, prods, horizon, cfg.Scenario, faultSeed, t.scr)
		})
		if err != nil {
			return sr, err
		}
		k := approachKey(a)
		t.dispatches[k] += res.Counters.Dispatches
		t.jobs[k] += res.Counters.Released
		sr.Active[a] = res.ActiveEnergy()
		sr.Violated[a] = !res.MKSatisfied()
		sr.Counters[a] = res.Counters
	}
	ref := sr.Active[core.ST]
	for _, a := range fig6Approaches {
		if ref > 0 {
			sr.Norm[a] = sr.Active[a] / ref
		} else {
			sr.Norm[a] = 1
		}
	}
	return sr, nil
}

// forceProducts computes the offline products the policies consume, as
// an analysis span with the θ analysis as its child.
func forceProducts(rec *recorder, parent int, prods *analysis.Products) error {
	sp := rec.begin("analysis.products", parent, 0)
	defer rec.end(sp)
	prods.ResponseTimes()
	prods.PromotionTimes()
	var err error
	rec.do("postpone.theta", sp, func() { _, err = prods.Postponement() })
	prods.Mandatory(0, 1)
	prods.Schedulable()
	return err
}

// runEngine is one engine run exactly as the sweep performs it.
func runEngine(ctx context.Context, s *task.Set, a core.Approach, prods *analysis.Products, horizon timeu.Time, sc fault.Scenario, faultSeed uint64, scr *sim.Scratch) (*sim.Result, error) {
	plan := fault.NewPlan(sc, horizon, stats.NewRand(faultSeed))
	policy, err := core.New(a, core.Options{Offline: prods})
	if err != nil {
		return nil, err
	}
	eng, err := sim.New(s, policy, sim.Config{Power: sim.DefaultPower(), Horizon: horizon, Faults: plan, Scratch: scr})
	if err != nil {
		return nil, err
	}
	return eng.RunContext(ctx)
}

// simHorizon is the sweep's per-set horizon rule: the (m,k)-hyperperiod
// extended to at least minH, capped at capH.
func simHorizon(s *task.Set, minH, capH timeu.Time) timeu.Time {
	h := s.MKHyperperiod(capH)
	if h >= capH {
		return capH
	}
	n := timeu.CeilDiv(minH, h)
	if n < 1 {
		n = 1
	}
	return min(n*h, capH)
}

// aggregateRow fills a row's interval statistics as the sweep does.
func aggregateRow(row *experiment.Row, approaches []core.Approach) {
	for _, a := range approaches {
		var sample stats.Sample
		var sum metrics.Counters
		for _, sr := range row.Sets {
			sample.Add(sr.Norm[a])
			if sr.Violated[a] {
				row.Violations[a]++
			}
			sum = sum.Add(sr.Counters[a])
		}
		row.NormMean[a] = sample.Mean()
		row.NormCI[a] = sample.CI95()
		row.Counters[a] = sum
	}
	for _, sr := range row.Sets {
		row.HorizonTotal += sr.Horizon
	}
}

func approachKey(a core.Approach) string {
	switch a {
	case core.ST:
		return "st"
	case core.DP:
		return "dp"
	case core.Selective:
		return "selective"
	case core.DBP:
		return "dbp"
	}
	return strings.ToLower(a.String())
}

// allocsPer runs fn n times between two heap-statistics reads and
// returns the allocations and bytes per call.
func allocsPer(n int, fn func(i int)) (allocs, bytes float64) {
	if n == 0 {
		return 0, 0
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		fn(i)
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n), float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
}

// isLayerSpan reports whether a span name belongs to a program layer
// (everything but the benchmark's own root and request spans).
func isLayerSpan(name string) bool {
	for _, p := range []string{"workload.", "rta.", "analysis.", "postpone.", "sim.", "experiment.", "estimate.", "store.", "serve.", "fleet."} {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

func runFig6Traced(ctx context.Context, e *env) (*outcome, error) {
	out := newOutcome()
	t := &fig6Trace{e: e, rec: e.rec, scr: sim.NewScratch(),
		dispatches: map[string]int{}, jobs: map[string]int{}}
	pool := sim.NewScratchPool()
	_, _, setup, err := repeatSetup(1, func() (struct{}, func(), error) {
		return struct{}{}, nil, fig6Golden(e, out, func(seed uint64) ([]*experiment.Report, error) {
			reps, _, err := t.unit(ctx, seed)
			return reps, err
		})
	})
	if err != nil {
		return nil, err
	}
	out.setupDone(setup)
	// Only the measured units below count towards the per-layer figures.
	t.gen = genStats{}
	t.dispatches, t.jobs = map[string]int{}, map[string]int{}
	t.allocSample = nil

	var untraced, traced []float64
	sweepS := map[string][]float64{}
	var hits, lookups uint64
	acc := newTraceAcc()
	end := e.deadline()
	units := 0
	for i := 0; i == 0 || time.Now().Before(end); i++ {
		seed := fig6Seed(e.opts.seed, i)
		t0 := time.Now()
		reps, ds, err := fig6Unit(ctx, e, seed, 1, pool)
		if err != nil {
			return nil, err
		}
		untraced = append(untraced, time.Since(t0).Seconds())
		for j, s := range fig6Scenarios {
			sweepS[s.key] = append(sweepS[s.key], ds[j].Seconds())
		}
		t0 = time.Now()
		mark := e.rec.mark()
		treps, cache, err := t.unit(ctx, seed)
		// Keep the first unit's spans for the trace file; fold the rest.
		acc.add(e.rec.cut(mark, i == 0))
		if err != nil {
			return nil, err
		}
		traced = append(traced, time.Since(t0).Seconds())
		for j := range reps {
			// The rebuilt loop must agree with the real sweep on every seed.
			err := checkFig6Report(treps[j])
			if err == nil && reps[j].CSV() != treps[j].CSV() {
				err = fmt.Errorf("traced %s sweep differs from experiment.RunContext at seed %d", fig6Scenarios[j].key, seed)
			}
			out.check(setsIn(treps[j]), err)
		}
		st := cache.Stats()
		hits += st.Hits
		lookups += st.Hits + st.Misses
		units++
	}
	L := out.layer
	t.layers(ctx, L, acc.lt, float64(units), out)
	L["analysis.cache_hit_ratio"] = float64(hits) / float64(max(lookups, 1))
	for _, s := range fig6Scenarios {
		L["experiment.sweep_s."+s.key] = mean(sweepS[s.key])
	}
	L["trace.overhead_ratio"] = median(traced) / median(untraced)
	L["trace.coverage_ratio"] = acc.coverage()
	out.detail["units"] = units
	return out, nil
}

// layers fills the per-layer figures of the rebuilt sweeps (workload,
// rta filter, analysis, postpone, sim and the sweep loop's own time)
// per unit of work from their spans.
func (t *fig6Trace) layers(ctx context.Context, L map[string]float64, lt layerTimes, units float64, out *outcome) {
	per := func(name string) float64 { return lt.total[name].Seconds() / units }
	genLayers(L, lt, t.gen, units)
	L["analysis.products_s"] = per("analysis.products")
	L["postpone.theta_s"] = per("postpone.theta")
	for _, a := range fig6Approaches {
		k := approachKey(a)
		name := "sim.run." + k
		L["sim.run_s."+k] = per(name)
		L["sim.ns_per_job."+k] = float64(lt.total[name].Nanoseconds()) / float64(max(t.jobs[k], 1))
		L["sim.dispatches."+k] = float64(t.dispatches[k]) / units
		L["sim.allocs_per_run."+k], _ = allocsPer(len(t.allocSample), func(i int) {
			c := t.allocSample[i]
			if _, err := runEngine(ctx, c.set, a, c.prods, c.horizon, c.sc, c.seed, t.scr); err != nil {
				out.check(1, err)
			}
		})
	}
	for _, sc := range scenarioKeys {
		L["experiment.self_s"] += lt.self["experiment.sweep."+sc].Seconds() / units
	}
}

func ratio(n, d int) float64 {
	if d == 0 {
		return 0
	}
	return float64(n) / float64(d)
}
