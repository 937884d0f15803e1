package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"time"

	"repro/internal/analysis"
	"repro/internal/pattern"
	"repro/internal/rta"
	"repro/internal/stats"
	"repro/internal/workload"
)

// ksweepSize is one k-sequence sweep's shape (mkablate -ksweep flags).
type ksweepSize struct {
	sets, candidates int
	lo, hi           float64
}

var (
	// ksweepGolden is the size results/golden/fig7_ksweep.csv was made at.
	ksweepGolden = ksweepSize{sets: 25, candidates: 5000, lo: 0.2, hi: 1.0}
	// ksweepMeasured is the measured size: twice the golden's sets, so
	// the high-utilization buckets, where the walks are longest, weigh more.
	ksweepMeasured = ksweepSize{sets: 50, candidates: 5000, lo: 0.2, hi: 1.0}
	ksweepTiny     = ksweepSize{sets: 4, candidates: 200, lo: 0.4, hi: 0.7}
)

// kseedRows are the four initial k-sequence shapes of the Fig-7 family
// (mkablate -ksweep): fresh, single_miss, epat, worst.
var kseedRows = []func(m, k int) []bool{
	nil,
	func(m, k int) []bool { return []bool{false} },
	func(m, k int) []bool {
		row := make([]bool, k)
		for j := 1; j <= k; j++ {
			row[j-1] = pattern.Mandatory(pattern.EPattern, j, m, k)
		}
		return row
	},
	func(m, k int) []bool {
		row := make([]bool, k)
		for j := 0; j < m; j++ {
			row[j] = true
		}
		return row
	},
}

// ksweepStats counts what one or more sweeps did, for the traced run.
type ksweepStats struct {
	sets, candidates, dbpCalls, dbpExact int
}

// ksweep is the mkablate -ksweep loop rebuilt from exported calls:
// Candidate, then the θ analysis, then DBPExact under each initial
// k-sequence, on unfiltered harmonic sets. It returns the Fig-7 CSV and
// appends each evaluated set's latency to opMS.
func ksweep(rec *recorder, parent int, size ksweepSize, seed uint64, opMS *[]float64, st *ksweepStats) []byte {
	wl := workload.DefaultConfig()
	wl.HarmonicPeriods = true
	var b bytes.Buffer
	b.WriteString("util_mid,sets,fresh,single_miss,epat,worst\n")
	rng := stats.NewRand(seed)
	for i, iv := range workload.Intervals(size.lo, size.hi, 0.1) {
		gen := workload.NewGenerator(wl, seed+uint64(i))
		used := 0
		pass := make([]int, len(kseedRows))
		for drawn := 0; drawn < size.candidates && used < size.sets; drawn++ {
			t0 := time.Now()
			target := iv.Lo + rng.Float64()*(iv.Hi-iv.Lo)
			sp := rec.begin("workload.generate", parent, 0)
			s, err := gen.Candidate(target)
			rec.end(sp)
			st.candidates++
			if err != nil {
				continue
			}
			if u := s.MKUtilization(); u < iv.Lo || u >= iv.Hi {
				continue
			}
			sp = rec.begin("analysis.products", parent, 0)
			prods := analysis.New(s, analysis.Options{})
			th := rec.begin("postpone.theta", sp, 0)
			post, err := prods.Postponement()
			rec.end(th)
			rec.end(sp)
			if err != nil {
				continue
			}
			used++
			st.sets++
			for ki, row := range kseedRows {
				var init [][]bool
				if row != nil {
					init = make([][]bool, s.N())
					for ti := range s.Tasks {
						init[ti] = row(s.Tasks[ti].M, s.Tasks[ti].K)
					}
				}
				sp := rec.begin("rta.dbp_exact", parent, 0)
				v := rta.DBPExact(s, rta.DBPConfig{Theta: post.Theta, Init: init})
				rec.end(sp)
				st.dbpCalls++
				if v.Exact {
					st.dbpExact++
				}
				if v.Schedulable {
					pass[ki]++
				}
			}
			if opMS != nil {
				*opMS = append(*opMS, ms(time.Since(t0)))
			}
		}
		fmt.Fprintf(&b, "%.2f,%d", iv.Mid(), used)
		for ki := range kseedRows {
			frac := 0.0
			if used > 0 {
				frac = float64(pass[ki]) / float64(used)
			}
			fmt.Fprintf(&b, ",%.3f", frac)
		}
		b.WriteString("\n")
	}
	return b.Bytes()
}

// checkKSweepCSV verifies a sweep's shape: one row per bucket, at most
// size.sets sets per row, every fraction in [0, 1] and a multiple of
// 1/sets.
func checkKSweepCSV(csv []byte, size ksweepSize) error {
	lines := bytes.Split(bytes.TrimSuffix(csv, []byte("\n")), []byte("\n"))
	want := len(workload.Intervals(size.lo, size.hi, 0.1))
	if len(lines) != want+1 {
		return fmt.Errorf("ksweep: %d rows, want %d", len(lines)-1, want)
	}
	for _, ln := range lines[1:] {
		var mid float64
		var sets int
		var f [4]float64
		if _, err := fmt.Sscanf(string(ln), "%f,%d,%f,%f,%f,%f", &mid, &sets, &f[0], &f[1], &f[2], &f[3]); err != nil {
			return fmt.Errorf("ksweep: row %q: %v", ln, err)
		}
		if sets < 0 || sets > size.sets {
			return fmt.Errorf("ksweep: row %q: %d sets, limit %d", ln, sets, size.sets)
		}
		for _, x := range f {
			if x < 0 || x > 1 || (sets > 0 && !nearWhole(x*float64(sets), 0.0005*float64(sets))) {
				return fmt.Errorf("ksweep: row %q: fraction %v is not k/%d", ln, x, sets)
			}
		}
	}
	return nil
}

// nearWhole reports whether x is within tol of a whole number (the
// CSV rounds fractions to three decimals).
func nearWhole(x, tol float64) bool {
	return math.Abs(x-math.Round(x)) <= tol+1e-9
}

func (e *env) ksweepSize() ksweepSize {
	if e.opts.tiny {
		return ksweepTiny
	}
	return ksweepMeasured
}

// ksweepGoldenCheck runs the committed Fig-7 size at seed 2020 and
// compares it byte for byte (a tiny run checks shape only).
func ksweepGoldenCheck(e *env, out *outcome) {
	size := ksweepGolden
	if e.opts.tiny {
		size = ksweepTiny
	}
	var st ksweepStats
	csv := ksweep(nil, -1, size, goldenSeed, nil, &st)
	err := checkKSweepCSV(csv, size)
	if err == nil && !e.opts.tiny {
		err = checkGoldenCSV("fig7_ksweep.csv", csv)
	}
	out.check(st.sets, err)
}

func kseed(seed uint64, i int) uint64 { return stats.DeriveSeed(seed, uint64(1000+i)) }

func runKSweep(ctx context.Context, e *env) (*outcome, error) {
	out := newOutcome()
	_, _, setup, err := repeatSetup(setupRuns, func() (struct{}, func(), error) {
		ksweepGoldenCheck(e, out)
		return struct{}{}, nil, nil
	})
	if err != nil {
		return nil, err
	}
	out.setupDone(setup)
	size := e.ksweepSize()
	if e.rec != nil {
		return runKSweepTraced(e, out, size)
	}

	var lat latencies
	var first []byte
	resetPeakRSS()
	start := time.Now()
	end := e.deadline()
	for i := 0; i == 0 || time.Now().Before(end); i++ {
		var st ksweepStats
		t0 := time.Now()
		csv := ksweep(nil, -1, size, kseed(e.opts.seed, i), &lat.ops, &st)
		lat.unitDone(time.Since(t0))
		out.check(st.sets, checkKSweepCSV(csv, size))
		if i == 0 {
			first = csv
		}
	}
	lat.elapsed = time.Since(start)
	lat.fill(out)
	// Determinism: the first unit's seed must reproduce its CSV exactly.
	var st ksweepStats
	again := ksweep(nil, -1, size, kseed(e.opts.seed, 0), nil, &st)
	var err2 error
	if !bytes.Equal(again, first) {
		err2 = fmt.Errorf("ksweep: seed %d did not reproduce its CSV", kseed(e.opts.seed, 0))
	}
	out.check(st.sets, err2)
	return out, nil
}

func runKSweepTraced(e *env, out *outcome, size ksweepSize) (*outcome, error) {
	var untraced, traced []float64
	var st ksweepStats // summed over the traced units
	acc := newTraceAcc()
	end := e.deadline()
	units := 0
	for i := 0; i == 0 || time.Now().Before(end); i++ {
		seed := kseed(e.opts.seed, i)
		var plain ksweepStats
		t0 := time.Now()
		want := ksweep(nil, -1, size, seed, nil, &plain)
		untraced = append(untraced, time.Since(t0).Seconds())
		t0 = time.Now()
		mark := e.rec.mark()
		root := e.rec.begin("bench.unit", -1, 0)
		var ust ksweepStats
		got := ksweep(e.rec, root, size, seed, nil, &ust)
		e.rec.end(root)
		acc.add(e.rec.cut(mark, i == 0))
		traced = append(traced, time.Since(t0).Seconds())
		err := checkKSweepCSV(got, size)
		if err == nil && !bytes.Equal(got, want) {
			err = fmt.Errorf("ksweep: traced sweep differs from the untraced one at seed %d", seed)
		}
		out.check(ust.sets, err)
		st.sets += ust.sets
		st.candidates += ust.candidates
		st.dbpCalls += ust.dbpCalls
		st.dbpExact += ust.dbpExact
		units++
	}
	lt := acc.lt
	per := func(name string) float64 { return lt.total[name].Seconds() / float64(units) }
	L := out.layer
	L["workload.candidates"] = float64(st.candidates) / float64(units)
	L["workload.generate_s"] = per("workload.generate")
	L["workload.accept_ratio"] = ratio(st.sets, st.candidates)
	L["analysis.products_s"] = per("analysis.products")
	L["postpone.theta_s"] = per("postpone.theta")
	L["rta.dbp_exact_calls"] = float64(st.dbpCalls) / float64(units)
	L["rta.dbp_exact_us_per_call"] = us(lt.total["rta.dbp_exact"]) / float64(max(st.dbpCalls, 1))
	L["rta.dbp_exact_ratio"] = ratio(st.dbpExact, st.dbpCalls)
	L["trace.overhead_ratio"] = median(traced) / median(untraced)
	L["trace.coverage_ratio"] = acc.coverage()
	out.detail["units"] = units
	return out, nil
}
