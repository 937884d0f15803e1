package rta_test

import (
	"fmt"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/pattern"
	"repro/internal/postpone"
	"repro/internal/rta"
	"repro/internal/task"
	"repro/internal/timeu"
	"repro/internal/workload"
)

// fig6Intervals are a low, a mid and a high bucket of the Fig-6 sweep.
var fig6Intervals = []workload.Interval{{Lo: 0.1, Hi: 0.2}, {Lo: 0.5, Hi: 0.6}, {Lo: 0.9, Hi: 1.0}}

// fig6Candidates draws n candidate sets per interval from the sweep's
// default generator — the sets the R-pattern filter judges, accepted or
// not.
func fig6Candidates(n int) [][]*task.Set {
	g := workload.NewGenerator(workload.DefaultConfig(), 2020)
	out := make([][]*task.Set, len(fig6Intervals))
	for k, iv := range fig6Intervals {
		for tries := 0; len(out[k]) < n && tries < 100*n; tries++ {
			s, err := g.Candidate(iv.Lo + (iv.Hi-iv.Lo)*(float64(tries%8)+0.5)/8)
			if err != nil {
				continue
			}
			if u := s.MKUtilization(); u >= iv.Lo && u < iv.Hi {
				out[k] = append(out[k], s)
			}
		}
	}
	return out
}

// The filter is tagged //mklint:hotpath and runs on every sweep
// candidate; its allocations must not grow with the hyperperiod. The
// budget covers the iterator's cursors, the ready queue and the
// hyperperiod computation.
func TestSchedulableRPatternAllocBudget(t *testing.T) {
	const budget = 4
	cfg := workload.DefaultConfig()
	for k, sets := range fig6Candidates(8) {
		if len(sets) == 0 {
			t.Fatalf("no candidates in %v", fig6Intervals[k])
		}
		worst := 0.0
		for _, s := range sets {
			worst = max(worst, testing.AllocsPerRun(5, func() {
				rta.SchedulableRPattern(s, cfg.Pattern, cfg.SchedCap)
			}))
		}
		if worst > budget {
			t.Errorf("%v: %v allocs per call, budget %d", fig6Intervals[k], worst, budget)
		}
	}
}

// Benchmark results land in sinks so the calls cannot be optimized away.
var (
	sinkVerdict bool
	sinkProfile rta.Profile
)

func BenchmarkSchedulableRPattern(b *testing.B) {
	cfg := workload.DefaultConfig()
	for k, sets := range fig6Candidates(16) {
		b.Run(fmt.Sprintf("u=%.2f", fig6Intervals[k].Mid()), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sinkVerdict = rta.SchedulableRPattern(sets[i%len(sets)], cfg.Pattern, cfg.SchedCap)
			}
		})
	}
}

func BenchmarkMandatoryProfile(b *testing.B) {
	cfg := workload.DefaultConfig()
	for k, sets := range fig6Candidates(16) {
		b.Run(fmt.Sprintf("u=%.2f", fig6Intervals[k].Mid()), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sinkProfile = rta.MandatoryProfile(sets[i%len(sets)], cfg.Pattern, cfg.SchedCap)
			}
		})
	}
}

// verifyMatchesTick reports whether Verify's violations are the tick
// oracle's misses under the analysis' θ shifts.
func verifyMatchesTick(s *task.Set, an *postpone.Analysis, horizon timeu.Time) bool {
	var got []rta.TickMiss
	for _, v := range an.Verify(s, pattern.RPattern, horizon) {
		got = append(got, rta.TickMiss{TaskID: v.TaskID, Index: v.Index, Completion: v.Completion, Deadline: v.Deadline})
	}
	return slices.Equal(got, rta.TickFP(s, pattern.RPattern, horizon, an.Theta).Misses)
}

// Verify's shifted walk is the tick oracle's schedule: on the Fig. 5 set
// with its computed θ and with τ2's θ overridden past safety.
func TestVerifyMatchesTickOracleFig5(t *testing.T) {
	s := task.NewSet(task.New(0, 10, 10, 3, 2, 3), task.New(1, 15, 15, 8, 1, 2))
	an, err := postpone.Compute(s, postpone.Options{Pattern: pattern.RPattern})
	if err != nil {
		t.Fatal(err)
	}
	if !verifyMatchesTick(s, an, timeu.FromMillis(3000)) {
		t.Error("computed θ: Verify disagrees with the tick oracle")
	}
	an.Theta[1] = timeu.FromMillis(12)
	if len(an.Verify(s, pattern.RPattern, timeu.FromMillis(300))) == 0 {
		t.Fatal("overridden θ must violate")
	}
	if !verifyMatchesTick(s, an, timeu.FromMillis(300)) {
		t.Error("overridden θ: Verify disagrees with the tick oracle")
	}
}

// Property: over random sets, Verify's violation list equals the tick
// oracle's misses, both under the computed θ and with θ pushed later.
func TestVerifyMatchesTickOracle(t *testing.T) {
	f := func(p1, p2, p3, c1, c2, c3, k1, k2, k3, extra uint8) bool {
		mkTask := func(id int, pr, cr, kr uint8) task.Task {
			period := timeu.Time(pr%5+1) * 5 * timeu.Millisecond
			k := int(kr%4) + 2
			m := max(k-1-int(kr%2), 1)
			wcet := timeu.Time(cr%5+1) * period / 10
			return task.Task{ID: id, Period: period, Deadline: period, WCET: wcet, M: m, K: k}
		}
		s := task.NewSet(mkTask(0, p1, c1, k1), mkTask(1, p2, c2, k2), mkTask(2, p3, c3, k3))
		if s.Validate() != nil {
			return true
		}
		an, err := postpone.Compute(s, postpone.Options{Pattern: pattern.RPattern})
		if err != nil {
			return false
		}
		horizon := 2 * s.MKHyperperiod(timeu.Second)
		if !verifyMatchesTick(s, an, horizon) {
			return false
		}
		for i := range an.Theta {
			an.Theta[i] += timeu.Time(extra>>(2*i)%4) * 2 * timeu.Millisecond
		}
		return verifyMatchesTick(s, an, horizon)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
