// Package workload generates the random periodic task sets of the
// paper's evaluation (§V): five to ten tasks per set, periods uniform in
// [5,50] ms, ki uniform in [2,20] with 0 < mi < ki, WCETs drawn so the
// total (m,k)-utilization Σ mi·Ci/(ki·Pi) hits a target drawn from the
// current 0.1-wide utilization interval, and a schedulability filter that
// keeps only sets satisfying the premise of Theorem 1 (mandatory jobs
// schedulable under the static R-pattern). Each interval collects at
// least 20 schedulable sets or gives up after 5000 candidates, exactly as
// in the paper.
package workload

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/pattern"
	"repro/internal/rta"
	"repro/internal/stats"
	"repro/internal/task"
	"repro/internal/timeu"
)

// Config parameterizes generation; DefaultConfig reproduces §V.
type Config struct {
	// NTasksMin..NTasksMax bound the set size (paper: 5..10).
	NTasksMin, NTasksMax int
	// PeriodMin..PeriodMax bound the periods (paper: 5..50 ms), drawn as
	// whole milliseconds.
	PeriodMin, PeriodMax timeu.Time
	// KMin..KMax bound ki (paper: 2..20); mi is uniform in [1, ki-1].
	KMin, KMax int
	// MinWCET floors the execution times so numerical dust cannot create
	// degenerate jobs (50 µs by default; the paper does not specify).
	MinWCET timeu.Time
	// Pattern is the static partition used by the schedulability filter.
	Pattern pattern.Kind
	// SchedCap bounds the R-pattern schedulability simulation horizon.
	SchedCap timeu.Time
	// RequireFullRTA additionally demands full FP schedulability (every
	// job, not just mandatory ones) — OFF by default; the paper's premise
	// is R-pattern schedulability.
	RequireFullRTA bool
	// HarmonicPeriods restricts periods to a divisor-friendly menu
	// ({5,10,20,25,40,50} ms) and k to {2,4,5,8,10}, keeping the
	// (m,k)-hyperperiods small enough that the θ analysis of Defs. 2–5
	// stays exact instead of falling back to Yi. Off by default (the
	// paper draws periods uniformly).
	HarmonicPeriods bool
}

// harmonicPeriodMenu and harmonicKMenu keep LCM(ki·Pi) within 1 s.
var (
	harmonicPeriodMenu = []timeu.Time{
		5 * timeu.Millisecond, 10 * timeu.Millisecond, 20 * timeu.Millisecond,
		25 * timeu.Millisecond, 40 * timeu.Millisecond, 50 * timeu.Millisecond,
	}
	harmonicKMenu = []int{2, 4, 5, 8, 10}
)

// DefaultConfig returns the paper's §V parameters.
func DefaultConfig() Config {
	return Config{
		NTasksMin: 5,
		NTasksMax: 10,
		PeriodMin: 5 * timeu.Millisecond,
		PeriodMax: 50 * timeu.Millisecond,
		KMin:      2,
		KMax:      20,
		MinWCET:   50 * timeu.Microsecond,
		Pattern:   pattern.RPattern,
		SchedCap:  10 * timeu.Second,
	}
}

// Generator draws task sets from its own deterministic stream.
type Generator struct {
	cfg Config
	rng *stats.Rand
}

// NewGenerator builds a generator with the given config and seed.
func NewGenerator(cfg Config, seed uint64) *Generator {
	return &Generator{cfg: cfg, rng: stats.NewRand(seed)}
}

// uunifast splits total utilization across n tasks uniformly at random
// (Bini & Buttazzo's UUniFast), the standard unbiased splitter.
func (g *Generator) uunifast(n int, total float64) []float64 {
	us := make([]float64, n)
	sum := total
	for i := 0; i < n-1; i++ {
		next := sum * math.Pow(g.rng.Float64(), 1/float64(n-1-i))
		us[i] = sum - next
		sum = next
	}
	us[n-1] = sum
	return us
}

// Candidate draws one random task set with total (m,k)-utilization
// targetU (no schedulability filtering). It errors only when the target
// is infeasible for the drawn structure (some Ci would exceed its
// deadline even after clamping, or fall below MinWCET).
func (g *Generator) Candidate(targetU float64) (*task.Set, error) {
	if targetU <= 0 {
		return nil, errors.New("workload: non-positive utilization target")
	}
	n := g.cfg.NTasksMin
	if g.cfg.NTasksMax > g.cfg.NTasksMin {
		n += g.rng.Intn(g.cfg.NTasksMax - g.cfg.NTasksMin + 1)
	}
	us := g.uunifast(n, targetU)
	tasks := make([]task.Task, n)
	for i := 0; i < n; i++ {
		var period timeu.Time
		var k int
		if g.cfg.HarmonicPeriods {
			period = harmonicPeriodMenu[g.rng.Intn(len(harmonicPeriodMenu))]
			k = harmonicKMenu[g.rng.Intn(len(harmonicKMenu))]
		} else {
			periodMS := int64(g.cfg.PeriodMin/timeu.Millisecond) +
				g.rng.Int64n(int64((g.cfg.PeriodMax-g.cfg.PeriodMin)/timeu.Millisecond)+1)
			period = timeu.Time(periodMS) * timeu.Millisecond
			k = g.cfg.KMin + g.rng.Intn(g.cfg.KMax-g.cfg.KMin+1)
		}
		m := 1 + g.rng.Intn(k-1)
		// Ci = ui · ki · Pi / mi  (inverting the (m,k)-utilization).
		wcet := timeu.Time(math.Round(us[i] * float64(k) * float64(period) / float64(m)))
		if wcet < g.cfg.MinWCET {
			wcet = g.cfg.MinWCET
		}
		if wcet > period {
			return nil, &infeasibleError{task: i + 1, wcet: wcet, deadline: period}
		}
		tasks[i] = task.Task{
			ID:       i,
			Period:   period,
			Deadline: period,
			WCET:     wcet,
			M:        m,
			K:        k,
		}
	}
	s := task.NewSet(tasks...)
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// infeasibleError is Candidate's error for a task whose WCET exceeds its
// deadline. About 40% of a sweep's candidates end here and every caller
// discards the error, so the message is formatted only on demand.
type infeasibleError struct {
	task           int // 1-based
	wcet, deadline timeu.Time
}

func (e *infeasibleError) Error() string {
	return fmt.Sprintf("workload: task %d infeasible (C=%v > D=%v)", e.task, e.wcet, e.deadline)
}

// Schedulable reports whether s passes the evaluation's filter.
func (g *Generator) Schedulable(s *task.Set) bool {
	if g.cfg.RequireFullRTA && !rta.SchedulableRTA(s) {
		return false
	}
	return rta.SchedulableRPattern(s, g.cfg.Pattern, g.cfg.SchedCap)
}

// Interval is one (m,k)-utilization bucket [Lo, Hi).
type Interval struct{ Lo, Hi float64 }

func (iv Interval) String() string { return fmt.Sprintf("[%.2f,%.2f)", iv.Lo, iv.Hi) }

// Mid returns the interval midpoint (Figure 6's x coordinate).
func (iv Interval) Mid() float64 { return (iv.Lo + iv.Hi) / 2 }

// Intervals builds the sweep buckets: [lo, lo+step), ..., up to hi.
func Intervals(lo, hi, step float64) []Interval {
	var out []Interval
	for x := lo; x < hi-1e-9; x += step {
		out = append(out, Interval{Lo: x, Hi: math.Min(x+step, hi)})
	}
	return out
}

// IntervalResult reports one bucket's generation statistics.
type IntervalResult struct {
	Interval   Interval
	Sets       []*task.Set
	Candidates int // candidates drawn (including infeasible/unschedulable)
}

// GenerateInterval rejection-samples schedulable sets whose total
// (m,k)-utilization lies in iv, stopping at want sets or maxCandidates
// attempts (paper: 20 and 5000).
func (g *Generator) GenerateInterval(iv Interval, want, maxCandidates int) IntervalResult {
	res := IntervalResult{Interval: iv}
	for res.Candidates < maxCandidates && len(res.Sets) < want {
		res.Candidates++
		target := iv.Lo + g.rng.Float64()*(iv.Hi-iv.Lo)
		s, err := g.Candidate(target)
		if err != nil {
			continue
		}
		// The WCET floor can push the realized utilization out of the
		// bucket; keep the buckets honest.
		if u := s.MKUtilization(); u < iv.Lo || u >= iv.Hi {
			continue
		}
		if !g.Schedulable(s) {
			continue
		}
		res.Sets = append(res.Sets, s)
	}
	return res
}
