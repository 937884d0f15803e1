package rta

import (
	"repro/internal/pattern"
	"repro/internal/task"
	"repro/internal/timeu"
)

// TickRun is what the tick-stepped reference schedule observed, in the
// walk's terms: the verdict, the Profile aggregates and every deadline
// miss in completion order.
type TickRun struct {
	Met         bool
	Busy        timeu.Time
	Gaps        []timeu.Time
	Count       []int
	MaxResponse []timeu.Time
	Misses      []TickMiss
}

// TickMiss is one job that completed past its deadline.
type TickMiss struct {
	TaskID, Index        int
	Completion, Deadline timeu.Time
}

// TickFP is the independent oracle for the FP walk. It enumerates the
// mandatory jobs released in [0, horizon) straight from the pattern,
// delays every release of task i by shift[i] (nil = synchronous) and
// advances preemptive FP one unit step at a time, the step being the GCD
// of every period, WCET, deadline, offset and shift. There is no event
// jumping and no ready queue: each step runs the earliest pending job of
// the highest-priority task that has one released.
//
// It is exported from a test file so the external Verify comparison in
// this directory can use it.
func TickFP(s *task.Set, kind pattern.Kind, horizon timeu.Time, shift []timeu.Time) TickRun {
	type job struct {
		index                      int
		release, deadline, remains timeu.Time
	}
	var step timeu.Time
	gcd := func(v timeu.Time) {
		for v != 0 {
			step, v = v, step%v
		}
	}
	jobs := make([][]job, s.N())
	left := 0
	for i, t := range s.Tasks {
		var sh timeu.Time
		if shift != nil {
			sh = shift[i]
		}
		for _, v := range []timeu.Time{t.Period, t.WCET, t.Deadline, t.Offset, sh} {
			gcd(v)
		}
		for j := 1; t.Release(j) < horizon; j++ {
			if pattern.Mandatory(kind, j, t.M, t.K) {
				jobs[i] = append(jobs[i], job{j, t.Release(j) + sh, t.AbsDeadline(j), t.WCET})
				left++
			}
		}
	}
	run := TickRun{Met: true, Count: make([]int, s.N()), MaxResponse: make([]timeu.Time, s.N())}
	head := make([]int, s.N()) // each task's earliest unfinished job
	var now, gap timeu.Time
	for ; left > 0; now += step {
		i := 0
		for i < len(jobs) && (head[i] == len(jobs[i]) || jobs[i][head[i]].release > now) {
			i++
		}
		if i == len(jobs) {
			gap += step
			continue
		}
		if gap > 0 {
			run.Gaps = append(run.Gaps, gap)
			gap = 0
		}
		jb := &jobs[i][head[i]]
		if jb.remains -= step; jb.remains > 0 {
			continue
		}
		head[i]++
		left--
		end := now + step
		run.Count[i]++
		run.Busy += s.Tasks[i].WCET
		run.MaxResponse[i] = max(run.MaxResponse[i], end-jb.release)
		if end > jb.deadline {
			run.Met = false
			run.Misses = append(run.Misses, TickMiss{s.Tasks[i].ID, jb.index, end, jb.deadline})
		}
	}
	if now < horizon {
		run.Gaps = append(run.Gaps, horizon-now)
	}
	return run
}
