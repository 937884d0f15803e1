// Package rta implements fixed-priority response-time analysis and the
// derived quantities the paper needs: the worst-case response time Ri of
// each task, the dual-priority promotion time Yi = Di − Ri (Eq. (2)), and
// schedulability tests — the classic exact RTA test over full periodic
// interference, plus an R-pattern-aware test that simulates the
// synchronous mandatory-only schedule over the (m,k)-hyperperiod (the
// premise of Theorem 1).
package rta

import (
	"fmt"
	"slices"

	"repro/internal/pattern"
	"repro/internal/task"
	"repro/internal/timeu"
)

// ErrUnschedulable is wrapped by analysis errors when a task cannot meet
// its deadline.
type ErrUnschedulable struct {
	TaskID int
	Detail string
}

func (e *ErrUnschedulable) Error() string {
	return fmt.Sprintf("rta: task %d unschedulable: %s", e.TaskID+1, e.Detail)
}

// ResponseTime computes the worst-case response time of task i in set s
// under preemptive fixed-priority scheduling with full periodic
// interference from all higher-priority tasks (each task treated as
// strictly periodic — the paper's Eq. (2) uses this standard analysis;
// its example set τ1=(5,4,3,2,4), τ2=(10,10,3,1,2) yields R1=3, R2=9 and
// hence Y1=Y2=1, matching §III).
//
// The fixed-point iteration R = Ci + Σ_{j<i} ⌈R/Pj⌉·Cj starts from Ci and
// stops when it converges or exceeds the deadline, in which case an
// *ErrUnschedulable is returned.
func ResponseTime(s *task.Set, i int) (timeu.Time, error) {
	t := s.Tasks[i]
	r := t.WCET
	for iter := 0; ; iter++ {
		next := t.WCET
		for j := 0; j < i; j++ {
			hp := s.Tasks[j]
			next += timeu.CeilDiv(r, hp.Period) * hp.WCET
		}
		if next == r {
			return r, nil
		}
		if next > t.Deadline {
			return next, &ErrUnschedulable{TaskID: i, Detail: fmt.Sprintf("response time exceeds deadline %v", t.Deadline)}
		}
		r = next
	}
}

// ResponseTimes computes all response times; it fails on the first
// unschedulable task.
func ResponseTimes(s *task.Set) ([]timeu.Time, error) {
	out := make([]timeu.Time, s.N())
	for i := range s.Tasks {
		r, err := ResponseTime(s, i)
		if err != nil {
			return nil, err
		}
		out[i] = r
	}
	return out, nil
}

// PromotionTimes computes Yi = Di − Ri (Eq. (2)) for every task: the
// amount by which a backup job may be procrastinated under the
// dual-priority scheme while still meeting its deadline.
func PromotionTimes(s *task.Set) ([]timeu.Time, error) {
	rs, err := ResponseTimes(s)
	if err != nil {
		return nil, err
	}
	ys := make([]timeu.Time, len(rs))
	for i, r := range rs {
		ys[i] = s.Tasks[i].Deadline - r
	}
	return ys, nil
}

// ResponseTimesSafe computes every task's worst-case response time with a
// divergence fallback instead of an error: converged[i] reports whether
// the fixed point settled within the deadline; when it did not, rs[i] is
// the first iterate past the deadline (an under-approximation of the true,
// possibly unbounded, response time). The pair is the memoizable "RTA
// response times" product consumed by internal/analysis.
func ResponseTimesSafe(s *task.Set) (rs []timeu.Time, converged []bool) {
	rs = make([]timeu.Time, s.N())
	converged = make([]bool, s.N())
	for i := range s.Tasks {
		r, err := ResponseTime(s, i)
		rs[i] = r
		converged[i] = err == nil
	}
	return rs, converged
}

// PromotionTimesSafe computes Yi = Di − Ri like PromotionTimes but never
// fails: tasks whose full-interference response time diverges past the
// deadline get Yi = 0 (no procrastination — the dual-priority baseline
// degenerates to concurrent execution for them). This matters for (m,k)
// workloads that are R-pattern-schedulable without being fully
// schedulable: the baselines still need *some* promotion interval.
func PromotionTimesSafe(s *task.Set) []timeu.Time {
	rs, converged := ResponseTimesSafe(s)
	return PromotionFromResponse(s, rs, converged)
}

// PromotionFromResponse derives the promotion intervals Yi = Di − Ri from
// already-computed response times (Eq. 2 with the divergence fallback of
// PromotionTimesSafe). It lets callers holding memoized response times
// avoid re-running the fixed-point iteration.
func PromotionFromResponse(s *task.Set, rs []timeu.Time, converged []bool) []timeu.Time {
	ys := make([]timeu.Time, s.N())
	for i := range s.Tasks {
		if !converged[i] {
			ys[i] = 0
			continue
		}
		ys[i] = s.Tasks[i].Deadline - rs[i]
	}
	return ys
}

// SchedulableRTA reports whether the full task set (every job of every
// task, ignoring (m,k) slack) is FP-schedulable by exact response-time
// analysis. This is sufficient but pessimistic for (m,k) systems.
func SchedulableRTA(s *task.Set) bool {
	_, err := ResponseTimes(s)
	return err == nil
}

// MandatoryJob identifies one mandatory job within the pattern horizon.
type MandatoryJob struct {
	TaskID   int
	Index    int // 1-based job index
	Release  timeu.Time
	Deadline timeu.Time
	WCET     timeu.Time
}

// mandCursor tracks one task's next mandatory release during the k-way
// merge of the per-task mandatory-job streams.
type mandCursor struct {
	j       int // next mandatory job index (1-based); 0 = exhausted
	release timeu.Time
}

// mandIter streams the mandatory jobs of a set in (release, priority)
// order — the k-way merge behind MandatoryJobs, exposed as an iterator so
// the FP walk can consume jobs without materializing a hyperperiod-sized
// slice per candidate (the allocation used to dominate whole-sweep
// profiles).
//
// A non-nil shift delays every release of task i by shift[i]. The
// horizon cut stays on the unshifted release: job j of task i is streamed
// when Release(j) < horizon, with Release = Release(j)+shift[i] and
// Deadline = AbsDeadline(j).
type mandIter struct {
	s       *task.Set
	kind    pattern.Kind
	horizon timeu.Time
	shift   []timeu.Time
	cur     []mandCursor
}

//mklint:hotpath
func (it *mandIter) init(s *task.Set, kind pattern.Kind, horizon timeu.Time, shift []timeu.Time) {
	it.s, it.kind, it.horizon, it.shift = s, kind, horizon, shift
	it.cur = make([]mandCursor, len(s.Tasks))
	for i := range s.Tasks {
		it.advance(i, 0)
	}
}

// advance moves task i's cursor to its next mandatory job released in
// [0, horizon), starting after job index from.
//
//mklint:hotpath
func (it *mandIter) advance(i, from int) {
	t := &it.s.Tasks[i]
	for j := from + 1; ; j++ {
		r := t.Release(j)
		if r >= it.horizon {
			it.cur[i] = mandCursor{}
			return
		}
		if pattern.Mandatory(it.kind, j, t.M, t.K) {
			if it.shift != nil {
				r += it.shift[i]
			}
			it.cur[i] = mandCursor{j: j, release: r}
			return
		}
	}
}

// next returns the next mandatory job in (release, priority) order; ok is
// false once the streams are exhausted.
//
//mklint:hotpath
func (it *mandIter) next() (mj MandatoryJob, ok bool) {
	// Lowest release wins; the scan order breaks ties by priority.
	best := -1
	for i := range it.cur {
		if it.cur[i].j > 0 && (best < 0 || it.cur[i].release < it.cur[best].release) {
			best = i
		}
	}
	if best < 0 {
		return MandatoryJob{}, false
	}
	t := &it.s.Tasks[best]
	j := it.cur[best].j
	mj = MandatoryJob{
		TaskID:   t.ID,
		Index:    j,
		Release:  it.cur[best].release,
		Deadline: t.AbsDeadline(j),
		WCET:     t.WCET,
	}
	it.advance(best, j)
	return mj, true
}

// MandatoryJobs enumerates the mandatory jobs of every task (per the given
// static pattern) released in [0, horizon). Jobs are returned sorted by
// release time, then by priority (task index).
//
// Each task's mandatory jobs are already in release order, so the sorted
// output is a k-way merge of per-task streams rather than a sort of their
// concatenation. The FP walk consumes mandIter directly and skips this
// slice.
func MandatoryJobs(s *task.Set, kind pattern.Kind, horizon timeu.Time) []MandatoryJob {
	var it mandIter
	it.init(s, kind, horizon, nil)
	total := 0
	for _, t := range s.Tasks {
		if n := int((horizon-t.Offset)/t.Period) + 1; n > 0 {
			total += n
		}
	}
	jobs := make([]MandatoryJob, 0, total)
	for {
		mj, ok := it.next()
		if !ok {
			return jobs
		}
		jobs = append(jobs, mj)
	}
}

// SchedulableRPattern reports whether the mandatory jobs under the static
// pattern, released synchronously at time 0, all meet their deadlines
// under preemptive FP scheduling — the schedulability premise of
// Theorem 1. It simulates the mandatory-only schedule over the
// (m,k)-hyperperiod (saturating at cap). The synchronous release is the
// critical instant for the shifted argument in the paper's proof, so a
// pass here certifies the (m,k)-deadlines under Algorithm 1.
//
// When the hyperperiod saturates at cap the test is still meaningful (it
// checked every job in [0,cap)) but no longer exact; callers choosing a
// generous cap (many times max ki·Pi) get a high-confidence filter, and
// the workload generator additionally requires SchedulableRTA for a safe
// sufficient condition.
func SchedulableRPattern(s *task.Set, kind pattern.Kind, cap timeu.Time) bool {
	horizon := s.MKHyperperiod(cap)
	if horizon <= 0 {
		return false
	}
	var it mandIter
	it.init(s, kind, horizon, nil)
	return walk(&it, nil)
}

// ShiftedMisses walks the FP schedule of the mandatory jobs released in
// [0, horizon) with every release of task i delayed by shift[i] — the
// backup half of Theorem 1 when shift holds the postponement intervals
// θi — and calls miss, in completion order, for every job that completes
// past its unshifted deadline.
func ShiftedMisses(s *task.Set, kind pattern.Kind, horizon timeu.Time, shift []timeu.Time, miss func(j MandatoryJob, completion timeu.Time)) {
	var it mandIter
	it.init(s, kind, horizon, shift)
	walk(&it, missRecorder(miss))
}

// recorder observes a draining walk: every idle gap in order, the last
// one running up to the stream's horizon, and every job completion.
type recorder interface {
	idle(gap timeu.Time)
	done(j MandatoryJob, completion timeu.Time)
}

// missRecorder reports the completions past their deadline to a callback.
type missRecorder func(j MandatoryJob, completion timeu.Time)

func (missRecorder) idle(timeu.Time) {}

func (f missRecorder) done(j MandatoryJob, completion timeu.Time) {
	if completion > j.Deadline {
		f(j, completion)
	}
}

// walk runs the preemptive fixed-priority schedule of the jobs streamed
// by it, jumping from release to completion; at each instant the pending
// job of highest priority (lowest TaskID, then earliest Index) runs. It
// reports whether every job completes by its deadline. It is the one FP
// walk behind SchedulableRPattern, MandatoryProfile and ShiftedMisses.
//
// A nil rec is the filter: the walk records nothing and returns false at
// the first job that misses its deadline or can no longer make it
// (now+remaining > deadline). A non-nil rec drains the whole stream,
// whatever it misses, and sees every idle gap and completion. A walk
// that does not return early ends when the stream is drained, so it
// needs no stop time.
//
//mklint:hotpath
func walk(it *mandIter, rec recorder) bool {
	type active struct {
		j         MandatoryJob
		remaining timeu.Time
	}
	// ready, kept sorted by priority.
	ready := make([]active, 0, len(it.cur))
	met := true
	now := timeu.Time(0)
	pend, havePend := it.next()
	for havePend || len(ready) > 0 {
		if len(ready) == 0 && pend.Release > now {
			// Idle until the next release.
			if rec != nil {
				rec.idle(pend.Release - now)
			}
			now = pend.Release
		}
		for havePend && pend.Release <= now {
			// One task's jobs arrive in index order, so queueing a job
			// behind its own task's keeps (TaskID, Index) order.
			pos := len(ready)
			for pos > 0 && ready[pos-1].j.TaskID > pend.TaskID {
				pos--
			}
			ready = append(ready, active{})
			copy(ready[pos+1:], ready[pos:])
			ready[pos] = active{j: pend, remaining: pend.WCET}
			pend, havePend = it.next()
		}
		cur := &ready[0]
		// Run until completion or the next release, whichever first.
		until := now + cur.remaining
		if havePend && pend.Release < until {
			until = pend.Release
		}
		cur.remaining -= until - now
		now = until
		if cur.remaining == 0 {
			if now > cur.j.Deadline {
				if rec == nil {
					return false
				}
				met = false
			}
			if rec != nil {
				rec.done(cur.j, now)
			}
			ready = slices.Delete(ready, 0, 1)
		} else if rec == nil && now+cur.remaining > cur.j.Deadline {
			// Even with the processor to itself it will miss; fail early.
			return false
		}
	}
	if rec != nil && now < it.horizon {
		rec.idle(it.horizon - now)
	}
	return met
}
