package postpone

import (
	"fmt"

	"repro/internal/pattern"
	"repro/internal/rta"
	"repro/internal/task"
	"repro/internal/timeu"
)

// Violation describes one backup job that would miss its deadline under
// the postponed releases.
type Violation struct {
	TaskID     int
	Index      int
	Completion timeu.Time
	Deadline   timeu.Time
}

func (v Violation) String() string {
	return fmt.Sprintf("backup J'%d,%d completes at %v past deadline %v",
		v.TaskID+1, v.Index, v.Completion, v.Deadline)
}

// Verify walks the spare processor's mandatory backup schedule — the
// mandatory jobs released in [0, horizon), each delayed by its task's
// postponement interval θi — under preemptive FP and returns every
// deadline violation (nil = the Theorem 1 backup guarantee holds over the
// horizon). It is the runtime cross-check of the offline analysis:
// callers who override θ values can use it to confirm safety before
// deployment.
func (a *Analysis) Verify(s *task.Set, kind pattern.Kind, horizon timeu.Time) []Violation {
	var violations []Violation
	rta.ShiftedMisses(s, kind, horizon, a.Theta, func(j rta.MandatoryJob, completion timeu.Time) {
		violations = append(violations, Violation{
			TaskID:     j.TaskID,
			Index:      j.Index,
			Completion: completion,
			Deadline:   j.Deadline,
		})
	})
	return violations
}
