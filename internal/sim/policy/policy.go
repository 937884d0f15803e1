// Package policy is the layer between the simulation kernel and the
// concrete scheduling schemes. The engine (internal/sim) owns time,
// processors, energy and settlement; everything approach-specific — which
// job copy goes where, in which priority band, when backups become
// eligible — lives in a sim.Policy implementation in one of the
// sub-packages (static, dynamic, dbp), each exporting a plain constructor
// per scheme.
//
// The schemes are a closed set: internal/core maps each Approach to its
// constructor with one switch, so core.New is the only production
// construction site. The sub-packages import sim, never the reverse; the
// depdag layer table enforces that edge by rank (the engine sits below
// this tree).
package policy

import (
	"repro/internal/analysis"
	"repro/internal/pattern"
	"repro/internal/task"
	"repro/internal/timeu"
)

// Options tunes policy construction; the zero value reproduces the paper.
type Options struct {
	// Pattern is the static partition used by ST/DP and for the θ
	// analysis; the paper uses the R-pattern.
	Pattern pattern.Kind
	// HyperperiodCap bounds the θ analysis (see postpone.Options).
	HyperperiodCap timeu.Time
	// NoAlternation disables the selective scheme's primary/spare
	// alternation of eligible optional jobs (ablation: everything goes to
	// the primary's OJQ).
	NoAlternation bool
	// FDThreshold is the flexibility-degree eligibility threshold of the
	// selective scheme; optional jobs with 1 <= FD <= FDThreshold are
	// selected. Zero means the paper's value, 1 (applied by
	// dynamic.NewSelective). (Ablation knob.)
	FDThreshold int
	// UsePromotionForTheta makes the selective scheme postpone backups by
	// Yi instead of θi (ablation: isolates the benefit of Defs. 2–5).
	UsePromotionForTheta bool
	// Offline, when non-nil, supplies memoized offline analyses (promotion
	// intervals, θ, pattern tables) for the set under simulation, so
	// repeated runs of the same set skip the per-Init recomputation. The
	// products must have been derived with the same Pattern and
	// HyperperiodCap, from a set fingerprint-identical to the one
	// simulated; repro.Runner guarantees both.
	Offline *analysis.Products
}

// FPLess is plain fixed-priority ordering: lower task index first, then
// earlier job, then mains before backups (the last tie can only occur
// after a permanent fault migrates both copies onto one processor).
func FPLess(a, b *task.Job) bool {
	if a.TaskID != b.TaskID {
		return a.TaskID < b.TaskID
	}
	if a.Index != b.Index {
		return a.Index < b.Index
	}
	return a.Copy == task.Main && b.Copy == task.Backup
}

// Histories builds one fresh (all-effective) outcome window per task of a
// set; used by the dynamic policies.
func Histories(s *task.Set) []*pattern.History {
	hs := make([]*pattern.History, s.N())
	for i, t := range s.Tasks {
		hs[i] = pattern.NewHistory(t.M, t.K)
	}
	return hs
}

// StaticMandatory applies the static pattern classification shared by the
// ST and DP baselines, via the memoized table when offline products are
// attached.
func StaticMandatory(opts Options, t task.Task, index int) bool {
	if opts.Offline != nil {
		return opts.Offline.Mandatory(t.ID, index)
	}
	return pattern.Mandatory(opts.Pattern, index, t.M, t.K)
}
