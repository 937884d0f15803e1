package core

import (
	"math"
	"testing"

	"repro/internal/sim"
	"repro/internal/task"
	"repro/internal/timeu"
)

// The two task sets used in the paper's motivation (§III).
func fig1Set() *task.Set {
	return task.NewSet(task.New(0, 5, 4, 3, 2, 4), task.New(1, 10, 10, 3, 1, 2))
}

func fig3Set() *task.Set {
	return task.NewSet(task.New(0, 5, 2.5, 2, 2, 4), task.New(1, 4, 4, 2, 2, 4))
}

func runApproach(t *testing.T, s *task.Set, a Approach, horizonMS float64) *sim.Result {
	t.Helper()
	eng, err := sim.New(s, mustNew(t, a, Options{}), sim.Config{
		Horizon:     timeu.FromMillis(horizonMS),
		RecordTrace: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	r, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func wantEnergy(t *testing.T, r *sim.Result, want float64) {
	t.Helper()
	if got := r.ActiveEnergy(); math.Abs(got-want) > 1e-9 {
		t.Errorf("%s: active energy = %v, want %v", r.Policy, got, want)
	}
}

// TestPaperFig1 reproduces Figure 1: the preference-oriented dual-priority
// baseline on τ1=(5,4,3,2,4), τ2=(10,10,3,1,2) consumes 15 energy units
// in the hyper period [0,20].
func TestPaperFig1(t *testing.T) {
	r := runApproach(t, fig1Set(), DP, 20)
	wantEnergy(t, r, 15)
	if !r.MKSatisfied() {
		t.Error("(m,k) constraints violated")
	}
}

// TestPaperFig1Reference: the same set under MKSS_ST runs both copies in
// full (three mandatory jobs × 3 ms × 2 processors = 18 units).
func TestPaperFig1Reference(t *testing.T) {
	r := runApproach(t, fig1Set(), ST, 20)
	wantEnergy(t, r, 18)
	if !r.MKSatisfied() {
		t.Error("(m,k) constraints violated")
	}
}

// TestPaperFig2 reproduces Figure 2: dynamic patterns on the Figure 1 set
// drop every backup and finish the hyper period with 12 units — "20%
// lower than that in Figure 1". The executed set is O21, O12, J13 (re-
// selected), J22 (re-selected); J11 and J14 are skipped.
func TestPaperFig2(t *testing.T) {
	r := runApproach(t, fig1Set(), Selective, 20)
	wantEnergy(t, r, 12)
	if !r.MKSatisfied() {
		t.Error("(m,k) constraints violated")
	}
	if r.Counters.MandatoryJobs != 0 {
		t.Errorf("mandatory jobs = %d, want 0 (all demoted)", r.Counters.MandatoryJobs)
	}
	if r.Counters.BackupsCreated != 0 {
		t.Errorf("backups created = %d, want 0", r.Counters.BackupsCreated)
	}
	if r.Counters.OptionalSelected != 4 {
		t.Errorf("optional selected = %d, want 4", r.Counters.OptionalSelected)
	}
	// Outcome sequences: τ1 = skip, hit, hit, skip; τ2 = hit, hit.
	want1 := []bool{false, true, true, false}
	for i, w := range want1 {
		if r.Outcomes[0][i] != w {
			t.Errorf("tau1 outcomes = %v, want %v", r.Outcomes[0], want1)
			break
		}
	}
	want2 := []bool{true, true}
	for i, w := range want2 {
		if r.Outcomes[1][i] != w {
			t.Errorf("tau2 outcomes = %v, want %v", r.Outcomes[1], want2)
			break
		}
	}
}

// TestPaperFig3 reproduces Figure 3: the greedy scheme on
// τ1=(5,2.5,2,2,4), τ2=(4,4,2,2,4) executes four τ1 jobs and six τ2 jobs
// before t=25 — 20 energy units.
func TestPaperFig3(t *testing.T) {
	r := runApproach(t, fig3Set(), Greedy, 25)
	wantEnergy(t, r, 20)
	if !r.MKSatisfied() {
		t.Error("(m,k) constraints violated")
	}
	// "four jobs in total were executed for task τ1 before time t=25"
	exec1 := 0
	for _, ok := range r.Outcomes[0] {
		if ok {
			exec1++
		}
	}
	if exec1 != 4 {
		t.Errorf("tau1 effective jobs = %d (outcomes %v), want 4", exec1, r.Outcomes[0])
	}
}

// TestPaperFig4 reproduces Figure 4: the selective scheme on the Figure 3
// set consumes 14 units before t=25 — "30% lower than that in Figure 3".
// τ1 executes J12 (primary), J13 (spare), J15 (primary); τ2 executes J22
// (primary), J23 (spare), J25 (primary), J26 (spare).
func TestPaperFig4(t *testing.T) {
	r := runApproach(t, fig3Set(), Selective, 25)
	wantEnergy(t, r, 14)
	if !r.MKSatisfied() {
		t.Error("(m,k) constraints violated")
	}
	if r.Counters.MandatoryJobs != 0 {
		t.Errorf("mandatory jobs = %d, want 0", r.Counters.MandatoryJobs)
	}
	// Alternation: τ2's selected jobs J22, J23, J25, J26 go primary,
	// spare, primary, spare — verify via the trace.
	procOf := map[[2]int]int{}
	for _, seg := range r.Trace {
		procOf[[2]int{seg.TaskID, seg.Index}] = seg.Proc
	}
	wantProc := map[[2]int]int{
		{1, 2}: sim.Primary,
		{1, 3}: sim.Spare,
		{1, 5}: sim.Primary,
		{1, 6}: sim.Spare,
		{0, 2}: sim.Primary,
		{0, 3}: sim.Spare,
		{0, 5}: sim.Primary,
	}
	for key, wp := range wantProc {
		if got, ok := procOf[key]; !ok || got != wp {
			t.Errorf("job (task %d, index %d): proc = %d (present %v), want %d",
				key[0]+1, key[1], got, ok, wp)
		}
	}
}

// TestFig3GreedyVsSelective checks the §III headline: selective is 30%
// cheaper than greedy on the Figure 3 set.
func TestFig3GreedyVsSelective(t *testing.T) {
	g := runApproach(t, fig3Set(), Greedy, 25)
	s := runApproach(t, fig3Set(), Selective, 25)
	if g.ActiveEnergy() <= s.ActiveEnergy() {
		t.Errorf("greedy (%v) must exceed selective (%v)", g.ActiveEnergy(), s.ActiveEnergy())
	}
	saving := 1 - s.ActiveEnergy()/g.ActiveEnergy()
	if math.Abs(saving-0.30) > 1e-9 {
		t.Errorf("saving = %v, want 0.30", saving)
	}
}

// TestFig2SelectiveVsDP checks the §III headline: 20% saving over the
// Figure 1 schedule.
func TestFig2SelectiveVsDP(t *testing.T) {
	dp := runApproach(t, fig1Set(), DP, 20)
	sel := runApproach(t, fig1Set(), Selective, 20)
	saving := 1 - sel.ActiveEnergy()/dp.ActiveEnergy()
	if math.Abs(saving-0.20) > 1e-9 {
		t.Errorf("saving = %v, want 0.20", saving)
	}
}
