package store

import (
	"testing"

	"repro"
	"repro/internal/analysis"
	"repro/internal/task"
)

// TestRunKeyNoCollisions proves the key covers every field that can
// change a result document: varying any one of fingerprint (which
// covers θ — θ is derived from the set's periods/deadlines/m/k),
// approach, scenario, seed, horizon or transient rate must change the
// key. A collision here would serve one request another request's bytes.
func TestRunKeyNoCollisions(t *testing.T) {
	base := func() string { return RunKey("fp-A", "MKSS-DP", "both", 2020, 100000, 1e-5) }
	variants := map[string]string{
		"fingerprint":    RunKey("fp-B", "MKSS-DP", "both", 2020, 100000, 1e-5),
		"approach":       RunKey("fp-A", "MKSS-ST", "both", 2020, 100000, 1e-5),
		"scenario":       RunKey("fp-A", "MKSS-DP", "transient", 2020, 100000, 1e-5),
		"seed":           RunKey("fp-A", "MKSS-DP", "both", 2021, 100000, 1e-5),
		"horizon":        RunKey("fp-A", "MKSS-DP", "both", 2020, 200000, 1e-5),
		"transient rate": RunKey("fp-A", "MKSS-DP", "both", 2020, 100000, 2e-5),
	}
	seen := map[string]string{base(): "base"}
	for what, k := range variants {
		if prev, dup := seen[k]; dup {
			t.Errorf("changing %s collided with %s: key %q", what, prev, k)
		}
		seen[k] = what
	}
	if base() != RunKey("fp-A", "MKSS-DP", "both", 2020, 100000, 1e-5) {
		t.Error("RunKey is not deterministic")
	}
}

// TestRunKeyDistinguishesAllApproaches locks the approach dimension
// against the live approach table: every pair of canonical policy names —
// including the extensions like MKSS-DBP — must key differently with all
// other fields equal.
func TestRunKeyDistinguishesAllApproaches(t *testing.T) {
	names := append(repro.Approaches(), repro.Extensions()...)
	if len(names) < 6 {
		t.Fatalf("expected at least 6 approaches, got %v", names)
	}
	seen := map[string]repro.Approach{}
	for _, a := range names {
		k := RunKey("fp-A", a.String(), "both", 2020, 100000, 1e-5)
		if prev, dup := seen[k]; dup {
			t.Errorf("approaches %v and %v collide: key %q", prev, a, k)
		}
		seen[k] = a
	}
	if _, ok := seen[RunKey("fp-A", "MKSS-DBP", "both", 2020, 100000, 1e-5)]; !ok {
		t.Error("MKSS-DBP missing from the approach key corpus")
	}
}

// TestRunKeyThetaSensitivity closes the θ loop concretely: two sets that
// differ only in one deadline (which changes the derived θ postponement
// intervals) must fingerprint differently, hence key differently.
func TestRunKeyThetaSensitivity(t *testing.T) {
	setA := task.NewSet(
		task.New(0, 5, 4, 3, 2, 4),
		task.New(1, 10, 10, 3, 1, 2),
	)
	setB := task.NewSet(
		task.New(0, 5, 5, 3, 2, 4), // deadline 4 -> 5: different θ
		task.New(1, 10, 10, 3, 1, 2),
	)
	fpA, fpB := analysis.Fingerprint(setA), analysis.Fingerprint(setB)
	if fpA == fpB {
		t.Fatalf("fingerprints collide across a deadline change: %q", fpA)
	}
	if RunKey(fpA, "MKSS-DP", "both", 2020, 100000, 0) == RunKey(fpB, "MKSS-DP", "both", 2020, 100000, 0) {
		t.Fatal("RunKey collides across a θ-changing set edit")
	}
}

// TestSweepUnitKeyNoCollisions does the same for sweep units: every
// config field, the interval bounds, and — critically — the interval's
// global offset (which pins the per-interval RNG sub-stream) must be
// key-distinguishing.
func TestSweepUnitKeyNoCollisions(t *testing.T) {
	as := []string{"MKSS-ST", "MKSS-DP"}
	base := SweepUnitKey("both", 2020, 3, 500, 0.3, 0.4, 2, as)
	variants := map[string]string{
		"scenario":   SweepUnitKey("transient", 2020, 3, 500, 0.3, 0.4, 2, as),
		"seed":       SweepUnitKey("both", 2021, 3, 500, 0.3, 0.4, 2, as),
		"sets":       SweepUnitKey("both", 2020, 4, 500, 0.3, 0.4, 2, as),
		"candidates": SweepUnitKey("both", 2020, 3, 800, 0.3, 0.4, 2, as),
		"lo":         SweepUnitKey("both", 2020, 3, 500, 0.2, 0.4, 2, as),
		"hi":         SweepUnitKey("both", 2020, 3, 500, 0.3, 0.5, 2, as),
		"offset":     SweepUnitKey("both", 2020, 3, 500, 0.3, 0.4, 3, as),
		"approaches": SweepUnitKey("both", 2020, 3, 500, 0.3, 0.4, 2, []string{"MKSS-ST"}),
		"approach swapped for DBP": SweepUnitKey("both", 2020, 3, 500, 0.3, 0.4, 2,
			[]string{"MKSS-ST", "MKSS-DBP"}),
	}
	seen := map[string]string{base: "base"}
	for what, k := range variants {
		if prev, dup := seen[k]; dup {
			t.Errorf("changing %s collided with %s: key %q", what, prev, k)
		}
		seen[k] = what
	}
}

// TestKeySpacesDisjoint: a run record and a sweep record can never
// shadow each other, whatever their fields.
func TestKeySpacesDisjoint(t *testing.T) {
	run := RunKey("x", "a", "s", 1, 2, 3)
	sweep := SweepUnitKey("s", 1, 2, 3, 0.1, 0.2, 0, []string{"a"})
	if run == sweep {
		t.Fatalf("run and sweep key spaces overlap: %q", run)
	}
}
