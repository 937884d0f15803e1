package experiment

import (
	"testing"

	"repro/internal/analysis"
	"repro/internal/fault"
	"repro/internal/task"
	"repro/internal/timeu"
)

var memoScenarios = []fault.Scenario{fault.NoFault, fault.PermanentOnly, fault.PermanentAndTransient}

// sweepWith runs cfg through cache (nil: a sweep-private cache).
func sweepWith(t *testing.T, cfg Config, cache *analysis.Cache) *Report {
	t.Helper()
	cfg.Cache = cache
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// setPtrs lists each interval's task-set pointers.
func setPtrs(rep *Report) [][]*task.Set {
	out := make([][]*task.Set, len(rep.Rows))
	for i, row := range rep.Rows {
		for _, sr := range row.Sets {
			out[i] = append(out[i], sr.Set)
		}
	}
	return out
}

// sharesAny reports whether any set pointer of a appears in b.
func sharesAny(a, b *Report) bool {
	seen := map[*task.Set]bool{}
	for _, row := range setPtrs(b) {
		for _, s := range row {
			seen[s] = true
		}
	}
	for _, row := range setPtrs(a) {
		for _, s := range row {
			if seen[s] {
				return true
			}
		}
	}
	return false
}

// TestScenarioSweepsShareIntervalDraws runs the three Figure-6 scenario
// sweeps of one seed through one Cache: every interval must hand the
// later sweeps the first sweep's sets (same pointers), and each CSV must
// equal a sweep with a fresh cache.
func TestScenarioSweepsShareIntervalDraws(t *testing.T) {
	cache := analysis.NewCache(0)
	var first *Report
	for _, sc := range memoScenarios {
		rep := sweepWith(t, smallConfig(sc), cache)
		fresh := sweepWith(t, smallConfig(sc), nil)
		if rep.CSV() != fresh.CSV() || mustJSON(t, rep) != mustJSON(t, fresh) {
			t.Errorf("%v: shared-cache sweep differs from a fresh-cache sweep:\n%s---\n%s", sc, rep.CSV(), fresh.CSV())
		}
		if first == nil {
			first = rep
			continue
		}
		want, got := setPtrs(first), setPtrs(rep)
		for i := range want {
			if len(got[i]) != len(want[i]) {
				t.Fatalf("%v interval %d: %d sets, want %d", sc, i, len(got[i]), len(want[i]))
			}
			for j := range want[i] {
				if got[i][j] != want[i][j] {
					t.Errorf("%v interval %d set %d: regenerated instead of shared", sc, i, j)
				}
			}
		}
	}
	// A per-interval run with IntervalOffset draws the same batch as the
	// whole sweep's interval, as the streaming /v1/sweep endpoint does.
	cfg := smallConfig(fault.NoFault)
	cfg.Intervals = cfg.Intervals[1:]
	cfg.IntervalOffset = 1
	one := sweepWith(t, cfg, cache)
	if got, want := setPtrs(one)[0], setPtrs(first)[1]; len(got) == 0 || got[0] != want[0] {
		t.Errorf("IntervalOffset=1 run did not share the whole sweep's interval-1 batch")
	}
}

// TestIntervalMemoKeyComponents changes one component of the interval
// draw's key at a time. The sweep through a cache warmed with the base
// config must equal a fresh-cache sweep and share none of the base's
// sets.
func TestIntervalMemoKeyComponents(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"Workload.SchedCap", func(c *Config) { c.Workload.SchedCap = 20 * timeu.Millisecond }},
		{"Workload.HarmonicPeriods", func(c *Config) { c.Workload.HarmonicPeriods = true }},
		{"Seed", func(c *Config) { c.Seed++ }},
		{"IntervalOffset", func(c *Config) { c.IntervalOffset = 1 }},
		{"SetsPerInterval", func(c *Config) { c.SetsPerInterval++ }},
		{"MaxCandidates", func(c *Config) { c.MaxCandidates-- }},
	}
	base := smallConfig(fault.NoFault)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cache := analysis.NewCache(0)
			warm := sweepWith(t, base, cache)
			cfg := smallConfig(fault.NoFault)
			tc.mutate(&cfg)
			got := sweepWith(t, cfg, cache)
			fresh := sweepWith(t, cfg, nil)
			if mustJSON(t, got) != mustJSON(t, fresh) {
				t.Errorf("sweep through the warmed cache differs from a fresh-cache sweep")
			}
			if sharesAny(got, warm) {
				t.Errorf("changed %s but the sweep reused the base config's sets", tc.name)
			}
		})
	}
}

// TestIntervalMemoBounded drives a capacity-4 cache with many seeds:
// interval batches and Products share the one bound.
func TestIntervalMemoBounded(t *testing.T) {
	cache := analysis.NewCache(4)
	for seed := uint64(1); seed <= 12; seed++ {
		cfg := smallConfig(fault.NoFault)
		cfg.Seed = seed
		rep := sweepWith(t, cfg, cache)
		if st := cache.Stats(); st.Entries > 4 {
			t.Fatalf("seed %d: %d entries in a capacity-4 cache", seed, st.Entries)
		}
		if fresh := sweepWith(t, cfg, nil); mustJSON(t, rep) != mustJSON(t, fresh) {
			t.Fatalf("seed %d: bounded-cache sweep differs from a fresh-cache sweep", seed)
		}
	}
	if st := cache.Stats(); st.Evictions == 0 {
		t.Errorf("no evictions after 12 seeds: %+v", st)
	}
}
