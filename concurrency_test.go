// Tests for the concurrent session behavior the serving layer builds
// on: single cache admission under a thundering herd, one interval draw
// shared by concurrent sweeps, and the stdin entry point of LoadSetFile
// shared by mkservd, mksim and mkload.
package repro

import (
	"context"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// TestAnalysisCacheSingleAdmission races 64 goroutines, each with its
// own fingerprint-identical Set, through one Runner. The analysis cache
// must admit exactly one computation — one miss, 63 hits, one entry —
// and every run must produce identical results.
func TestAnalysisCacheSingleAdmission(t *testing.T) {
	r := NewRunner(RunnerConfig{})
	const n = 64
	var (
		wg      sync.WaitGroup
		start   = make(chan struct{})
		results [n]*Result
		errs    [n]error
	)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Each goroutine constructs its own Set: identical content,
			// distinct pointers, same fingerprint — the cache key dedupes
			// on content, not identity.
			set := NewSet(NewTask(5, 4, 3, 2, 4), NewTask(10, 10, 3, 1, 2))
			<-start
			results[i], errs[i] = r.Simulate(context.Background(), set, Selective, RunConfig{HorizonMS: 20})
		}(i)
	}
	close(start)
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("goroutine %d: %v", i, errs[i])
		}
		if results[i].ActiveEnergy() != results[0].ActiveEnergy() ||
			results[i].TotalEnergy() != results[0].TotalEnergy() {
			t.Fatalf("goroutine %d diverged: active %v total %v, want %v / %v",
				i, results[i].ActiveEnergy(), results[i].TotalEnergy(),
				results[0].ActiveEnergy(), results[0].TotalEnergy())
		}
	}
	st := r.CacheStats()
	if st.Misses != 1 {
		t.Errorf("cache misses = %d, want exactly 1 admission", st.Misses)
	}
	if st.Hits != n-1 {
		t.Errorf("cache hits = %d, want %d", st.Hits, n-1)
	}
	if st.Entries != 1 {
		t.Errorf("cache entries = %d, want 1", st.Entries)
	}
}

// TestConcurrentSweepsShareOneDraw races 16 sweeps of one seed through
// one Runner. The session's cache must draw each interval once: every
// sweep gets an identical report built on the same set pointers.
func TestConcurrentSweepsShareOneDraw(t *testing.T) {
	r := NewRunner(RunnerConfig{})
	const n = 16
	var (
		wg    sync.WaitGroup
		start = make(chan struct{})
		reps  [n]*Report
		errs  [n]error
	)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			reps[i], errs[i] = r.Sweep(context.Background(), smallSweepConfig(2))
		}(i)
	}
	close(start)
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("sweep %d: %v", i, errs[i])
		}
		if !reflect.DeepEqual(reps[i].Rows, reps[0].Rows) {
			t.Fatalf("sweep %d: report differs from sweep 0", i)
		}
		for ri, row := range reps[i].Rows {
			for si, sr := range row.Sets {
				if sr.Set != reps[0].Rows[ri].Sets[si].Set {
					t.Fatalf("sweep %d interval %d set %d: drawn again instead of shared", i, ri, si)
				}
			}
		}
	}
}

// TestUncachedRunnerSharesNoSets checks that CacheEntries: -1 disables
// the interval memo too: two sweeps of one seed draw their own sets and
// still report identical rows.
func TestUncachedRunnerSharesNoSets(t *testing.T) {
	r := NewRunner(RunnerConfig{CacheEntries: -1})
	a, err := r.Sweep(context.Background(), smallSweepConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.Sweep(context.Background(), smallSweepConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	if a.CSV() != b.CSV() {
		t.Fatalf("uncached sweeps of one seed differ:\n%s---\n%s", a.CSV(), b.CSV())
	}
	sets := 0
	for ri, row := range a.Rows {
		for si, sr := range row.Sets {
			sets++
			if sr.Set == b.Rows[ri].Sets[si].Set {
				t.Fatalf("interval %d set %d: uncached runner shared a set between sweeps", ri, si)
			}
		}
	}
	if sets == 0 {
		t.Fatal("sweep drew no sets")
	}
	if st := r.CacheStats(); st.Entries != 0 || st.Hits != 0 {
		t.Errorf("uncached runner holds entries: %+v", st)
	}
}

// TestLoadSetFileStdin checks the "-" path reads the spec from standard
// input, sharing the validation of the file path.
func TestLoadSetFileStdin(t *testing.T) {
	const spec = `{"tasks":[
		{"period_ms":5,"deadline_ms":4,"wcet_ms":3,"m":2,"k":4},
		{"period_ms":10,"deadline_ms":10,"wcet_ms":3,"m":1,"k":2}]}`
	f, err := os.CreateTemp(t.TempDir(), "set*.json")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(spec); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Seek(0, 0); err != nil {
		t.Fatal(err)
	}
	orig := os.Stdin
	os.Stdin = f
	defer func() {
		os.Stdin = orig
		if err := f.Close(); err != nil {
			t.Error(err)
		}
	}()
	s, err := LoadSetFile("-")
	if err != nil {
		t.Fatalf("LoadSetFile(-): %v", err)
	}
	want, err := LoadSet(strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Tasks) != len(want.Tasks) {
		t.Fatalf("stdin set has %d tasks, want %d", len(s.Tasks), len(want.Tasks))
	}
	for i := range s.Tasks {
		if s.Tasks[i] != want.Tasks[i] {
			t.Errorf("task %d = %+v, want %+v", i, s.Tasks[i], want.Tasks[i])
		}
	}
}
