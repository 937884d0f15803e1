package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/serve/wire"
	"repro/internal/timeu"
)

// runTiny runs one workload at smoke size and decodes its result line.
func runTiny(t *testing.T, w string, trace int) result {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run([]string{"--workload", w, "--seed", "3", "--seconds", "0.3",
		"--trace", fmt.Sprint(trace), "--tiny", "--out", t.TempDir()}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("%s trace=%d: exit %d\n%s", w, trace, code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	last := lines[len(lines)-1]
	var keys map[string]json.RawMessage
	if err := json.Unmarshal([]byte(last), &keys); err != nil {
		t.Fatalf("%s: last line is not JSON: %q", w, last)
	}
	var got []string
	for k := range keys {
		got = append(got, k)
	}
	sort.Strings(got)
	if strings.Join(got, ",") != "attempted,correct,failed,metrics" {
		t.Fatalf("%s: result keys %v", w, got)
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("%s trace=%d: correct=%v attempted=%d failed=%d\n%s", w, trace, res.Correct, res.Attempted, res.Failed, stderr.String())
	}
	return res
}

// minCoverage is the share of the traced wall clock that directly timed
// layer calls must account for. On fig6-sweep and ksweep the benchmark
// calls nothing but layers, so their timed calls must add up to the
// traced wall clock within 5%. On serve-mix and fleet-sweep the HTTP
// transport, the handlers' own work and the coordinator run inside the
// program, where the benchmark puts no spans; that time is reported by
// difference (serve.self_us.*, serve.transport_us.*, fleet.overhead_s),
// and the timed calls must still hold a stated share of the wall clock.
var minCoverage = map[string]float64{"fig6-sweep": 0.95, "ksweep": 0.95, "serve-mix": 0.3, "fleet-sweep": 0.5}

// TestTinyRunsEmitEveryMetric runs each workload at smoke size, untraced
// and traced, and checks that every named metric is printed with its
// unit (end-to-end ones non-zero), and that the traced run's timed layer
// calls cover the traced wall clock as minCoverage states.
func TestTinyRunsEmitEveryMetric(t *testing.T) {
	for _, w := range workloadNames() {
		t.Run(w, func(t *testing.T) {
			res := runTiny(t, w, 0)
			checkMetrics(t, res, endToEnd, true)
			res = runTiny(t, w, 1)
			checkMetrics(t, res, perLayer, false)
			if c := res.Metrics["trace.coverage_ratio"].Value; c < minCoverage[w] || c > 1 {
				t.Errorf("trace.coverage_ratio = %.4f, want within [%v, 1]", c, minCoverage[w])
			}
		})
	}
}

func checkMetrics(t *testing.T, res result, cat []metricDef, nonZero bool) {
	t.Helper()
	if len(res.Metrics) != len(cat) {
		t.Errorf("%d metrics, want %d", len(res.Metrics), len(cat))
	}
	for _, m := range cat {
		got, ok := res.Metrics[m.name]
		if !ok {
			t.Errorf("metric %s missing", m.name)
			continue
		}
		if got.Unit != m.unit {
			t.Errorf("metric %s unit %q, want %q", m.name, got.Unit, m.unit)
		}
		if nonZero && !(got.Value > 0) {
			t.Errorf("metric %s = %v, want > 0", m.name, got.Value)
		}
	}
}

// TestCatalogMatchesBenchmarkJSON keeps the metric tables and the
// workload list in step with BENCHMARK.json.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if strings.Join(names, ",") != strings.Join(workloadNames(), ",") {
		t.Errorf("BENCHMARK.json workloads %v, benchmark has %v", names, workloadNames())
	}
	same := func(what string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, benchmark %d", what, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s/%s, benchmark %s/%s", what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd)
	same("per_layer", doc.PerLayer, perLayer)
}

// TestGoldenCopiesMatchRepository checks the embedded goldens against
// the repository's committed outputs.
func TestGoldenCopiesMatchRepository(t *testing.T) {
	for name, path := range map[string]string{
		"fig6a.csv":       "results/fig6a.csv",
		"fig6b.csv":       "results/fig6b.csv",
		"fig6c.csv":       "results/fig6c.csv",
		"fig7_ksweep.csv": "results/golden/fig7_ksweep.csv",
	} {
		want, err := os.ReadFile(filepath.Join("..", path))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(goldenFile(name), want) {
			t.Errorf("embedded %s differs from %s", name, path)
		}
	}
}

func flip(b []byte, i int) []byte {
	c := append([]byte(nil), b...)
	c[i] ^= 0x01
	return c
}

// The checks below must reject an output with one flipped byte.

func TestCorruptGoldenCSVFails(t *testing.T) {
	for _, name := range []string{"fig6a.csv", "fig6b.csv", "fig6c.csv", "fig7_ksweep.csv"} {
		good := goldenFile(name)
		if err := checkGoldenCSV(name, good); err != nil {
			t.Fatalf("%s: intact copy rejected: %v", name, err)
		}
		if err := checkGoldenCSV(name, flip(good, len(good)/2)); err == nil {
			t.Errorf("%s: flipped byte accepted", name)
		}
	}
}

func TestCorruptKSweepShapeFails(t *testing.T) {
	good := goldenFile("fig7_ksweep.csv")
	if err := checkKSweepCSV(good, ksweepGolden); err != nil {
		t.Fatalf("intact golden rejected: %v", err)
	}
	// "0.960" -> "0.961" is no longer a multiple of 1/25.
	bad := bytes.Replace(good, []byte("0.960,"), []byte("0.961,"), 1)
	if err := checkKSweepCSV(bad, ksweepGolden); err == nil {
		t.Error("off-grid fraction accepted")
	}
}

func TestCorruptHitFails(t *testing.T) {
	seq := []mixReq{{class: classCold, coldIdx: 0}, {class: classHit, replay: 0}}
	c := newMixClient(seq)
	h := timeu.FromMillis(mixHorizonMS)
	doc := wire.RunDoc{Schema: wire.RunSchema, HorizonUS: int64(h),
		Counters: metrics.Counters{Proc: [metrics.NumProcs]metrics.ProcTime{{Idle: h}, {Idle: h}}}}
	cold, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	store := map[string][]string{"X-Mkss-Store": {"hit"}}
	if err := c.checkResponse(seq[0], 200, nil, cold); err != nil {
		t.Fatalf("cold rejected: %v", err)
	}
	if err := c.checkResponse(seq[1], 200, store, cold); err != nil {
		t.Fatalf("intact hit rejected: %v", err)
	}
	if err := c.checkResponse(seq[1], 200, store, flip(cold, len(cold)/2)); err == nil {
		t.Error("flipped hit accepted")
	}
}

func TestCorruptFleetRowFails(t *testing.T) {
	want := [][]byte{[]byte(`{"type":"row","util_lo":0.1,"sets":3}`), []byte(`{"type":"row","util_lo":0.2,"sets":3}`)}
	if bad, err := checkFleetRows(want, want); bad != 0 || err != nil {
		t.Fatalf("intact rows rejected: %d %v", bad, err)
	}
	got := [][]byte{want[0], flip(want[1], 20)}
	if bad, err := checkFleetRows(got, want); bad != 1 || err == nil {
		t.Errorf("flipped row: bad=%d err=%v, want 1 and an error", bad, err)
	}
}

func TestSelfTime(t *testing.T) {
	ms := func(v int) time.Duration { return time.Duration(v) * time.Millisecond }
	spans := []span{
		{ID: 0, Parent: -1, Name: "bench.unit", Start: 0, End: ms(100)},
		{ID: 1, Parent: 0, Name: "experiment.sweep.none", Start: ms(5), End: ms(95)},
		{ID: 2, Parent: 1, Name: "sim.run.st", Start: ms(20), End: ms(50)},
		{ID: 3, Parent: 1, Name: "sim.run.st", Start: ms(40), End: ms(60)}, // overlaps the first
		{ID: 4, Parent: 1, Name: "workload.generate", Start: ms(60), End: ms(80)},
	}
	lt := aggregate(spans)
	if got := lt.self["experiment.sweep.none"]; got != ms(30) {
		t.Errorf("sweep self = %v, want 30ms", got)
	}
	if got := lt.total["sim.run.st"]; got != ms(50) {
		t.Errorf("sim.run total = %v, want 50ms", got)
	}
	// The wrapper sweep's self time is a gap no timed call owns: only the
	// runs and generation count, each call in full (traced runs are
	// single-threaded, so timed calls do not overlap there).
	if got := coverage(spans); got < 0.699 || got > 0.701 {
		t.Errorf("coverage = %v, want 0.7", got)
	}
}

// TestCoverageShowsGap checks that an untimed gap inside a root lowers
// the coverage ratio below the 0.95 the fig6-sweep and ksweep traces
// must reach, whatever wrapper spans surround it.
func TestCoverageShowsGap(t *testing.T) {
	ms := func(v int) time.Duration { return time.Duration(v) * time.Millisecond }
	full := []span{
		{ID: 0, Parent: -1, Name: "bench.unit", Start: 0, End: ms(100)},
		{ID: 1, Parent: 0, Name: "experiment.sweep.both", Start: 0, End: ms(100)},
		{ID: 2, Parent: 1, Name: "rta.filter", Start: 0, End: ms(50)},
		{ID: 3, Parent: 1, Name: "sim.run.dp", Start: ms(50), End: ms(100)},
	}
	if got := coverage(full); got != 1 {
		t.Errorf("fully timed root: coverage = %v, want 1", got)
	}
	gap := append([]span(nil), full...)
	gap[3].Start = ms(60) // 10ms inside the sweep that no timed call owns
	if got := coverage(gap); got >= 0.95 {
		t.Errorf("root with a 10%% gap: coverage = %v, want below 0.95", got)
	}
	// A shadow replay counts for its host, at most the host's duration.
	served := []span{
		{ID: 0, Parent: -1, Name: "bench.request", Start: 0, End: ms(100)},
		{ID: 1, Parent: 0, Name: "serve.transport.cold", Start: 0, End: ms(100)},
		{ID: 2, Parent: 1, Name: "serve.handler.cold", Start: ms(10), End: ms(90)},
		{ID: 3, Parent: shadowParent, Host: 2, Name: "analysis.products", Start: ms(200), End: ms(230)},
		{ID: 4, Parent: 3, Name: "postpone.theta", Start: ms(210), End: ms(220)},
		{ID: 5, Parent: shadowParent, Host: 2, Name: "sim.run.dbp", Start: ms(230), End: ms(270)},
	}
	if got := coverage(served); got < 0.699 || got > 0.701 {
		t.Errorf("shadow replay: coverage = %v, want 0.7", got)
	}
	served[5].End = ms(300)
	if got := coverage(served); got < 0.799 || got > 0.801 {
		t.Errorf("shadow replay longer than its host: coverage = %v, want 0.8 (the host's share)", got)
	}
}

// TestWindowedTail checks that a burst confined to one window leaves the
// tail alone, and that too few operations for two windows fall back to
// the tail of all of them.
func TestWindowedTail(t *testing.T) {
	ops := make([]float64, 1000)
	for i := range ops {
		ops[i] = float64(i%100) / 10 // 0 .. 9.9 ms in every window
	}
	quiet, level := windowedTail(ops)
	for i := 0; i < 100; i++ {
		ops[i] = 100 // the first window is all burst
	}
	if burst, _ := windowedTail(ops); burst != quiet || level != 0.9 {
		t.Errorf("tail %v with a one-window burst, %v without (level %v), want equal at 0.9", burst, quiet, level)
	}
	few := ops[100:250]
	if got, lvl := windowedTail(few); got != quantile(few, tailLevel(len(few))) || lvl != tailLevel(len(few)) {
		t.Errorf("150 operations: tail %v at %v, want the single-window tail", got, lvl)
	}
}

func TestTailLevel(t *testing.T) {
	for n, want := range map[int]float64{10: 0.5, 40: 0.75, 1000: 0.99, 5000: 0.99} {
		if got := tailLevel(n); got < want-1e-12 || got > want+1e-12 {
			t.Errorf("tailLevel(%d) = %v, want %v", n, got, want)
		}
	}
}
