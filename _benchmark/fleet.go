package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/analysis"
	"repro/internal/experiment"
	"repro/internal/fleet"
	"repro/internal/serve"
	"repro/internal/serve/client"
	"repro/internal/sim"
	"repro/internal/stats"
)

// fleetBatch is fleet-sweep's unit of work: this many small sweeps.
const fleetBatch = 8

// fleetSpec is one small sweep with mkfleet's defaults (3 sets and 500
// candidates per interval, nine intervals) under both fault kinds.
func fleetSpec(seed uint64) fleet.SweepSpec {
	return fleet.SweepSpec{Scenario: "both", Seed: seed}
}

func fleetSeed(seed uint64, i int) uint64 { return stats.DeriveSeed(seed, uint64(2000+i)) }

// fleetWorkers is a set of in-process mkservd workers, each with one
// execution slot and its own runner session.
type fleetWorkers struct {
	servers []*mkservd
}

func startWorkers(n int, rec *recorder) (*fleetWorkers, error) {
	w := &fleetWorkers{}
	for i := 0; i < n; i++ {
		srv := serve.NewServer(serve.Config{Runner: repro.NewRunner(repro.RunnerConfig{}), MaxInFlight: 1})
		m, err := startServer(srv, rec)
		if err != nil {
			w.stop()
			return nil, err
		}
		w.servers = append(w.servers, m)
	}
	return w, nil
}

func (w *fleetWorkers) stop() {
	for _, m := range w.servers {
		m.stop()
	}
}

func (w *fleetWorkers) addrs() []string {
	var out []string
	for _, m := range w.servers {
		out = append(out, m.addr)
	}
	return out
}

// fleetRun runs one distributed sweep and returns its merged row lines.
func fleetRun(ctx context.Context, w *fleetWorkers, seed uint64, newClient func(string) *client.Client) ([][]byte, *fleet.Summary, error) {
	c, err := fleet.New(fleet.Config{Workers: w.addrs(), Spec: fleetSpec(seed), PerWorkerInFlight: 1, NewClient: newClient})
	if err != nil {
		return nil, nil, err
	}
	var rows [][]byte
	sum, err := c.Run(ctx, func(line []byte) error {
		if bytes.Contains(line, []byte(`"type":"row"`)) {
			rows = append(rows, append([]byte(nil), line...))
		}
		return nil
	})
	return rows, sum, err
}

// fleetConfig is the in-process sweep a distributed sweep of seed
// stands for, as mkfleet -local builds it.
func fleetConfig(seed uint64, workers int) (experiment.Config, error) {
	sp, err := fleetSpec(seed).Normalized()
	if err != nil {
		return experiment.Config{}, err
	}
	sc, err := repro.ParseScenario(sp.Scenario)
	if err != nil {
		return experiment.Config{}, err
	}
	cfg := experiment.DefaultConfig(sc)
	cfg.Seed = sp.Seed
	cfg.SetsPerInterval = sp.SetsPerInterval
	cfg.MaxCandidates = sp.MaxCandidates
	cfg.Intervals = sp.Intervals()
	cfg.Workers = workers
	cfg.Cache = analysis.NewCache(0)
	cfg.Approaches = nil
	for _, n := range sp.Approaches {
		a, err := repro.ParseApproach(n)
		if err != nil {
			return experiment.Config{}, err
		}
		cfg.Approaches = append(cfg.Approaches, a)
	}
	return cfg, nil
}

// fleetReference computes the in-process reference rows for one sweep,
// as mkfleet -local does: one batch sweep, each row encoded by the
// serving layer's RowLine.
func fleetReference(ctx context.Context, seed uint64, workers int) ([][]byte, error) {
	cfg, err := fleetConfig(seed, workers)
	if err != nil {
		return nil, err
	}
	rep, err := experiment.RunContext(ctx, cfg)
	if err != nil {
		return nil, err
	}
	return rowLines(rep), nil
}

func rowLines(rep *experiment.Report) [][]byte {
	var rows [][]byte
	for _, row := range rep.Rows {
		rows = append(rows, serve.MarshalLine(serve.RowLine(rep.Approaches, row)))
	}
	return rows
}

// checkFleetRows compares a distributed sweep's rows with the reference,
// unit by unit, and returns how many units differ.
func checkFleetRows(got, want [][]byte) (bad int, err error) {
	if len(got) != len(want) {
		return len(want), fmt.Errorf("fleet: %d rows, reference has %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(bytes.TrimSuffix(got[i], []byte("\n")), bytes.TrimSuffix(want[i], []byte("\n"))) {
			bad++
			if err == nil {
				err = fmt.Errorf("fleet: unit %d differs from the in-process reference", i)
			}
		}
	}
	return bad, err
}

// fleetVerify checks each sweep's merged rows against the reference.
func fleetVerify(ctx context.Context, out *outcome, seeds []uint64, got [][][]byte) error {
	for i, seed := range seeds {
		want, err := fleetReference(ctx, seed, 2)
		if err != nil {
			return err
		}
		bad, cerr := checkFleetRows(got[i], want)
		out.attempted += len(want)
		out.failed += bad
		if cerr != nil && len(out.problems) < 8 {
			out.problems = append(out.problems, fmt.Sprintf("seed %d: %v", seed, cerr))
		}
	}
	return nil
}

func (e *env) fleetSweeps() int {
	if e.opts.tiny {
		return 2
	}
	return fleetBatch
}

func runFleet(ctx context.Context, e *env) (*outcome, error) {
	if e.rec != nil {
		return runFleetTraced(ctx, e)
	}
	out := newOutcome()
	// Set-up: two workers, proven by one sweep checked against the
	// in-process reference.
	w, closer, setup, err := repeatSetup(setupRuns, func() (*fleetWorkers, func(), error) {
		w, err := startWorkers(2, nil)
		if err != nil {
			return nil, nil, err
		}
		rows, _, err := fleetRun(ctx, w, goldenSeed, nil)
		if err != nil {
			w.stop()
			return nil, nil, err
		}
		return w, w.stop, fleetVerify(ctx, out, []uint64{goldenSeed}, [][][]byte{rows})
	})
	if err != nil {
		return nil, err
	}
	defer closer()
	out.setupDone(setup)

	var lat latencies
	var seeds []uint64
	var got [][][]byte
	resetPeakRSS()
	start := time.Now()
	end := e.deadline()
	for b := 0; b == 0 || time.Now().Before(end); b++ {
		t0 := time.Now()
		for j := 0; j < e.fleetSweeps(); j++ {
			seed := fleetSeed(e.opts.seed, b*e.fleetSweeps()+j)
			s0 := time.Now()
			rows, _, err := fleetRun(ctx, w, seed, nil)
			if err != nil {
				return nil, err
			}
			lat.ops = append(lat.ops, ms(time.Since(s0)))
			seeds = append(seeds, seed)
			got = append(got, rows)
		}
		lat.unitDone(time.Since(t0))
	}
	lat.elapsed = time.Since(start)
	lat.fill(out)
	return out, fleetVerify(ctx, out, seeds, got)
}

// ---- traced run ----

// spanTransport is the coordinator's HTTP transport in the traced run:
// each unit request becomes a "serve.transport.sweep" span under the
// running sweep's span, held open until the streamed body is closed,
// and carries the headers that parent the worker's handler span to it.
type spanTransport struct {
	rec    *recorder
	base   http.RoundTripper
	parent atomic.Int64 // the current fleet.run span
	reqs   atomic.Int64
}

func (t *spanTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	req := t.reqs.Add(1)
	sp := t.rec.begin("serve.transport.sweep", int(t.parent.Load()), req)
	r = r.Clone(r.Context())
	r.Header.Set(hdrReq, strconv.FormatInt(req, 10))
	r.Header.Set(hdrSpan, strconv.Itoa(sp))
	r.Header.Set(hdrClass, "sweep")
	resp, err := t.base.RoundTrip(r)
	if err != nil {
		t.rec.end(sp)
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, end: func() { t.rec.end(sp) }}
	return resp, nil
}

type spanBody struct {
	io.ReadCloser
	end func()
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.end()
	return err
}

// runFleetTraced alternates an untraced batch and a traced batch, each
// over one worker (so unit requests run one at a time and the layer
// times add up). Every sweep is then run in-process twice: untraced,
// for the fleet's overhead and the handler's own time, and through the
// rebuilt sweep loop of the fig6-sweep trace as a shadow of the
// sweep's fleet.run span, for the layers the workers ran.
func runFleetTraced(ctx context.Context, e *env) (*outcome, error) {
	out := newOutcome()
	type pair struct{ plain, traced *fleetWorkers }
	p, closer, setup, err := repeatSetup(1, func() (pair, func(), error) {
		plain, err := startWorkers(1, nil)
		if err != nil {
			return pair{}, nil, err
		}
		traced, err := startWorkers(1, e.rec)
		if err != nil {
			plain.stop()
			return pair{}, nil, err
		}
		return pair{plain, traced}, func() { plain.stop(); traced.stop() }, nil
	})
	if err != nil {
		return nil, err
	}
	defer closer()
	out.setupDone(setup)
	base := newTransport()
	defer base.CloseIdleConnections()
	tr := &spanTransport{rec: e.rec, base: base}
	hc := &http.Client{Transport: tr}
	newClient := func(addr string) *client.Client { return client.New(client.Config{Addr: addr, HTTPClient: hc}) }
	t := &fig6Trace{e: e, rec: e.rec, scr: sim.NewScratch(),
		dispatches: map[string]int{}, jobs: map[string]int{}}

	var plainS, tracedS []float64
	var fleetTime, local time.Duration
	var units, dispatched, retried, hedged int
	var hits, lookups uint64
	var seeds []uint64
	var got [][][]byte
	acc := newTraceAcc()
	end := e.deadline()
	batches := 0
	for b := 0; b == 0 || time.Now().Before(end); b++ {
		batch := make([]uint64, e.fleetSweeps())
		for j := range batch {
			batch[j] = fleetSeed(e.opts.seed, b*len(batch)+j)
		}
		t0 := time.Now()
		for _, seed := range batch {
			if _, _, err := fleetRun(ctx, p.plain, seed, nil); err != nil {
				return nil, err
			}
		}
		plainS = append(plainS, time.Since(t0).Seconds())
		t0 = time.Now()
		mark := e.rec.mark()
		root := e.rec.begin("bench.unit", -1, 0)
		runs := make([]int, len(batch))
		for j, seed := range batch {
			runs[j] = e.rec.begin("fleet.run", root, 0)
			tr.parent.Store(int64(runs[j]))
			s0 := time.Now()
			rows, sum, err := fleetRun(ctx, p.traced, seed, newClient)
			fleetTime += time.Since(s0)
			e.rec.end(runs[j])
			if err != nil {
				return nil, err
			}
			seeds = append(seeds, seed)
			got = append(got, rows)
			units += sum.Units
			dispatched += sum.Dispatched
			retried += sum.Retried
			hedged += sum.Hedged
		}
		e.rec.end(root)
		tracedS = append(tracedS, time.Since(t0).Seconds())
		for j, seed := range batch {
			s0 := time.Now()
			want, err := fleetReference(ctx, seed, 1)
			if err != nil {
				return nil, err
			}
			local += time.Since(s0)
			cfg, err := fleetConfig(seed, 1)
			if err != nil {
				return nil, err
			}
			sh := e.rec.shadow("bench.shadow", runs[j], 0)
			rep, err := t.sweep(ctx, sh, "both", cfg, cfg.Cache)
			e.rec.end(sh)
			if err != nil {
				return nil, err
			}
			// The rebuilt loop must agree with the real sweep.
			bad, cerr := checkFleetRows(rowLines(rep), want)
			out.check(len(want)-bad, nil)
			out.check(bad, cerr)
			st := cfg.Cache.Stats()
			hits += st.Hits
			lookups += st.Hits + st.Misses
		}
		// Keep the first batch's spans for the trace file; fold the rest.
		acc.add(e.rec.cut(mark, b == 0))
		batches++
	}
	if err := fleetVerify(ctx, out, seeds, got); err != nil {
		return nil, err
	}
	lt := acc.lt
	n := float64(batches)
	L := out.layer
	t.layers(ctx, L, lt, n, out)
	L["analysis.cache_hit_ratio"] = float64(hits) / float64(max(lookups, 1))
	L["experiment.sweep_s.both"] = local.Seconds() / n
	L["fleet.units"] = float64(units) / n
	L["fleet.dispatched"] = float64(dispatched) / n
	L["fleet.retried"] = float64(retried) / n
	L["fleet.hedged"] = float64(hedged) / n
	L["fleet.overhead_s"] = (fleetTime - local).Seconds() / n
	handler := lt.total["serve.handler.sweep"]
	reqs := float64(max(lt.count["serve.handler.sweep"], 1))
	L["serve.handler_us.sweep"] = us(handler) / reqs
	L["serve.self_us.sweep"] = us(handler-local) / reqs
	L["serve.transport_us.sweep"] = us(lt.total["serve.transport.sweep"]-handler) / reqs
	L["trace.overhead_ratio"] = median(tracedS) / median(plainS)
	L["trace.coverage_ratio"] = acc.coverage()
	out.detail["batches"] = batches
	return out, nil
}
