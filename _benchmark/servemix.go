package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/analysis"
	"repro/internal/estimate"
	"repro/internal/serve"
	"repro/internal/serve/wire"
	"repro/internal/stats"
	"repro/internal/store"
	"repro/internal/task"
	"repro/internal/timeu"
	"repro/internal/workload"
)

// Request classes of the serve mix.
const (
	classCold = iota
	classHit
	classEstimate
)

var classNames = []string{"cold", "hit", "estimate"}

var (
	coldApproaches     = []string{"st", "dp", "selective", "dbp"}
	estimateApproaches = []string{"st", "dp", "selective"}
	mixScenarios       = []string{"none", "permanent", "both"}
)

const (
	mixHorizonMS = 2000
	// mixPoolSets is about twice the analysis LRU's default 1024 entries,
	// so the server's cache runs under eviction.
	mixPoolSets = 2 * analysis.DefaultCacheEntries
	// mixWarmup requests per client run before the window opens.
	mixWarmup = 200
	// mixBlock is serve-mix's unit of work: this many completed requests.
	mixBlock = 1000
)

// mixReq is one request of a client's sequence. A hit replays the
// client's own earlier cold request number replay.
type mixReq struct {
	class    int
	set      int
	approach string
	scenario string
	seed     uint64
	replay   int // index into the client's cold requests (hits)
	coldIdx  int // this cold request's own index (colds)
}

// mixSequence generates client c's request sequence up front from the
// seed: ~30% cold simulates (fresh seed, approach rotating over
// st/dp/selective/dbp), ~40% hits (replays of the client's own earlier
// colds), ~30% twin estimates. It never depends on timing.
func mixSequence(seed uint64, c, n, poolSize int) []mixReq {
	rng := stats.NewRand(stats.DeriveSeed(seed, uint64(5000+c)))
	seq := make([]mixReq, n)
	colds := 0
	for i := range seq {
		r := rng.Float64()
		q := mixReq{set: rng.Intn(poolSize), scenario: mixScenarios[rng.Intn(len(mixScenarios))]}
		switch {
		case r < 0.3 || (r < 0.7 && colds == 0):
			q.class = classCold
			q.approach = coldApproaches[colds%len(coldApproaches)]
			q.seed = stats.DeriveSeed(seed, uint64(c)<<32|uint64(i))
			q.coldIdx = colds
			colds++
		case r < 0.7:
			q.class = classHit
			q.replay = rng.Intn(colds)
		default:
			q.class = classEstimate
			q.approach = estimateApproaches[rng.Intn(len(estimateApproaches))]
			q.seed = rng.Uint64() >> 12
		}
		seq[i] = q
	}
	return seq
}

// mixClient holds one client's sequence and the state its checks need.
type mixClient struct {
	seq   []mixReq
	colds []mixReq // cold requests by cold index, for replays
	resp  [][]byte // cold responses by cold index
}

func newMixClient(seq []mixReq) *mixClient {
	c := &mixClient{seq: seq}
	for _, q := range seq {
		if q.class == classCold {
			c.colds = append(c.colds, q)
		}
	}
	c.resp = make([][]byte, len(c.colds))
	return c
}

// body is the wire request for q (a hit sends its cold's body again).
func (c *mixClient) body(q mixReq, pool []json.RawMessage) (path string, body []byte, err error) {
	if q.class == classHit {
		q = c.colds[q.replay]
	}
	set := pool[q.set]
	if q.class == classEstimate {
		body, err = json.Marshal(struct {
			Set json.RawMessage `json:"set"`
			wire.EstimateRequest
		}{set, wire.EstimateRequest{Approach: q.approach, Scenario: q.scenario, Seed: q.seed, HorizonMS: mixHorizonMS}})
		return "/v1/estimate", body, err
	}
	body, err = json.Marshal(struct {
		Set json.RawMessage `json:"set"`
		wire.SimulateRequest
	}{set, wire.SimulateRequest{Approach: q.approach, Scenario: q.scenario, Seed: q.seed, HorizonMS: mixHorizonMS}})
	return "/v1/simulate", body, err
}

// checkResponse verifies one answer. Colds must be well-formed runs
// whose counters satisfy the model's identities (busy + idle + sleep +
// dead = horizon per processor); hits must equal, byte for byte, the
// cold answer they replay and come from the store; estimates must be
// twin answers for a schedulable set.
func (c *mixClient) checkResponse(q mixReq, status int, hdr http.Header, body []byte) error {
	if status != http.StatusOK {
		return fmt.Errorf("%s: HTTP %d: %s", classNames[q.class], status, bytes.TrimSpace(body))
	}
	switch q.class {
	case classCold:
		var doc wire.RunDoc
		if err := json.Unmarshal(body, &doc); err != nil {
			return fmt.Errorf("cold: %v", err)
		}
		if doc.Schema != wire.RunSchema || doc.HorizonUS != int64(timeu.FromMillis(mixHorizonMS)) {
			return fmt.Errorf("cold: schema %q horizon %d", doc.Schema, doc.HorizonUS)
		}
		if bad := doc.Counters.CheckInvariants(timeu.Time(doc.HorizonUS)); len(bad) > 0 {
			return fmt.Errorf("cold: %s", bad[0])
		}
		c.resp[q.coldIdx] = append([]byte(nil), body...)
	case classHit:
		want := c.resp[q.replay]
		if !bytes.Equal(body, want) {
			return fmt.Errorf("hit: answer differs from cold request %d it replays (byte %d)", q.replay, firstDiff(body, want))
		}
		if hdr.Get("X-Mkss-Store") != "hit" {
			return fmt.Errorf("hit: replay of cold request %d was not served from the store", q.replay)
		}
	case classEstimate:
		var doc wire.EstimateDoc
		if err := json.Unmarshal(body, &doc); err != nil {
			return fmt.Errorf("estimate: %v", err)
		}
		if doc.Schema != wire.EstimateSchema || doc.Backend != "twin" || !doc.Schedulable ||
			!(doc.ActiveEnergy > 0) || math.IsInf(doc.ActiveEnergy, 0) {
			return fmt.Errorf("estimate: implausible answer %s", bytes.TrimSpace(body))
		}
	}
	return nil
}

// send performs one request and returns its status, headers and body.
func send(ctx context.Context, hc *http.Client, addr, path string, body []byte, hdrs map[string]string) (int, http.Header, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, "http://"+addr+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdrs {
		req.Header.Set(k, v)
	}
	resp, err := hc.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, resp.Header, data, err
}

// mixStack is one set-up: the pool, an in-process mkservd with a fresh
// store, and the clients' sequences.
type mixStack struct {
	pool    []json.RawMessage
	sets    []*task.Set
	gen     genStats
	server  *mkservd
	runner  *repro.Runner
	store   *store.Store
	dir     string
	clients []*mixClient
}

func (m *mixStack) close() {
	m.server.stop()
	m.store.Close()
	os.RemoveAll(m.dir)
}

// mixPool generates the pool of R-pattern-schedulable sets the requests
// draw from, spread over the lower utilization buckets.
func mixPool(rec *recorder, parent int, seed uint64, n int, st *genStats) []*task.Set {
	ivs := workload.Intervals(0.1, 0.6, 0.1)
	var sets []*task.Set
	for i, iv := range ivs {
		want := (n - len(sets)) / (len(ivs) - i)
		sets = append(sets, generateSets(rec, parent, workload.DefaultConfig(), stats.DeriveSeed(seed, uint64(9000+i)), iv, want, 400*want, st)...)
	}
	return sets
}

func (e *env) mixSetup(nClients, perClient int) (*mixStack, func(), error) {
	m := &mixStack{}
	poolSize := mixPoolSets
	if e.opts.tiny {
		poolSize = 60
	}
	root := e.rec.begin("bench.setup", -1, 0)
	m.sets = mixPool(e.rec, root, e.opts.seed, poolSize, &m.gen)
	e.rec.end(root)
	if len(m.sets) != poolSize {
		return nil, nil, fmt.Errorf("serve-mix: pool has %d sets, want %d", len(m.sets), poolSize)
	}
	for _, s := range m.sets {
		raw, err := json.Marshal(specOf(s))
		if err != nil {
			return nil, nil, err
		}
		m.pool = append(m.pool, raw)
	}
	for c := 0; c < nClients; c++ {
		m.clients = append(m.clients, newMixClient(mixSequence(e.opts.seed, c, perClient, poolSize)))
	}
	if err := m.start(e.scratch, e.rec); err != nil {
		return nil, nil, err
	}
	return m, m.close, nil
}

// start brings up the serving stack: a fresh store directory, a fresh
// runner session and an mkservd with two execution slots.
func (m *mixStack) start(scratch string, rec *recorder) error {
	dir, err := os.MkdirTemp(scratch, "store-")
	if err != nil {
		return err
	}
	m.dir = dir
	if m.store, err = store.Open(dir, store.Options{}); err != nil {
		return err
	}
	m.runner = repro.NewRunner(repro.RunnerConfig{})
	srv := serve.NewServer(serve.Config{Runner: m.runner, Store: m.store, MaxInFlight: 2})
	if m.server, err = startServer(srv, rec); err != nil {
		m.store.Close()
		return err
	}
	return nil
}

func runServeMix(ctx context.Context, e *env) (*outcome, error) {
	if e.rec != nil {
		return runServeMixTraced(ctx, e)
	}
	out := newOutcome()
	// Enough requests per client for the longest window the benchmark
	// allows; a client that runs out simply stops.
	perClient := mixWarmup + int(e.opts.seconds*8000) + 1000
	m, closer, setup, err := repeatSetup(setupRuns, func() (*mixStack, func(), error) { return e.mixSetup(2, perClient) })
	if err != nil {
		return nil, err
	}
	defer closer()
	out.setupDone(setup)

	type sample struct {
		class int
		ms    float64
	}
	var (
		lat     latencies
		prev    time.Time // end of the previous block
		mu      sync.Mutex
		samples []sample
		done    atomic.Int64
		warm    sync.WaitGroup
		wg      sync.WaitGroup
		start   time.Time
		end     time.Time
		gate    = make(chan struct{}) // closed when the window opens
	)
	warm.Add(len(m.clients))
	go func() {
		warm.Wait()
		resetPeakRSS()
		start = time.Now()
		prev = start
		end = start.Add(time.Duration(e.opts.seconds * float64(time.Second)))
		close(gate)
	}()
	for _, cl := range m.clients {
		wg.Add(1)
		go func(cl *mixClient) {
			defer wg.Done()
			hc := &http.Client{Transport: newTransport()}
			defer hc.CloseIdleConnections()
			measuring := false
			for i, q := range cl.seq {
				if i == mixWarmup {
					warm.Done()
					<-gate
					measuring = true
				}
				if measuring && !time.Now().Before(end) {
					break
				}
				path, body, err := cl.body(q, m.pool)
				if err != nil {
					mu.Lock()
					out.check(1, err)
					mu.Unlock()
					continue
				}
				t0 := time.Now()
				status, hdr, resp, err := send(ctx, hc, m.server.addr, path, body, nil)
				d := time.Since(t0)
				if err == nil {
					err = cl.checkResponse(q, status, hdr, resp)
				}
				mu.Lock()
				out.check(1, err)
				if measuring {
					samples = append(samples, sample{q.class, ms(d)})
				}
				mu.Unlock()
				if measuring {
					if n := done.Add(1); n%mixBlock == 0 {
						mu.Lock()
						now := time.Now()
						lat.unitDone(now.Sub(prev))
						prev = now
						mu.Unlock()
					}
				}
			}
			if len(cl.seq) <= mixWarmup {
				warm.Done()
			}
		}(cl)
	}
	wg.Wait()
	<-gate
	elapsed := time.Since(start)

	byClass := make([][]float64, len(classNames))
	for _, s := range samples {
		lat.ops = append(lat.ops, s.ms)
		byClass[s.class] = append(byClass[s.class], s.ms)
	}
	if len(lat.units) == 0 && len(samples) > 0 {
		// A window too short for one block: scale the window to one.
		lat.units = append(lat.units, elapsed.Seconds()*mixBlock/float64(len(samples)))
	}
	lat.elapsed = elapsed
	lat.fill(out)
	for c, name := range classNames {
		tail, q := windowedTail(byClass[c])
		out.detail[name+"_p50_ms"] = median(byClass[c])
		out.detail[name+"_tail_ms"] = tail
		out.detail[name+"_tail_percentile"] = q * 100
		out.detail[name+"_n"] = len(byClass[c])
	}
	return out, nil
}

// ---- traced run ----

// mixShadow replays each request's layer calls, with identical inputs,
// on a shadow stack (its own runner and store) that receives the same
// call sequence as the server's, so its cache and store states match.
// The handler's own time is its span minus the shadow calls' time.
type mixShadow struct {
	rec    *recorder
	runner *repro.Runner
	store  *store.Store
	twin   *estimate.Twin
}

// shadowResult is what one request's replay measured.
type shadowResult struct {
	children   time.Duration // the replayed layer calls, in total
	sim        time.Duration
	twin       time.Duration
	twinCold   time.Duration // products + twin, when the cache missed
	cold       bool          // the analysis cache missed
	dispatches int
	jobs       int
}

// shadowCall names the handler span a replayed call belongs to.
type shadowCall struct {
	host int   // the request's handler span
	req  int64 // the request's id
}

func (sh *mixShadow) timed(r *shadowResult, at shadowCall, name string, fn func()) time.Duration {
	sp := sh.rec.shadow(name, at.host, at.req)
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	sh.rec.end(sp)
	r.children += d
	return d
}

// products forces set's offline products as a span (the θ analysis and,
// for the twin, the mandatory profile as its children).
func (sh *mixShadow) products(r *shadowResult, at shadowCall, set *task.Set, withProfile bool) (time.Duration, error) {
	misses := sh.runner.CacheStats().Misses
	prods := sh.runner.Analysis(set)
	r.cold = sh.runner.CacheStats().Misses > misses
	sp := sh.rec.shadow("analysis.products", at.host, at.req)
	t0 := time.Now()
	prods.ResponseTimes()
	prods.PromotionTimes()
	th := sh.rec.begin("postpone.theta", sp, at.req)
	_, err := prods.Postponement()
	sh.rec.end(th)
	prods.Mandatory(0, 1)
	prods.Schedulable()
	if withProfile {
		pr := sh.rec.begin("analysis.profile", sp, at.req)
		prods.MandatoryProfile()
		sh.rec.end(pr)
	}
	d := time.Since(t0)
	sh.rec.end(sp)
	r.children += d
	return d, err
}

func (sh *mixShadow) replay(ctx context.Context, at shadowCall, q, coldReq mixReq, set *task.Set, respBody []byte) (shadowResult, error) {
	var r shadowResult
	sc, err := repro.ParseScenario(coldReq.scenario)
	if err != nil {
		return r, err
	}
	a, err := repro.ParseApproach(coldReq.approach)
	if err != nil {
		return r, err
	}
	key := store.RunKey(analysis.Fingerprint(set), a.String(), sc.String(), coldReq.seed,
		int64(timeu.FromMillis(mixHorizonMS)), 0)
	switch q.class {
	case classCold:
		if _, err := sh.products(&r, at, set, false); err != nil {
			return r, err
		}
		var res *repro.Result
		r.sim = sh.timed(&r, at, "sim.run."+q.approach, func() {
			res, err = sh.runner.Simulate(ctx, set, a, repro.RunConfig{HorizonMS: mixHorizonMS, Scenario: sc, Seed: q.seed})
		})
		if err != nil {
			return r, err
		}
		var doc wire.RunDoc
		if err := json.Unmarshal(respBody, &doc); err != nil {
			return r, err
		}
		if doc.ActiveEnergy != res.ActiveEnergy() || doc.Counters != res.Counters {
			return r, fmt.Errorf("shadow run of cold request %d disagrees with the server's answer", q.coldIdx)
		}
		r.dispatches, r.jobs = res.Counters.Dispatches, res.Counters.Released
		sh.timed(&r, at, "store.put", func() { err = sh.store.Put(key, respBody) })
		return r, err
	case classHit:
		var val []byte
		var ok bool
		sh.timed(&r, at, "store.get", func() { val, ok = sh.store.Get(key) })
		if !ok || !bytes.Equal(val, respBody) {
			return r, fmt.Errorf("shadow store disagrees on the replay of cold request %d", q.replay)
		}
		return r, nil
	default:
		pd, err := sh.products(&r, at, set, true)
		if err != nil {
			return r, err
		}
		r.twin = sh.timed(&r, at, "estimate.twin", func() {
			_, err = sh.twin.Estimate(ctx, estimate.Request{Set: set, Approach: a, Scenario: sc, Seed: q.seed, HorizonMS: mixHorizonMS})
		})
		if r.cold {
			r.twinCold = pd + r.twin
		}
		return r, err
	}
}

// mixPass sends client cl's sequence up to index n (exclusive, or until
// the window closes once past the warm-up) against stack m, one request
// at a time. visit sees every answered request and its round trip.
func mixPass(ctx context.Context, rec *recorder, m *mixStack, cl *mixClient, n int, end func() time.Time,
	visit func(i int, q mixReq, tr int, rt time.Duration, status int, hdr http.Header, resp []byte, err error)) int {
	hc := &http.Client{Transport: newTransport()}
	defer hc.CloseIdleConnections()
	for i, q := range cl.seq[:n] {
		if i >= mixWarmup && !time.Now().Before(end()) {
			return i
		}
		path, body, err := cl.body(q, m.pool)
		if err != nil {
			visit(i, q, -1, 0, 0, nil, nil, err)
			continue
		}
		req := int64(i + 1)
		root := rec.begin("bench.request", -1, req)
		tr := rec.begin("serve.transport."+classNames[q.class], root, req)
		var hdrs map[string]string
		if rec != nil {
			hdrs = map[string]string{hdrReq: strconv.FormatInt(req, 10), hdrSpan: strconv.Itoa(tr), hdrClass: classNames[q.class]}
		}
		t0 := time.Now()
		status, hdr, resp, err := send(ctx, hc, m.server.addr, path, body, hdrs)
		rt := time.Since(t0)
		rec.end(tr)
		rec.end(root)
		if err == nil {
			err = cl.checkResponse(q, status, hdr, resp)
		}
		visit(i, q, tr, rt, status, hdr, resp, err)
	}
	return n
}

// runServeMixTraced drives one client's sequence sequentially through a
// traced server, replaying every request's layer calls on a shadow
// stack, then sends the same requests to a fresh untraced stack for the
// tracing overhead.
func runServeMixTraced(ctx context.Context, e *env) (*outcome, error) {
	out := newOutcome()
	perClient := mixWarmup + int(e.opts.seconds*2000) + 1000
	m, closer, setup, err := repeatSetup(1, func() (*mixStack, func(), error) { return e.mixSetup(1, perClient) })
	if err != nil {
		return nil, err
	}
	defer closer()
	out.setupDone(setup)
	shDir, err := os.MkdirTemp(e.scratch, "shadow-")
	if err != nil {
		return nil, err
	}
	shStore, err := store.Open(shDir, store.Options{})
	if err != nil {
		return nil, err
	}
	defer shStore.Close()
	shRunner := repro.NewRunner(repro.RunnerConfig{})
	sh := &mixShadow{rec: e.rec, runner: shRunner, store: shStore, twin: estimate.NewTwin(shRunner)}

	type perClass struct{ handler, self, transport []float64 }
	classes := make([]perClass, len(classNames))
	simRun := map[string]time.Duration{}
	jobs, disp := map[string]int{}, map[string]int{}
	var twinWarm, twinCold []float64
	var tracedRT []time.Duration
	var sample []mixReq // cold requests for the allocation pass
	mark := 0
	var end time.Time
	cl := m.clients[0]
	sent := mixPass(ctx, e.rec, m, cl, len(cl.seq), func() time.Time { return end },
		func(i int, q mixReq, tr int, rt time.Duration, status int, hdr http.Header, resp []byte, err error) {
			coldReq := q
			if q.class == classHit {
				coldReq = cl.colds[q.replay]
			}
			var set *task.Set
			if err == nil {
				set, err = setFromRaw(m.pool[coldReq.set])
			}
			handler, ok := e.rec.child(tr)
			at := shadowCall{host: -1, req: int64(i + 1)}
			if ok {
				at.host = handler.ID
			}
			var r shadowResult
			if err == nil {
				r, err = sh.replay(ctx, at, q, coldReq, set, resp)
			}
			out.check(1, err)
			if i == mixWarmup-1 {
				mark = e.rec.mark()
				end = e.deadline()
			}
			if i < mixWarmup || err != nil {
				return
			}
			tracedRT = append(tracedRT, rt)
			h := handler.dur()
			c := &classes[q.class]
			c.handler = append(c.handler, us(h))
			c.self = append(c.self, us(h-r.children))
			c.transport = append(c.transport, us(rt-h))
			switch q.class {
			case classCold:
				simRun[q.approach] += r.sim
				jobs[q.approach] += r.jobs
				disp[q.approach] += r.dispatches
				if len(sample) < 40 {
					sample = append(sample, q)
				}
			case classEstimate:
				if r.cold {
					twinCold = append(twinCold, us(r.twinCold))
				} else {
					twinWarm = append(twinWarm, us(r.twin))
				}
			}
		})
	measured := len(tracedRT)
	if measured == 0 {
		return nil, fmt.Errorf("serve-mix: no request completed in the window")
	}
	spans := e.rec.spansSince(mark)
	lt := aggregate(spans)
	perK := 1000 / float64(measured)
	L := out.layer
	genLayers(L, aggregate(e.rec.spansSince(0)), m.gen, 1)
	L["analysis.products_s"] = lt.total["analysis.products"].Seconds() * perK
	L["postpone.theta_s"] = lt.total["postpone.theta"].Seconds() * perK
	L["analysis.profile_us"] = us(lt.total["analysis.profile"]) / float64(max(lt.count["analysis.profile"], 1))
	for _, a := range approachKeys {
		L["sim.run_s."+a] = simRun[a].Seconds() * perK
		L["sim.ns_per_job."+a] = float64(simRun[a].Nanoseconds()) / float64(max(jobs[a], 1))
		L["sim.dispatches."+a] = float64(disp[a]) * perK
		L["sim.allocs_per_run."+a] = mixAllocs(ctx, m, sample, a, out)
	}
	L["estimate.twin_us"] = mean(twinWarm)
	L["estimate.twin_cold_us"] = mean(twinCold)
	L["store.get_us"] = us(lt.total["store.get"]) / float64(max(lt.count["store.get"], 1))
	L["store.put_us"] = us(lt.total["store.put"]) / float64(max(lt.count["store.put"], 1))
	sst := m.store.Stats()
	L["store.hit_ratio"] = ratio(int(sst.Hits), int(sst.Hits+sst.Misses))
	L["store.bytes_written"] = float64(sst.DiskBytes) / float64(sent) * 1000
	for c, name := range classNames {
		L["serve.handler_us."+name] = mean(classes[c].handler)
		L["serve.self_us."+name] = mean(classes[c].self)
		L["serve.transport_us."+name] = mean(classes[c].transport)
	}
	gauges, err := m.server.metrics()
	if err != nil {
		return nil, err
	}
	L["serve.coalesced"] = gauges["mkservd_coalesced_total"] * perK
	L["serve.rejected"] = gauges["mkservd_rejected_total"] * perK
	cst := m.runner.CacheStats()
	L["analysis.cache_hit_ratio"] = ratio(int(cst.Hits), int(cst.Hits+cst.Misses))
	L["trace.coverage_ratio"] = coverage(spans)

	// The same requests against a fresh, untraced stack.
	plain := &mixStack{pool: m.pool, clients: []*mixClient{newMixClient(cl.seq)}}
	if err := plain.start(e.scratch, nil); err != nil {
		return nil, err
	}
	defer plain.close()
	var plainRT []time.Duration
	never := time.Now().Add(time.Hour)
	mixPass(ctx, nil, plain, plain.clients[0], sent, func() time.Time { return never },
		func(i int, q mixReq, _ int, rt time.Duration, _ int, _ http.Header, _ []byte, err error) {
			out.check(1, err)
			if i >= mixWarmup && err == nil {
				plainRT = append(plainRT, rt)
			}
		})
	L["trace.overhead_ratio"] = float64(sumDur(tracedRT)) / float64(max(sumDur(plainRT), 1))
	out.detail["requests"] = measured
	return out, nil
}

// mixAllocs measures allocations per engine run of approach a over the
// sampled cold requests, with their offline products already warm.
func mixAllocs(ctx context.Context, m *mixStack, sample []mixReq, a string, out *outcome) float64 {
	ap, err := repro.ParseApproach(a)
	if err != nil {
		return 0
	}
	r := repro.NewRunner(repro.RunnerConfig{})
	var sets []*task.Set
	var cfgs []repro.RunConfig
	for _, q := range sample {
		if q.approach != a {
			continue
		}
		s, err := setFromRaw(m.pool[q.set])
		sc, serr := repro.ParseScenario(q.scenario)
		if err != nil || serr != nil {
			continue
		}
		r.Analysis(s).Postponement()
		sets = append(sets, s)
		cfgs = append(cfgs, repro.RunConfig{HorizonMS: mixHorizonMS, Scenario: sc, Seed: q.seed})
	}
	allocs, _ := allocsPer(len(sets), func(i int) {
		if _, err := r.Simulate(ctx, sets[i], ap, cfgs[i]); err != nil {
			out.check(1, err)
		}
	})
	return allocs
}

func sumDur(ds []time.Duration) time.Duration {
	var s time.Duration
	for _, d := range ds {
		s += d
	}
	return s
}

// setFromRaw decodes a pool entry the way the server does.
func setFromRaw(raw json.RawMessage) (*task.Set, error) {
	var spec repro.SetSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return nil, err
	}
	return spec.Set()
}
