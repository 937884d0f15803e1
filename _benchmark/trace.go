package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the layer's exported function. Spans of one request share Req.
type span struct {
	ID     int `json:"id"`
	Parent int `json:"parent"` // -1 for a root, shadowParent for a shadow
	// Host is a shadow span's host: the span whose work it replays
	// outside that span's interval (see shadow).
	Host  int           `json:"host,omitempty"`
	Req   int64         `json:"req,omitempty"`
	Name  string        `json:"name"`
	Start time.Duration `json:"start_ns"` // since the recorder's epoch
	End   time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// recorder keeps spans in memory until the run ends. A nil *recorder is
// the untraced mode: every method is a no-op.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// begin opens a span and returns its id (-1 on a nil recorder).
func (r *recorder) begin(name string, parent int, req int64) int {
	if r == nil {
		return -1
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: now, End: now})
	r.mu.Unlock()
	return id
}

// shadowParent is the Parent of a shadow span: a replay, with identical
// inputs, of layer calls that the host span made inside the program,
// where the benchmark cannot put spans. The replay runs after the host
// span has ended, so it cannot be placed inside the host's interval;
// coverage folds it into the host instead.
const shadowParent = -2

// shadow opens a shadow span replaying part of span host's work and
// returns its id. Spans opened under it (parent = its id) belong to the
// same replay.
func (r *recorder) shadow(name string, host int, req int64) int {
	id := r.begin(name, shadowParent, req)
	if id >= 0 {
		r.mu.Lock()
		r.spans[id].Host = host
		r.mu.Unlock()
	}
	return id
}

// end closes span id.
func (r *recorder) end(id int) {
	if r == nil || id < 0 {
		return
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	r.spans[id].End = now
	r.mu.Unlock()
}

// do records fn as one span and returns the span's id.
func (r *recorder) do(name string, parent int, fn func()) int {
	id := r.begin(name, parent, 0)
	fn()
	r.end(id)
	return id
}

// child returns the latest span whose parent is id.
func (r *recorder) child(id int) (span, bool) {
	if r == nil || id < 0 {
		return span{}, false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := len(r.spans) - 1; i > id; i-- {
		if r.spans[i].Parent == id {
			return r.spans[i], true
		}
	}
	return span{}, false
}

// snapshot returns a copy of the spans recorded so far.
func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// mark returns the number of spans recorded so far, so a later
// spansSince(mark) can select one traced unit's spans.
func (r *recorder) mark() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans)
}

// cut returns the spans recorded since mark and, unless keep is set,
// drops them from the recorder, so a long traced run holds one unit's
// spans at a time (the kept ones are written out at the end).
func (r *recorder) cut(mark int, keep bool) []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := append([]span(nil), r.spans[mark:]...)
	if !keep {
		r.spans = r.spans[:mark]
	}
	return out
}

func (r *recorder) spansSince(mark int) []span {
	all := r.snapshot()
	if mark > len(all) {
		return nil
	}
	return all[mark:]
}

func (r *recorder) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerTimes aggregates spans by name: total duration, self time (the
// span minus the part of its interval its children cover) and count.
type layerTimes struct {
	total, self map[string]time.Duration
	count       map[string]int
}

func aggregate(spans []span) layerTimes {
	lt := layerTimes{total: map[string]time.Duration{}, self: map[string]time.Duration{}, count: map[string]int{}}
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	for _, s := range spans {
		lt.total[s.Name] += s.dur()
		lt.count[s.Name]++
		lt.self[s.Name] += s.dur() - covered(s, children[s.ID])
	}
	return lt
}

// covered returns how much of parent's interval the union of kids
// covers (kids may overlap when they ran concurrently).
func covered(parent span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		lo, hi := k.Start, k.End
		if lo < parent.Start {
			lo = parent.Start
		}
		if hi > parent.End {
			hi = parent.End
		}
		if hi > lo {
			iv = append(iv, [2]time.Duration{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var sum time.Duration
	var curLo, curHi time.Duration
	open := false
	for _, x := range iv {
		if !open || x[0] > curHi {
			if open {
				sum += curHi - curLo
			}
			curLo, curHi, open = x[0], x[1], true
			continue
		}
		if x[1] > curHi {
			curHi = x[1]
		}
	}
	if open {
		sum += curHi - curLo
	}
	return sum
}

// traceAcc accumulates layer times and coverage over chunks of spans
// (one traced unit each).
type traceAcc struct {
	lt           layerTimes
	root, layers time.Duration
}

func newTraceAcc() *traceAcc {
	return &traceAcc{lt: layerTimes{total: map[string]time.Duration{}, self: map[string]time.Duration{}, count: map[string]int{}}}
}

func (a *traceAcc) add(spans []span) {
	lt := aggregate(spans)
	for k, v := range lt.total {
		a.lt.total[k] += v
	}
	for k, v := range lt.self {
		a.lt.self[k] += v
	}
	for k, v := range lt.count {
		a.lt.count[k] += v
	}
	root, layers := coverageParts(spans)
	a.root += root
	a.layers += layers
}

func (a *traceAcc) coverage() float64 {
	if a.root <= 0 {
		return 0
	}
	return float64(a.layers) / float64(a.root)
}

// wrapperPrefixes name the spans that only wrap other layers' calls:
// the benchmark's rebuilt sweep loop, a request's loopback round trip,
// the server's handler and a distributed sweep. Their self time is what
// their children leave over, so it cannot show a gap in the trace;
// coverage counts only the layer calls timed directly.
var wrapperPrefixes = []string{"experiment.sweep.", "serve.transport.", "serve.handler.", "fleet.run"}

// isTimedLayerSpan reports whether a span is a directly timed call into
// a layer: a layer span that is not a wrapper.
func isTimedLayerSpan(name string) bool {
	if !isLayerSpan(name) {
		return false
	}
	for _, p := range wrapperPrefixes {
		if strings.HasPrefix(name, p) {
			return false
		}
	}
	return true
}

// coverage is the share of the root spans' wall clock that directly
// timed layer calls (isTimedLayerSpan, self time) account for. Wrapper
// spans count for nothing, so time no timed call owns, such as a gap in
// the trace, lowers the ratio. A shadow replay's timed calls are folded
// into its host span, at most the host's duration.
func coverage(spans []span) float64 {
	root, layers := coverageParts(spans)
	if root <= 0 {
		return 0
	}
	return float64(layers) / float64(root)
}

func coverageParts(spans []span) (root, layers time.Duration) {
	kids := map[int][]span{}
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	// eff clips each span under a root to its parent's (clipped)
	// interval: work a layer does after its caller has moved on, such as
	// a handler finishing after the client read the last byte, overlaps
	// its caller's next steps and is not counted twice.
	eff := map[int]span{}
	host := map[int]int{}             // shadow span -> its replay's host
	folded := map[int]time.Duration{} // host -> its replay's timed calls
	for _, s := range spans {
		if s.Parent == -1 {
			root += s.dur()
			eff[s.ID] = s
			continue
		}
		if s.Parent == shadowParent {
			host[s.ID] = s.Host
		} else if h, ok := host[s.Parent]; ok {
			host[s.ID] = h
		}
		if h, ok := host[s.ID]; ok {
			if isTimedLayerSpan(s.Name) {
				folded[h] += s.dur() - covered(s, kids[s.ID])
			}
			continue
		}
		p, ok := eff[s.Parent]
		if !ok {
			continue // outside every root
		}
		c := s
		c.Start, c.End = max(s.Start, p.Start), min(s.End, p.End)
		if c.End < c.Start {
			c.End = c.Start
		}
		eff[s.ID] = c
		if isTimedLayerSpan(s.Name) {
			layers += c.dur() - covered(c, kids[s.ID])
		}
	}
	for h, d := range folded {
		if p, ok := eff[h]; ok {
			layers += min(d, p.dur())
		}
	}
	return root, layers
}
