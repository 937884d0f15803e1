package serve

import (
	"sort"
	"sync"
	"time"

	"repro/internal/stats"
)

// latencyRing is a fixed-size sliding window of request latencies, the
// source of the p95 gauge in /healthz that the fleet autoscaler reads.
// A ring (rather than a decaying histogram) keeps the math exact over
// the last N requests and the memory constant; 512 samples is plenty of
// resolution for a scale-up/down decision.
type latencyRing struct {
	mu  sync.Mutex
	buf []float64 // milliseconds
	idx int
	n   int
}

func newLatencyRing(size int) *latencyRing {
	return &latencyRing{buf: make([]float64, size)}
}

// observe records one request's latency.
func (l *latencyRing) observe(d time.Duration) {
	ms := float64(d) / float64(time.Millisecond)
	l.mu.Lock()
	l.buf[l.idx] = ms
	l.idx = (l.idx + 1) % len(l.buf)
	if l.n < len(l.buf) {
		l.n++
	}
	l.mu.Unlock()
}

// p95 returns the 95th-percentile latency over the window in
// milliseconds; 0 with no samples.
func (l *latencyRing) p95() float64 {
	l.mu.Lock()
	if l.n == 0 {
		l.mu.Unlock()
		return 0
	}
	window := make([]float64, l.n)
	copy(window, l.buf[:l.n])
	l.mu.Unlock()
	sort.Float64s(window)
	return stats.Percentile(window, 95)
}
