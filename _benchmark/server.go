package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"strconv"
	"time"

	"repro/internal/serve"
	"repro/internal/serve/client"
	"repro/internal/task"

	"repro"
)

// Request headers the benchmark's clients set so the handler span of a
// request joins that request's other spans.
const (
	hdrReq   = "X-Bench-Req"
	hdrSpan  = "X-Bench-Span"
	hdrClass = "X-Bench-Class"
)

// mkservd is one in-process server on a loopback listener.
type mkservd struct {
	srv  *serve.Server
	addr string
	hs   *http.Server
	done chan error
}

// startServer serves srv's handler on 127.0.0.1:0. With a recorder,
// every request becomes a "serve.handler.<class>" span whose parent and
// request id come from the client's headers.
func startServer(srv *serve.Server, rec *recorder) (*mkservd, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	h := srv.Handler()
	if rec != nil {
		inner := h
		h = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			req, _ := strconv.ParseInt(r.Header.Get(hdrReq), 10, 64)
			parent := -1
			if p, err := strconv.Atoi(r.Header.Get(hdrSpan)); err == nil {
				parent = p
			}
			class := r.Header.Get(hdrClass)
			if class == "" {
				class = "other"
			}
			sp := rec.begin("serve.handler."+class, parent, req)
			inner.ServeHTTP(w, r)
			rec.end(sp)
		})
	}
	m := &mkservd{srv: srv, addr: l.Addr().String(), hs: &http.Server{Handler: h}, done: make(chan error, 1)}
	go func() { m.done <- m.hs.Serve(l) }()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := client.New(client.Config{Addr: m.addr}).Healthz(ctx); err != nil {
		m.stop()
		return nil, fmt.Errorf("server did not come up: %w", err)
	}
	return m, nil
}

// stop shuts the server down and waits for its serve loop to return.
func (m *mkservd) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := m.hs.Shutdown(ctx); err != nil {
		m.hs.Close()
	}
	if err := <-m.done; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "mkperf: server: %v\n", err)
	}
}

// metrics scrapes the server's /metrics gauges.
func (m *mkservd) metrics() (map[string]float64, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return client.New(client.Config{Addr: m.addr}).Metrics(ctx)
}

// newTransport is one client's connection pool: a single keep-alive
// connection to the loopback server.
func newTransport() *http.Transport {
	return &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
}

// specOf renders a generated set as the wire spec the server decodes.
func specOf(s *task.Set) repro.SetSpec {
	spec := repro.SetSpec{Tasks: make([]repro.TaskSpec, len(s.Tasks))}
	for i, t := range s.Tasks {
		spec.Tasks[i] = repro.TaskSpec{
			PeriodMS:   t.Period.Millis(),
			DeadlineMS: t.Deadline.Millis(),
			WCETMS:     t.WCET.Millis(),
			M:          t.M,
			K:          t.K,
		}
	}
	return spec
}
