package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"repro/internal/workload"
)

// decodeError reads a structured error body off a response.
func decodeError(t *testing.T, resp *http.Response) ErrorDoc {
	t.Helper()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("error Content-Type = %q, want application/json", ct)
	}
	var doc ErrorDoc
	if err := json.Unmarshal(readAll(t, resp), &doc); err != nil {
		t.Fatalf("error body is not JSON: %v", err)
	}
	if doc.Error == "" {
		t.Error("error body has empty message")
	}
	return doc
}

// TestErrorBodiesAreStructured pins the error contract on every 4xx/5xx
// path a client can hit without load: JSON body, application/json
// Content-Type, machine-readable code.
func TestErrorBodiesAreStructured(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	t.Run("method not allowed", func(t *testing.T) {
		resp, err := http.Get(ts.URL + "/v1/simulate")
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("status = %d", resp.StatusCode)
		}
		if doc := decodeError(t, resp); doc.Code != CodeMethodNotAllowed {
			t.Errorf("code = %q, want %q", doc.Code, CodeMethodNotAllowed)
		}
	})

	t.Run("malformed body", func(t *testing.T) {
		resp, err := http.Post(ts.URL+"/v1/simulate", "application/json", strings.NewReader("{not json"))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status = %d", resp.StatusCode)
		}
		if doc := decodeError(t, resp); doc.Code != CodeBadRequest {
			t.Errorf("code = %q, want %q", doc.Code, CodeBadRequest)
		}
	})

	t.Run("unknown field", func(t *testing.T) {
		resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", strings.NewReader(`{"bogus_field":1}`))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status = %d", resp.StatusCode)
		}
		decodeError(t, resp)
	})

	t.Run("negative interval offset", func(t *testing.T) {
		resp := postJSON(t, ts.URL+"/v1/sweep", SweepRequest{Lo: 0.3, Hi: 0.4, IntervalOffset: -1})
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status = %d", resp.StatusCode)
		}
		if doc := decodeError(t, resp); !strings.Contains(doc.Error, "interval_offset") {
			t.Errorf("message %q does not name the offending field", doc.Error)
		}
	})

	t.Run("hi above 1", func(t *testing.T) {
		resp := postJSON(t, ts.URL+"/v1/sweep", SweepRequest{Lo: 0.3, Hi: 1e300})
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status = %d", resp.StatusCode)
		}
		if doc := decodeError(t, resp); doc.Code != CodeBadRequest || !strings.Contains(doc.Error, "hi") {
			t.Errorf("error doc = %+v, want a bad_request naming hi", doc)
		}
	})

	t.Run("bad approach", func(t *testing.T) {
		resp := postJSON(t, ts.URL+"/v1/simulate", SimulateRequest{Set: paperSpec(), Approach: "bogus"})
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status = %d", resp.StatusCode)
		}
		decodeError(t, resp)
	})
}

// TestRateLimitErrorCode pins the rate-limit flavor of 429: structured
// body with code "rate_limited" and a Retry-After header.
func TestRateLimitErrorCode(t *testing.T) {
	_, ts := newTestServer(t, Config{RatePerSec: 0.001, Burst: 1})
	// Burn the single token, then the next request must be limited.
	resp := postJSON(t, ts.URL+"/v1/simulate", SimulateRequest{Set: paperSpec(), Approach: "selective", HorizonMS: 20})
	readAll(t, resp)
	resp = postJSON(t, ts.URL+"/v1/simulate", SimulateRequest{Set: paperSpec(), Approach: "selective", HorizonMS: 20})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	if doc := decodeError(t, resp); doc.Code != CodeRateLimited {
		t.Errorf("code = %q, want %q", doc.Code, CodeRateLimited)
	}
}

// TestSweepShardsMatchBatch pins the fleet sharding contract server
// side: N single-interval requests carrying interval_offset i and the
// batch intervals' exact bounds stream row bytes identical to one batch
// request over the full range.
func TestSweepShardsMatchBatch(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := SweepRequest{
		Seed: 7, SetsPerInterval: 2, MaxCandidates: 60,
		Lo: 0.3, Hi: 0.6, Approaches: []string{"st", "dp"},
	}

	rowLines := func(body []byte) [][]byte {
		var rows [][]byte
		sc := bufio.NewScanner(bytes.NewReader(body))
		for sc.Scan() {
			if bytes.Contains(sc.Bytes(), []byte(`"type":"row"`)) {
				rows = append(rows, append([]byte(nil), sc.Bytes()...))
			}
		}
		return rows
	}

	resp := postJSON(t, ts.URL+"/v1/sweep", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d: %s", resp.StatusCode, readAll(t, resp))
	}
	batch := rowLines(readAll(t, resp))
	intervals := workload.Intervals(req.Lo, req.Hi, 0.1)
	if len(batch) != len(intervals) {
		t.Fatalf("batch rows = %d, want %d", len(batch), len(intervals))
	}

	for i, iv := range intervals {
		shard := req
		shard.Lo, shard.Hi = iv.Lo, iv.Hi
		shard.IntervalOffset = i
		resp := postJSON(t, ts.URL+"/v1/sweep", shard)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("shard %d status %d: %s", i, resp.StatusCode, readAll(t, resp))
		}
		rows := rowLines(readAll(t, resp))
		if len(rows) != 1 {
			t.Fatalf("shard %d produced %d rows, want 1", i, len(rows))
		}
		if !bytes.Equal(rows[0], batch[i]) {
			t.Errorf("shard %d differs from batch row:\n got  %s\n want %s", i, rows[0], batch[i])
		}
	}
}
