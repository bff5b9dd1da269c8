package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"abs/internal/bitvec"
	"abs/internal/qubo"
	"abs/internal/rng"
)

// TestHTTPTransportRoundTrip drives every RPC through the real wire
// mapping: JSON for register/heartbeat, NDJSON for the two §3.1 buffer
// calls, and the status document.
func TestHTTPTransportRoundTrip(t *testing.T) {
	p := testProblem(48, 21)
	c := newCoord(t, p, CoordinatorConfig{LeaseBatch: 4})
	srv := httptest.NewServer(NewHTTPHandler(c))
	defer srv.Close()
	tr := NewHTTPTransport(srv.URL, nil)
	ctx := context.Background()

	reg, err := tr.Register(ctx, RegisterRequest{WorkerID: "h1", Devices: 2})
	if err != nil {
		t.Fatalf("Register over HTTP: %v", err)
	}
	if reg.WorkerID != "h1" {
		t.Errorf("WorkerID = %q, want h1", reg.WorkerID)
	}
	if got, err := qubo.ReadText(strings.NewReader(reg.Problem)); err != nil || got.N() != p.N() {
		t.Fatalf("problem did not survive the wire: n=%v err=%v", got, err)
	}

	lease, err := tr.Lease(ctx, LeaseRequest{WorkerID: "h1"})
	if err != nil {
		t.Fatalf("Lease over HTTP: %v", err)
	}
	if len(lease.Targets) != 4 {
		t.Fatalf("leased %d targets over HTTP, want 4", len(lease.Targets))
	}
	for i, tg := range lease.Targets {
		if x, err := bitvec.FromString(tg.X); err != nil || x.Len() != p.N() {
			t.Errorf("target %d corrupt on the wire: %v", i, err)
		}
		if tg.Lease == 0 {
			t.Errorf("target %d carries no lease id", i)
		}
	}

	x := bitvec.Random(p.N(), rng.New(22))
	e := p.Energy(x)
	pub, err := tr.Publish(ctx, PublishRequest{
		WorkerID: "h1",
		Flips:    1234,
		Release:  []uint64{lease.Targets[0].Lease},
		Results:  []PublishedSolution{{X: x.String(), Energy: e}},
	})
	if err != nil {
		t.Fatalf("Publish over HTTP: %v", err)
	}
	if pub.Accepted != 1 || !pub.BestKnown || pub.BestEnergy != e {
		t.Errorf("publish = accepted %d best (%d, %v), want 1 with best %d",
			pub.Accepted, pub.BestEnergy, pub.BestKnown, e)
	}

	if _, err := tr.Heartbeat(ctx, HeartbeatRequest{WorkerID: "h1"}); err != nil {
		t.Fatalf("Heartbeat over HTTP: %v", err)
	}

	resp, err := http.Get(srv.URL + "/v1/cluster/status")
	if err != nil {
		t.Fatalf("GET status: %v", err)
	}
	defer resp.Body.Close()
	var st struct {
		BestEnergy int64  `json:"best_energy"`
		BestKnown  bool   `json:"best_known"`
		Solution   string `json:"solution"`
		Workers    int    `json:"workers"`
		Flips      uint64 `json:"flips"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decode status: %v", err)
	}
	if !st.BestKnown || st.BestEnergy != e || st.Workers != 1 || st.Flips != 1234 {
		t.Errorf("status = %+v, want best %d, 1 worker, 1234 flips", st, e)
	}
	if got, err := bitvec.FromString(st.Solution); err != nil || !got.Equal(x) {
		t.Errorf("status solution does not round-trip: %v", err)
	}
}

// TestHTTPTransportErrorMapping checks the sentinel statuses both ways:
// 410 Gone ↔ ErrUnknownWorker, 409 Conflict ↔ ErrDone.
func TestHTTPTransportErrorMapping(t *testing.T) {
	c := newCoord(t, testProblem(32, 23), CoordinatorConfig{})
	srv := httptest.NewServer(NewHTTPHandler(c))
	defer srv.Close()
	tr := NewHTTPTransport(srv.URL, nil)
	ctx := context.Background()

	if _, err := tr.Heartbeat(ctx, HeartbeatRequest{WorkerID: "ghost"}); !errors.Is(err, ErrUnknownWorker) {
		t.Errorf("unknown worker over HTTP = %v, want ErrUnknownWorker", err)
	}
	if _, err := tr.Lease(ctx, LeaseRequest{WorkerID: "ghost"}); !errors.Is(err, ErrUnknownWorker) {
		t.Errorf("unknown lease over HTTP = %v, want ErrUnknownWorker", err)
	}
	c.Close()
	if _, err := tr.Register(ctx, RegisterRequest{}); !errors.Is(err, ErrDone) {
		t.Errorf("register after close over HTTP = %v, want ErrDone", err)
	}
}

// TestHTTPHandlerRejectsBadBodies makes sure malformed requests die at
// the door with 400s rather than panicking or hanging the decoder.
func TestHTTPHandlerRejectsBadBodies(t *testing.T) {
	c := newCoord(t, testProblem(32, 24), CoordinatorConfig{})
	srv := httptest.NewServer(NewHTTPHandler(c))
	defer srv.Close()
	client := &http.Client{Timeout: 10 * time.Second}

	for _, path := range []string{"/v1/cluster/register", "/v1/cluster/lease", "/v1/cluster/publish", "/v1/cluster/heartbeat"} {
		resp, err := client.Post(srv.URL+path, "application/json", strings.NewReader("{nope"))
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST %s with garbage = %d, want 400", path, resp.StatusCode)
		}
	}
}

// TestHTTPClientTruncatedLeaseBody simulates a connection cut mid-NDJSON
// stream: the header promises 3 targets, the body carries 1. The client
// must fail loudly instead of returning a short lease as if complete.
func TestHTTPClientTruncatedLeaseBody(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		io.WriteString(w, `{"count":3,"done":false}`+"\n")
		io.WriteString(w, `{"x":"0101","lease":7}`+"\n")
		// ...and the stream ends two targets early.
	}))
	defer srv.Close()
	tr := NewHTTPTransport(srv.URL, nil)
	resp, err := tr.Lease(context.Background(), LeaseRequest{WorkerID: "w"})
	if err == nil {
		t.Fatalf("Lease on truncated stream = %+v, want error", resp)
	}
	if !strings.Contains(err.Error(), "bad lease line") {
		t.Errorf("truncation error = %v, want a bad-lease-line complaint", err)
	}
	if Permanent(err) {
		t.Errorf("truncated stream classified permanent; a retry could succeed")
	}
}

// TestHTTPClientMalformedErrorPayload sends a non-JSON error body (the
// kind a proxy or load balancer emits). The client must still surface
// the status and classification, not a decode panic or an empty error.
func TestHTTPClientMalformedErrorPayload(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/html")
		w.WriteHeader(http.StatusForbidden)
		io.WriteString(w, "<html><body>forbidden by proxy</body></html>")
	}))
	defer srv.Close()
	tr := NewHTTPTransport(srv.URL, nil)
	_, err := tr.Register(context.Background(), RegisterRequest{})
	if err == nil {
		t.Fatal("Register against HTML 403 succeeded, want error")
	}
	if !strings.Contains(err.Error(), "403") {
		t.Errorf("error = %v, want the status surfaced", err)
	}
	if !Permanent(err) {
		t.Errorf("403 = %v classified transient, want permanent", err)
	}
}

// TestHTTPStatusClassification pins which statuses workers retry: 4xx
// permanent, 5xx transient, and the two sentinels keep their protocol
// meanings (neither is permanent — each has its own recovery path).
func TestHTTPStatusClassification(t *testing.T) {
	cases := []struct {
		code      int
		sentinel  error
		permanent bool
	}{
		{http.StatusBadRequest, nil, true},
		{http.StatusNotFound, nil, true},
		{http.StatusGone, ErrUnknownWorker, false},
		{http.StatusConflict, ErrDone, false},
		{http.StatusInternalServerError, nil, false},
		{http.StatusServiceUnavailable, nil, false},
	}
	for _, tc := range cases {
		code := tc.code
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.WriteHeader(code)
			io.WriteString(w, `{"error":"synthetic"}`)
		}))
		tr := NewHTTPTransport(srv.URL, nil)
		_, err := tr.Heartbeat(context.Background(), HeartbeatRequest{WorkerID: "w"})
		srv.Close()
		if err == nil {
			t.Fatalf("status %d produced no error", code)
		}
		if tc.sentinel != nil && !errors.Is(err, tc.sentinel) {
			t.Errorf("status %d = %v, want sentinel %v", code, err, tc.sentinel)
		}
		if got := Permanent(err); got != tc.permanent {
			t.Errorf("status %d permanent = %v, want %v (err: %v)", code, got, tc.permanent, err)
		}
	}
}

// TestGuardBodyFailsLoudlyPastCap drives the oversized-response guard
// directly: reads past the cap must return errResponseTooLarge, never a
// clean EOF a decoder would mistake for end-of-message.
func TestGuardBodyFailsLoudlyPastCap(t *testing.T) {
	n, err := io.Copy(io.Discard, guardBody(neverEnding{}))
	if !errors.Is(err, errResponseTooLarge) {
		t.Fatalf("copy past cap = %v after %d bytes, want errResponseTooLarge", err, n)
	}
	if n != maxRPCResponse {
		t.Errorf("guard let %d bytes through, cap is %d", n, maxRPCResponse)
	}

	// Under the cap the guard is invisible.
	small := strings.NewReader("under the limit")
	got, err := io.ReadAll(guardBody(small))
	if err != nil || string(got) != "under the limit" {
		t.Fatalf("guard mangled a small body: %q, %v", got, err)
	}
}

// neverEnding is an infinite zero-byte reader.
type neverEnding struct{}

func (neverEnding) Read(p []byte) (int, error) { return len(p), nil }

// TestRecoverHandlerTurnsPanicInto500 checks a handler bug becomes one
// failed request (a JSON 500 the worker retries), not a dropped
// connection.
func TestRecoverHandlerTurnsPanicInto500(t *testing.T) {
	h := RecoverHandler(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		panic("handler bug")
	}))
	srv := httptest.NewServer(h)
	defer srv.Close()

	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatalf("GET against panicking handler: %v (want a 500 response)", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", resp.StatusCode)
	}
	var body struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("500 body is not JSON: %v", err)
	}
	if !strings.Contains(body.Error, "handler bug") {
		t.Errorf("500 body = %q, want the panic value surfaced", body.Error)
	}

	// And the worker-side classification: a 500 is transient, so retry
	// loops keep going after the bug is fixed or the request changes.
	tr := NewHTTPTransport(srv.URL, nil)
	_, rpcErr := tr.Heartbeat(context.Background(), HeartbeatRequest{WorkerID: "w"})
	if rpcErr == nil || Permanent(rpcErr) {
		t.Errorf("panic-500 over client = %v, want transient error", rpcErr)
	}
}

// TestOldDiversityGrantIgnoredByWorker: a grant from an older
// coordinator that still carries the removed "diversity" setting
// decodes over the wire with the key dropped, and the worker builds its
// engine from the rest of the grant.
func TestOldDiversityGrantIgnoredByWorker(t *testing.T) {
	p := testProblem(48, 4)
	c := newCoord(t, p, CoordinatorConfig{Run: backendGrant.with(backendGrant.grant)})
	h := NewHTTPHandler(c)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/cluster/register" {
			h.ServeHTTP(w, r)
			return
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, r)
		var grant map[string]any
		if err := json.Unmarshal(rec.Body.Bytes(), &grant); err != nil {
			t.Errorf("register body: %v", err)
		}
		grant["diversity"] = "radius=8,buckets=4"
		json.NewEncoder(w).Encode(grant)
	}))
	defer srv.Close()
	tr := NewHTTPTransport(srv.URL, nil)

	reg, err := tr.Register(context.Background(), RegisterRequest{WorkerID: "w-old", Devices: 1})
	if err != nil {
		t.Fatalf("Register: %v", err)
	}
	if reg.RunSpec != backendGrant.with(backendGrant.grant) {
		t.Fatalf("decoded grant = %+v, want only backend %q", reg.RunSpec, backendGrant.grant)
	}
	w, err := NewWorker(WorkerConfig{Transport: tr, WorkerID: "w-old"})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.buildEngine(p, reg); err != nil {
		t.Fatalf("buildEngine: %v", err)
	}
	defer w.engine.Finish(true)
	if got := w.engine.Backend().String(); got != backendGrant.grant {
		t.Errorf("worker resolved backend %s, want %s from the grant", got, backendGrant.grant)
	}
}
