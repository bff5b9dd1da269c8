package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"abs/internal/telemetry"
)

// newTestServer stands up the full HTTP plane over a real Service.
func newTestServer(t *testing.T, cfg Config) (*httptest.Server, *Service) {
	t.Helper()
	reg := telemetry.NewRegistry()
	tr := telemetry.NewTracer(1 << 10)
	cfg.Registry = reg
	cfg.Tracer = tr
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewHTTPHandler(s, reg, tr))
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return ts, s
}

func postJob(t *testing.T, ts *httptest.Server, body string) (int, jobJSON) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var j jobJSON
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&j); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode, j
}

func getJob(t *testing.T, ts *httptest.Server, id string) (int, jobJSON) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var j jobJSON
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&j); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode, j
}

func deleteJob(t *testing.T, ts *httptest.Server, id string) (int, jobJSON) {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var j jobJSON
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&j); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode, j
}

// waitJob polls GET /v1/jobs/{id} until cond holds.
func waitJob(t *testing.T, ts *httptest.Server, id, what string, cond func(jobJSON) bool) jobJSON {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	var last jobJSON
	for time.Now().Before(deadline) {
		code, j := getJob(t, ts, id)
		if code == http.StatusOK {
			last = j
			if cond(j) {
				return j
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s on %s (last: state=%s devices=%d)", what, id, last.State, last.Devices)
	return last
}

// TestHTTPEndToEnd drives the full advertised lifecycle over the wire:
// three concurrent jobs on a two-device fleet, fair-share rebalancing
// as jobs come and go, queue backpressure as 429, DELETE cancellation,
// an NDJSON event stream, and the telemetry plane on the same
// listener.
func TestHTTPEndToEnd(t *testing.T) {
	if testing.Short() {
		// Real wall-clock multi-job scheduling over HTTP (~20 s): the
		// long CI lane and full local runs keep covering it; the short
		// lane still exercises the service and handler paths via the
		// remaining tests.
		t.Skip("multi-job HTTP e2e in -short mode")
	}
	cfg := testConfig(2)
	cfg.QueueCap = 1
	ts, _ := newTestServer(t, cfg)

	long := `{"random": {"n": 48, "seed": %d}, "time": "30s", "name": "e2e-%d"}`

	// j1 alone owns the whole fleet.
	code, j1 := postJob(t, ts, fmt.Sprintf(long, 1, 1))
	if code != http.StatusAccepted {
		t.Fatalf("j1 submit: %d", code)
	}
	waitJob(t, ts, j1.ID, "2 devices", func(j jobJSON) bool {
		return j.State == StateRunning && j.Devices == 2
	})

	// j2 arrives: fair share forces a 1/1 split while both run.
	code, j2 := postJob(t, ts, fmt.Sprintf(long, 2, 2))
	if code != http.StatusAccepted {
		t.Fatalf("j2 submit: %d", code)
	}
	waitJob(t, ts, j1.ID, "1/1 split (j1)", func(j jobJSON) bool { return j.Devices == 1 })
	waitJob(t, ts, j2.ID, "1/1 split (j2)", func(j jobJSON) bool {
		return j.State == StateRunning && j.Devices == 1
	})

	// j3 has no free job slot: it queues.
	code, j3 := postJob(t, ts, fmt.Sprintf(long, 3, 3))
	if code != http.StatusAccepted {
		t.Fatalf("j3 submit: %d", code)
	}
	if _, j := getJob(t, ts, j3.ID); j.State != StateQueued {
		t.Fatalf("j3 state = %s, want queued", j.State)
	}

	// The queue (cap 1) is now full: backpressure is a 429.
	if code, _ := postJob(t, ts, fmt.Sprintf(long, 4, 4)); code != http.StatusTooManyRequests {
		t.Fatalf("j4 submit: %d, want 429", code)
	}

	// DELETE the running j2: its device moves to the queued j3, which
	// must be promoted into the freed job slot.
	if code, j := deleteJob(t, ts, j2.ID); code != http.StatusOK || j.State != StateCancelled {
		t.Fatalf("j2 delete: %d state=%s", code, j.State)
	}
	waitJob(t, ts, j3.ID, "promotion", func(j jobJSON) bool {
		return j.State == StateRunning && j.Devices == 1
	})

	// DELETE j3 as well: the survivor's share grows back to the whole
	// fleet — the rebalance-on-finish the scheduler promises.
	if code, _ := deleteJob(t, ts, j3.ID); code != http.StatusOK {
		t.Fatalf("j3 delete: %d", code)
	}
	waitJob(t, ts, j1.ID, "j1 regrowth to 2 devices", func(j jobJSON) bool { return j.Devices == 2 })

	// The event stream ends with the terminal snapshot after DELETE.
	evResp, err := http.Get(ts.URL + "/v1/jobs/" + j1.ID + "/events?interval=20ms")
	if err != nil {
		t.Fatal(err)
	}
	defer evResp.Body.Close()
	if ct := evResp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("events content-type = %q", ct)
	}
	if code, _ := deleteJob(t, ts, j1.ID); code != http.StatusOK {
		t.Fatalf("j1 delete: %d", code)
	}
	var lastLine jobJSON
	lines := 0
	sc := bufio.NewScanner(evResp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		lines++
		if err := json.Unmarshal(sc.Bytes(), &lastLine); err != nil {
			t.Fatalf("events line %d: %v", lines, err)
		}
	}
	if lines == 0 {
		t.Fatal("event stream produced no lines")
	}
	if lastLine.State != StateCancelled {
		t.Errorf("final event state = %s, want cancelled", lastLine.State)
	}
	if lastLine.Result == nil || !lastLine.Result.Cancelled {
		t.Error("final event lacks the cancelled result")
	}
	if lastLine.Result != nil && len(lastLine.Result.Solution) != 48 {
		t.Errorf("solution length %d, want 48", len(lastLine.Result.Solution))
	}

	// The listing knows all four lifecycle outcomes; the rejected job
	// was never admitted and must not appear.
	resp, err := http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list struct {
		Jobs []jobJSON `json:"jobs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list.Jobs) != 3 {
		t.Fatalf("listing has %d jobs, want 3", len(list.Jobs))
	}
	for _, j := range list.Jobs {
		if j.State != StateCancelled {
			t.Errorf("%s state = %s, want cancelled", j.ID, j.State)
		}
	}

	// The telemetry plane rides the same listener.
	mResp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body := new(bytes.Buffer)
	body.ReadFrom(mResp.Body)
	mResp.Body.Close()
	if telemetry.Enabled && !strings.Contains(body.String(), "abs_serve_jobs_submitted_total") {
		t.Error("/metrics lacks the serve instruments")
	}
}

func TestHTTPBadRequests(t *testing.T) {
	ts, _ := newTestServer(t, testConfig(1))
	cases := []struct {
		name, body string
	}{
		{"empty", `{}`},
		{"both sources", `{"problem": "p qubo 2 1\n0 0 1\n", "random": {"n": 8}, "max_flips": 10}`},
		{"bad matrix", `{"problem": "not a qubo", "max_flips": 10}`},
		{"bad time", `{"random": {"n": 8}, "time": "yesterday"}`},
		{"negative n", `{"random": {"n": -4}, "max_flips": 10}`},
		{"unknown field", `{"random": {"n": 8}, "max_flips": 10, "frobnicate": 1}`},
		{"unknown backend", `{"random": {"n": 8}, "max_flips": 10, "backend": "columnar"}`},
		{"per-job storage", `{"random": {"n": 8}, "max_flips": 10, "storage": "dense"}`},
		{"removed diversity setting", `{"random": {"n": 8}, "max_flips": 10, "diversity": "radius=8,buckets=4"}`},
	}
	for _, tc := range cases {
		if code, _ := postJob(t, ts, tc.body); code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, code)
		}
	}
	if code, _ := getJob(t, ts, "job-999"); code != http.StatusNotFound {
		t.Errorf("unknown job GET: %d, want 404", code)
	}
	if code, _ := deleteJob(t, ts, "job-999"); code != http.StatusNotFound {
		t.Errorf("unknown job DELETE: %d, want 404", code)
	}
}

// TestHTTPInlineProblem submits a real matrix in the text format and
// checks the solved result round-trips with the right energy math.
func TestHTTPInlineProblem(t *testing.T) {
	ts, _ := newTestServer(t, testConfig(1))
	// A 3-bit instance whose unique optimum is x=(1,0,1) with energy
	// −4 under Eq. (1)'s doubled off-diagonals: diagonal (−1, 1, −1),
	// couplings W01=3, W02=−1, W12=3.
	problem := "p qubo 3 6\n0 0 -1\n1 1 1\n2 2 -1\n0 1 3\n0 2 -1\n1 2 3\n"
	code, j := postJob(t, ts, `{"problem": "`+strings.ReplaceAll(problem, "\n", `\n`)+`", "time": "300ms"}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	final := waitJob(t, ts, j.ID, "completion", func(j jobJSON) bool { return j.State == StateDone })
	if final.Result == nil {
		t.Fatal("done job has no result")
	}
	if final.Result.BestEnergy != -4 {
		t.Errorf("best energy %d, want -4", final.Result.BestEnergy)
	}
	if final.Result.Solution != "101" {
		t.Errorf("solution %q, want 101", final.Result.Solution)
	}
}

// TestHTTPBackendSelection submits under an explicit backend, checks
// the result reports it, that an unknown name is a 400 naming the
// registered set, and that GET /v1/backends lists the registry and
// reports live per-backend unit counts while a race job runs.
func TestHTTPBackendSelection(t *testing.T) {
	ts, _ := newTestServer(t, testConfig(1))
	code, j := postJob(t, ts, `{"random": {"n": 24, "seed": 3}, "time": "200ms", "backend": "tabu"}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	final := waitJob(t, ts, j.ID, "completion", func(j jobJSON) bool { return j.State == StateDone })
	if final.Result == nil || final.Result.Backend != "tabu" {
		t.Fatalf("result backend = %+v, want tabu", final.Result)
	}

	// The 400 body for an unknown backend names the registered set.
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"random": {"n": 8}, "max_flips": 10, "backend": "columnar"}`))
	if err != nil {
		t.Fatal(err)
	}
	body := new(bytes.Buffer)
	body.ReadFrom(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown backend: %d, want 400", resp.StatusCode)
	}
	for _, name := range []string{"straight", "tabu", "race"} {
		if !strings.Contains(body.String(), name) {
			t.Errorf("400 body does not name %q: %s", name, body.String())
		}
	}

	// GET /v1/backends lists the registry with descriptions.
	resp, err = http.Get(ts.URL + "/v1/backends")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list struct {
		Backends []struct {
			Name        string `json:"name"`
			Description string `json:"description"`
		} `json:"backends"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list.Backends) < 3 {
		t.Fatalf("GET /v1/backends listed %d backends, want >= 3", len(list.Backends))
	}
	for _, b := range list.Backends {
		if b.Name == "" || b.Description == "" {
			t.Errorf("backend entry incomplete: %+v", b)
		}
	}

	// While a race job runs, /v1/backends exposes its unit split: the
	// portfolio members carry units that sum over zero.
	code, j = postJob(t, ts, `{"random": {"n": 32, "seed": 6}, "time": "5s", "backend": "race"}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit race job: %d", code)
	}
	defer deleteJob(t, ts, j.ID)
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/v1/backends")
		if err != nil {
			t.Fatal(err)
		}
		var list struct {
			Backends []struct {
				Name  string `json:"name"`
				Units int    `json:"units"`
			} `json:"backends"`
		}
		err = json.NewDecoder(resp.Body).Decode(&list)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		total := 0
		byName := map[string]int{}
		for _, b := range list.Backends {
			total += b.Units
			byName[b.Name] = b.Units
		}
		if total > 0 {
			// The race meta-backend runs its members, not itself: units
			// land on the portfolio names.
			if byName["race"] != 0 {
				t.Errorf("race itself holds %d units; members should", byName["race"])
			}
			if byName["straight"]+byName["tabu"] != total {
				t.Errorf("units outside the portfolio: %v", byName)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("GET /v1/backends never showed live units for the running race job")
		}
		time.Sleep(10 * time.Millisecond)
	}
}
