package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"time"

	"abs/internal/core"
	"abs/internal/health"
	"abs/internal/qubo"
	"abs/internal/randqubo"
	"abs/internal/telemetry"
)

// NewHTTPHandler wraps a Service in the abs-serve JSON API:
//
//	POST   /v1/jobs             submit a job (202; 429 on backpressure)
//	GET    /v1/jobs             list live and retained jobs
//	GET    /v1/jobs/{id}        one job's status (+ result when settled)
//	DELETE /v1/jobs/{id}        cancel (queued or running)
//	GET    /v1/jobs/{id}/events NDJSON stream of status snapshots
//	GET    /v1/jobs/{id}/trace  the job's spans + events (NDJSON;
//	                            ?format=chrome for chrome://tracing JSON)
//	GET    /v1/backends         the registered solver backends
//	GET    /healthz             liveness probe (always 200)
//	GET    /readyz              readiness probe (503 once closed)
//
// Any other path falls through to the telemetry exposition handler
// (/metrics, /trace, /debug/pprof/, …) when a registry is attached, so
// one listener serves both planes.
func NewHTTPHandler(s *Service, reg *telemetry.Registry, tr *telemetry.Tracer) http.Handler {
	h := &httpAPI{svc: s, tr: tr}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", h.submit)
	mux.HandleFunc("GET /v1/jobs", h.list)
	mux.HandleFunc("GET /v1/jobs/{id}", h.get)
	mux.HandleFunc("DELETE /v1/jobs/{id}", h.cancel)
	mux.HandleFunc("GET /v1/jobs/{id}/events", h.events)
	mux.HandleFunc("GET /v1/jobs/{id}/trace", h.trace)
	mux.HandleFunc("GET /v1/backends", h.backends)
	health.Register(mux, func() bool { return !s.Closed() })
	if reg != nil {
		mux.Handle("/", telemetry.NewHandler(reg, tr))
	}
	return mux
}

type httpAPI struct {
	svc *Service
	tr  *telemetry.Tracer
}

// jobRequest is the POST /v1/jobs body. Exactly one problem source must
// be set: an inline text-format QUBO or a generator spec.
type jobRequest struct {
	// Problem is an inline instance in the qubo text format (the
	// qubogen/abs-solve interchange format).
	Problem string `json:"problem,omitempty"`
	// Random generates a dense random instance server-side — handy for
	// smoke tests and benchmarks without shipping a matrix.
	Random *randomSpec `json:"random,omitempty"`

	Name string `json:"name,omitempty"`
	// Time is the wall-clock budget as a Go duration string ("30s").
	Time string `json:"time,omitempty"`
	// MaxFlips and TargetEnergy are the other stop conditions.
	MaxFlips     uint64 `json:"max_flips,omitempty"`
	TargetEnergy *int64 `json:"target_energy,omitempty"`
	Seed         uint64 `json:"seed,omitempty"`
	// MaxDevices caps the job's fair share of the fleet (0 = no cap).
	MaxDevices int `json:"max_devices,omitempty"`
	// RunSpec carries "backend" (a registered name; GET /v1/backends
	// lists them); unset inherits the service default, and a bad value
	// gets a 400. Storage is service-wide, so a body that names
	// "storage" gets a 400 too.
	core.RunSpec
}

type randomSpec struct {
	N    int    `json:"n"`
	Seed uint64 `json:"seed,omitempty"`
}

// jobJSON is the wire form of a JobStatus (+result once settled).
type jobJSON struct {
	ID        string       `json:"id"`
	Name      string       `json:"name,omitempty"`
	State     JobState     `json:"state"`
	Devices   int          `json:"devices"`
	Submitted time.Time    `json:"submitted"`
	Started   *time.Time   `json:"started,omitempty"`
	Finished  *time.Time   `json:"finished,omitempty"`
	Progress  progressJSON `json:"progress"`
	Error     string       `json:"error,omitempty"`
	Result    *resultJSON  `json:"result,omitempty"`
}

type progressJSON struct {
	ElapsedSeconds float64 `json:"elapsed_seconds"`
	BestEnergy     int64   `json:"best_energy"`
	BestKnown      bool    `json:"best_known"`
	Flips          uint64  `json:"flips"`
	Evaluated      uint64  `json:"evaluated"`
	Dropped        uint64  `json:"dropped,omitempty"`
	Quarantined    uint64  `json:"quarantined,omitempty"`
}

type resultJSON struct {
	BestEnergy     int64   `json:"best_energy"`
	Solution       string  `json:"solution"`
	ReachedTarget  bool    `json:"reached_target"`
	Cancelled      bool    `json:"cancelled"`
	Flips          uint64  `json:"flips"`
	Evaluated      uint64  `json:"evaluated"`
	ElapsedSeconds float64 `json:"elapsed_seconds"`
	SearchRate     float64 `json:"search_rate"`
	Blocks         int     `json:"blocks"`
	Storage        string  `json:"storage"`
	Backend        string  `json:"backend"`
	Recovered      uint64  `json:"recovered,omitempty"`
	Quarantined    uint64  `json:"quarantined,omitempty"`
}

func statusJSON(j *Job) jobJSON {
	st := j.Status()
	out := jobJSON{
		ID:        st.ID,
		Name:      st.Name,
		State:     st.State,
		Devices:   st.Devices,
		Submitted: st.Submitted,
		Error:     st.Error,
		Progress: progressJSON{
			ElapsedSeconds: st.Progress.Elapsed.Seconds(),
			BestEnergy:     st.Progress.BestEnergy,
			BestKnown:      st.Progress.BestKnown,
			Flips:          st.Progress.Flips,
			Evaluated:      st.Progress.Evaluated,
			Dropped:        st.Progress.Dropped,
			Quarantined:    st.Progress.Quarantined,
		},
	}
	if !st.Started.IsZero() {
		t := st.Started
		out.Started = &t
	}
	if !st.Finished.IsZero() {
		t := st.Finished
		out.Finished = &t
	}
	if res, err := j.Result(); err == nil && res != nil {
		out.Result = &resultJSON{
			BestEnergy:     res.BestEnergy,
			Solution:       res.Best.String(),
			ReachedTarget:  res.ReachedTarget,
			Cancelled:      res.Cancelled,
			Flips:          res.Flips,
			Evaluated:      res.Evaluated,
			ElapsedSeconds: res.Elapsed.Seconds(),
			SearchRate:     res.SearchRate,
			Blocks:         res.Blocks,
			Storage:        res.Storage.String(),
			Backend:        res.Backend.String(),
			Recovered:      res.Recovered,
			Quarantined:    res.Quarantined,
		}
	}
	return out
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

func (h *httpAPI) submit(w http.ResponseWriter, r *http.Request) {
	var req jobRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 64<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	var p *qubo.Problem
	switch {
	case req.Problem != "" && req.Random != nil:
		writeError(w, http.StatusBadRequest, "set exactly one of problem and random")
		return
	case req.Problem != "":
		var err error
		p, err = qubo.ReadText(strings.NewReader(req.Problem))
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad problem: %v", err)
			return
		}
	case req.Random != nil:
		if req.Random.N <= 0 {
			writeError(w, http.StatusBadRequest, "random.n must be positive")
			return
		}
		seed := req.Random.Seed
		if seed == 0 {
			seed = 1
		}
		p = randqubo.Generate(req.Random.N, seed)
	default:
		writeError(w, http.StatusBadRequest, "no problem given (problem or random)")
		return
	}
	spec := JobSpec{
		Name:         req.Name,
		MaxFlips:     req.MaxFlips,
		TargetEnergy: req.TargetEnergy,
		Seed:         req.Seed,
		MaxDevices:   req.MaxDevices,
		RunSpec:      req.RunSpec,
	}
	if req.Time != "" {
		d, err := time.ParseDuration(req.Time)
		if err != nil || d <= 0 {
			writeError(w, http.StatusBadRequest, "bad time %q", req.Time)
			return
		}
		spec.MaxDuration = d
	}
	// The job outlives this request: its lifetime is governed by its
	// own budget and DELETE, not by the submitting connection.
	job, err := h.svc.Submit(context.WithoutCancel(r.Context()), p, spec)
	switch {
	case errors.Is(err, ErrQueueFull):
		writeError(w, http.StatusTooManyRequests, "%v", err)
		return
	case errors.Is(err, ErrClosed):
		writeError(w, http.StatusServiceUnavailable, "%v", err)
		return
	case err != nil:
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	writeJSON(w, http.StatusAccepted, statusJSON(job))
}

// backendJSON is one GET /v1/backends entry: the registry info plus
// the live unit count — how many search units across all running jobs
// run this backend (a race job's units count under its members).
type backendJSON struct {
	Name        string `json:"name"`
	Description string `json:"description"`
	Units       int    `json:"units"`
}

// backends lists the registered solver backends — the valid values for
// the submit body's "backend" field — with each backend's live unit
// count summed over the running jobs.
func (h *httpAPI) backends(w http.ResponseWriter, r *http.Request) {
	units := h.svc.BackendUnits()
	infos := core.Backends()
	out := make([]backendJSON, 0, len(infos))
	for _, info := range infos {
		out = append(out, backendJSON{
			Name:        info.Name,
			Description: info.Description,
			Units:       units[info.Name],
		})
	}
	writeJSON(w, http.StatusOK, map[string]any{"backends": out})
}

func (h *httpAPI) list(w http.ResponseWriter, r *http.Request) {
	jobs := h.svc.Jobs()
	out := make([]jobJSON, 0, len(jobs))
	for _, j := range jobs {
		out = append(out, statusJSON(j))
	}
	writeJSON(w, http.StatusOK, map[string]any{"jobs": out})
}

func (h *httpAPI) lookup(w http.ResponseWriter, r *http.Request) (*Job, bool) {
	id := r.PathValue("id")
	j, ok := h.svc.Job(id)
	if !ok {
		writeError(w, http.StatusNotFound, "no such job %q", id)
		return nil, false
	}
	return j, true
}

func (h *httpAPI) get(w http.ResponseWriter, r *http.Request) {
	if j, ok := h.lookup(w, r); ok {
		writeJSON(w, http.StatusOK, statusJSON(j))
	}
}

func (h *httpAPI) cancel(w http.ResponseWriter, r *http.Request) {
	j, ok := h.lookup(w, r)
	if !ok {
		return
	}
	j.Cancel()
	// Report the post-cancel state; for a queued job that settles
	// near-instantly, so give it a moment to land in "cancelled".
	select {
	case <-j.Done():
	case <-time.After(2 * time.Second):
	}
	writeJSON(w, http.StatusOK, statusJSON(j))
}

// trace returns the job's causal timeline: every span and event still
// in the tracer's rings that carries the job's trace ID. The default
// is NDJSON — one {"span":…} or {"event":…} object per line, spans
// first — which tools can filter line-by-line; ?format=chrome renders
// the Chrome trace-event JSON array for chrome://tracing or Perfetto.
func (h *httpAPI) trace(w http.ResponseWriter, r *http.Request) {
	j, ok := h.lookup(w, r)
	if !ok {
		return
	}
	sc := j.Trace()
	if h.tr == nil || !sc.Valid() {
		writeError(w, http.StatusNotFound, "no trace for job %q (service has no tracer)", j.ID())
		return
	}
	var spans []telemetry.Span
	for _, s := range h.tr.Spans() {
		if s.TraceID == sc.TraceID {
			spans = append(spans, s)
		}
	}
	var events []telemetry.Event
	for _, e := range h.tr.Events() {
		if e.TraceID == sc.TraceID {
			events = append(events, e)
		}
	}
	if r.URL.Query().Get("format") == "chrome" {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		telemetry.WriteChromeTrace(w, spans, events)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		enc.Encode(map[string]any{"span": s})
	}
	for _, e := range events {
		enc.Encode(map[string]any{"event": e})
	}
}

// events streams one status snapshot as a JSON line every ?interval
// (default 250ms, floor 10ms) until the job settles; the final line is
// the terminal status. The stream is NDJSON so curl shows live lines.
func (h *httpAPI) events(w http.ResponseWriter, r *http.Request) {
	j, ok := h.lookup(w, r)
	if !ok {
		return
	}
	interval := 250 * time.Millisecond
	if q := r.URL.Query().Get("interval"); q != "" {
		d, err := time.ParseDuration(q)
		if err != nil || d <= 0 {
			writeError(w, http.StatusBadRequest, "bad interval %q", q)
			return
		}
		interval = d
	}
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	flusher, _ := w.(http.Flusher)
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	emit := func() {
		enc.Encode(statusJSON(j))
		if flusher != nil {
			flusher.Flush()
		}
	}
	emit()
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-j.Done():
			emit()
			return
		case <-r.Context().Done():
			return
		case <-ticker.C:
			emit()
		}
	}
}
