package main

import (
	"bufio"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"

	"abs/internal/core"
	"abs/internal/gpusim"
	"abs/internal/qubo"
)

// span is one timed call into a layer, recorded by the benchmark around
// a public function. Spans of one operation share Op; probes use Op -1.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root span
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer was made
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// open starts a span and returns its ID; close sets its end.
func (t *tracer) open(name string, parent, op int, start time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name,
		Start: start.Sub(t.t0).Nanoseconds()})
	return id
}

func (t *tracer) close(id int, end time.Time) {
	t.mu.Lock()
	t.spans[id-1].End = end.Sub(t.t0).Nanoseconds()
	t.mu.Unlock()
}

// add records a finished span.
func (t *tracer) add(name string, parent, op int, start, end time.Time) int {
	id := t.open(name, parent, op, start)
	t.close(id, end)
	return id
}

// durations returns the durations of every span called name, in ms.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// write dumps the spans as JSON lines to path.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedSolve repeats core.SolveContext's loop over the public Engine
// API — NewEngine, NewFleet, Attach, then Pump / ShouldStop / sleep
// PollInterval, then Finish — with a span around each call. It is used
// only for per-layer numbers: the end-to-end runs call SolveContext
// itself, so a change to its loop shows there.
func tracedSolve(ctx context.Context, tr *tracer, op int, p *qubo.Problem, opt core.Options) (*core.Result, error) {
	root := tr.open("core.solve", 0, op, time.Now())
	defer func() { tr.close(root, time.Now()) }()
	t := time.Now()
	eng, err := core.NewEngine(p, opt)
	tr.add("core.new_engine", root, op, t, time.Now())
	if err != nil {
		return nil, err
	}
	t = time.Now()
	fleet, err := gpusim.NewFleet(eng.Options().Device, eng.MaxDevices())
	tr.add("gpusim.new_fleet", root, op, t, time.Now())
	if err != nil {
		eng.Finish(false)
		return nil, err
	}
	for i := 0; i < fleet.Size(); i++ {
		t = time.Now()
		err := eng.Attach(fleet.Device(i))
		tr.add("core.attach", root, op, t, time.Now())
		if err != nil {
			eng.Finish(false)
			return nil, err
		}
	}
	launched := time.Now()
	runSpan := tr.open("core.run", root, op, launched)
	found, cancelled := false, false
	for {
		t = time.Now()
		eng.Pump(t)
		end := time.Now()
		tr.add("core.pump", runSpan, op, t, end)
		if !found && eng.Snapshot(end).BestKnown {
			found = true
			tr.add("core.first_solution", runSpan, op, launched, end)
		}
		if eng.ShouldStop(time.Now()) {
			break
		}
		if ctx.Err() != nil {
			cancelled = true
			break
		}
		time.Sleep(eng.Options().PollInterval)
	}
	t = time.Now()
	tr.close(runSpan, t)
	res := eng.Finish(cancelled)
	tr.add("core.finish", root, op, t, time.Now())
	return res, nil
}

// coreMetrics derives the core and gpusim.device_share_min metrics from
// the traced solves' spans and Results.
func coreMetrics(tr *tracer, solves []opRecord, m map[string]float64) {
	m["core.new_engine_ms"] = median(tr.durations("core.new_engine"))
	m["core.attach_ms"] = median(tr.durations("core.attach"))
	pumps := tr.durations("core.pump")
	m["core.pump_p50_ms"] = median(pumps)
	m["core.pump_max_ms"] = quantile(pumps, 1)
	m["core.pump_busy_frac"] = ratio(sum(pumps), sum(tr.durations("core.run")))
	m["core.first_solution_ms"] = median(tr.durations("core.first_solution"))
	m["core.finish_ms"] = median(tr.durations("core.finish"))

	var published, inserted, rejected, dropped, quarantined float64
	shareMin := 1.0
	for _, r := range solves {
		res := r.res
		if res == nil {
			continue
		}
		perDev := map[int]float64{}
		var all float64
		for _, b := range res.BlockStats {
			published += float64(b.Published)
			perDev[b.Device] += float64(b.Flips)
			all += float64(b.Flips)
		}
		for _, f := range perDev {
			if all > 0 {
				shareMin = min(shareMin, f/(all/float64(len(perDev))))
			}
		}
		inserted += float64(res.Inserted)
		rejected += float64(res.Rejected)
		dropped += float64(res.Dropped)
		quarantined += float64(res.Quarantined)
	}
	n := float64(max(len(solves), 1))
	m["core.published"] = published / n
	m["core.inserted"] = inserted / n
	m["core.rejected"] = rejected / n
	m["core.dropped"] = dropped / n
	m["core.quarantined"] = quarantined / n
	m["core.admit_ratio"] = ratio(inserted, published)
	m["core.drop_ratio"] = ratio(dropped, published)
	m["gpusim.device_share_min"] = shareMin
}

// serveMetrics derives the serve metrics from the traced jobs' spans.
func serveMetrics(tr *tracer, m map[string]float64) {
	for _, name := range []string{"submit", "queue", "run", "settle"} {
		m["serve."+name+"_ms"] = median(tr.durations("serve." + name))
	}
}

// overhead compares the traced and untraced operations of one traced
// run: the share by which tracing lowered flips per second of operation
// wall, and raised the median operation latency.
func overhead(ph phase, m map[string]float64) {
	fu, bu, lu := opTotals(ph.subset(false))
	ft, bt, lt := opTotals(ph.subset(true))
	m["trace.flips_per_s_overhead"] = 1 - (float64(ft)/bt)/(float64(fu)/bu)
	m["trace.job_p50_s_overhead"] = median(lt)/median(lu) - 1
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// perLayer lists the traced run's metrics with their units, in the
// order BENCHMARK.json gives them.
var perLayer = []struct{ name, unit string }{
	{"dkernel.flip_tiles_ns", "ns"},
	{"dkernel.computed_gb_per_s", "GB/s"},
	{"qubo.dense_flips_per_s", "flips/s"},
	{"qubo.sparse_flips_per_s", "flips/s"},
	{"qubo.energy_ms", "ms"},
	{"search.unit_flips_per_s", "flips/s"},
	{"search.round_ms", "ms"},
	{"search.retarget_flips", "count"},
	{"gpusim.fleet_flips_per_s", "flips/s"},
	{"gpusim.stop_ms", "ms"},
	{"gpusim.device_share_min", "ratio"},
	{"core.new_engine_ms", "ms"},
	{"core.attach_ms", "ms"},
	{"core.pump_busy_frac", "ratio"},
	{"core.pump_p50_ms", "ms"},
	{"core.pump_max_ms", "ms"},
	{"core.first_solution_ms", "ms"},
	{"core.finish_ms", "ms"},
	{"core.published", "count"},
	{"core.inserted", "count"},
	{"core.rejected", "count"},
	{"core.dropped", "count"},
	{"core.quarantined", "count"},
	{"core.admit_ratio", "ratio"},
	{"core.drop_ratio", "ratio"},
	{"serve.submit_ms", "ms"},
	{"serve.queue_ms", "ms"},
	{"serve.run_ms", "ms"},
	{"serve.settle_ms", "ms"},
	{"trace.flips_per_s_overhead", "ratio"},
	{"trace.job_p50_s_overhead", "ratio"},
}
