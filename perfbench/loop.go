package main

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"abs/internal/core"
	"abs/internal/serve"
)

// opRecord is one operation — a core.SolveContext call or a serve job —
// timed by the benchmark's own clock.
type opRecord struct {
	inst   *instance
	traced bool
	wall   time.Duration // call → return, or Submit → Wait returning
	res    *core.Result
	err    error
	state  serve.JobState // serve jobs only
}

// check reports why the operation failed, or nil.
func (r *opRecord) check() error {
	if r.err != nil {
		return r.err
	}
	if r.state != "" && r.state != serve.StateDone {
		return fmt.Errorf("job ended %s", r.state)
	}
	return checkResult(r.inst, r.res)
}

// phase is the timed part of a run: its operations and its wall time.
type phase struct {
	ops  []opRecord
	wall time.Duration
}

// subset returns the phase's traced or untraced operations.
func (ph phase) subset(traced bool) []opRecord {
	var out []opRecord
	for _, r := range ph.ops {
		if r.traced == traced {
			out = append(out, r)
		}
	}
	return out
}

// run drives the workload's closed loop for dur after one untimed warm-up
// operation per instance. With tr set, every second operation is traced.
func run(ctx context.Context, w *workload, dur time.Duration, tr *tracer) (warm []opRecord, ph phase, err error) {
	if w.serve {
		return runJobs(ctx, w, dur, tr)
	}
	warm, ph = runSolves(ctx, w, dur, tr)
	return warm, ph, nil
}

// runSolves runs solves one after another until dur has passed.
func runSolves(ctx context.Context, w *workload, dur time.Duration, tr *tracer) ([]opRecord, phase) {
	in := w.insts[0]
	solve := func(op int, traced bool) opRecord {
		opt := w.solveOptions(op)
		rec := opRecord{inst: in, traced: traced}
		t0 := time.Now()
		if traced {
			rec.res, rec.err = tracedSolve(ctx, tr, op, in.p, opt)
		} else {
			rec.res, rec.err = core.SolveContext(ctx, in.p, opt)
		}
		rec.wall = time.Since(t0)
		return rec
	}
	warm := []opRecord{solve(-1, false)}
	var ph phase
	start := time.Now()
	for op := 0; op < minOps(tr) || time.Since(start) < dur; op++ {
		ph.ops = append(ph.ops, solve(op, tr != nil && op%2 == 1))
	}
	ph.wall = time.Since(start)
	return warm, ph
}

// minOps is the least number of operations a loop makes however short
// its time: a traced run needs a traced and an untraced one to compare.
func minOps(tr *tracer) int {
	if tr != nil {
		return 2
	}
	return 1
}

// runJobs runs serveClients closed-loop clients against one serve.Service:
// each submits a job, waits for it, and only then submits the next.
func runJobs(ctx context.Context, w *workload, dur time.Duration, tr *tracer) ([]opRecord, phase, error) {
	svc, err := serve.New(serve.Config{NumDevices: w.opt.NumGPUs, Defaults: w.opt})
	if err != nil {
		return nil, phase{}, err
	}
	defer svc.Close()
	job := func(in *instance, op int, traced bool) opRecord {
		return submitJob(ctx, svc, tr, in, serve.JobSpec{Name: in.name, MaxFlips: w.maxFlips, Seed: w.solverSeed(op)}, op, traced)
	}
	var warm []opRecord
	for i, in := range w.insts {
		warm = append(warm, job(in, -1-i, false))
	}
	perClient := make([][]opRecord, serveClients)
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for j := 0; j < minOps(tr) || time.Now().Before(deadline); j++ {
				op := j*serveClients + c
				perClient[c] = append(perClient[c], job(w.opInstance(c, j), op, tr != nil && j%2 == 1))
			}
		}(c)
	}
	wg.Wait()
	ph := phase{wall: time.Since(start)}
	for _, ops := range perClient {
		ph.ops = append(ph.ops, ops...)
	}
	return warm, ph, nil
}

// submitJob submits one job and waits for it. A traced job also records
// its serve spans: the Submit call, then the service's own
// Submitted→Started→Finished stamps, then Finished→Wait returning.
func submitJob(ctx context.Context, svc *serve.Service, tr *tracer, in *instance, spec serve.JobSpec, op int, traced bool) opRecord {
	rec := opRecord{inst: in, traced: traced}
	t0 := time.Now()
	j, err := svc.Submit(ctx, in.p, spec)
	t1 := time.Now()
	if err != nil {
		rec.err, rec.wall = err, t1.Sub(t0)
		return rec
	}
	rec.res, rec.err = j.Wait(ctx)
	t2 := time.Now()
	rec.wall = t2.Sub(t0)
	st := j.Status()
	rec.state = st.State
	if traced {
		root := tr.add("serve.job", 0, op, t0, t2)
		tr.add("serve.submit", root, op, t0, t1)
		tr.add("serve.queue", root, op, st.Submitted, st.Started)
		tr.add("serve.run", root, op, st.Started, st.Finished)
		tr.add("serve.settle", root, op, st.Finished, t2)
	}
	return rec
}

// setupSeconds is setup_s: for each instance, the median wall of
// standalone core.NewEngine calls with the workload's options, repeated
// for an equal share of budget (at least five times), averaged over the
// instances.
func setupSeconds(w *workload, budget time.Duration) (float64, error) {
	runtime.GC()
	per := budget / time.Duration(len(w.insts))
	var sum float64
	for _, in := range w.insts {
		var walls []float64
		start := time.Now()
		for r := 0; r < 5 || time.Since(start) < per; r++ {
			t0 := time.Now()
			eng, err := core.NewEngine(in.p, w.solveOptions(r))
			walls = append(walls, time.Since(t0).Seconds())
			if err != nil {
				return 0, err
			}
			eng.Finish(false)
		}
		sum += median(walls)
	}
	return sum / float64(len(w.insts)), nil
}

// endToEnd computes the end-to-end metrics of a phase from the
// benchmark's clock and Result.Flips (never Result.Elapsed). Rates of
// sequential solves divide by the summed solve walls, so the bookkeeping
// between solves does not count; rates of concurrent jobs divide by the
// phase wall.
func endToEnd(w *workload, ph phase, setup float64) map[string]float64 {
	flips, busy, lat := opTotals(ph.ops)
	secs := ph.wall.Seconds()
	if !w.serve {
		secs = busy
	}
	return map[string]float64{
		"flips_per_s": float64(flips) / secs,
		"setup_s":     setup,
		"job_p50_s":   quantile(lat, 0.5),
		"job_p90_s":   quantile(lat, 0.9),
		"jobs_per_s":  float64(len(ph.ops)) / secs,
	}
}

// endToEndUnits lists the untraced run's metrics with their units, in
// the order BENCHMARK.json gives them.
var endToEndUnits = []struct{ name, unit string }{
	{"flips_per_s", "flips/s"},
	{"setup_s", "s"},
	{"job_p50_s", "s"},
	{"job_p90_s", "s"},
	{"jobs_per_s", "jobs/s"},
}

// opTotals sums the flips and walls of ops and lists their latencies in
// seconds.
func opTotals(ops []opRecord) (flips uint64, busy float64, lat []float64) {
	for _, r := range ops {
		if r.res != nil {
			flips += r.res.Flips
		}
		busy += r.wall.Seconds()
		lat = append(lat, r.wall.Seconds())
	}
	return flips, busy, lat
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }
