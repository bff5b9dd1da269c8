package core

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"abs/internal/gpusim"
	"abs/internal/randqubo"
	"abs/internal/telemetry"
)

// TestTelemetryEndToEnd runs a solve with telemetry attached and a
// live HTTP endpoint being scraped concurrently — while a fault plan
// crashes, stalls and corrupts blocks. Run under -race (scripts/
// check.sh) this is the scrape-while-solving safety proof; the
// assertions pin that the registry's counters agree with the Result.
func TestTelemetryEndToEnd(t *testing.T) {
	p := randqubo.Generate(96, 11)
	reg := telemetry.NewRegistry()
	// The ring must outsize the whole run's event volume (~20k on this
	// shape): the shutdown drain emits thousands of ingest events with
	// no retargeting, and on a loaded 1-CPU host a smaller ring lets
	// that tail evict every earlier target_publish, flaking the
	// event-kind assertions below.
	tracer := telemetry.NewTracer(1 << 16)

	srv, err := telemetry.Serve("127.0.0.1:0", reg, tracer)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	faults := gpusim.NewFaultPlan(3)
	faults.CrashBlock(0, 2)
	faults.StallBlock(1, 3)
	faults.CorruptPublications(0.2)

	opt := DefaultOptions()
	opt.NumGPUs = 2
	opt.MaxDuration = 900 * time.Millisecond
	opt.PollInterval = 50 * time.Microsecond
	opt.ProgressEvery = 50 * time.Millisecond
	opt.SupervisorGrace = 150 * time.Millisecond
	opt.Faults = faults
	opt.Telemetry = reg
	opt.Tracer = tracer
	var progressBuf bytes.Buffer
	opt.ProgressWriter = &progressBuf

	type solveOut struct {
		res *Result
		err error
	}
	done := make(chan solveOut, 1)
	go func() {
		res, err := SolveContext(context.Background(), p, opt)
		done <- solveOut{res, err}
	}()

	// Scrape the live endpoint until the solve finishes; every scrape
	// must succeed and parse.
	var lastBody string
	scrapes := 0
	for {
		select {
		case out := <-done:
			if out.err != nil {
				t.Fatal(out.err)
			}
			verifyTelemetry(t, reg, tracer, out.res, lastBody, scrapes)
			if !telemetry.Enabled {
				return
			}
			if progressBuf.Len() == 0 {
				t.Error("ProgressWriter received no lines")
			} else if !strings.Contains(progressBuf.String(), "flips") {
				t.Errorf("progress line malformed: %q", progressBuf.String())
			}
			return
		default:
		}
		resp, err := http.Get("http://" + srv.Addr() + "/metrics")
		if err != nil {
			t.Fatalf("scrape %d failed: %v", scrapes, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("scrape %d status %d", scrapes, resp.StatusCode)
		}
		lastBody = string(body)
		scrapes++
		time.Sleep(20 * time.Millisecond)
	}
}

func verifyTelemetry(t *testing.T, reg *telemetry.Registry, tracer *telemetry.Tracer,
	res *Result, scrape string, scrapes int) {
	t.Helper()
	if !telemetry.Enabled {
		return // abstelemetryoff build: nothing to verify
	}
	if scrapes == 0 {
		t.Fatal("no scrape completed during the run")
	}
	for _, want := range []string{
		"abs_flips_total", "abs_flips_per_second", "abs_ingest_accepted_total",
		"abs_pool_size", "abs_block_respawns_total", "abs_host_drain_batch_size_bucket",
	} {
		if !strings.Contains(scrape, want) {
			t.Errorf("live scrape missing %q", want)
		}
	}
	s := reg.Snapshot()
	var flips float64
	for _, lv := range s.LabelValues("abs_flips_total") {
		v, _ := s.Counter("abs_flips_total", lv)
		flips += v
	}
	if flips != float64(res.Flips) {
		t.Errorf("telemetry flips %v != Result.Flips %d", flips, res.Flips)
	}
	straight, _ := s.Counter("abs_straight_flips_total", "")
	local, _ := s.Counter("abs_local_flips_total", "")
	if straight+local != flips {
		t.Errorf("straight %v + local %v != total %v", straight, local, flips)
	}
	if acc, _ := s.Counter("abs_ingest_accepted_total", ""); acc != float64(res.Inserted) {
		t.Errorf("telemetry accepted %v != Result.Inserted %d", acc, res.Inserted)
	}
	structural, _ := s.Counter("abs_ingest_rejected_structural_total", "")
	mismatch, _ := s.Counter("abs_ingest_rejected_energy_total", "")
	if structural+mismatch != float64(res.Quarantined) {
		t.Errorf("telemetry quarantines %v+%v != Result.Quarantined %d",
			structural, mismatch, res.Quarantined)
	}
	// Every recheck either admitted its publication or quarantined it
	// for its energy; the path split says which rows it read.
	diff, _ := s.Counter("abs_ingest_rechecks_total", "diff")
	full, _ := s.Counter("abs_ingest_rechecks_total", "full")
	if acc, _ := s.Counter("abs_ingest_accepted_total", ""); diff+full != acc+mismatch {
		t.Errorf("rechecks diff %v + full %v != accepted %v + energy-quarantined %v",
			diff, full, acc, mismatch)
	}
	if !strings.Contains(scrape, `abs_ingest_rechecks_total{path="full"}`) {
		t.Error(`live scrape missing abs_ingest_rechecks_total{path="full"}`)
	}
	if resp, _ := s.Counter("abs_block_respawns_total", ""); resp != float64(res.Recovered) {
		t.Errorf("telemetry respawns %v != Result.Recovered %d", resp, res.Recovered)
	}
	if drop, _ := s.Counter("abs_solutions_dropped_total", ""); drop != float64(res.Dropped) {
		t.Errorf("telemetry dropped %v != Result.Dropped %d", drop, res.Dropped)
	}
	// The fault plan fired at least the two scheduled block faults.
	var faultCount float64
	for _, lv := range s.LabelValues("abs_faults_injected_total") {
		v, _ := s.Counter("abs_faults_injected_total", lv)
		faultCount += v
	}
	if faultCount < 2 {
		t.Errorf("faults injected = %v, want >= 2 (crash + stall scheduled)", faultCount)
	}
	if tracer.Emitted() == 0 {
		t.Error("tracer saw no events")
	}
	kinds := make(map[telemetry.EventKind]bool)
	for _, e := range tracer.Events() {
		kinds[e.Kind] = true
	}
	for _, want := range []telemetry.EventKind{
		telemetry.EventTargetPublish, telemetry.EventSolutionPublish,
	} {
		if !kinds[want] {
			t.Errorf("trace ring has no %q events (kinds seen: %v)", want, kinds)
		}
	}
}

// TestSolveWithoutTelemetry pins that a run with no registry and no
// tracer still works and that the observers were simply not installed.
func TestSolveWithoutTelemetry(t *testing.T) {
	p := randqubo.Generate(64, 5)
	opt := DefaultOptions()
	opt.MaxFlips = 20000
	res, err := Solve(p, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Flips == 0 {
		t.Error("no flips performed")
	}
}

func TestNextDeadline(t *testing.T) {
	base := time.Unix(1000, 0)
	sec := time.Second
	cases := []struct {
		name string
		prev time.Time
		now  time.Time
		want time.Time
	}{
		// On schedule: the next deadline is exactly one interval after
		// the previous one, regardless of when within the interval the
		// tick fired — this is the anti-drift anchor.
		{"on time", base, base.Add(200 * time.Millisecond), base.Add(sec)},
		{"late within interval", base, base.Add(990 * time.Millisecond), base.Add(sec)},
		// Fell behind: skip missed ticks, stay phase-locked.
		{"one missed", base, base.Add(1500 * time.Millisecond), base.Add(2 * sec)},
		{"many missed", base, base.Add(4700 * time.Millisecond), base.Add(5 * sec)},
		// Exactly on a boundary: the returned deadline must be in the
		// future, not now.
		{"exact boundary", base, base.Add(2 * sec), base.Add(3 * sec)},
	}
	for _, c := range cases {
		if got := nextDeadline(c.prev, c.now, sec); !got.Equal(c.want) {
			t.Errorf("%s: nextDeadline = %v, want %v", c.name, got.Sub(base), c.want.Sub(base))
		}
	}
}

// benchSolve is the shared body of the overhead microbenchmark: a
// fixed flip budget so instrumented and uninstrumented runs do the
// same work, timed end to end.
func benchSolve(b *testing.B, withTelemetry bool) {
	p := randqubo.Generate(256, 9)
	for i := 0; i < b.N; i++ {
		opt := DefaultOptions()
		opt.MaxFlips = 300000
		opt.DisableSupervisor = true
		if withTelemetry {
			opt.Telemetry = telemetry.NewRegistry()
		}
		res, err := Solve(p, opt)
		if err != nil {
			b.Fatal(err)
		}
		if res.Flips < opt.MaxFlips {
			b.Fatalf("only %d flips performed", res.Flips)
		}
	}
}

// Overhead budget (ISSUE 2): telemetry must cost <= 3% of flip-loop
// throughput. Compare:
//
//	go test -run xxx -bench 'SolveFlips' -count 5 ./internal/core/
//
// Measured numbers live in DESIGN.md §6.
func BenchmarkSolveFlipsBaseline(b *testing.B)  { benchSolve(b, false) }
func BenchmarkSolveFlipsTelemetry(b *testing.B) { benchSolve(b, true) }
