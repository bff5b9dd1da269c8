package serve

import (
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"abs/internal/core"
	"abs/internal/qubo"
	"abs/internal/store"
)

func storedConfig(devices int, st store.Store) Config {
	cfg := testConfig(devices)
	cfg.Store = st
	return cfg
}

// TestRestartRetainsResultsAndRequeues is the service half of the
// crash-recovery story: kill the process mid-flight, start a new one
// over the same store, and clients see exactly what they saw before —
// finished jobs answer with their results, unfinished jobs are running
// again under the same IDs, and new submissions don't reuse old IDs.
func TestRestartRetainsResultsAndRequeues(t *testing.T) {
	mem := store.NewMem()
	s1, err := New(storedConfig(1, mem))
	if err != nil {
		t.Fatal(err)
	}

	// Job 1 runs to completion before the "crash".
	p1 := testProblem(48, 1)
	j1, err := s1.Submit(context.Background(), p1, JobSpec{Name: "short", MaxFlips: 2000})
	if err != nil {
		t.Fatal(err)
	}
	res1, err := j1.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	// Job 2 has an hour of budget: it cannot finish before the crash.
	// Its backend choice must survive the restart.
	p2 := testProblem(40, 2)
	run2 := core.RunSpec{Backend: "tabu"}
	j2, err := s1.Submit(context.Background(), p2, JobSpec{Name: "long", MaxDuration: time.Hour, RunSpec: run2})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "job 2 running", func() bool { return j2.Status().State == StateRunning })

	// Crash: the first service is simply abandoned — no Close, no
	// goodbye, exactly like a SIGKILL. (It is cleaned up at test end so
	// the goroutines don't leak, after all assertions on s2.)
	defer s1.Close()

	s2, err := New(storedConfig(1, mem))
	if err != nil {
		t.Fatalf("restart over the same store: %v", err)
	}
	defer s2.Close()

	// The finished job answers with its old result instead of a 404.
	r1, ok := s2.Job(j1.ID())
	if !ok {
		t.Fatalf("restarted service lost settled job %s", j1.ID())
	}
	st1 := r1.Status()
	if st1.State != StateDone || st1.Name != "short" {
		t.Errorf("restored job 1 = %s/%q, want done/short", st1.State, st1.Name)
	}
	res, err := r1.Result()
	if err != nil {
		t.Fatalf("restored Result: %v", err)
	}
	if res.BestEnergy != res1.BestEnergy {
		t.Errorf("restored best = %d, want %d", res.BestEnergy, res1.BestEnergy)
	}
	if res.Best == nil || p1.Energy(res.Best) != res1.BestEnergy {
		t.Errorf("restored solution does not re-evaluate to the recorded energy")
	}
	if res.Flips != res1.Flips {
		t.Errorf("restored flips = %d, want %d", res.Flips, res1.Flips)
	}

	// The unfinished job is live again under its original identity.
	r2, ok := s2.Job(j2.ID())
	if !ok {
		t.Fatalf("restarted service lost unfinished job %s", j2.ID())
	}
	waitFor(t, "restored job 2 running", func() bool { return r2.Status().State == StateRunning })
	if got := r2.Spec(); got.Name != "long" || got.MaxDuration != time.Hour || got.RunSpec != run2 {
		t.Errorf("restored spec = %+v, want the original", got)
	}
	if opt := r2.opt; opt.Backend != core.BackendTabu {
		t.Errorf("restored job runs backend %v, want tabu", opt.Backend)
	}

	// The ID counter resumed: a new submission must not collide.
	j3, err := s2.Submit(context.Background(), testProblem(32, 3), JobSpec{MaxFlips: 500})
	if err != nil {
		t.Fatal(err)
	}
	if j3.ID() == j1.ID() || j3.ID() == j2.ID() {
		t.Errorf("new job reused an old ID: %s", j3.ID())
	}
}

// TestRestartCompactsLog pins the compaction contract: after a restart
// the log holds exactly one spec (+done) pair per surviving job, not
// the full transition history.
func TestRestartCompactsLog(t *testing.T) {
	mem := store.NewMem()
	s1, err := New(storedConfig(1, mem))
	if err != nil {
		t.Fatal(err)
	}
	j, err := s1.Submit(context.Background(), testProblem(32, 4), JobSpec{MaxFlips: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	s1.Close()

	s2, err := New(storedConfig(1, mem))
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	// One settled job → spec + done. (The pre-restart log also carried
	// spec+done, so this doubles as a no-growth check.)
	if _, n := mem.Len(jobsLog); n != 2 {
		t.Errorf("compacted log holds %d records, want 2", n)
	}
}

// TestRestoredSettledBoundedByRetention: RetainResults applies across
// restarts — only the newest results come back.
func TestRestoredSettledBoundedByRetention(t *testing.T) {
	mem := store.NewMem()
	s1, err := New(storedConfig(1, mem))
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for i := 0; i < 3; i++ {
		j, err := s1.Submit(context.Background(), testProblem(32, uint64(10+i)), JobSpec{MaxFlips: 500})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := j.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, j.ID())
	}
	s1.Close()

	cfg := storedConfig(1, mem)
	cfg.RetainResults = 2
	s2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if _, ok := s2.Job(ids[0]); ok {
		t.Errorf("oldest settled job %s survived a retention of 2", ids[0])
	}
	for _, id := range ids[1:] {
		if _, ok := s2.Job(id); !ok {
			t.Errorf("job %s should be within the retention window", id)
		}
	}
}

// TestRequeuedJobRunsToCompletion plants a bare spec record (a job the
// old process accepted but never finished) and checks the new process
// actually solves it, not merely lists it.
func TestRequeuedJobRunsToCompletion(t *testing.T) {
	p := testProblem(40, 5)
	var text strings.Builder
	if err := qubo.WriteText(&text, p); err != nil {
		t.Fatal(err)
	}
	rec, err := json.Marshal(jobRecord{
		Kind:            "spec",
		ID:              "job-7",
		Name:            "orphan",
		Problem:         text.String(),
		MaxFlips:        2000,
		SubmittedUnixMS: time.Now().Add(-time.Minute).UnixMilli(),
	})
	if err != nil {
		t.Fatal(err)
	}
	mem := store.NewMem()
	if err := mem.Append(jobsLog, rec); err != nil {
		t.Fatal(err)
	}

	s, err := New(storedConfig(1, mem))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	j, ok := s.Job("job-7")
	if !ok {
		t.Fatal("planted job not restored")
	}
	res, err := j.Wait(context.Background())
	if err != nil {
		t.Fatalf("requeued job did not finish: %v", err)
	}
	if res.Flips == 0 || p.Energy(res.Best) != res.BestEnergy {
		t.Errorf("requeued job result inconsistent: flips=%d", res.Flips)
	}
	// The counter resumed past the planted ID.
	j2, err := s.Submit(context.Background(), testProblem(32, 6), JobSpec{MaxFlips: 100})
	if err != nil {
		t.Fatal(err)
	}
	if jobSeq(j2.ID()) <= 7 {
		t.Errorf("new job ID %s did not resume past job-7", j2.ID())
	}
}

// problemJSON returns p's text form as a JSON string literal, for
// planting raw journal records.
func problemJSON(t *testing.T, p *qubo.Problem) string {
	t.Helper()
	var text strings.Builder
	if err := qubo.WriteText(&text, p); err != nil {
		t.Fatal(err)
	}
	problem, err := json.Marshal(text.String())
	if err != nil {
		t.Fatal(err)
	}
	return string(problem)
}

// TestRestoreBackendOnlyRecord plants a spec record in the journal
// format that carries only a "backend" run setting, and checks it
// restores under that backend and runs to completion.
func TestRestoreBackendOnlyRecord(t *testing.T) {
	p := testProblem(40, 8)
	rec := `{"kind":"spec","id":"job-3","name":"old","problem":` + problemJSON(t, p) +
		`,"max_flips":2000,"backend":"tabu","submitted_unix_ms":1700000000000}`
	mem := store.NewMem()
	if err := mem.Append(jobsLog, []byte(rec)); err != nil {
		t.Fatal(err)
	}

	s, err := New(storedConfig(1, mem))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	j, ok := s.Job("job-3")
	if !ok {
		t.Fatal("planted job not restored")
	}
	if got := j.Spec(); got.Name != "old" || got.MaxFlips != 2000 || got.RunSpec != (core.RunSpec{Backend: "tabu"}) {
		t.Errorf("restored spec = %+v, want name old, 2000 flips, backend tabu", got)
	}
	res, err := j.Wait(context.Background())
	if err != nil {
		t.Fatalf("restored job did not finish: %v", err)
	}
	if res.Backend != core.BackendTabu || p.Energy(res.Best) != res.BestEnergy {
		t.Errorf("restored job ran backend %v with energy %d (recomputed %d), want tabu and a consistent result",
			res.Backend, res.BestEnergy, p.Energy(res.Best))
	}
}

// TestRestoreDiversityRecord plants a spec record from a journal that
// still names the removed "diversity" run setting, and checks the key
// is ignored like any unknown journal key: the job restores with an
// unset run spec and runs to completion on the default backend.
func TestRestoreDiversityRecord(t *testing.T) {
	p := testProblem(40, 10)
	rec := `{"kind":"spec","id":"job-5","problem":` + problemJSON(t, p) +
		`,"max_flips":2000,"diversity":"radius=8,buckets=4","submitted_unix_ms":1700000000000}`
	mem := store.NewMem()
	if err := mem.Append(jobsLog, []byte(rec)); err != nil {
		t.Fatal(err)
	}

	s, err := New(storedConfig(1, mem))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	j, ok := s.Job("job-5")
	if !ok {
		t.Fatal("planted job not restored")
	}
	if got := j.Spec(); got.MaxFlips != 2000 || got.RunSpec != (core.RunSpec{}) {
		t.Errorf("restored spec = %+v, want 2000 flips and an unset run spec", got)
	}
	res, err := j.Wait(context.Background())
	if err != nil {
		t.Fatalf("restored job did not finish: %v", err)
	}
	if res.Backend != core.BackendStraight || p.Energy(res.Best) != res.BestEnergy {
		t.Errorf("restored job ran backend %v with energy %d (recomputed %d), want straight and a consistent result",
			res.Backend, res.BestEnergy, p.Energy(res.Best))
	}
}

// TestRestoreDegradedRecords: a done record with an error restores as a
// queryable failure, and a spec whose problem text rotted or whose run
// spec no longer validates restores as failed rather than vanishing or
// crashing the restore. A spec naming the removed "diversity" setting
// is not degraded: it restores and runs.
func TestRestoreDegradedRecords(t *testing.T) {
	p := testProblem(16, 9)
	var sb strings.Builder
	if err := qubo.WriteText(&sb, p); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	mem := store.NewMem()
	append_ := func(rec jobRecord) {
		data, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		if err := mem.Append(jobsLog, data); err != nil {
			t.Fatal(err)
		}
	}
	append_(jobRecord{Kind: "spec", ID: "job-1", Problem: "not a qubo file"})
	append_(jobRecord{Kind: "spec", ID: "job-2", Problem: "also garbage"})
	append_(jobRecord{Kind: "spec", ID: "job-3", Problem: text, RunSpec: core.RunSpec{Backend: "columnar"}})
	// A spec journaled with the removed diversity setting.
	if err := mem.Append(jobsLog, []byte(`{"kind":"spec","id":"job-4","problem":`+problemJSON(t, p)+
		`,"max_flips":2000,"diversity":"radius=8,floor=0.2"}`)); err != nil {
		t.Fatal(err)
	}
	append_(jobRecord{Kind: "done", ID: "job-2", State: string(StateFailed), Error: "engine exploded"})

	s, err := New(storedConfig(1, mem))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	j1, ok := s.Job("job-1")
	if !ok {
		t.Fatal("unparsable-spec job vanished")
	}
	if st := j1.Status(); st.State != StateFailed || st.Error == "" {
		t.Errorf("unparsable spec = %s %q, want failed with an error", st.State, st.Error)
	}
	j2, ok := s.Job("job-2")
	if !ok {
		t.Fatal("failed job vanished")
	}
	if st := j2.Status(); st.State != StateFailed || !strings.Contains(st.Error, "engine exploded") {
		t.Errorf("restored failure = %s %q, want the recorded error", st.State, st.Error)
	}
	j3, ok := s.Job("job-3")
	if !ok {
		t.Fatal("unknown-backend job vanished")
	}
	if st := j3.Status(); st.State != StateFailed || !strings.Contains(st.Error, "columnar") {
		t.Errorf("unknown-backend spec = %s %q, want failed naming the backend", st.State, st.Error)
	}
	j4, ok := s.Job("job-4")
	if !ok {
		t.Fatal("removed-diversity-key job vanished")
	}
	if _, err := j4.Wait(context.Background()); err != nil {
		t.Errorf("removed-diversity-key spec failed: %v; want it to run on the plain pool", err)
	}
}
