package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"testing"
	"time"

	"abs/internal/bitvec"
	"abs/internal/rng"
	"abs/internal/store"
)

// leaseCount reads the coordinator's outstanding-lease table size.
func leaseCount(c *Coordinator) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.leases)
}

func TestCheckpointRestoreRoundTrip(t *testing.T) {
	p := testProblem(48, 21)
	st := store.NewMem()
	c, err := NewCoordinator(p, CoordinatorConfig{
		MaxDuration: time.Minute,
		Store:       st,
		Checkpoint:  time.Hour, // checkpoint manually; no cadence race
	})
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	ctx := context.Background()
	mustRegister(t, c, "a")

	// Build pre-kill state: an admitted solution, a flip total, and
	// targets out on lease.
	x := bitvec.Random(p.N(), rng.New(31))
	e := p.Energy(x)
	if _, err := c.Publish(ctx, PublishRequest{WorkerID: "a", Flips: 100,
		Results: []PublishedSolution{{X: x.String(), Energy: e}}}); err != nil {
		t.Fatalf("Publish: %v", err)
	}
	held := targetSet(mustLease(t, c, "a", 3))
	// Read the status before the checkpoint: the checkpoint then records
	// an Elapsed no smaller than preBest's, however long the scheduler
	// delays this goroutine between the two calls.
	preBest := c.Status()
	if err := c.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	// Crash: the old coordinator is simply abandoned (Close would be a
	// clean shutdown; a crash writes nothing further). Close it only at
	// test end so its janitor dies.
	t.Cleanup(c.Close)

	r, restored, err := RestoreCoordinator(p, CoordinatorConfig{
		MaxDuration: time.Minute,
		Store:       st,
		Checkpoint:  time.Hour,
	})
	if err != nil {
		t.Fatalf("RestoreCoordinator: %v", err)
	}
	t.Cleanup(r.Close)
	if !restored {
		t.Fatal("RestoreCoordinator found no checkpoint")
	}

	st2 := r.Status()
	if !st2.BestKnown || st2.BestEnergy != preBest.BestEnergy {
		t.Errorf("restored best = (%d, %v), want pre-kill best (%d, true)",
			st2.BestEnergy, st2.BestKnown, preBest.BestEnergy)
	}
	if st2.Flips != 100 {
		t.Errorf("restored flips = %d, want 100", st2.Flips)
	}
	if st2.Workers != 0 {
		t.Errorf("restored coordinator has %d workers before any re-registration, want 0", st2.Workers)
	}

	// The old worker's next RPC fails with ErrUnknownWorker — its cue to
	// re-register idempotently.
	if _, err := r.Heartbeat(ctx, HeartbeatRequest{WorkerID: "a"}); !errors.Is(err, ErrUnknownWorker) {
		t.Fatalf("pre-restart worker heartbeat = %v, want ErrUnknownWorker", err)
	}
	mustRegister(t, r, "a")

	// Targets that were out on lease at the kill must be the first
	// things re-granted: the §3.1 guarantee survives the restart.
	regrant := targetSet(mustLease(t, r, "a", 3))
	for x := range held {
		if !regrant[x] {
			t.Errorf("in-flight target %q lost across kill+restore", x)
		}
	}

	// Flip baselines survive: worker "a" never restarted, so its next
	// cumulative report (150) adds only the delta over its pre-kill 100.
	if _, err := r.Publish(ctx, PublishRequest{WorkerID: "a", Flips: 150}); err != nil {
		t.Fatalf("Publish after restore: %v", err)
	}
	if got := r.Status().Flips; got != 150 {
		t.Errorf("flips after restored baseline = %d, want 150 (not double-counted)", got)
	}

	// Elapsed time accumulates across incarnations (the checkpoint
	// records milliseconds, so allow that much truncation).
	if r.Status().Elapsed < preBest.Elapsed-time.Millisecond {
		t.Errorf("restored Elapsed %v went backwards from %v", r.Status().Elapsed, preBest.Elapsed)
	}
}

func TestRestoreColdStartsWithoutCheckpoint(t *testing.T) {
	p := testProblem(32, 22)
	c, restored, err := RestoreCoordinator(p, CoordinatorConfig{
		MaxDuration: time.Minute,
		Store:       store.NewMem(),
	})
	if err != nil {
		t.Fatalf("RestoreCoordinator: %v", err)
	}
	t.Cleanup(c.Close)
	if restored {
		t.Error("restored=true from an empty store")
	}
	mustRegister(t, c, "a") // fully usable cold coordinator
}

func TestRestoreRequiresStore(t *testing.T) {
	if _, _, err := RestoreCoordinator(testProblem(16, 23), CoordinatorConfig{MaxDuration: time.Minute}); err == nil {
		t.Fatal("RestoreCoordinator accepted a config without a Store")
	}
}

func TestRestoreUndecodableCheckpointErrors(t *testing.T) {
	st := store.NewMem()
	if err := st.Save(coordState, []byte("{this is not json")); err != nil {
		t.Fatalf("Save: %v", err)
	}
	_, _, err := RestoreCoordinator(testProblem(16, 24), CoordinatorConfig{
		MaxDuration: time.Minute, Store: st,
	})
	if err == nil {
		t.Fatal("RestoreCoordinator silently cold-started over an undecodable checkpoint")
	}
}

func TestRestoreRevetsPoolEntries(t *testing.T) {
	p := testProblem(48, 25)
	x := bitvec.Random(p.N(), rng.New(41))
	honest := p.Energy(x)
	y := bitvec.Random(p.N(), rng.New(42))
	lie := p.Energy(y) - 99999 // claims to be far better than it is

	snap := coordSnapshot{Version: 1, Pool: []snapEntry{
		{X: x.String(), E: honest},
		{X: y.String(), E: lie},
		{X: "garbage", E: -1},
	}}
	raw, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	st := store.NewMem()
	if err := st.Save(coordState, raw); err != nil {
		t.Fatal(err)
	}

	c, restored, err := RestoreCoordinator(p, CoordinatorConfig{MaxDuration: time.Minute, Store: st})
	if err != nil || !restored {
		t.Fatalf("RestoreCoordinator = restored %v, err %v", restored, err)
	}
	t.Cleanup(c.Close)
	status := c.Status()
	if !status.BestKnown || status.BestEnergy != honest {
		t.Errorf("restored best = (%d, %v); the lying checkpoint entry must not survive the gate (want %d)",
			status.BestEnergy, status.BestKnown, honest)
	}
}

func TestRestoredRunKeepsStopConditions(t *testing.T) {
	p := testProblem(32, 26)
	snap := coordSnapshot{Version: 1, Flips: 500, Reached: false}
	raw, _ := json.Marshal(snap)
	st := store.NewMem()
	if err := st.Save(coordState, raw); err != nil {
		t.Fatal(err)
	}
	// The restored flip total already exceeds MaxFlips: the run is over.
	c, _, err := RestoreCoordinator(p, CoordinatorConfig{MaxFlips: 100, Store: st})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	select {
	case <-c.Done():
	default:
		t.Error("restored coordinator past its MaxFlips budget is not done")
	}
}

func TestJanitorCheckpointsOnCadence(t *testing.T) {
	p := testProblem(32, 27)
	st := store.NewMem()
	c, err := NewCoordinator(p, CoordinatorConfig{
		MaxDuration: time.Minute,
		LeaseTTL:    20 * time.Millisecond, // janitor ticks at 5ms
		Store:       st,
		Checkpoint:  10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if _, ok, _ := st.Load(coordState); ok {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("janitor never wrote a checkpoint")
}

// TestLeasePublishIdempotentUnderReplay is the duplicate-delivery
// acceptance test: delivering every Lease and Publish twice (same
// request ID — an at-least-once transport retry) must change no pool
// contents, flip totals, or lease counts versus single delivery.
func TestLeasePublishIdempotentUnderReplay(t *testing.T) {
	p := testProblem(48, 28)
	c := newCoord(t, p, CoordinatorConfig{})
	ctx := context.Background()
	mustRegister(t, c, "a")

	// Lease delivered twice.
	lreq := LeaseRequest{WorkerID: "a", Max: 4, RequestID: "a-req-1"}
	first, err := c.Lease(ctx, lreq)
	if err != nil {
		t.Fatalf("Lease: %v", err)
	}
	leasesAfterFirst := leaseCount(c)
	second, err := c.Lease(ctx, lreq)
	if err != nil {
		t.Fatalf("replayed Lease: %v", err)
	}
	if got := leaseCount(c); got != leasesAfterFirst {
		t.Errorf("replayed Lease changed the lease table: %d -> %d", leasesAfterFirst, got)
	}
	if len(second.Targets) != len(first.Targets) {
		t.Fatalf("replayed Lease granted %d targets, original %d", len(second.Targets), len(first.Targets))
	}
	for i := range first.Targets {
		if first.Targets[i] != second.Targets[i] {
			t.Errorf("replayed Lease target %d differs: %+v vs %+v", i, first.Targets[i], second.Targets[i])
		}
	}

	// Publish delivered twice: flips, releases and admissions must all
	// count exactly once.
	x := bitvec.Random(p.N(), rng.New(51))
	preq := PublishRequest{
		WorkerID:  "a",
		Flips:     100,
		Release:   []uint64{first.Targets[0].Lease},
		Results:   []PublishedSolution{{X: x.String(), Energy: p.Energy(x)}},
		RequestID: "a-req-2",
	}
	presp1, err := c.Publish(ctx, preq)
	if err != nil {
		t.Fatalf("Publish: %v", err)
	}
	if presp1.Accepted != 1 {
		t.Fatalf("publish accepted %d, want 1", presp1.Accepted)
	}
	stAfterFirst := c.Status()
	leasesAfterPublish := leaseCount(c)

	presp2, err := c.Publish(ctx, preq)
	if err != nil {
		t.Fatalf("replayed Publish: %v", err)
	}
	if presp2.Accepted != presp1.Accepted || presp2.Duplicate != presp1.Duplicate {
		t.Errorf("replayed Publish response differs: %+v vs %+v", presp2, presp1)
	}
	stAfterReplay := c.Status()
	if stAfterReplay.Flips != stAfterFirst.Flips {
		t.Errorf("replayed Publish changed flips: %d -> %d", stAfterFirst.Flips, stAfterReplay.Flips)
	}
	if got := leaseCount(c); got != leasesAfterPublish {
		t.Errorf("replayed Publish changed the lease table: %d -> %d", leasesAfterPublish, got)
	}
	if stAfterReplay.BestEnergy != stAfterFirst.BestEnergy {
		t.Errorf("replayed Publish moved best energy: %d -> %d", stAfterFirst.BestEnergy, stAfterReplay.BestEnergy)
	}

	// Without a request ID every delivery is live — the pre-existing
	// at-most-once-free behaviour is unchanged.
	if _, err := c.Publish(ctx, PublishRequest{WorkerID: "a", Flips: 120}); err != nil {
		t.Fatalf("Publish: %v", err)
	}
	if got := c.Status().Flips; got != 120 {
		t.Errorf("flips after live publish = %d, want 120", got)
	}
}

func TestReplayCacheBounded(t *testing.T) {
	r := newReplayCache(2)
	r.put("a", 1)
	r.put("b", 2)
	r.put("c", 3) // evicts a
	if _, ok := r.get("a"); ok {
		t.Error("oldest entry survived eviction")
	}
	if v, ok := r.get("c"); !ok || v != 3 {
		t.Error("newest entry missing")
	}
	var nilCache *replayCache
	if _, ok := nilCache.get("a"); ok {
		t.Error("nil cache hit")
	}
	nilCache.put("a", 1) // must not panic
	r.put("", 9)
	if _, ok := r.get(""); ok {
		t.Error("empty request ID must never hit the cache")
	}
}
