package cluster

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"abs/internal/bitvec"
	"abs/internal/core"
	"abs/internal/diversity"
	"abs/internal/qubo"
	"abs/internal/randqubo"
	"abs/internal/rng"
	"abs/internal/telemetry"
)

func testProblem(n int, seed uint64) *qubo.Problem {
	return randqubo.Generate(n, seed)
}

// newCoord builds a coordinator with a fallback stop condition and
// arranges its shutdown.
func newCoord(t *testing.T, p *qubo.Problem, cfg CoordinatorConfig) *Coordinator {
	t.Helper()
	if cfg.TargetEnergy == nil && cfg.MaxDuration == 0 && cfg.MaxFlips == 0 {
		cfg.MaxDuration = time.Minute
	}
	c, err := NewCoordinator(p, cfg)
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	t.Cleanup(c.Close)
	return c
}

func mustRegister(t *testing.T, c *Coordinator, id string) *RegisterResponse {
	t.Helper()
	resp, err := c.Register(context.Background(), RegisterRequest{WorkerID: id, Devices: 1})
	if err != nil {
		t.Fatalf("Register(%q): %v", id, err)
	}
	return resp
}

func mustLease(t *testing.T, c *Coordinator, id string, max int) *LeaseResponse {
	t.Helper()
	resp, err := c.Lease(context.Background(), LeaseRequest{WorkerID: id, Max: max})
	if err != nil {
		t.Fatalf("Lease(%q): %v", id, err)
	}
	return resp
}

func targetSet(resp *LeaseResponse) map[string]bool {
	out := make(map[string]bool, len(resp.Targets))
	for _, tg := range resp.Targets {
		out[tg.X] = true
	}
	return out
}

func TestNewCoordinatorRequiresStopCondition(t *testing.T) {
	if _, err := NewCoordinator(testProblem(16, 1), CoordinatorConfig{}); err == nil {
		t.Fatal("coordinator accepted a config with no stop condition")
	}
}

func TestNewCoordinatorValidatesTTLs(t *testing.T) {
	_, err := NewCoordinator(testProblem(16, 1), CoordinatorConfig{
		MaxDuration: time.Minute,
		LeaseTTL:    time.Second,
		WorkerTTL:   100 * time.Millisecond,
	})
	if err == nil {
		t.Fatal("coordinator accepted WorkerTTL < LeaseTTL")
	}
}

func TestRegisterGrantsProblemAndDistinctSeeds(t *testing.T) {
	p := testProblem(48, 2)
	c := newCoord(t, p, CoordinatorConfig{Seed: 7})

	a := mustRegister(t, c, "")
	b := mustRegister(t, c, "")
	if a.WorkerID == "" || a.WorkerID == b.WorkerID {
		t.Fatalf("coordinator-assigned IDs must be distinct and non-empty: %q vs %q", a.WorkerID, b.WorkerID)
	}
	if a.Seed == b.Seed {
		t.Errorf("two workers dealt the same host seed %d — identical trajectories", a.Seed)
	}
	got, err := qubo.ReadText(strings.NewReader(a.Problem))
	if err != nil {
		t.Fatalf("registration grant carried an unparseable problem: %v", err)
	}
	if got.N() != p.N() {
		t.Errorf("granted problem has n=%d, want %d", got.N(), p.N())
	}
	if a.HeartbeatMillis <= 0 || a.HeartbeatMillis >= a.LeaseTTLMillis {
		t.Errorf("heartbeat interval %dms must be positive and under the lease TTL %dms",
			a.HeartbeatMillis, a.LeaseTTLMillis)
	}
	if a.LeaseBatch <= 0 {
		t.Errorf("LeaseBatch %d must be positive", a.LeaseBatch)
	}
}

func TestRegisterIdempotentRedistributesLeases(t *testing.T) {
	c := newCoord(t, testProblem(48, 3), CoordinatorConfig{LeaseBatch: 8})

	mustRegister(t, c, "a")
	held := targetSet(mustLease(t, c, "a", 4))
	if len(held) != 4 {
		t.Fatalf("leased %d targets, want 4", len(held))
	}

	// The worker restarts: same identity, fresh process. Its stale
	// leases must go back into the redistribution queue...
	mustRegister(t, c, "a")
	mustRegister(t, c, "b")

	// ...and be the first thing the next lease hands out.
	got := targetSet(mustLease(t, c, "b", 4))
	for x := range held {
		if !got[x] {
			t.Errorf("redistributed lease lost target %q", x)
		}
	}
}

func TestRPCsRejectUnknownWorker(t *testing.T) {
	c := newCoord(t, testProblem(32, 4), CoordinatorConfig{})
	ctx := context.Background()
	if _, err := c.Lease(ctx, LeaseRequest{WorkerID: "ghost"}); !errors.Is(err, ErrUnknownWorker) {
		t.Errorf("Lease(ghost) = %v, want ErrUnknownWorker", err)
	}
	if _, err := c.Publish(ctx, PublishRequest{WorkerID: "ghost"}); !errors.Is(err, ErrUnknownWorker) {
		t.Errorf("Publish(ghost) = %v, want ErrUnknownWorker", err)
	}
	if _, err := c.Heartbeat(ctx, HeartbeatRequest{WorkerID: "ghost"}); !errors.Is(err, ErrUnknownWorker) {
		t.Errorf("Heartbeat(ghost) = %v, want ErrUnknownWorker", err)
	}
}

func TestPublishVerdicts(t *testing.T) {
	p := testProblem(48, 5)
	c := newCoord(t, p, CoordinatorConfig{})
	mustRegister(t, c, "a")
	ctx := context.Background()

	x := bitvec.Random(p.N(), rng.New(11))
	e := p.Energy(x)
	resp, err := c.Publish(ctx, PublishRequest{WorkerID: "a", Results: []PublishedSolution{
		{X: x.String(), Energy: e},          // honest: admitted
		{X: x.String(), Energy: e},          // republished: dedup window
		{X: x.String(), Energy: e - 999},    // lying energy: quarantined
		{X: bitvec.New(p.N() / 2).String()}, // wrong width: quarantined
		{X: "not a bit string", Energy: -1}, // corrupt: quarantined
	}})
	if err != nil {
		t.Fatalf("Publish: %v", err)
	}
	if resp.Accepted != 1 || resp.Duplicate != 1 || resp.Quarantined != 3 {
		t.Errorf("verdicts = accepted %d / duplicate %d / rejected %d / quarantined %d, want 1/1/0/3",
			resp.Accepted, resp.Duplicate, resp.Rejected, resp.Quarantined)
	}
	if !resp.BestKnown || resp.BestEnergy != e {
		t.Errorf("best after publish = (%d, %v), want (%d, true)", resp.BestEnergy, resp.BestKnown, e)
	}
	if q := c.Status().Quarantined; q != 3 {
		t.Errorf("Status().Quarantined = %d, want 3", q)
	}
}

func TestPublishPoolRejectWithoutDedup(t *testing.T) {
	p := testProblem(48, 6)
	c := newCoord(t, p, CoordinatorConfig{DedupWindow: -1})
	mustRegister(t, c, "a")
	ctx := context.Background()

	x := bitvec.Random(p.N(), rng.New(12))
	e := p.Energy(x)
	pub := func() *PublishResponse {
		resp, err := c.Publish(ctx, PublishRequest{WorkerID: "a",
			Results: []PublishedSolution{{X: x.String(), Energy: e}}})
		if err != nil {
			t.Fatalf("Publish: %v", err)
		}
		return resp
	}
	if resp := pub(); resp.Accepted != 1 {
		t.Fatalf("first publish accepted %d, want 1", resp.Accepted)
	}
	// With the dedup window disabled the pool's own distinctness guard
	// must catch the echo.
	if resp := pub(); resp.Rejected != 1 || resp.Duplicate != 0 {
		t.Errorf("echo publish = rejected %d / duplicate %d, want 1/0", resp.Rejected, resp.Duplicate)
	}
}

func TestTrustPublicationsSkipsEnergyRecheck(t *testing.T) {
	p := testProblem(32, 7)
	c := newCoord(t, p, CoordinatorConfig{TrustPublications: true})
	mustRegister(t, c, "a")

	x := bitvec.Random(p.N(), rng.New(13))
	lie := p.Energy(x) - 12345
	resp, err := c.Publish(context.Background(), PublishRequest{WorkerID: "a",
		Results: []PublishedSolution{{X: x.String(), Energy: lie}}})
	if err != nil {
		t.Fatalf("Publish: %v", err)
	}
	if resp.Accepted != 1 || resp.Quarantined != 0 {
		t.Errorf("trusted publish = accepted %d / quarantined %d, want 1/0", resp.Accepted, resp.Quarantined)
	}
}

func TestTargetEnergyFinishesRun(t *testing.T) {
	p := testProblem(32, 8)
	x := bitvec.Random(p.N(), rng.New(14))
	e := p.Energy(x)
	c := newCoord(t, p, CoordinatorConfig{TargetEnergy: &e})
	mustRegister(t, c, "a")

	resp, err := c.Publish(context.Background(), PublishRequest{WorkerID: "a",
		Results: []PublishedSolution{{X: x.String(), Energy: e}}})
	if err != nil {
		t.Fatalf("Publish: %v", err)
	}
	if !resp.Done {
		t.Error("publishing the target energy did not mark the run done")
	}
	select {
	case <-c.Done():
	default:
		t.Error("Done channel not closed after target reached")
	}
	st := c.Status()
	if !st.ReachedTarget || !st.BestKnown || st.BestEnergy != e {
		t.Errorf("Status() = reached %v best (%d, %v), want reached with best %d",
			st.ReachedTarget, st.BestEnergy, st.BestKnown, e)
	}
}

func TestMaxFlipsFinishesAndPublishStillAdmits(t *testing.T) {
	p := testProblem(32, 9)
	c := newCoord(t, p, CoordinatorConfig{MaxFlips: 100})
	mustRegister(t, c, "a")
	ctx := context.Background()

	resp, err := c.Publish(ctx, PublishRequest{WorkerID: "a", Flips: 150})
	if err != nil {
		t.Fatalf("Publish: %v", err)
	}
	if !resp.Done {
		t.Fatal("crossing MaxFlips did not mark the run done")
	}

	// A worker's final flush after Done must still land: best-so-far
	// must never be lost to the shutdown race.
	x := bitvec.Random(p.N(), rng.New(15))
	resp, err = c.Publish(ctx, PublishRequest{WorkerID: "a",
		Results: []PublishedSolution{{X: x.String(), Energy: p.Energy(x)}}})
	if err != nil {
		t.Fatalf("post-done Publish: %v", err)
	}
	if resp.Accepted != 1 {
		t.Errorf("post-done publish accepted %d, want 1", resp.Accepted)
	}
}

func TestFlipAccountingSurvivesWorkerRestart(t *testing.T) {
	c := newCoord(t, testProblem(32, 10), CoordinatorConfig{})
	mustRegister(t, c, "a")
	ctx := context.Background()

	for _, flips := range []uint64{100, 40, 70} {
		if _, err := c.Publish(ctx, PublishRequest{WorkerID: "a", Flips: flips}); err != nil {
			t.Fatalf("Publish(flips=%d): %v", flips, err)
		}
	}
	// 100, then a restart (counter back to 40: re-baseline, no delta),
	// then 70 (+30). Cluster total must never go backwards.
	if got := c.Status().Flips; got != 130 {
		t.Errorf("cluster flips = %d, want 130", got)
	}
}

func TestJanitorExpiresLeasesForRedistribution(t *testing.T) {
	reg := telemetry.NewRegistry()
	c := newCoord(t, testProblem(48, 11), CoordinatorConfig{
		LeaseTTL:  40 * time.Millisecond,
		WorkerTTL: 10 * time.Second, // keep the worker registered; only its leases lapse
		Registry:  reg,
	})
	mustRegister(t, c, "a")
	held := targetSet(mustLease(t, c, "a", 3))

	// "a" goes silent. Its leases must lapse and flow, via the
	// redistribution queue, to the next worker that asks.
	mustRegister(t, c, "b")
	got := make(map[string]bool)
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		for x := range targetSet(mustLease(t, c, "b", 3)) {
			got[x] = true
		}
		recovered := 0
		for x := range held {
			if got[x] {
				recovered++
			}
		}
		if recovered == len(held) {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	for x := range held {
		if !got[x] {
			t.Errorf("expired lease target %q never redistributed", x)
		}
	}
	if telemetry.Enabled {
		if n := reg.Counter("abs_cluster_leases_expired_total", "").Value(); n < 3 {
			t.Errorf("abs_cluster_leases_expired_total = %d, want >= 3", n)
		}
	}
}

func TestJanitorRetiresSilentWorkers(t *testing.T) {
	reg := telemetry.NewRegistry()
	c := newCoord(t, testProblem(32, 12), CoordinatorConfig{
		LeaseTTL:  30 * time.Millisecond,
		WorkerTTL: 60 * time.Millisecond,
		Registry:  reg,
	})
	mustRegister(t, c, "a")
	mustLease(t, c, "a", 2)

	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && c.Status().Workers > 0 {
		time.Sleep(10 * time.Millisecond)
	}
	if n := c.Status().Workers; n != 0 {
		t.Fatalf("silent worker still registered after 5s (workers=%d)", n)
	}
	if _, err := c.Heartbeat(context.Background(), HeartbeatRequest{WorkerID: "a"}); !errors.Is(err, ErrUnknownWorker) {
		t.Errorf("retired worker heartbeat = %v, want ErrUnknownWorker", err)
	}
	if telemetry.Enabled {
		if n := reg.Counter("abs_cluster_workers_retired_total", "").Value(); n != 1 {
			t.Errorf("abs_cluster_workers_retired_total = %d, want 1", n)
		}
	}
}

func TestHeartbeatKeepsLeasesAlive(t *testing.T) {
	reg := telemetry.NewRegistry()
	c := newCoord(t, testProblem(48, 13), CoordinatorConfig{
		LeaseTTL:  80 * time.Millisecond,
		WorkerTTL: 10 * time.Second,
		Registry:  reg,
	})
	mustRegister(t, c, "a")
	held := targetSet(mustLease(t, c, "a", 2))

	// Heartbeat well inside the TTL for several TTLs' worth of time.
	for i := 0; i < 16; i++ {
		time.Sleep(20 * time.Millisecond)
		if _, err := c.Heartbeat(context.Background(), HeartbeatRequest{WorkerID: "a"}); err != nil {
			t.Fatalf("Heartbeat: %v", err)
		}
	}
	// Nothing of "a"'s may have leaked to another worker.
	mustRegister(t, c, "b")
	for x := range targetSet(mustLease(t, c, "b", 2)) {
		if held[x] {
			t.Errorf("heartbeated lease target %q was redistributed", x)
		}
	}
	if telemetry.Enabled {
		if n := reg.Counter("abs_cluster_leases_expired_total", "").Value(); n != 0 {
			t.Errorf("abs_cluster_leases_expired_total = %d, want 0", n)
		}
	}
}

func TestCloseRejectsRPCs(t *testing.T) {
	c := newCoord(t, testProblem(32, 14), CoordinatorConfig{})
	mustRegister(t, c, "a")
	c.Close()
	ctx := context.Background()
	if _, err := c.Register(ctx, RegisterRequest{}); !errors.Is(err, ErrDone) {
		t.Errorf("Register after Close = %v, want ErrDone", err)
	}
	if _, err := c.Lease(ctx, LeaseRequest{WorkerID: "a"}); !errors.Is(err, ErrDone) {
		t.Errorf("Lease after Close = %v, want ErrDone", err)
	}
	if _, err := c.Publish(ctx, PublishRequest{WorkerID: "a"}); !errors.Is(err, ErrDone) {
		t.Errorf("Publish after Close = %v, want ErrDone", err)
	}
	if _, err := c.Heartbeat(ctx, HeartbeatRequest{WorkerID: "a"}); !errors.Is(err, ErrDone) {
		t.Errorf("Heartbeat after Close = %v, want ErrDone", err)
	}
	c.Close() // idempotent
}

func TestDedupSetWindowEvicts(t *testing.T) {
	d := newDedupSet(2)
	for _, k := range []uint64{1, 2, 3} {
		if d.has(k) {
			t.Errorf("key %d present before add", k)
		}
		d.add(k)
	}
	if d.has(1) {
		t.Error("oldest key survived eviction from a full window")
	}
	if !d.has(2) || !d.has(3) {
		t.Error("recent keys missing from the window")
	}

	var nilSet *dedupSet
	if nilSet.has(1) {
		t.Error("nil dedupSet matched a key")
	}
	nilSet.add(1) // must not panic
	if nilSet.seen(bitvec.New(8), 0) {
		t.Error("nil dedupSet reported a pair as seen")
	}
	if newDedupSet(0) != nil || newDedupSet(-1) != nil {
		t.Error("non-positive capacity must disable the window")
	}
}

// grantCase describes one RunSpec field for the grant tests below,
// which share one body per behaviour of the precedence rule.
type grantCase struct {
	field             string
	grant, local, bad string
	// resolved renders what the engine chose; render maps a setting to
	// the same rendering.
	resolved func(*core.Engine) string
	render   func(t *testing.T, v string) string
}

func (gc grantCase) with(v string) core.RunSpec {
	var r core.RunSpec
	switch gc.field {
	case "storage":
		r.Storage = v
	case "backend":
		r.Backend = v
	case "diversity":
		r.Diversity = v
	}
	return r
}

func renderAsIs(_ *testing.T, v string) string { return v }

var (
	// A dense random instance: auto would pick dense.
	storageGrant = grantCase{
		field: "storage", grant: "sparse", local: "dense", bad: "columnar",
		resolved: func(e *core.Engine) string { return e.Storage().String() },
		render:   renderAsIs,
	}
	backendGrant = grantCase{
		field: "backend", grant: "tabu", local: "sb", bad: "columnar",
		resolved: func(e *core.Engine) string { return e.Backend().String() },
		render:   renderAsIs,
	}
	// The local "off" is the opt-out from a granted DABS tuning.
	diversityGrant = grantCase{
		field: "diversity", grant: "radius=4,floor=0.2", local: "off", bad: "radius=banana",
		resolved: func(e *core.Engine) string { return e.Options().Diversity.String() },
		render: func(t *testing.T, v string) string {
			t.Helper()
			d, err := diversity.ParseSpec(v)
			if err != nil {
				t.Fatal(err)
			}
			if d, err = d.Normalize(); err != nil {
				t.Fatal(err)
			}
			return d.String()
		},
	}
)

// checkGrantPropagates pins the worker side of the precedence rule for
// one field: the coordinator's setting reaches a worker that leaves the
// field unset, a set local value wins, a corrupt grant or local value is
// a permanent error, and a corrupt grant that the worker overrides is
// never parsed.
func checkGrantPropagates(t *testing.T, gc grantCase) {
	t.Helper()
	p := testProblem(48, 4)
	c := newCoord(t, p, CoordinatorConfig{Run: gc.with(gc.grant)})
	reg := mustRegister(t, c, "w-grant")
	if reg.RunSpec != gc.with(gc.grant) {
		t.Fatalf("registration grant = %+v, want %s %q", reg.RunSpec, gc.field, gc.grant)
	}
	build := func(id string, local core.RunSpec, grant *RegisterResponse) (*core.Engine, error) {
		t.Helper()
		w, err := NewWorker(WorkerConfig{Transport: NewLocalTransport(c), WorkerID: id, Run: local})
		if err != nil {
			t.Fatal(err)
		}
		if err := w.buildEngine(p, grant); err != nil {
			return nil, err
		}
		t.Cleanup(func() { w.engine.Finish(true) })
		return w.engine, nil
	}

	// A worker that leaves the field unset inherits the grant.
	e, err := build("w-grant", core.RunSpec{}, reg)
	if err != nil {
		t.Fatalf("buildEngine: %v", err)
	}
	if got, want := gc.resolved(e), gc.render(t, gc.grant); got != want {
		t.Errorf("unset worker resolved %s, want %s from the grant", got, want)
	}

	// A set local value wins over the grant.
	e, err = build("w-local", gc.with(gc.local), reg)
	if err != nil {
		t.Fatalf("buildEngine: %v", err)
	}
	if got, want := gc.resolved(e), gc.render(t, gc.local); got != want {
		t.Errorf("locally pinned worker resolved %s, want %s", got, want)
	}

	// A corrupt grant is a permanent registration error, not a silent
	// default ...
	bad := *reg
	bad.RunSpec = gc.with(gc.bad)
	if _, err := build("w-bad", core.RunSpec{}, &bad); err == nil {
		t.Error("buildEngine accepted a corrupt grant")
	} else if !Permanent(err) {
		t.Errorf("corrupt grant error should be permanent, got %v", err)
	}
	// ... unless a local value overrides it: then it is never parsed.
	if _, err := build("w-override", gc.with(gc.local), &bad); err != nil {
		t.Errorf("corrupt but overridden grant failed the build: %v", err)
	}

	// A corrupt local value is permanent too, and blamed on the worker.
	if _, err := build("w-bad-local", gc.with(gc.bad), reg); err == nil {
		t.Error("buildEngine accepted a corrupt local value")
	} else if !Permanent(err) || !strings.Contains(err.Error(), "local") {
		t.Errorf("corrupt local value error = %v, want permanent mentioning 'local'", err)
	}
}

// checkGrantRejectedAtCoordinator: the coordinator rejects a corrupt
// grant up front.
func checkGrantRejectedAtCoordinator(t *testing.T, gc grantCase) {
	t.Helper()
	if _, err := NewCoordinator(testProblem(16, 9), CoordinatorConfig{MaxDuration: time.Minute, Run: gc.with(gc.bad)}); err == nil {
		t.Errorf("NewCoordinator accepted a corrupt %s grant", gc.field)
	}
}

// checkGrantOmitted: an unset coordinator, empty or "auto", grants
// nothing.
func checkGrantOmitted(t *testing.T, gc grantCase) {
	t.Helper()
	for _, unset := range []string{"", "auto"} {
		c := newCoord(t, testProblem(32, 5), CoordinatorConfig{Run: gc.with(unset)})
		if reg := mustRegister(t, c, "w"); reg.RunSpec != (core.RunSpec{}) {
			t.Errorf("coordinator with %s %q granted %+v, want nothing (decide locally)", gc.field, unset, reg.RunSpec)
		}
	}
}

func TestStorageGrantPropagatesToWorkerEngine(t *testing.T) {
	checkGrantPropagates(t, storageGrant)
	checkGrantRejectedAtCoordinator(t, storageGrant)
}

func TestStorageGrantOmittedOnAuto(t *testing.T) { checkGrantOmitted(t, storageGrant) }

func TestBackendGrantPropagatesToWorkerEngine(t *testing.T) {
	checkGrantPropagates(t, backendGrant)
	checkGrantRejectedAtCoordinator(t, backendGrant)
}

func TestBackendGrantOmittedOnAuto(t *testing.T) { checkGrantOmitted(t, backendGrant) }

func TestDiversityGrantPropagatesToWorkerEngine(t *testing.T) {
	checkGrantPropagates(t, diversityGrant)
	// The coordinator's own authoritative pool runs a granted admission
	// policy too.
	c := newCoord(t, testProblem(16, 8), CoordinatorConfig{Run: diversityGrant.with(diversityGrant.grant)})
	if c.cfg.GA.Policy == nil {
		t.Error("coordinator pool has no admission policy despite radius > 0")
	}
}

func TestDiversityGrantRejectedAtCoordinator(t *testing.T) {
	checkGrantRejectedAtCoordinator(t, diversityGrant)
}

func TestDiversityGrantOmittedByDefault(t *testing.T) { checkGrantOmitted(t, diversityGrant) }
