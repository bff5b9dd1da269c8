package cluster

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"abs/internal/bitvec"
	"abs/internal/core"
	"abs/internal/gpusim"
	"abs/internal/qubo"
	"abs/internal/retry"
	"abs/internal/rng"
	"abs/internal/telemetry"
)

// WorkerConfig configures one cluster worker node.
type WorkerConfig struct {
	// Transport connects the worker to its coordinator. Required.
	Transport Transport
	// WorkerID is a stable identity for idempotent re-registration
	// across worker restarts. Empty asks the coordinator to assign one.
	WorkerID string
	// Devices is the worker's simulated-device inventory. Zero means 1.
	Devices int
	// Device is the simulated GPU model. The zero value means the
	// core default (a scaled-to-CPU virtual device).
	Device gpusim.DeviceSpec
	// Exchange is the cadence of the publish/lease exchange with the
	// coordinator. Zero means 200 ms.
	Exchange time.Duration
	// PublishK bounds how many of the local pool's best entries each
	// exchange ships (bounded batching, not pool mirroring). Zero
	// means 8.
	PublishK int
	// MaxDuration is a local backstop so an orphaned worker (its
	// coordinator gone for good) eventually stops on its own. Zero
	// means 24 h.
	MaxDuration time.Duration

	// Run pins the local storage, backend and diversity choices.
	// Each field it leaves unset defers to the coordinator's
	// registration grant, then to the engine default (core.RunSpec.Over);
	// a set field always wins, so a heterogeneous node may overrule the
	// cluster-wide choice and diversity "off" opts a node out of a
	// granted DABS tuning.
	Run core.RunSpec

	// Reconnect paces re-registration after losing the coordinator.
	// The zero value means {Base: 100ms, Factor: 2, Max: 5s,
	// Jitter: 0.25} — the same retry vocabulary the block supervisor
	// uses for respawn pacing.
	Reconnect retry.Backoff

	// Telemetry for the worker's own engine plus the abs_worker_*
	// exchange instruments; optional.
	Registry *telemetry.Registry
	Tracer   *telemetry.Tracer

	// Faults, when non-nil, injects simulated device faults into the
	// worker's local engine (tests).
	Faults *gpusim.FaultPlan
}

func (c WorkerConfig) normalize() (WorkerConfig, error) {
	if c.Transport == nil {
		return c, fmt.Errorf("cluster: worker needs a Transport")
	}
	if c.Devices == 0 {
		c.Devices = 1
	}
	if c.Devices < 0 {
		return c, fmt.Errorf("cluster: Devices %d must be positive", c.Devices)
	}
	if c.Exchange == 0 {
		c.Exchange = 200 * time.Millisecond
	}
	if c.Exchange < 0 {
		return c, fmt.Errorf("cluster: Exchange %v must be positive", c.Exchange)
	}
	if c.PublishK == 0 {
		c.PublishK = 8
	}
	if c.PublishK < 0 {
		return c, fmt.Errorf("cluster: PublishK %d must be positive", c.PublishK)
	}
	if c.MaxDuration == 0 {
		c.MaxDuration = 24 * time.Hour
	}
	if c.Reconnect.Base == 0 {
		c.Reconnect = retry.Backoff{Base: 100 * time.Millisecond, Factor: 2, Max: 5 * time.Second, Jitter: 0.25}
	}
	return c, nil
}

// WorkerReport is a worker's terminal summary.
type WorkerReport struct {
	// WorkerID is the identity the coordinator knew the worker by.
	WorkerID string
	// Result is the worker's local engine result (its own pool's best,
	// flips, block stats). The cluster-wide best lives with the
	// coordinator, not here.
	Result *core.Result
	// CoordinatorDone reports whether the coordinator declared the run
	// finished (as opposed to a local stop: ctx cancel or backstop).
	CoordinatorDone bool
	// Exchanges, Heartbeats and Reconnects count coordinator traffic.
	Exchanges  int
	Heartbeats int
	Reconnects int
}

// Worker is one cluster node: a full local ABS engine (own pool, own
// simulated devices, own supervisor) that exchanges with a coordinator
// — publishing its best local solutions, leasing fresh targets — on a
// fixed cadence. Between exchanges it is exactly a single-node run; a
// coordinator outage therefore degrades the worker to independent
// search rather than stopping it.
//
// A Worker is single-use: build with NewWorker, drive with Run.
type Worker struct {
	cfg   WorkerConfig
	wm    *workerMetrics
	ready atomic.Bool

	// Run-loop state (pump goroutine only).
	id          string
	engine      *core.Engine
	fleet       *gpusim.Fleet
	sent        *dedupSet
	pendingKeys []uint64
	release     []uint64
	reconnRNG   *rng.Rand
	// reqNonce + reqSeq mint per-call request IDs for idempotent
	// Publish/Lease. The nonce is drawn fresh per worker process, so a
	// restarted worker reusing its WorkerID can never collide with the
	// previous incarnation's IDs in the coordinator's replay window.
	reqNonce uint64
	reqSeq   uint64

	// trace is the run's root span context, adopted from the
	// coordinator's registration grant; span is the worker's own root
	// span under it. spanCursor paces incremental span shipping
	// (Tracer.SpansSince) — advanced only when a Publish succeeds, so a
	// lost reply re-ships the same batch and the coordinator's dedup
	// absorbs it.
	trace      telemetry.SpanContext
	span       *telemetry.ActiveSpan
	spanCursor uint64

	report WorkerReport
}

// NewWorker validates cfg; the worker does nothing until Run.
func NewWorker(cfg WorkerConfig) (*Worker, error) {
	cfg, err := cfg.normalize()
	if err != nil {
		return nil, err
	}
	w := &Worker{
		cfg: cfg,
		wm:  newWorkerMetrics(cfg.Registry),
		// Publishing dedup: remember what was already shipped so the
		// same pool front is not re-sent every exchange.
		sent:      newDedupSet(4096),
		reconnRNG: rng.New(0xab5c ^ uint64(time.Now().UnixNano())),
	}
	w.reqNonce = w.reconnRNG.Uint64()
	return w, nil
}

// nextRequestID mints a fresh idempotency key for one Publish or Lease
// call; a transport that retries the call reuses the key, so the
// coordinator can recognize the duplicate.
func (w *Worker) nextRequestID() string {
	w.reqSeq++
	return fmt.Sprintf("%s-%x-%d", w.id, w.reqNonce, w.reqSeq)
}

// Ready reports whether the worker has registered and attached its
// devices — the readiness half of the health endpoints. Safe from any
// goroutine.
func (w *Worker) Ready() bool { return w.ready.Load() }

// Run registers with the coordinator (retrying under backoff until ctx
// dies), solves, exchanges until the coordinator declares the run done
// or a local stop fires, flushes a final publication and returns the
// terminal report. It blocks for the lifetime of the worker; cancel
// ctx to stop early.
func (w *Worker) Run(ctx context.Context) (*WorkerReport, error) {
	reg, err := w.register(ctx)
	if err != nil {
		return nil, err
	}
	w.id = reg.WorkerID
	w.report.WorkerID = reg.WorkerID
	if reg.Done {
		w.report.CoordinatorDone = true
		return &w.report, nil
	}
	// Adopt the run's trace from the registration grant and open the
	// worker's root span under it, so every span this node records
	// stitches into the coordinator's timeline. Without a grant (old
	// coordinator) the worker roots its own trace.
	if sc, ok := telemetry.ParseTraceparent(reg.Trace); ok {
		w.trace = sc
	}
	w.span = w.cfg.Tracer.StartSpan("worker", w.trace)
	w.span.SetNode(w.id)
	w.span.SetAttr("devices", strconv.Itoa(w.cfg.Devices))
	defer w.span.End() // idempotent; covers early error returns
	p, err := qubo.ReadText(strings.NewReader(reg.Problem))
	if err != nil {
		// Re-registering would fetch the same bytes: permanent.
		return nil, MarkPermanent(fmt.Errorf("cluster: coordinator sent a bad problem: %w", err))
	}
	if err := w.buildEngine(p, reg); err != nil {
		return nil, err
	}
	defer w.ready.Store(false)
	w.ready.Store(true)

	exchangeEvery := w.cfg.Exchange
	poll := w.engine.Options().PollInterval
	// First exchange immediately: lease targets before the local search
	// warms up, and establish liveness with the coordinator — a fast
	// local run may otherwise finish inside the first exchange period
	// without ever having been heard from.
	nextExchange := time.Now()

	// Degraded-mode state: when the coordinator is unreachable the
	// worker keeps pumping its local engine and re-registers along the
	// shared jittered backoff schedule, paced without sleeping (the
	// pump must keep running).
	degraded := false
	pacer := retry.NewPacer(w.cfg.Reconnect, w.reconnRNG)

	cancelled := false
	for {
		if ctx.Err() != nil {
			cancelled = true
			break
		}
		now := time.Now()
		w.engine.Pump(now)
		if w.engine.ShouldStop(now) {
			break
		}
		if w.report.CoordinatorDone {
			break
		}
		if !now.Before(nextExchange) {
			nextExchange = now.Add(exchangeEvery)
			if degraded {
				if pacer.Due(now) {
					var r *RegisterResponse
					err := w.call(ctx, "register", func(ctx context.Context) error {
						var err error
						r, err = w.cfg.Transport.Register(ctx, RegisterRequest{WorkerID: w.id, Devices: w.cfg.Devices})
						return err
					})
					if err == nil {
						degraded = false
						pacer.Reset()
						w.report.Reconnects++
						w.wm.reconnect()
						if r.Done {
							w.report.CoordinatorDone = true
						}
					} else if errors.Is(err, ErrDone) {
						w.report.CoordinatorDone = true
					} else {
						pacer.Fail(now)
					}
				}
			} else if err := w.exchange(ctx, now); err != nil {
				switch {
				case errors.Is(err, ErrDone):
					w.report.CoordinatorDone = true
				case ctx.Err() != nil:
					// The transport failed because our own ctx died.
				default:
					// Coordinator unreachable (or it forgot us): degrade
					// to local search and re-register under backoff.
					degraded = true
					pacer.Reset()
					pacer.Fail(now)
				}
			}
			continue
		}
		time.Sleep(poll)
	}

	// Wind the local engine down first — Finish stops the device blocks
	// and drains their last publications into the pool — then flush the
	// quiesced pool's best to the coordinator. Stopping first matters
	// twice over: the flush sees the final drain's solutions, and on a
	// saturated host the compute goroutines no longer starve the flush
	// RPC of CPU. The worker root span ends before the flush so it rides
	// the final span batch to the coordinator.
	w.report.Result = w.engine.Finish(cancelled)
	w.span.End()
	w.finalFlush(w.report.Result.Flips)
	return &w.report, nil
}

// register performs initial registration, retrying transport errors
// under the reconnect schedule until ctx dies. ErrDone is success with
// Done set: the worker came up after the run ended.
func (w *Worker) register(ctx context.Context) (*RegisterResponse, error) {
	var resp *RegisterResponse
	err := retry.Do(ctx, w.cfg.Reconnect, w.reconnRNG, func() error {
		// No span here: the run trace arrives in the response, so the
		// initial register has nothing to parent under. Latency still
		// lands in the worker-side RPC histogram.
		start := time.Now()
		r, err := w.cfg.Transport.Register(ctx, RegisterRequest{WorkerID: w.cfg.WorkerID, Devices: w.cfg.Devices})
		w.wm.rpc("register", time.Since(start), err)
		if errors.Is(err, ErrDone) {
			resp = &RegisterResponse{WorkerID: w.cfg.WorkerID, Done: true}
			return nil
		}
		if err != nil {
			return err
		}
		resp = r
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cluster: register: %w", err)
	}
	return resp, nil
}

// buildEngine constructs the worker's local ABS run from the
// registration grant and attaches its device inventory.
func (w *Worker) buildEngine(p *qubo.Problem, reg *RegisterResponse) error {
	opt := core.DefaultOptions()
	if w.cfg.Device != (gpusim.DeviceSpec{}) {
		opt.Device = w.cfg.Device
	}
	opt.NumGPUs = w.cfg.Devices
	opt.Seed = reg.Seed
	opt.TargetEnergy = reg.TargetEnergy
	if err := w.cfg.Run.Validate(); err != nil {
		return MarkPermanent(fmt.Errorf("cluster: bad local run spec: %w", err))
	}
	// The local spec parsed, so a failure here is the grant's.
	if err := w.cfg.Run.Over(reg.RunSpec).Apply(&opt); err != nil {
		return MarkPermanent(fmt.Errorf("cluster: coordinator sent a bad grant: %w", err))
	}
	opt.MaxDuration = w.cfg.MaxDuration
	opt.Telemetry = w.cfg.Registry
	opt.Tracer = w.cfg.Tracer
	opt.Span = w.span.Context()
	opt.Faults = w.cfg.Faults
	eng, err := core.NewEngine(p, opt)
	if err != nil {
		return err
	}
	fleet, err := gpusim.NewFleet(eng.Options().Device, w.cfg.Devices)
	if err != nil {
		return err
	}
	for i := 0; i < fleet.Size(); i++ {
		if err := eng.Attach(fleet.Device(i)); err != nil {
			eng.Finish(true) // detaches whatever did attach
			return err
		}
	}
	w.engine, w.fleet = eng, fleet
	return nil
}

// spanBatch bounds how many completed spans ride one Publish.
const spanBatch = 256

// call wraps one transport RPC in a worker-side client span parented
// under the worker's root, propagates it via ctx (the HTTP transport
// bridges it onto the traceparent header, so the coordinator's server
// span parents under this one), and feeds the abs_worker_rpc_seconds
// histogram. Failed calls keep their latency (often the interesting
// part under chaos) and emit an rpc_error trace event on the span.
func (w *Worker) call(ctx context.Context, name string, fn func(context.Context) error) error {
	start := time.Now()
	sp := w.cfg.Tracer.StartSpan("rpc."+name, w.span.Context())
	sp.SetNode(w.id)
	err := fn(telemetry.ContextWithSpan(ctx, sp.Context()))
	w.wm.rpc(name, time.Since(start), err)
	if err != nil {
		sp.Fail(err)
		sp.Event(telemetry.Event{
			Kind: telemetry.EventRPCError, Device: -1, Block: -1,
			Detail: name + ": " + err.Error(),
		})
	}
	sp.End()
	return err
}

// exchange runs one publish(or heartbeat)+lease round trip. Runs on
// the pump goroutine — PoolTopK and InjectTargets touch the local
// pool.
func (w *Worker) exchange(ctx context.Context, now time.Time) error {
	results := w.pending()
	if len(results) == 0 && len(w.release) == 0 {
		var hb *HeartbeatResponse
		err := w.call(ctx, "heartbeat", func(ctx context.Context) error {
			var err error
			hb, err = w.cfg.Transport.Heartbeat(ctx, HeartbeatRequest{WorkerID: w.id})
			return err
		})
		if err != nil {
			return err
		}
		w.report.Heartbeats++
		w.wm.heartbeat()
		if hb.Done {
			w.report.CoordinatorDone = true
			return nil
		}
	} else {
		spans, cursor := w.cfg.Tracer.SpansSince(w.spanCursor, spanBatch)
		var presp *PublishResponse
		err := w.call(ctx, "publish", func(ctx context.Context) error {
			var err error
			presp, err = w.cfg.Transport.Publish(ctx, PublishRequest{
				WorkerID:  w.id,
				Flips:     w.engine.Snapshot(now).Flips,
				Release:   w.release,
				Results:   results,
				RequestID: w.nextRequestID(),
				Spans:     spans,
			})
			return err
		})
		if err != nil {
			return err
		}
		w.spanCursor = cursor
		w.markSent()
		w.release = nil
		w.report.Exchanges++
		w.wm.exchange(len(results), 0)
		if presp.Done {
			w.report.CoordinatorDone = true
			return nil
		}
	}

	var lresp *LeaseResponse
	err := w.call(ctx, "lease", func(ctx context.Context) error {
		var err error
		lresp, err = w.cfg.Transport.Lease(ctx, LeaseRequest{WorkerID: w.id, RequestID: w.nextRequestID()})
		return err
	})
	if err != nil {
		return err
	}
	if lresp.Done {
		w.report.CoordinatorDone = true
		return nil
	}
	targets := make([]*bitvec.Vector, 0, len(lresp.Targets))
	for _, t := range lresp.Targets {
		x, err := bitvec.FromString(t.X)
		if err != nil {
			continue // a corrupt target is the coordinator's bug, not fatal here
		}
		targets = append(targets, x)
		w.release = append(w.release, t.Lease)
	}
	w.engine.InjectTargets(targets)
	w.wm.exchange(0, len(targets))
	return nil
}

// pending returns the local pool's best entries not yet shipped,
// without touching the sent window — entries count as shipped only
// once a Publish succeeds (markSent), so a failed exchange re-offers
// them on the next one.
func (w *Worker) pending() []PublishedSolution {
	var out []PublishedSolution
	var keys []uint64
	for _, ent := range w.engine.PoolTopK(w.cfg.PublishK) {
		key := dedupKey(ent.X, ent.E)
		if w.sent.has(key) {
			continue
		}
		out = append(out, PublishedSolution{X: ent.X.String(), Energy: ent.E})
		keys = append(keys, key)
	}
	w.pendingKeys = keys
	return out
}

// markSent records a successfully published batch in the sent window.
func (w *Worker) markSent() {
	for _, key := range w.pendingKeys {
		w.sent.add(key)
	}
	w.pendingKeys = nil
}

// finalFlush makes one last best-effort Publish so the worker's best
// solutions reach the coordinator after the engine has wound down. The
// coordinator admits publications even after Done. A worker that was
// retired while it wound down (slow host, long partition) re-registers
// — identity is idempotent — and retries once, so the run's best is
// not lost to the liveness janitor.
func (w *Worker) finalFlush(flips uint64) {
	if w.engine == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var results []PublishedSolution
	for _, ent := range w.engine.PoolTopK(w.cfg.PublishK) {
		results = append(results, PublishedSolution{X: ent.X.String(), Energy: ent.E})
	}
	// The worker root span ended just before this call, so the final
	// batch carries it (and any tail RPC spans) to the coordinator.
	spans, cursor := w.cfg.Tracer.SpansSince(w.spanCursor, spanBatch)
	if len(results) == 0 && len(w.release) == 0 && len(spans) == 0 {
		return
	}
	req := PublishRequest{
		WorkerID:  w.id,
		Flips:     flips,
		Release:   w.release,
		Results:   results,
		RequestID: w.nextRequestID(),
		Spans:     spans,
	}
	err := w.call(ctx, "publish", func(ctx context.Context) error {
		_, err := w.cfg.Transport.Publish(ctx, req)
		return err
	})
	if errors.Is(err, ErrUnknownWorker) {
		if _, rerr := w.cfg.Transport.Register(ctx, RegisterRequest{WorkerID: w.id, Devices: w.cfg.Devices}); rerr == nil {
			// Retirement already redistributed our leases; there is
			// nothing left to release.
			req.Release = nil
			err = w.call(ctx, "publish", func(ctx context.Context) error {
				_, err := w.cfg.Transport.Publish(ctx, req)
				return err
			})
		}
	}
	if err == nil {
		w.spanCursor = cursor
		w.report.Exchanges++
		w.wm.exchange(len(results), 0)
	}
}
