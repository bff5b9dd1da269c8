package core

import (
	"strconv"
	"time"

	"abs/internal/gpusim"
	"abs/internal/search"
	"abs/internal/telemetry"
)

// runMetrics binds one Solve run to the telemetry layer: it owns the
// instrument handles (looked up once, so hot paths never touch the
// registry), implements gpusim.BufferObserver and ga.PoolObserver, and
// receives the batched per-round flip tallies from the device blocks.
//
// All methods are nil-receiver safe; a run without telemetry carries a
// nil *runMetrics and pays only the nil checks — and because blocks
// batch through search.Meter, nothing at all per flip.
type runMetrics struct {
	tracer       *telemetry.Tracer
	sc           telemetry.SpanContext // enclosing span; stamps every event
	activeBlocks int                   // per device; maps global slots to devices for traces

	// Per-device instruments, indexed by device.
	flips     []*telemetry.Counter
	rounds    []*telemetry.Counter
	published []*telemetry.Counter
	flipRate  []*telemetry.Gauge

	straightFlips *telemetry.Counter
	localFlips    *telemetry.Counter

	targetsPublished *telemetry.Counter
	solutionsDropped *telemetry.Counter
	hostDrains       *telemetry.Counter
	drainBatch       *telemetry.Histogram
	ingestSeconds    *telemetry.Histogram

	ingestAccepted *telemetry.Counter
	rejectPool     *telemetry.Counter
	rejectStruct   *telemetry.Counter
	rejectEnergy   *telemetry.Counter
	recheckDiff    *telemetry.Counter
	recheckFull    *telemetry.Counter

	poolSize     *telemetry.Gauge
	poolInserted *telemetry.Counter
	poolEvicted  *telemetry.Counter
	poolRejected *telemetry.Counter

	respawns       *telemetry.Counter
	devicesRetired *telemetry.Counter
	blocksRetired  *telemetry.Gauge

	faultsInjected telemetry.CounterVec

	backendInserted     telemetry.CounterVec
	backendImprovements telemetry.CounterVec

	bestEnergy *telemetry.Gauge
	elapsed    *telemetry.Gauge

	// Progress-tick state, host goroutine only.
	lastTick  time.Time
	lastFlips []uint64
}

// newRunMetrics registers the run's instrument catalogue. Either of
// reg and tracer may be nil; when both are (or the abstelemetryoff
// build tag compiled telemetry out) it returns nil and the run is
// uninstrumented.
func newRunMetrics(reg *telemetry.Registry, tracer *telemetry.Tracer, sc telemetry.SpanContext, numDevices, activeBlocks int, start time.Time) *runMetrics {
	if !telemetry.Enabled || (reg == nil && tracer == nil) {
		return nil
	}
	if reg == nil {
		// Trace-only run: instruments still need somewhere to live.
		reg = telemetry.NewRegistry()
	}
	m := &runMetrics{
		tracer:       tracer,
		sc:           sc,
		activeBlocks: activeBlocks,
		lastTick:     start,
		lastFlips:    make([]uint64, numDevices),

		straightFlips: reg.Counter("abs_straight_flips_total",
			"flips spent on straight searches toward GA targets (Algorithm 5)"),
		localFlips: reg.Counter("abs_local_flips_total",
			"flips spent on bulk local search (Algorithm 4)"),

		targetsPublished: reg.Counter("abs_targets_published_total",
			"target solutions stored into block slots by the host"),
		solutionsDropped: reg.Counter("abs_solutions_dropped_total",
			"publications overwritten in the bounded solution buffer before the host drained them"),
		hostDrains: reg.Counter("abs_host_drains_total",
			"non-empty host drains of the solution buffer"),
		drainBatch: reg.Histogram("abs_host_drain_batch_size",
			"solutions returned per non-empty host drain",
			telemetry.LogBuckets(1, 4, 7)),
		ingestSeconds: reg.Histogram("abs_host_ingest_seconds",
			"host time spent gating and inserting one drained batch",
			telemetry.LogBuckets(1e-6, 10, 7)),

		ingestAccepted: reg.Counter("abs_ingest_accepted_total",
			"publications admitted to the GA pool"),
		rejectPool: reg.Counter("abs_ingest_rejected_pool_total",
			"publications the pool turned away (duplicate or no better than the resident worst)"),
		rejectStruct: reg.Counter("abs_ingest_rejected_structural_total",
			"publications quarantined by structural checks (width, block indices, sentinel energy)"),
		rejectEnergy: reg.Counter("abs_ingest_rejected_energy_total",
			"publications quarantined because host re-evaluation contradicted the claimed energy"),

		poolSize: reg.Gauge("abs_pool_size",
			"current GA pool residency"),
		poolInserted: reg.Counter("abs_pool_inserted_total",
			"entries admitted to the GA pool"),
		poolEvicted: reg.Counter("abs_pool_evicted_total",
			"worst entries displaced from a full GA pool"),
		poolRejected: reg.Counter("abs_pool_rejected_total",
			"pool insertions rejected as duplicate or too bad"),

		respawns: reg.Counter("abs_block_respawns_total",
			"silent blocks superseded with a fresh incarnation by the supervisor"),
		devicesRetired: reg.Counter("abs_devices_retired_total",
			"whole devices retired after being marked failed"),
		blocksRetired: reg.Gauge("abs_blocks_retired",
			"block slots permanently retired"),

		faultsInjected: reg.CounterVec("abs_faults_injected_total",
			"injected faults that fired in device blocks (testing runs only)", "kind"),

		backendInserted: reg.CounterVec("abs_backend_inserted_total",
			"publications admitted to the GA pool, by the solver backend of the producing unit", "backend"),
		backendImprovements: reg.CounterVec("abs_backend_improvements_total",
			"admitted publications that strictly improved the run's best energy, by producing backend", "backend"),

		bestEnergy: reg.Gauge("abs_best_energy",
			"best evaluated energy in the GA pool"),
		elapsed: reg.Gauge("abs_elapsed_seconds",
			"wall-clock time since launch"),
	}
	recheckVec := reg.CounterVec("abs_ingest_rechecks_total",
		"exact host-side energy rechecks, by path: diff from the slot's last verified vector, or full from zero", "path")
	m.recheckDiff = recheckVec.With("diff")
	m.recheckFull = recheckVec.With("full")
	flipVec := reg.CounterVec("abs_flips_total", "accepted bit flips", "device")
	roundVec := reg.CounterVec("abs_rounds_total", "completed publish rounds", "device")
	pubVec := reg.CounterVec("abs_solutions_published_total", "solutions published by device blocks", "device")
	rateVec := reg.GaugeVec("abs_flips_per_second",
		"flip rate over the last progress interval", "device")
	for d := 0; d < numDevices; d++ {
		lv := strconv.Itoa(d)
		m.flips = append(m.flips, flipVec.With(lv))
		m.rounds = append(m.rounds, roundVec.With(lv))
		m.published = append(m.published, pubVec.With(lv))
		m.flipRate = append(m.flipRate, rateVec.With(lv))
	}
	return m
}

// roundDone flushes one block round's batched tally (the only
// device-side metrics write; once per round, never per flip).
func (m *runMetrics) roundDone(dev int, t search.Meter) {
	if m == nil {
		return
	}
	m.straightFlips.Add(t.StraightFlips)
	m.localFlips.Add(t.LocalFlips)
	if dev >= 0 && dev < len(m.flips) {
		m.flips[dev].Add(t.Flips())
		m.rounds[dev].Add(t.Rounds)
	}
}

// fault records an injected fault firing in block g.
func (m *runMetrics) fault(g int, kind gpusim.FaultKind) {
	if m == nil {
		return
	}
	m.faultsInjected.With(kind.String()).Inc()
	m.trace(telemetry.Event{
		Kind: telemetry.EventFaultInject, Device: m.device(g), Block: g,
		Detail: kind.String(),
	})
}

// respawn records the supervisor superseding block g.
func (m *runMetrics) respawn(g int) {
	if m == nil {
		return
	}
	m.respawns.Inc()
	m.trace(telemetry.Event{Kind: telemetry.EventBlockRespawn, Device: m.device(g), Block: g})
}

// deviceRetired records a whole-device retirement of slots blocks.
func (m *runMetrics) deviceRetired(dev, slots, totalRetired int) {
	if m == nil {
		return
	}
	m.devicesRetired.Inc()
	m.blocksRetired.SetInt(totalRetired)
	m.trace(telemetry.Event{
		Kind: telemetry.EventDeviceRetire, Device: dev, Block: -1,
		Detail: strconv.Itoa(slots) + " slots",
	})
}

// ingestOutcome mirrors the gate's verdicts; see ingestGate.
func (m *runMetrics) ingestAccept(s gpusim.Solution) {
	if m == nil {
		return
	}
	m.ingestAccepted.Inc()
	m.trace(telemetry.Event{
		Kind: telemetry.EventIngestAccept, Device: s.Device, Block: s.Block, Energy: s.Energy,
	})
}

func (m *runMetrics) ingestReject(s gpusim.Solution, c *telemetry.Counter, reason string) {
	if m == nil {
		return
	}
	c.Inc()
	m.trace(telemetry.Event{
		Kind: telemetry.EventIngestReject, Device: s.Device, Block: s.Block,
		Energy: s.Energy, Detail: reason,
	})
}

// recheck counts one energy recheck by the path it took.
func (m *runMetrics) recheck(path recheckPath) {
	if m == nil {
		return
	}
	switch path {
	case recheckDiff:
		m.recheckDiff.Inc()
	case recheckFull:
		m.recheckFull.Inc()
	}
}

// backendIngest attributes one admitted publication to the solver
// backend of the unit that produced it; improved marks a strict
// improvement of the run's best-so-far energy.
func (m *runMetrics) backendIngest(name string, improved bool) {
	if m == nil {
		return
	}
	m.backendInserted.With(name).Inc()
	if improved {
		m.backendImprovements.With(name).Inc()
	}
}

// ingestBatch records one drained batch's host-side processing time.
func (m *runMetrics) ingestBatch(d time.Duration) {
	if m == nil {
		return
	}
	m.ingestSeconds.Observe(d.Seconds())
}

// progressTick refreshes the per-device flip-rate gauges and the
// run-level gauges; called from the host loop once per progress
// interval.
func (m *runMetrics) progressTick(now time.Time, pr Progress, poolLen int) {
	if m == nil {
		return
	}
	dt := now.Sub(m.lastTick).Seconds()
	for d := range m.flips {
		cur := m.flips[d].Value()
		if dt > 0 {
			m.flipRate[d].Set(float64(cur-m.lastFlips[d]) / dt)
		}
		m.lastFlips[d] = cur
	}
	m.lastTick = now
	m.elapsed.Set(pr.Elapsed.Seconds())
	if pr.BestKnown {
		m.bestEnergy.Set(float64(pr.BestEnergy))
	}
	m.poolSize.SetInt(poolLen)
}

// trace is the single emission point: every event is stamped with the
// enclosing span context (a no-op when none was configured).
func (m *runMetrics) trace(e telemetry.Event) { m.tracer.Emit(e.InSpan(m.sc)) }

// device maps a global slot index to its device.
func (m *runMetrics) device(g int) int {
	if m.activeBlocks <= 0 {
		return -1
	}
	return g / m.activeBlocks
}

// --- gpusim.BufferObserver ---

func (m *runMetrics) Published(s gpusim.Solution) {
	if dev := s.Device; dev >= 0 && dev < len(m.published) {
		m.published[dev].Inc()
	}
	m.trace(telemetry.Event{
		Kind: telemetry.EventSolutionPublish, Device: s.Device, Block: s.Block, Energy: s.Energy,
	})
}

func (m *runMetrics) Dropped(s gpusim.Solution) {
	m.solutionsDropped.Inc()
	m.trace(telemetry.Event{
		Kind: telemetry.EventSolutionDrop, Device: s.Device, Block: s.Block, Energy: s.Energy,
	})
}

func (m *runMetrics) Drained(n int) {
	m.hostDrains.Inc()
	m.drainBatch.Observe(float64(n))
}

func (m *runMetrics) TargetStored(block int) {
	m.targetsPublished.Inc()
	m.trace(telemetry.Event{
		Kind: telemetry.EventTargetPublish, Device: m.device(block), Block: block,
	})
}

// --- ga.PoolObserver ---

func (m *runMetrics) PoolInserted(e int64, size int) {
	m.poolInserted.Inc()
	m.poolSize.SetInt(size)
	m.trace(telemetry.Event{Kind: telemetry.EventPoolInsert, Device: -1, Block: -1, Energy: e})
}

func (m *runMetrics) PoolEvicted(e int64) {
	m.poolEvicted.Inc()
	m.trace(telemetry.Event{Kind: telemetry.EventPoolEvict, Device: -1, Block: -1, Energy: e})
}

func (m *runMetrics) PoolRejected(e int64) {
	m.poolRejected.Inc()
}
