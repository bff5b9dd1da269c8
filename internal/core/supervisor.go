package core

import (
	"time"

	"abs/internal/ga"
	"abs/internal/gpusim"
	"abs/internal/retry"
	"abs/internal/rng"
)

// supervisor is the host-side watchdog over the block fleet. Every
// block stamps an atomic heartbeat at the end of each search round; the
// supervisor scans those stamps from the Solve poll loop and acts on
// any block silent for longer than the grace period:
//
//   - on a healthy device, the block is respawned — its old incarnation
//     is superseded (a merely-slow block stops at its next poll; a dead
//     one is already gone), a fresh engine incarnation takes over the
//     slot, and a new target from the pool points it at useful work;
//   - on a device the fault plan has marked failed, respawning is
//     impossible, so the slot is retired and its share of the target
//     stream is redistributed round-robin over surviving blocks —
//     the cluster degrades to its remaining capacity instead of
//     repeatedly burying work in a dead card.
//
// slotRunner is the supervisor's view of whatever owns the block
// goroutines: an Engine whose devices attach and detach while the run
// is live, or (in tests) a single gpusim.DeviceRun. Respawn reports
// false when the slot cannot currently be respawned (stopped run, or
// the slot's device is detached).
type slotRunner interface {
	Respawn(g int, fn gpusim.BlockFunc) bool
	Halt(g int)
}

type supervisor struct {
	run     slotRunner
	stats   *blockStats
	targets *gpusim.TargetBuffer
	host    *ga.Host
	plan    *gpusim.FaultPlan
	blockFn gpusim.BlockFunc

	grace        time.Duration
	activeBlocks int // per device

	retired    []bool
	nextScan   time.Time
	lastScan   time.Time
	rr         int // round-robin cursor for redistribution
	recovered  uint64
	numRetired int

	// Respawn pacing (shared schedule with the cluster worker's
	// reconnect loop, internal/retry): a slot that keeps dying right
	// after each respawn is backed off exponentially instead of being
	// respawned every grace period forever — the same reasoning as not
	// hammering a coordinator that keeps refusing connections. The
	// first respawn of a silent slot is never delayed; the backoff
	// resets as soon as an incarnation heartbeats on its own. One
	// retry.Pacer per slot, all jittered from one shared rng.
	pacers       []retry.Pacer
	respawnStamp []int64 // heartbeat value stamped at the slot's last respawn

	metrics *runMetrics
}

func newSupervisor(run slotRunner, stats *blockStats, targets *gpusim.TargetBuffer,
	host *ga.Host, plan *gpusim.FaultPlan, blockFn gpusim.BlockFunc,
	grace time.Duration, activeBlocks int, metrics *runMetrics) *supervisor {

	backoff := retry.Backoff{Base: grace, Factor: 2, Max: 8 * grace, Jitter: 0.25}
	backoffRNG := rng.New(0x5c4e)
	pacers := make([]retry.Pacer, len(stats.slots))
	for i := range pacers {
		pacers[i] = retry.NewPacer(backoff, backoffRNG)
	}
	return &supervisor{
		run:          run,
		stats:        stats,
		targets:      targets,
		host:         host,
		plan:         plan,
		blockFn:      blockFn,
		grace:        grace,
		activeBlocks: activeBlocks,
		retired:      make([]bool, len(stats.slots)),
		pacers:       pacers,
		respawnStamp: make([]int64, len(stats.slots)),
		metrics:      metrics,
	}
}

// scan checks all heartbeats, at most once per grace/4 (calls in
// between return immediately, keeping the poll loop cheap).
func (s *supervisor) scan(now time.Time) {
	if now.Before(s.nextScan) {
		return
	}
	s.nextScan = now.Add(s.grace / 4)
	// Starvation guard: when the host goroutine itself could not run for
	// a whole grace period (thousands of compute-bound blocks sharing
	// few cores, a GC pause, a suspended laptop), every heartbeat looks
	// stale at once — but that says nothing about the blocks. Respawning
	// the fleet would only add more runnable goroutines and starve the
	// host further, so re-baseline the stamps and let the next scan
	// judge with a clean clock.
	if !s.lastScan.IsZero() && now.Sub(s.lastScan) > s.grace {
		base := now.UnixNano()
		for g := range s.stats.slots {
			if !s.retired[g] {
				s.stats.slots[g].heartbeat.Store(base)
			}
		}
		s.lastScan = now
		return
	}
	s.lastScan = now
	cutoff := now.Add(-s.grace).UnixNano()
	for g := range s.stats.slots {
		if s.retired[g] {
			continue
		}
		hb := s.stats.slots[g].heartbeat.Load()
		// A heartbeat newer than the one stamped at the slot's last
		// respawn proves the incarnation made progress on its own:
		// reset the slot's backoff whether or not it is stale now.
		if s.pacers[g].Attempts() != 0 && hb != s.respawnStamp[g] {
			s.pacers[g].Reset()
		}
		if hb > cutoff {
			continue
		}
		if dev := g / s.activeBlocks; s.plan != nil && s.plan.DeviceFailed(dev) {
			s.retireDevice(dev)
			continue
		}
		// Consecutive respawns without intervening progress wait out the
		// slot's backoff delay on top of the ordinary grace staleness.
		if !s.pacers[g].Due(now) {
			continue
		}
		if s.run.Respawn(g, s.blockFn) {
			stamp := now.UnixNano()
			s.stats.slots[g].restarts.Add(1)
			s.stats.slots[g].heartbeat.Store(stamp)
			s.respawnStamp[g] = stamp
			s.pacers[g].Fail(now)
			s.recovered++
			s.metrics.respawn(g)
			s.targets.Store(g, s.host.NewTarget())
		}
	}
}

// retireDevice halts and retires every block slot of a failed device,
// redistributing each slot's target stream to a surviving block.
func (s *supervisor) retireDevice(dev int) {
	slots := 0
	for b := 0; b < s.activeBlocks; b++ {
		g := dev*s.activeBlocks + b
		if s.retired[g] {
			continue
		}
		s.run.Halt(g)
		s.retired[g] = true
		s.numRetired++
		slots++
		if t := s.nextSurvivor(); t >= 0 {
			s.targets.Store(t, s.host.NewTarget())
		}
	}
	if slots > 0 {
		s.metrics.deviceRetired(dev, slots, s.numRetired)
	}
}

// nextSurvivor returns the next non-retired slot round-robin, or -1
// when the whole fleet is gone.
func (s *supervisor) nextSurvivor() int {
	for i := 0; i < len(s.retired); i++ {
		s.rr = (s.rr + 1) % len(s.retired)
		if !s.retired[s.rr] {
			return s.rr
		}
	}
	return -1
}
