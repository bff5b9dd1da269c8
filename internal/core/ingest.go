package core

import (
	"sync/atomic"

	"abs/internal/bitvec"
	"abs/internal/ga"
	"abs/internal/gpusim"
	"abs/internal/qubo"
)

// Verdict classifies one publication offered to a Gate.
type Verdict int

const (
	// VerdictAdmit: the publication passed every check and should be
	// inserted into the pool.
	VerdictAdmit Verdict = iota
	// VerdictStructural: the payload fails the structural invariants
	// (vector missing or of the wrong width, sentinel energy claimed).
	// Counted as quarantined.
	VerdictStructural
	// VerdictPool: the pool would reject the entry anyway (duplicate,
	// or no better than a full pool's worst); validating it would only
	// starve the drain loop. Not quarantined.
	VerdictPool
	// VerdictEnergy: host-side re-evaluation contradicted the claimed
	// energy. Counted as quarantined.
	VerdictEnergy
)

// Gate is the reusable admission half of the ingest-validation layer:
// the checks that protect a GA pool from hostile or corrupted
// publications, independent of how the publication arrived (device
// block in-process, or a cluster worker over the network). The paper's
// host trusts devices unconditionally (§3.1: the host never computes
// the energy function); a production host cannot, since one corrupted
// worker would poison every future crossover. Unless trust is set, the
// gate re-evaluates each claimed energy host-side — but only for
// publications the pool would actually admit, so the O(n²) check is
// never paid for entries that are duplicates or too bad to matter.
// That re-evaluation is the one deliberate deviation from §3.1; see
// DESIGN.md "Fault model & substitutions".
type Gate struct {
	// energy is the exact E(x) the recheck compares claims against:
	// Problem.Energy, or Sparse.Energy when the instance already has an
	// adjacency view (O(nnz) instead of O(n²)).
	energy func(*bitvec.Vector) int64
	n      int
	trust  bool
	// quarantined is atomic so live status readers (Engine.Snapshot,
	// the serve job endpoints, the cluster status plane) can observe it
	// while the owning goroutine keeps ingesting.
	quarantined atomic.Uint64
}

// NewGate returns a gate for publications against p. trust recovers
// the paper's pure §3.1 protocol (no host-side energy recheck).
func NewGate(p *qubo.Problem, trust bool) *Gate {
	return &Gate{energy: p.Energy, n: p.N(), trust: trust}
}

// newSparseGate is NewGate for an engine on sparse storage: the
// recheck reuses the adjacency view the blocks already search, whose
// Energy agrees exactly with Problem.Energy at a fraction of its cost.
func newSparseGate(sp *qubo.Sparse, trust bool) *Gate {
	return &Gate{energy: sp.Energy, n: sp.N(), trust: trust}
}

// Quarantined returns how many publications the gate has refused for
// structural or energy reasons. Safe from any goroutine.
func (g *Gate) Quarantined() uint64 { return g.quarantined.Load() }

// Vet classifies one publication against the pool without inserting
// it, bumping the quarantine counter for structural and energy
// verdicts. The pool is read (WouldAdmit) but not written; the caller
// must hold whatever ownership the pool's single-owner contract
// demands.
func (g *Gate) Vet(pool *ga.Pool, x *bitvec.Vector, e int64) Verdict {
	if x == nil || x.Len() != g.n {
		g.quarantined.Add(1)
		return VerdictStructural
	}
	// UnknownEnergy is the pool's "not yet evaluated" sentinel; a
	// publisher claiming it is nonsensical and must not shadow real
	// entries.
	if e == ga.UnknownEnergy {
		g.quarantined.Add(1)
		return VerdictStructural
	}
	if !pool.WouldAdmit(x, e) {
		return VerdictPool
	}
	if !g.trust && g.energy(x) != e {
		g.quarantined.Add(1)
		return VerdictEnergy
	}
	return VerdictAdmit
}

// ingestGate binds a Gate to one engine's block-slot addressing: on
// top of the payload checks it enforces that block indices address a
// real slot — the invariant that protects the host's own memory
// safety — and attributes each publication to its slot for retargeting
// and per-block statistics.
type ingestGate struct {
	adm          *Gate
	activeBlocks int // per device
	totalBlocks  int
	metrics      *runMetrics
}

// quarantined returns the underlying gate's refusal count.
func (g *ingestGate) quarantined() uint64 { return g.adm.Quarantined() }

// slot resolves a publication's block addressing. ok is false when the
// indices do not address a real slot (counted as quarantined — a
// corrupted header).
func (g *ingestGate) slot(s gpusim.Solution) (int, bool) {
	// Bound the indices before multiplying so absurd values from a
	// corrupted header can't overflow into a plausible-looking slot.
	numDevices := g.totalBlocks / g.activeBlocks
	if s.Device < 0 || s.Device >= numDevices || s.Block < 0 || s.Block >= g.activeBlocks {
		return 0, false
	}
	return s.Device*g.activeBlocks + s.Block, true
}

// ingest runs one publication through the gate and, when admitted, the
// pool. retarget reports whether the publishing slot could be
// identified and should receive a fresh target (true even for a
// quarantined payload from a healthy, addressable block — the block
// keeps working while its bad publication is discarded). slot is
// meaningful only when retarget is true.
func (g *ingestGate) ingest(host *ga.Host, s gpusim.Solution) (slot int, inserted, retarget bool) {
	slot, ok := g.slot(s)
	if !ok {
		g.adm.quarantined.Add(1)
		if m := g.metrics; m != nil {
			m.ingestReject(s, m.rejectStruct, "structural")
		}
		return 0, false, false
	}
	switch g.adm.Vet(host.Pool(), s.X, s.Energy) {
	case VerdictStructural:
		if m := g.metrics; m != nil {
			m.ingestReject(s, m.rejectStruct, "structural")
		}
		return slot, false, true
	case VerdictPool:
		inserted = host.Insert(s.X, s.Energy) // counts the rejection
		if m := g.metrics; m != nil && !inserted {
			m.ingestReject(s, m.rejectPool, "pool")
		}
		return slot, inserted, true
	case VerdictEnergy:
		if m := g.metrics; m != nil {
			m.ingestReject(s, m.rejectEnergy, "energy mismatch")
		}
		return slot, false, true
	}
	inserted = host.Insert(s.X, s.Energy)
	if m := g.metrics; m != nil {
		if inserted {
			m.ingestAccept(s)
		} else {
			// WouldAdmit said yes but Insert said no: impossible while
			// the host loop is the pool's only writer, kept for safety.
			m.ingestReject(s, m.rejectPool, "pool")
		}
	}
	return slot, inserted, true
}
