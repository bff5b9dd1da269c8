// Package ga implements the host-side genetic algorithm of the ABS
// framework (§2.2.1, §3.1): a sorted, duplicate-free solution pool fed
// by the device blocks, and the mutation/crossover/copy operators that
// turn pool members into new target solutions for the blocks to search
// around.
//
// Two properties from the paper are load-bearing:
//
//   - the host never computes the energy function — pool entries start
//     with energy "+∞" (unevaluated random vectors) and only acquire
//     energies that devices report;
//   - the pool stays sorted and distinct, with binary-search insertion,
//     as the premature-convergence guard: a solution identical to an
//     existing entry is rejected instead of crowding the pool.
package ga

import (
	"fmt"
	"math"
	"sort"

	"abs/internal/bitvec"
	"abs/internal/rng"
)

// UnknownEnergy is the sentinel for entries whose energy has not been
// computed by any device ("the energy values are +∞ in the sense that
// they are not computed", §3.1 Step 1).
const UnknownEnergy = int64(math.MaxInt64)

// Entry is one pool member.
type Entry struct {
	X *bitvec.Vector
	E int64
}

// Known reports whether the entry's energy has been evaluated.
func (e Entry) Known() bool { return e.E != UnknownEnergy }

// Pool is the host's solution pool: at most Cap entries, sorted by
// ascending energy (unknown-energy entries last, ordered among
// themselves by vector content), all vectors pairwise distinct.
// Pool is not safe for concurrent use; the host loop owns it.
type Pool struct {
	n       int
	cap     int
	entries []Entry
	// allowDuplicates disables the distinctness guard; it exists only
	// for the ablation study that quantifies the guard's value (§2.2.1
	// argues distinctness prevents premature convergence).
	allowDuplicates bool
	obs             PoolObserver
}

// PoolObserver receives pool admission traffic: every Insert outcome
// and every eviction a full pool performs to make room. The core
// solver installs a telemetry adapter here; ga itself stays free of
// any metrics dependency. Callbacks run on the inserting goroutine
// (the host loop — the pool is single-owner by contract) and must be
// cheap.
type PoolObserver interface {
	// PoolInserted reports an admitted entry and the pool's new size.
	PoolInserted(e int64, size int)
	// PoolEvicted reports the worst entry displaced by an insertion
	// into a full pool.
	PoolEvicted(e int64)
	// PoolRejected reports an Insert turned away (duplicate, or no
	// better than a full pool's worst).
	PoolRejected(e int64)
}

// SetObserver installs obs (nil detaches). The pool is not safe for
// concurrent use, so there is no publication concern.
func (p *Pool) SetObserver(obs PoolObserver) { p.obs = obs }

// SetAllowDuplicates toggles the distinctness guard (ablation use only).
func (p *Pool) SetAllowDuplicates(v bool) { p.allowDuplicates = v }

// NewPool returns an empty pool for n-bit solutions holding at most
// capacity entries.
func NewPool(n, capacity int) *Pool {
	if capacity <= 0 {
		panic(fmt.Sprintf("ga: pool capacity %d must be positive", capacity))
	}
	if n <= 0 {
		panic(fmt.Sprintf("ga: solution size %d must be positive", n))
	}
	return &Pool{n: n, cap: capacity, entries: make([]Entry, 0, capacity)}
}

// SeedRandom fills the pool with distinct random vectors of unknown
// energy (§3.1 Step 1). When the solution space is smaller than the
// pool capacity (2ⁿ < cap, tiny instances), it stops at 2ⁿ distinct
// vectors instead of demanding the impossible.
func (p *Pool) SeedRandom(r *rng.Rand) {
	want := p.cap
	if p.n < 60 {
		if space := uint64(1) << uint(p.n); space < uint64(want) {
			want = int(space)
		}
	}
	// Bounded attempts: when want is close to 2ⁿ, random draws keep
	// hitting residents, and finding the last few distinct vectors by
	// chance can take arbitrarily long. Starting with a partially filled
	// pool is fine — inserts refill it; an unbounded loop would hang.
	for attempts := 0; len(p.entries) < want && attempts < 64*want; attempts++ {
		p.Insert(bitvec.Random(p.n, r), UnknownEnergy)
	}
}

// Len returns the current number of entries.
func (p *Pool) Len() int { return len(p.entries) }

// Cap returns the maximum number of entries.
func (p *Pool) Cap() int { return p.cap }

// At returns the i-th entry in energy order (0 is the best). The
// caller must treat the vector as read-only.
func (p *Pool) At(i int) Entry { return p.entries[i] }

// Best returns the best evaluated entry, if any.
func (p *Pool) Best() (Entry, bool) {
	if len(p.entries) == 0 || !p.entries[0].Known() {
		return Entry{}, false
	}
	return p.entries[0], true
}

// less orders entries by (energy, vector content) so that equal-energy
// duplicates land on the same position and binary search stays exact.
func less(aE int64, aX *bitvec.Vector, bE int64, bX *bitvec.Vector) bool {
	if aE != bE {
		return aE < bE
	}
	return aX.Compare(bX) < 0
}

// insertPos returns the index Insert would place (x, e) at in the
// current energy order — the binary-search position over the
// (energy, vector) comparator.
func (p *Pool) insertPos(x *bitvec.Vector, e int64) int {
	return sort.Search(len(p.entries), func(i int) bool {
		return !less(p.entries[i].E, p.entries[i].X, e, x)
	})
}

// isDuplicate reports whether (x, e) is an exact resident duplicate at
// its insertion position, honouring the duplicate ablation toggle.
func (p *Pool) isDuplicate(pos int, x *bitvec.Vector, e int64) bool {
	return !p.allowDuplicates && pos < len(p.entries) &&
		p.entries[pos].E == e && p.entries[pos].X.Equal(x)
}

// Insert adds x with energy e. It returns false without modifying the
// pool when x is already present, or when the pool is full and x is no
// better than its worst entry; otherwise a full pool drops its worst.
// Insert takes ownership of x.
//
// The position is found by binary search in O(log m) comparisons
// (§2.2.1/§3.1 Step 3).
func (p *Pool) Insert(x *bitvec.Vector, e int64) bool {
	if x.Len() != p.n {
		panic(fmt.Sprintf("ga: inserting %d-bit vector into %d-bit pool", x.Len(), p.n))
	}
	pos := p.insertPos(x, e)
	if p.isDuplicate(pos, x, e) {
		if p.obs != nil {
			p.obs.PoolRejected(e)
		}
		return false // duplicate: keep the pool distinct
	}
	if len(p.entries) == p.cap {
		if pos == len(p.entries) {
			if p.obs != nil {
				p.obs.PoolRejected(e)
			}
			return false // worse than everything resident
		}
		// Shift the tail right by one, dropping the worst entry.
		evicted := p.entries[len(p.entries)-1].E
		copy(p.entries[pos+1:], p.entries[pos:len(p.entries)-1])
		p.entries[pos] = Entry{X: x, E: e}
		if p.obs != nil {
			p.obs.PoolEvicted(evicted)
			p.obs.PoolInserted(e, len(p.entries))
		}
		return true
	}
	p.entries = append(p.entries, Entry{})
	copy(p.entries[pos+1:], p.entries[pos:len(p.entries)-1])
	p.entries[pos] = Entry{X: x, E: e}
	if p.obs != nil {
		p.obs.PoolInserted(e, len(p.entries))
	}
	return true
}

// WouldAdmit reports whether Insert(x, e) would modify the pool,
// without modifying it: false for duplicates and for entries no better
// than a full pool's worst. The host's ingest gate uses it to skip
// validating publications that would be rejected anyway.
func (p *Pool) WouldAdmit(x *bitvec.Vector, e int64) bool {
	if x.Len() != p.n {
		return false
	}
	pos := p.insertPos(x, e)
	if p.isDuplicate(pos, x, e) {
		return false
	}
	return len(p.entries) < p.cap || pos < len(p.entries)
}

// Contains reports whether an identical vector with the same energy is
// resident; it exists for tests.
func (p *Pool) Contains(x *bitvec.Vector, e int64) bool {
	pos := p.insertPos(x, e)
	return pos < len(p.entries) && p.entries[pos].E == e && p.entries[pos].X.Equal(x)
}

// CheckInvariants verifies sortedness and distinctness; tests and the
// property suite call it after mutation sequences.
func (p *Pool) CheckInvariants() error {
	for i := 1; i < len(p.entries); i++ {
		a, b := p.entries[i-1], p.entries[i]
		if less(b.E, b.X, a.E, a.X) {
			return fmt.Errorf("ga: pool out of order at %d", i)
		}
		if !p.allowDuplicates && a.E == b.E && a.X.Equal(b.X) {
			return fmt.Errorf("ga: duplicate pool entries at %d", i)
		}
	}
	if len(p.entries) > p.cap {
		return fmt.Errorf("ga: pool over capacity: %d > %d", len(p.entries), p.cap)
	}
	return nil
}
