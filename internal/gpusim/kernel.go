package gpusim

import (
	"fmt"
	"math"

	"abs/internal/bitvec"
	"abs/internal/dkernel"
	"abs/internal/qubo"
)

// KernelBlock simulates the paper's CUDA kernel (§3.2) at *thread*
// granularity: a block of t = ⌈n/p⌉ logical threads, where thread i
// owns bits i·p … i·p+p−1 and keeps their Δ values in its private
// register file, the best/current energies live in simulated shared
// memory, and each search step performs
//
//  1. a scan of the window's registers for the offset-window
//     candidates (Fig. 2),
//  2. a minimum reduction across the window to pick the flip — batched
//     segment scans here, computing what the paper's log₂(t) tree
//     reduction computes,
//  3. an Eq. (6) update of all n registers for the chosen flip — the
//     batched dkernel tile pass here — with the owning thread negating
//     Δ_k and updating E.
//
// Functionally it must compute exactly what the serial qubo.State
// computes — the equivalence test in kernel_test.go is the module's
// evidence that the paper's parallel decomposition is faithful. It is
// an instrument for validation, not speed: the host CPU executes the
// "threads" sequentially.
//
// A block runs in one of two flip modes sharing the same register
// layout, selection and best-tracking semantics:
//
//   - dense (NewKernelBlock): step 3 walks the full weight row via the
//     batched delta-evaluation kernel (dkernel), cache-blocked tiles
//     with a sentinel excluding the flipped bit and a lazy argmin;
//   - sparse (NewSparseKernelBlock): step 3 walks only the flipped
//     bit's CSR neighbour list — each owning thread applies Eq. (6) to
//     the touched register and refreshes its cached register-file
//     minimum, and the cross-thread reduction runs over the cached
//     per-thread minima instead of rescanning every register. The
//     candidate ordering (smaller Δ first, lower bit index on ties) is
//     identical to the dense loop's, so both modes make the same
//     decision on every flip.
type KernelBlock struct {
	prob    *qubo.Problem // dense mode; nil in sparse mode
	sp      *qubo.Sparse  // sparse mode; nil in dense mode
	n       int
	threads int
	p       int // bits per thread

	// regFile is the block's register file laid out flat — regFile[i]
	// is Δ_i — and regs[t] is thread t's view into it (bits t·p …
	// t·p+p−1). One contiguous backing array lets the dense flip and
	// the window selection run the batched dkernel over whole tiles
	// while the sparse mode's per-thread bookkeeping keeps indexing
	// regs[t] unchanged. The registers are 32-bit, as in the paper;
	// qubo's maxAbsDelta bound makes that width exact.
	regFile []int32
	regs    [][]int32
	// x is the current solution (conceptually distributed: thread t
	// owns bits t·p…t·p+p−1).
	x *bitvec.Vector
	// sharedE and sharedBestE model the shared-memory cells ℰ_X and
	// ℰ_B of §3.2.
	sharedE     int64
	sharedBestE int64
	bestVec     *bitvec.Vector

	// Sparse-mode state: tmin[t] caches thread t's register-file
	// minimum (valid at all times between flips); dirty/touched are
	// per-flip scratch marking threads whose registers a flip changed.
	tmin    []candidate
	dirty   []bool
	touched []int

	// Dense-mode state for the batched dkernel path: the pre-scaled
	// sign registers sgnc[i] = 2·(1−2x_i) and the per-tile minima
	// scratch, exactly as in qubo.State's batched flip.
	sgnc  []int16
	tmins []int32

	flips uint64
}

// NewKernelBlock builds a dense-mode block for the given shape,
// initialized at the zero vector (E = 0, Δ_i = W_ii), like §3.2 Step 1.
func NewKernelBlock(prob *qubo.Problem, bitsPerThread int) (*KernelBlock, error) {
	kb, err := newKernelBlock(prob.N(), bitsPerThread)
	if err != nil {
		return nil, err
	}
	kb.prob = prob
	for i := 0; i < kb.n; i++ {
		kb.regFile[i] = int32(prob.Weight(i, i))
	}
	kb.sgnc = make([]int16, kb.n)
	for i := range kb.sgnc {
		kb.sgnc[i] = 2 // all-zero start: 2·(1−2·0)
	}
	kb.tmins = make([]int32, kb.n/dkernel.TileWidth)
	return kb, nil
}

// NewSparseKernelBlock builds a sparse-mode block over the CSR view,
// initialized at the zero vector. The *Sparse is immutable and may be
// shared by any number of blocks.
func NewSparseKernelBlock(sp *qubo.Sparse, bitsPerThread int) (*KernelBlock, error) {
	kb, err := newKernelBlock(sp.N(), bitsPerThread)
	if err != nil {
		return nil, err
	}
	kb.sp = sp
	kb.tmin = make([]candidate, kb.threads)
	kb.dirty = make([]bool, kb.threads)
	kb.touched = make([]int, 0, kb.threads)
	for i := 0; i < kb.n; i++ {
		kb.regFile[i] = int32(sp.Diag(i))
	}
	for t := 0; t < kb.threads; t++ {
		kb.tmin[t] = kb.scanThread(t, -1)
	}
	return kb, nil
}

// newKernelBlock allocates the mode-independent skeleton.
func newKernelBlock(n, bitsPerThread int) (*KernelBlock, error) {
	if bitsPerThread <= 0 {
		return nil, fmt.Errorf("gpusim: bits per thread %d must be positive", bitsPerThread)
	}
	threads := (n + bitsPerThread - 1) / bitsPerThread
	kb := &KernelBlock{
		n:           n,
		threads:     threads,
		p:           bitsPerThread,
		regFile:     make([]int32, n),
		regs:        make([][]int32, threads),
		x:           bitvec.New(n),
		sharedBestE: math.MaxInt64,
	}
	for t := 0; t < threads; t++ {
		lo, hi := kb.span(t)
		kb.regs[t] = kb.regFile[lo:hi:hi]
	}
	return kb, nil
}

// span returns thread t's bit range [lo, hi).
func (kb *KernelBlock) span(t int) (lo, hi int) {
	lo = t * kb.p
	hi = lo + kb.p
	if hi > kb.n {
		hi = kb.n
	}
	return lo, hi
}

// Sparse reports whether the block runs the sparse flip mode.
func (kb *KernelBlock) Sparse() bool { return kb.sp != nil }

// Threads returns the logical thread count.
func (kb *KernelBlock) Threads() int { return kb.threads }

// Energy returns the shared-memory energy cell.
func (kb *KernelBlock) Energy() int64 { return kb.sharedE }

// Flips returns the flips performed.
func (kb *KernelBlock) Flips() uint64 { return kb.flips }

// X returns the current solution (read-only).
func (kb *KernelBlock) X() *bitvec.Vector { return kb.x }

// Delta returns Δ_k from the owning thread's register file (a view
// into the flat file, so this is a direct load).
func (kb *KernelBlock) Delta(k int) int64 {
	return int64(kb.regFile[k])
}

// BestEnergy returns the shared-memory best-energy cell.
func (kb *KernelBlock) BestEnergy() int64 { return kb.sharedBestE }

// candidate is a (Δ, scan position, bit) triple flowing up the
// reduction tree. Ordering matches the serial OffsetWindow policy:
// strictly smaller Δ wins; on ties, the earlier window scan position.
type candidate struct {
	delta int32
	pos   int
	bit   int
}

func better(a, b candidate) bool {
	if a.delta != b.delta {
		return a.delta < b.delta
	}
	return a.pos < b.pos
}

// SelectWindowMin performs steps 1–2 of the kernel: find the window
// minimum over [offset, offset+l) mod n, resolving ties toward the
// earlier window scan position. It used to materialize the per-thread
// scan and a log₂(t) butterfly explicitly; the flat register file lets
// it run as at most two contiguous dkernel.MinFirst segment scans —
// O(l) instead of O(n) — computing the identical result: MinFirst
// returns the first occurrence of the segment minimum, segments are
// visited in window order, and the cross-segment fold keeps the first
// segment on ties, which is exactly the (Δ, window position)
// lexicographic order the tree reduction resolved.
func (kb *KernelBlock) SelectWindowMin(offset, l int) int {
	n := kb.n
	if l < 1 {
		l = 1
	}
	if l > n {
		l = n
	}
	hi := offset + l
	if hi <= n {
		i, _ := dkernel.MinFirst(kb.regFile[offset:hi])
		return offset + i
	}
	// Wrapped window: [offset, n) then [0, hi−n), in that scan order.
	i1, m1 := dkernel.MinFirst(kb.regFile[offset:])
	i2, m2 := dkernel.MinFirst(kb.regFile[:hi-n])
	if m2 < m1 {
		return i2
	}
	return offset + i1
}

// Flip performs step 3 of the kernel for bit k: Eq. (6) applied to
// every register, the owner negating Δ_k, and the shared energy and
// best cells updating. Mirrors Algorithm 4's loop body. Dense mode
// runs the batched dkernel tile pass over the flat register file;
// sparse mode touches only the threads owning a neighbour of k. Both
// modes find the identical post-flip minimum candidate.
func (kb *KernelBlock) Flip(k int) {
	if kb.sp != nil {
		kb.flipSparse(k)
		return
	}
	d := kb.regFile
	row := kb.prob.Row(k)
	oldDk := d[k]
	oldSgn := kb.sgnc[k]
	neg := oldSgn < 0 // sk = 1−2x_k < 0 iff x_k = 1

	// Exclude bit k from the update and the minimum by sentinel: a zero
	// sign register keeps d[k] pinned at MaxInt32 through the tiles, and
	// every real Δ is strictly below MaxInt32 (qubo's width bound), so
	// it cannot win a tile minimum. This replaces the old per-element
	// `i == k` branch, which the tile kernel hoists out of the inner
	// loop.
	d[k] = math.MaxInt32
	kb.sgnc[k] = 0

	tailMin := dkernel.FlipTiles(d, row, kb.sgnc, kb.tmins, neg)
	minD := int32(math.MaxInt32)
	minTile := -1
	for t, m := range kb.tmins {
		if m < minD {
			minD, minTile = m, t
		}
	}
	inTail := false
	if tailMin < minD {
		minD, inTail = tailMin, true
	}

	d[k] = -oldDk
	kb.sgnc[k] = -oldSgn
	kb.sharedE += int64(oldDk)
	kb.x.Flip(k)
	kb.flips++

	if kb.sharedE < kb.sharedBestE {
		kb.recordBest(kb.x, kb.sharedE)
	}
	if minD != math.MaxInt32 {
		if cand := kb.sharedE + int64(minD); cand < kb.sharedBestE {
			kb.recordBestNeighbour(kb.locateMin(k, minD, minTile, inTail), cand)
		}
	}
}

// locateMin resolves the post-flip argmin index lazily: only the
// winning tile (or the ragged tail) is rescanned for the first
// occurrence of the minimum, skipping bit k whose register now holds
// −Δ_k and may collide by value. The candidate ordering — smaller Δ
// first, lower bit index on ties — is unchanged from the per-thread
// scan it replaces.
func (kb *KernelBlock) locateMin(k int, minD int32, minTile int, inTail bool) int {
	var lo, hi int
	if inTail {
		lo, hi = len(kb.tmins)*dkernel.TileWidth, kb.n
	} else {
		lo, hi = minTile*dkernel.TileWidth, (minTile+1)*dkernel.TileWidth
	}
	i := lo + dkernel.FirstEq(kb.regFile[lo:hi], minD)
	if i == k {
		i = k + 1 + dkernel.FirstEq(kb.regFile[k+1:hi], minD)
	}
	return i
}

// scanThread returns thread t's register-file minimum candidate,
// excluding bit `excl` (pass −1 to include every bit). The candidate
// ordering matches the dense Flip loop: pos == bit index.
func (kb *KernelBlock) scanThread(t, excl int) candidate {
	best := candidate{delta: math.MaxInt32, pos: math.MaxInt32}
	lo, hi := kb.span(t)
	regs := kb.regs[t]
	for i := lo; i < hi; i++ {
		if i == excl {
			continue
		}
		if c := (candidate{delta: regs[i-lo], pos: i, bit: i}); better(c, best) {
			best = c
		}
	}
	return best
}

// flipSparse is step 3 in sparse mode. Register updates touch only the
// neighbours of k (per-thread Eq. (6) on the CSR segment). The global
// post-flip minimum over i ≠ k — which the dense loop finds by visiting
// every register — comes from the cached per-thread minima: a thread
// whose registers a flip did not touch cannot have changed its local
// minimum, so only touched threads rescan (O(p) each) before the
// cross-thread reduction (O(threads)). Total: O(deg + p·touched +
// threads) instead of O(n), with decisions identical bit for bit.
func (kb *KernelBlock) flipSparse(k int) {
	sp := kb.sp
	sk := int32(1 - 2*kb.x.Bit(k))
	owner := k / kb.p
	oldDk := kb.regs[owner][k-owner*kb.p]

	// Per-thread register updates along k's neighbour list; mark the
	// owning threads dirty. φ values use pre-flip bits, as in the dense
	// loop (x flips below).
	idx, w := sp.Neighbours(k)
	for pos, ji := range idx {
		i := int(ji)
		t := i / kb.p
		xi := int32(kb.x.Bit(i))
		kb.regs[t][i-t*kb.p] += 2 * sk * (1 - 2*xi) * int32(w[pos])
		if !kb.dirty[t] {
			kb.dirty[t] = true
			kb.touched = append(kb.touched, t)
		}
	}
	// Touched threads refresh their cached minima from the updated
	// registers; the owner's cache is rebuilt after Δ_k is negated.
	for _, t := range kb.touched {
		kb.dirty[t] = false
		if t != owner {
			kb.tmin[t] = kb.scanThread(t, -1)
		}
	}
	kb.touched = kb.touched[:0]

	// Cross-thread reduction over cached minima, with the owner thread
	// contributing its minimum over bits ≠ k (the dense loop's i == k
	// exclusion).
	ownerExcl := kb.scanThread(owner, k)
	minC := ownerExcl
	for t := 0; t < kb.threads; t++ {
		if t == owner {
			continue
		}
		if better(kb.tmin[t], minC) {
			minC = kb.tmin[t]
		}
	}

	kb.regs[owner][k-owner*kb.p] = -oldDk
	if c := (candidate{delta: -oldDk, pos: k, bit: k}); better(c, ownerExcl) {
		kb.tmin[owner] = c
	} else {
		kb.tmin[owner] = ownerExcl
	}
	kb.sharedE += int64(oldDk)
	kb.x.Flip(k)
	kb.flips++

	if kb.sharedE < kb.sharedBestE {
		kb.recordBest(kb.x, kb.sharedE)
	}
	if minC.delta != math.MaxInt32 {
		if cand := kb.sharedE + int64(minC.delta); cand < kb.sharedBestE {
			kb.recordBestNeighbour(minC.bit, cand)
		}
	}
}

func (kb *KernelBlock) recordBest(v *bitvec.Vector, e int64) {
	if kb.bestVec == nil {
		kb.bestVec = v.Clone()
	} else {
		kb.bestVec.CopyFrom(v)
	}
	kb.sharedBestE = e
}

func (kb *KernelBlock) recordBestNeighbour(i int, e int64) {
	if kb.bestVec == nil {
		kb.bestVec = kb.x.Clone()
	} else {
		kb.bestVec.CopyFrom(kb.x)
	}
	kb.bestVec.Flip(i)
	kb.sharedBestE = e
}

// Best returns the best solution recorded since the last reset.
func (kb *KernelBlock) Best() (*bitvec.Vector, int64, bool) {
	if kb.bestVec == nil || kb.sharedBestE == math.MaxInt64 {
		return nil, 0, false
	}
	return kb.bestVec.Clone(), kb.sharedBestE, true
}

// ResetBest clears the shared best cells (§3.2 Step 3).
func (kb *KernelBlock) ResetBest() { kb.sharedBestE = math.MaxInt64 }

// Step runs one full kernel iteration: window selection at the given
// offset and length, then the flip. It returns the flipped bit.
func (kb *KernelBlock) Step(offset, l int) int {
	k := kb.SelectWindowMin(offset, l)
	kb.Flip(k)
	return k
}

// CheckConsistency recomputes E and all Δ directly and compares against
// the distributed register files; in sparse mode it additionally
// verifies the cached per-thread minima against a full register scan.
func (kb *KernelBlock) CheckConsistency() error {
	direct := func(k int) int64 { return kb.prob.Delta(kb.x, k) }
	var e int64
	if kb.sp != nil {
		e = kb.sp.Energy(kb.x)
		direct = func(k int) int64 { return kb.sp.DeltaDirect(kb.x, k) }
	} else {
		e = kb.prob.Energy(kb.x)
	}
	if e != kb.sharedE {
		return fmt.Errorf("gpusim: kernel energy drift: shared %d, direct %d", kb.sharedE, e)
	}
	for k := 0; k < kb.n; k++ {
		if d := direct(k); d != kb.Delta(k) {
			return fmt.Errorf("gpusim: kernel register drift at %d: reg %d, direct %d", k, kb.Delta(k), d)
		}
	}
	for t := range kb.tmin {
		if want := kb.scanThread(t, -1); kb.tmin[t] != want {
			return fmt.Errorf("gpusim: stale cached minimum for thread %d: %+v, want %+v",
				t, kb.tmin[t], want)
		}
	}
	for i := range kb.sgnc {
		if want := int16(2 - 4*kb.x.Bit(i)); kb.sgnc[i] != want {
			return fmt.Errorf("gpusim: sign register drift at %d: %d, want %d",
				i, kb.sgnc[i], want)
		}
	}
	return nil
}
