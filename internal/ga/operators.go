package ga

import (
	"fmt"

	"abs/internal/bitvec"
	"abs/internal/rng"
)

// Config tunes the genetic operators. The zero value is invalid; use
// DefaultConfig.
type Config struct {
	// PoolSize is the number of solutions the host retains (m of §3.1).
	PoolSize int
	// MutationBits is how many random bits a mutation flips.
	MutationBits int
	// CrossoverWeight, MutationWeight and CopyWeight set the relative
	// frequency of the three target-generation operators (§2.2.1 Step 3).
	CrossoverWeight, MutationWeight, CopyWeight int
	// Elitism biases parent selection toward the front of the sorted
	// pool: parents are drawn with index ⌊m·u^Elitism⌋ for uniform u, so
	// 1 is uniform and larger values favour low-energy entries.
	Elitism float64
	// AllowDuplicatePool disables the pool's distinctness guard. It
	// exists only for the ablation that measures how much the guard
	// contributes (§2.2.1); leave it false for real solving.
	AllowDuplicatePool bool
}

// DefaultConfig returns the operator mix used by the solver: mostly
// crossover with some mutation, mild elitism, pool of 64.
func DefaultConfig() Config {
	return Config{
		PoolSize:        64,
		MutationBits:    8,
		CrossoverWeight: 6,
		MutationWeight:  3,
		CopyWeight:      1,
		Elitism:         2,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.PoolSize <= 1 {
		return fmt.Errorf("ga: pool size %d too small", c.PoolSize)
	}
	if c.MutationBits < 1 {
		return fmt.Errorf("ga: mutation bits %d too small", c.MutationBits)
	}
	if c.CrossoverWeight < 0 || c.MutationWeight < 0 || c.CopyWeight < 0 {
		return fmt.Errorf("ga: negative operator weight")
	}
	if c.CrossoverWeight+c.MutationWeight+c.CopyWeight == 0 {
		return fmt.Errorf("ga: all operator weights zero")
	}
	if c.Elitism <= 0 {
		return fmt.Errorf("ga: elitism %v must be positive", c.Elitism)
	}
	return nil
}

// Host is the genetic-algorithm side of ABS: it owns the pool and
// generates target solutions. It is not safe for concurrent use; the
// single host loop owns it (device blocks talk to the host only through
// the gpusim buffers).
type Host struct {
	cfg  Config
	pool *Pool
	r    *rng.Rand

	generated uint64
	inserted  uint64
	rejected  uint64
}

// NewHost creates a host with a random-seeded pool of n-bit solutions.
func NewHost(n int, cfg Config, r *rng.Rand) (*Host, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	h := &Host{cfg: cfg, pool: NewPool(n, cfg.PoolSize), r: r}
	h.pool.SetAllowDuplicates(cfg.AllowDuplicatePool)
	h.pool.SeedRandom(r)
	return h, nil
}

// Pool exposes the pool for inspection (reports, tests).
func (h *Host) Pool() *Pool { return h.pool }

// Stats returns operator counters: targets generated, device solutions
// inserted, device solutions rejected as duplicates/too-bad.
func (h *Host) Stats() (generated, inserted, rejected uint64) {
	return h.generated, h.inserted, h.rejected
}

// Insert offers a device-found solution to the pool (§3.1 Step 3) and
// reports whether it was admitted.
func (h *Host) Insert(x *bitvec.Vector, e int64) bool {
	if h.pool.Insert(x, e) {
		h.inserted++
		return true
	}
	h.rejected++
	return false
}

// pickIndex draws a pool index with elitist bias.
func (h *Host) pickIndex() int {
	u := h.r.Float64()
	for i := 1.0; i < h.cfg.Elitism; i++ {
		u *= h.r.Float64()
	}
	i := int(u * float64(h.pool.Len()))
	if i >= h.pool.Len() {
		i = h.pool.Len() - 1
	}
	return i
}

// Mutate returns a copy of x with MutationBits distinct random bits
// flipped.
func (h *Host) Mutate(x *bitvec.Vector) *bitvec.Vector {
	y := x.Clone()
	k := h.cfg.MutationBits
	if k > y.Len() {
		k = y.Len()
	}
	// Draw k distinct positions by rejection; k ≪ n in practice.
	seen := make(map[int]struct{}, k)
	for len(seen) < k {
		i := h.r.Intn(y.Len())
		if _, dup := seen[i]; dup {
			continue
		}
		seen[i] = struct{}{}
		y.Flip(i)
	}
	return y
}

// NewTarget generates one target solution for a device block using a
// weighted choice of crossover, mutation or copy over pool parents
// (§2.2.1). The returned vector is owned by the caller.
func (h *Host) NewTarget() *bitvec.Vector {
	h.generated++
	total := h.cfg.CrossoverWeight + h.cfg.MutationWeight + h.cfg.CopyWeight
	roll := h.r.Intn(total)
	a := h.pool.At(h.pickIndex())
	switch {
	case roll < h.cfg.CrossoverWeight:
		b := h.pool.At(h.pickIndex())
		return bitvec.CrossUniform(a.X, b.X, h.r)
	case roll < h.cfg.CrossoverWeight+h.cfg.MutationWeight:
		return h.Mutate(a.X)
	default:
		return a.X.Clone()
	}
}
