package search

import "abs/internal/qubo"

// TabuWindow is the offset-window policy with a tabu memory: the last
// Tenure flipped bits are excluded from selection, the classic
// cycle-breaking device of tabu search (the metaheuristic behind
// qbsolv, the reference software QUBO solver). Like every Policy here
// it reads only the Δ register file, so it is a drop-in demonstration
// of the paper's claim that the O(1) machinery supports arbitrary
// selection policies.
//
// Aspiration: a tabu bit is taken anyway when its flip would improve on
// the engine's best-known energy, the standard tabu-search override.
type TabuWindow struct {
	// L is the window length; Tenure the tabu-list length. A Tenure of
	// zero degenerates to plain OffsetWindow behaviour.
	L      int
	Tenure int

	offset int
	// ring is the circular tabu list; tabu[i] counts membership so
	// duplicate entries (possible after aspiration overrides) stay
	// correct.
	ring []int
	pos  int
	tabu map[int]int
}

// NewTabuWindow returns a policy with window length l and tabu tenure
// t.
func NewTabuWindow(l, tenure int) *TabuWindow {
	return &TabuWindow{L: l, Tenure: tenure, tabu: make(map[int]int)}
}

// note records bit k as tabu, evicting the oldest entry when full.
func (p *TabuWindow) note(k int) {
	if p.Tenure <= 0 {
		return
	}
	if len(p.ring) < p.Tenure {
		p.ring = append(p.ring, k)
		p.tabu[k]++
		return
	}
	old := p.ring[p.pos]
	if p.tabu[old] <= 1 {
		delete(p.tabu, old)
	} else {
		p.tabu[old]--
	}
	p.ring[p.pos] = k
	p.tabu[k]++
	p.pos = (p.pos + 1) % p.Tenure
}

// Select implements Policy.
func (p *TabuWindow) Select(s qubo.Engine) int {
	n := s.N()
	l := p.L
	if l < 1 {
		l = 1
	}
	if l > n {
		l = n
	}
	d := s.Deltas()
	e := s.Energy()
	bestE := s.BestEnergy()

	best, bestD := -1, int32(0)
	fallback, fallbackD := -1, int32(0) // window minimum ignoring tabu
	for t := 0; t < l; t++ {
		i := p.offset + t
		if i >= n {
			i -= n
		}
		if fallback < 0 || d[i] < fallbackD {
			fallback, fallbackD = i, d[i]
		}
		if _, isTabu := p.tabu[i]; isTabu {
			// Aspiration: allowed if it beats the best-known energy.
			if e+int64(d[i]) >= bestE {
				continue
			}
		}
		if best < 0 || d[i] < bestD {
			best, bestD = i, d[i]
		}
	}
	p.offset = (p.offset + l) % n
	if best < 0 {
		best = fallback // whole window tabu: fall back to the minimum
	}
	p.note(best)
	return best
}
