package backend

import "fmt"

func init() {
	Register("race",
		"portfolio meta-backend: units split g mod 2 across straight and tabu, racing on one shared pool",
		newRace)
}

// raceMembers is the portfolio the race meta-backend splits units
// across, in assignment order.
var raceMembers = []string{"straight", "tabu"}

// raceBackend is the Diverse-ABS portfolio (arXiv 2207.03069) as a
// static split: slot g runs raceMembers[g mod len(raceMembers)] for
// the whole run. No new coordination is needed — every member already
// publishes through the same solution buffer and ingest gate and
// adopts targets from the same GA pool, so the portfolio
// cross-pollinates by construction: a basin found by tabu becomes a
// target straight search refines, and vice versa.
type raceBackend struct {
	members []Backend
}

func newRace(cfg Config) (Backend, error) {
	b := &raceBackend{}
	for _, name := range raceMembers {
		m, err := New(name, cfg)
		if err != nil {
			return nil, fmt.Errorf("backend: race member %q: %w", name, err)
		}
		b.members = append(b.members, m)
	}
	return b, nil
}

func (b *raceBackend) Name() string { return "race" }

// UnitName reports the member slot g runs, which is what the engine
// stamps on per-backend telemetry — so /metrics shows which portfolio
// member the improvements come from.
func (b *raceBackend) UnitName(g int) string { return raceMembers[g%len(raceMembers)] }

func (b *raceBackend) NewUnit(g int) Unit { return b.members[g%len(b.members)].NewUnit(g) }
