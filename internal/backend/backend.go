// Package backend is the solver-backend registry: the pluggable seam
// between the ABS host protocol (§3.1 — pool, targets, ingest gate)
// and the per-block search program that consumes it. The paper fixes
// one device-side algorithm — straight search to the target, then bulk
// local search (§3.2) — but its successor work shows the win comes
// from portfolios: "Diverse Adaptive Bulk Search" (arXiv 2207.03069)
// races heterogeneous algorithms against one shared pool. This package
// makes the block program a named, registered implementation of one
// small interface, so straight search and diversified multi-start tabu
// are peers, selectable per job and raceable on one fleet.
//
// The host side is untouched by design: every backend speaks the same
// round protocol (adopt a pool target, search, surface a best), so the
// target/solution buffers, the ingest validation gate and the GA pool
// serve all of them without knowing which algorithm runs where.
package backend

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"abs/internal/bitvec"
	"abs/internal/qubo"
)

// Config carries everything a backend factory needs to build the
// per-unit search programs of one run. The engine (internal/core)
// fills it from its normalized Options.
type Config struct {
	// Problem is the instance being solved.
	Problem *qubo.Problem

	// NewState builds one incremental Δ-register engine at the zero
	// vector, with the storage representation (dense or sparse) already
	// resolved by the caller. Every unit owns exactly one.
	NewState func() qubo.Engine

	// Units is the total number of search units (global block slots)
	// the run will host. Unit indices g passed to NewUnit are in
	// [0, Units).
	Units int

	// Seed derives per-unit RNG streams; units mix in their own index
	// so the population is diverse but reproducible.
	Seed uint64

	// LocalSteps is the per-round search budget (§3.2 Step 4b):
	// backends spend about this many flips (or the equivalent work)
	// between target polls, so rounds stay comparable across backends.
	LocalSteps int

	// WindowMin and WindowMax bound the offset-window ladder for
	// window-based backends (straight, tabu); see WindowFor.
	WindowMin, WindowMax int

	// Adaptive enables per-unit window rescheduling on stagnation
	// (straight backend only; tabu has its own restart response).
	Adaptive bool
	// AdaptivePatience is the stagnant-round threshold; zero means 8.
	AdaptivePatience int
}

// validate checks the fields every factory relies on.
func (c Config) validate() error {
	if c.Problem == nil {
		return errors.New("backend: Config.Problem is nil")
	}
	if c.NewState == nil {
		return errors.New("backend: Config.NewState is nil")
	}
	if c.Units <= 0 {
		return fmt.Errorf("backend: Units must be positive, got %d", c.Units)
	}
	if c.LocalSteps <= 0 {
		return fmt.Errorf("backend: LocalSteps must be positive, got %d", c.LocalSteps)
	}
	return nil
}

// patience returns the stagnation threshold with its default applied.
func (c Config) patience() int {
	if c.AdaptivePatience > 0 {
		return c.AdaptivePatience
	}
	return 8
}

// Backend is one registered search algorithm, instantiated per run.
// NewUnit must be safe for concurrent use: the device simulator calls
// it from every launching block goroutine, and supervisor respawns
// call it again mid-run for fresh incarnations.
type Backend interface {
	// Name is the registered name ("straight", "tabu", ...).
	Name() string
	// UnitName reports which algorithm unit g runs — Name() for plain
	// backends, the assigned member's name for meta-backends like
	// race. The engine uses it to attribute per-backend telemetry.
	UnitName(g int) string
	// NewUnit builds a fresh search unit for global slot g.
	NewUnit(g int) Unit
}

// Unit is the per-block search program driven by the device round loop
// (§3.2): adopt a pool target, spend a round's budget searching,
// surface the round's best for publication. A unit is owned by one
// block goroutine; implementations need no internal locking.
type Unit interface {
	// Retarget moves the unit to the host-issued target solution
	// (§3.2 Step 4a) and returns the flips spent getting there. stop
	// is polled so shutdown takes effect within one flip.
	Retarget(t *bitvec.Vector, stop func() bool) int

	// Round runs one bulk search phase (§3.2 Step 4b) and returns the
	// flips spent plus the best solution evaluated this round (ok
	// false when nothing was evaluated, e.g. stop fired immediately).
	// The returned vector is a snapshot the caller may retain; the
	// round's best-tracking is reset so successive rounds publish
	// fresh solutions rather than one old champion.
	Round(stop func() bool) (flips int, x *bitvec.Vector, e int64, ok bool)

	// Window reports the unit's current exploration parameter for
	// Result.BlockStats (the offset-window length where that concept
	// applies; backends without one report 0).
	Window() int
}

// ErrUnknown is the sentinel wrapped by New and Parse-level helpers
// when a name has no registered factory. Match with errors.Is.
var ErrUnknown = errors.New("backend: unknown backend")

// Factory builds a backend for one run.
type Factory func(cfg Config) (Backend, error)

// Info describes one registered backend for listings (CLI usage
// strings, GET /v1/backends).
type Info struct {
	Name        string `json:"name"`
	Description string `json:"description"`
}

var (
	regMu    sync.RWMutex
	registry = map[string]Info{}
	builders = map[string]Factory{}
)

// Register adds a named backend factory. It panics on a duplicate or
// empty name — registration is an init-time programming act, not a
// runtime input.
func Register(name, description string, f Factory) {
	if name == "" || f == nil {
		panic("backend: Register with empty name or nil factory")
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := builders[name]; dup {
		panic(fmt.Sprintf("backend: duplicate Register(%q)", name))
	}
	builders[name] = f
	registry[name] = Info{Name: name, Description: description}
}

// New builds the named backend for one run. The empty name selects
// "straight" — the paper's algorithm, and the behaviour of every run
// before backends existed. Unknown names return an error wrapping
// ErrUnknown that lists what is registered.
func New(name string, cfg Config) (Backend, error) {
	if name == "" {
		name = "straight"
	}
	regMu.RLock()
	f, ok := builders[name]
	regMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w %q (registered: %s)", ErrUnknown, name, namesLine())
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return f(cfg)
}

// Known reports whether name has a registered factory.
func Known(name string) bool {
	regMu.RLock()
	defer regMu.RUnlock()
	_, ok := builders[name]
	return ok
}

// Names returns the registered backend names, sorted.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]string, 0, len(builders))
	for name := range builders {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// List returns the registered backends with their descriptions,
// sorted by name.
func List() []Info {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]Info, 0, len(registry))
	for _, info := range registry {
		out = append(out, info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// namesLine renders the sorted names for error messages.
func namesLine() string {
	names := Names()
	line := ""
	for i, n := range names {
		if i > 0 {
			line += ", "
		}
		line += n
	}
	return line
}
