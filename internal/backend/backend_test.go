package backend

import (
	"errors"
	"strings"
	"testing"

	"abs/internal/bitvec"
	"abs/internal/qubo"
	"abs/internal/randqubo"
	"abs/internal/rng"
)

func testConfig(t *testing.T, n int) (Config, *qubo.Problem) {
	t.Helper()
	p := randqubo.Generate(n, 7)
	return Config{
		Problem:    p,
		NewState:   func() qubo.Engine { return qubo.NewZeroState(p) },
		Units:      6,
		Seed:       1,
		LocalSteps: 256,
		WindowMin:  4,
		WindowMax:  n / 4,
	}, p
}

func never() bool { return false }

func TestRegistryLists(t *testing.T) {
	names := Names()
	for _, want := range []string{"straight", "tabu", "race"} {
		if !Known(want) {
			t.Fatalf("backend %q not registered (have %v)", want, names)
		}
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("Names not sorted: %v", names)
		}
	}
	infos := List()
	if len(infos) != len(names) {
		t.Fatalf("List has %d entries, Names %d", len(infos), len(names))
	}
	for _, info := range infos {
		if info.Description == "" {
			t.Errorf("backend %q has no description", info.Name)
		}
	}
}

func TestNewUnknownListsRegistered(t *testing.T) {
	cfg, _ := testConfig(t, 32)
	_, err := New("columnar", cfg)
	if !errors.Is(err, ErrUnknown) {
		t.Fatalf("want ErrUnknown, got %v", err)
	}
	for _, name := range Names() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not list registered backend %q", err, name)
		}
	}
}

func TestNewEmptyNameIsStraight(t *testing.T) {
	cfg, _ := testConfig(t, 32)
	b, err := New("", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if b.Name() != "straight" {
		t.Fatalf("empty name built %q, want straight", b.Name())
	}
}

func TestConfigValidated(t *testing.T) {
	cfg, _ := testConfig(t, 32)
	cfg.NewState = nil
	if _, err := New("straight", cfg); err == nil {
		t.Fatal("nil NewState accepted")
	}
}

// TestUnitsSearch drives every registered backend's unit through the
// round protocol on a small dense instance and checks the shared
// contract: retargeting costs the Hamming distance, rounds do work,
// and the surfaced best is a real evaluated solution (its energy
// matches a from-scratch evaluation).
func TestUnitsSearch(t *testing.T) {
	cfg, p := testConfig(t, 48)
	target := bitvec.Random(48, rng.New(3))
	for _, name := range Names() {
		b, err := New(name, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for g := 0; g < 3; g++ {
			u := b.NewUnit(g)
			if got := u.Retarget(target, never); got < target.Hamming(bitvec.New(48)) {
				t.Errorf("%s unit %d: retarget flips %d below Hamming distance", name, g, got)
			}
			var bestE int64
			var seen bool
			for round := 0; round < 20; round++ {
				flips, x, e, ok := u.Round(never)
				if flips < 0 {
					t.Fatalf("%s unit %d: negative flips", name, g)
				}
				if !ok {
					continue
				}
				if x == nil || x.Len() != 48 {
					t.Fatalf("%s unit %d: bad best vector", name, g)
				}
				if got := p.Energy(x); got != e {
					t.Fatalf("%s unit %d: claimed best %d but re-evaluates to %d", name, g, e, got)
				}
				if !seen || e < bestE {
					bestE, seen = e, true
				}
			}
			if !seen {
				t.Errorf("%s unit %d: 20 rounds surfaced no best", name, g)
			} else if bestE >= 0 {
				t.Errorf("%s unit %d: best %d never improved on the zero vector", name, g, bestE)
			}
		}
	}
}

func TestRaceSplitsUnits(t *testing.T) {
	cfg, _ := testConfig(t, 32)
	b, err := New("race", cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"straight", "tabu", "straight", "tabu", "straight", "tabu"}
	for g, name := range want {
		if got := b.UnitName(g); got != name {
			t.Errorf("race unit %d runs %q, want %q", g, got, name)
		}
	}
	if b.Name() != "race" {
		t.Errorf("race backend Name %q", b.Name())
	}
}

func TestWindowFor(t *testing.T) {
	for g := 0; g < 100; g++ {
		l := WindowFor(g, 100, 4, 256, 512)
		if l < 4 || l > 256 {
			t.Fatalf("window %d for unit %d outside [4, 256]", l, g)
		}
	}
	if WindowFor(0, 100, 4, 256, 512) != 4 {
		t.Error("first unit should get the minimum window")
	}
	if WindowFor(99, 100, 4, 256, 512) != 256 {
		t.Error("last unit should get the maximum window")
	}
	if WindowFor(0, 1, 4, 256, 512) != 4 {
		t.Error("single unit should get the minimum window")
	}
	if WindowFor(99, 100, 4, 256, 64) != 64 {
		t.Error("window must clamp to n")
	}
}
