package diversity

import (
	"strings"
	"testing"
)

func TestParseSpecEmptyIsDefault(t *testing.T) {
	s, err := ParseSpec("")
	if err != nil {
		t.Fatal(err)
	}
	if s != DefaultSpec() {
		t.Fatalf("ParseSpec(\"\") = %+v, want DefaultSpec %+v", s, DefaultSpec())
	}
}

func TestParseSpecOffIsStatic(t *testing.T) {
	s, err := ParseSpec("off")
	if err != nil {
		t.Fatal(err)
	}
	if s != DefaultSpec() {
		t.Fatalf("ParseSpec(\"off\") = %+v, want DefaultSpec %+v", s, DefaultSpec())
	}
	if s.Radius != 0 {
		t.Fatalf("off radius %d should disable the admission policy", s.Radius)
	}
}

func TestParseSpecOverridesOnlyNamedKeys(t *testing.T) {
	s, err := ParseSpec("radius=16, buckets=4 ")
	if err != nil {
		t.Fatal(err)
	}
	d := DefaultSpec()
	if s.Radius != 16 || s.Buckets != 4 {
		t.Fatalf("overrides not applied: %+v", s)
	}
	if s.MinPerBucket != d.MinPerBucket {
		t.Fatalf("unnamed keys drifted from defaults: %+v", s)
	}
}

func TestParseSpecErrors(t *testing.T) {
	for _, bad := range []string{
		"radius",          // no '='
		"radius=x",        // bad int
		"min=few",         // bad int
		"turbo=1",         // unknown key
		"floor=0.2",       // removed allocator key
		"window=3s",       // removed allocator key
		"interval=1s",     // removed allocator key
		"buckets=0",       // fails validation
		"radius=-1",       // fails validation
		"radius=8,min=-2", // fails validation
		"radius=8,,min=x", // bad value after empty element
	} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q): want error, got nil", bad)
		}
	}
}

func TestSpecStringRoundTrips(t *testing.T) {
	for _, s := range []Spec{
		DefaultSpec(),
		{Radius: 16, Buckets: 12, MinPerBucket: 2},
	} {
		got, err := ParseSpec(s.String())
		if err != nil {
			t.Fatalf("round-trip %q: %v", s.String(), err)
		}
		if got != s {
			t.Errorf("round-trip %q = %+v, want %+v", s.String(), got, s)
		}
	}
}

func TestNormalizeFillsZeroFields(t *testing.T) {
	s, err := Spec{Radius: 4}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	d := DefaultSpec()
	if s.Buckets != d.Buckets || s.MinPerBucket != d.MinPerBucket {
		t.Fatalf("Normalize left zero fields unfilled: %+v", s)
	}
	if s.Radius != 4 {
		t.Fatalf("Normalize changed meaningful zeros: %+v", s)
	}
	if _, err := (Spec{Radius: -3}).Normalize(); err == nil {
		t.Fatal("Normalize accepted a negative radius")
	}
}

func TestParseSpecErrorNamesKnownKeys(t *testing.T) {
	_, err := ParseSpec("radious=8")
	if err == nil || !strings.Contains(err.Error(), "radius") {
		t.Fatalf("unknown-key error should list known keys, got %v", err)
	}
}
