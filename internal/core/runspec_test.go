package core

import (
	"encoding/json"
	"errors"
	"flag"
	"io"
	"strings"
	"testing"
)

func TestRunSpecOver(t *testing.T) {
	for _, tc := range []struct {
		upper, lower, want RunSpec
	}{
		{RunSpec{}, RunSpec{}, RunSpec{}},
		{RunSpec{Storage: "auto", Backend: "auto"}, RunSpec{}, RunSpec{}},
		{RunSpec{}, RunSpec{Storage: "sparse", Backend: "tabu"},
			RunSpec{Storage: "sparse", Backend: "tabu"}},
		{RunSpec{Storage: "auto", Backend: "race"}, RunSpec{Storage: "dense", Backend: "tabu"},
			RunSpec{Storage: "dense", Backend: "race"}},
		// A set upper field wins without the lower one being looked at.
		{RunSpec{Backend: "tabu"}, RunSpec{Backend: "banana", Storage: "auto"},
			RunSpec{Backend: "tabu"}},
	} {
		if got := tc.upper.Over(tc.lower); got != tc.want {
			t.Errorf("%+v.Over(%+v) = %+v, want %+v", tc.upper, tc.lower, got, tc.want)
		}
	}
}

func TestRunSpecApply(t *testing.T) {
	base := Options{Storage: StorageDense, Backend: BackendRace}
	for _, tc := range []struct {
		spec    RunSpec
		want    Options
		wantErr string
	}{
		{spec: RunSpec{}, want: base},
		{spec: RunSpec{Storage: "auto", Backend: "auto"}, want: base},
		{spec: RunSpec{Storage: "sparse", Backend: "tabu"},
			want: Options{Storage: StorageSparse, Backend: BackendTabu}},
		{spec: RunSpec{Backend: "straight"}, want: Options{Storage: StorageDense, Backend: BackendStraight}},
		{spec: RunSpec{Storage: "columnar"}, wantErr: "unknown storage"},
		{spec: RunSpec{Backend: "columnar"}, wantErr: "registered: "},
	} {
		o := base
		err := tc.spec.Apply(&o)
		if verr := tc.spec.Validate(); (verr == nil) != (err == nil) {
			t.Errorf("%+v: Validate = %v but Apply = %v", tc.spec, verr, err)
		}
		if tc.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("%+v: Apply error = %v, want one containing %q", tc.spec, err, tc.wantErr)
			}
			continue
		}
		if err != nil {
			t.Errorf("%+v: Apply: %v", tc.spec, err)
			continue
		}
		if o.Storage != tc.want.Storage || o.Backend != tc.want.Backend {
			t.Errorf("%+v: Apply gave %v/%v, want %v/%v", tc.spec,
				o.Storage, o.Backend, tc.want.Storage, tc.want.Backend)
		}
	}
	if err := (RunSpec{Backend: "columnar"}).Validate(); !errors.Is(err, ErrUnknownBackend) {
		t.Errorf("unknown backend error %v does not wrap ErrUnknownBackend", err)
	}
}

func TestRunSpecJSON(t *testing.T) {
	b, err := json.Marshal(RunSpec{})
	if err != nil || string(b) != "{}" {
		t.Errorf("zero RunSpec marshals to %s, %v; want {}", b, err)
	}
	var r RunSpec
	if err := json.Unmarshal([]byte(`{"storage":"dense","backend":"tabu"}`), &r); err != nil {
		t.Fatal(err)
	}
	if r != (RunSpec{Storage: "dense", Backend: "tabu"}) {
		t.Errorf("decoded %+v", r)
	}
}

func TestRunSpecFlags(t *testing.T) {
	parse := func(args ...string) (RunSpec, error) {
		var r RunSpec
		fs := flag.NewFlagSet("t", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		r.Flags(fs, "")
		return r, fs.Parse(args)
	}
	r, err := parse("-storage", "sparse", "-backend", "race")
	if err != nil {
		t.Fatal(err)
	}
	if r != (RunSpec{Storage: "sparse", Backend: "race"}) {
		t.Errorf("parsed %+v", r)
	}
	for _, args := range [][]string{
		{"-storage", "columnar"},
		{"-backend", "columnar"},
		{"-diversity", "radius=8"},
	} {
		if _, err := parse(args...); err == nil {
			t.Errorf("%v accepted", args)
		}
	}
	// Only the named field is registered.
	var only RunSpec
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	only.Flag(fs, "backend", "note")
	if fs.Lookup("storage") != nil {
		t.Error("Flag registered more than the named field")
	}
	if u := fs.Lookup("backend").Usage; !strings.Contains(u, "(note)") || !strings.Contains(u, "tabu") {
		t.Errorf("backend usage %q lacks the note or the registry", u)
	}
}
