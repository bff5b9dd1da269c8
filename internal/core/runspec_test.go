package core

import (
	"encoding/json"
	"errors"
	"flag"
	"io"
	"strings"
	"testing"

	"abs/internal/diversity"
)

func TestRunSpecOver(t *testing.T) {
	for _, tc := range []struct {
		upper, lower, want RunSpec
	}{
		{RunSpec{}, RunSpec{}, RunSpec{}},
		{RunSpec{Storage: "auto", Backend: "auto", Diversity: "auto"}, RunSpec{}, RunSpec{}},
		{RunSpec{}, RunSpec{Storage: "sparse", Backend: "tabu", Diversity: "radius=4"},
			RunSpec{Storage: "sparse", Backend: "tabu", Diversity: "radius=4"}},
		{RunSpec{Storage: "auto", Backend: "sb"}, RunSpec{Storage: "dense", Backend: "tabu", Diversity: "off"},
			RunSpec{Storage: "dense", Backend: "sb", Diversity: "off"}},
		// A set upper field wins without the lower one being looked at.
		{RunSpec{Diversity: "off"}, RunSpec{Diversity: "radius=banana", Backend: "auto"},
			RunSpec{Diversity: "off"}},
	} {
		if got := tc.upper.Over(tc.lower); got != tc.want {
			t.Errorf("%+v.Over(%+v) = %+v, want %+v", tc.upper, tc.lower, got, tc.want)
		}
	}
}

func TestRunSpecApply(t *testing.T) {
	radius8, err := diversity.ParseSpec("radius=8,floor=0.2")
	if err != nil {
		t.Fatal(err)
	}
	base := Options{Storage: StorageDense, Backend: BackendSB, Diversity: diversity.StaticSpec()}
	for _, tc := range []struct {
		spec    RunSpec
		want    Options
		wantErr string
	}{
		{spec: RunSpec{}, want: base},
		{spec: RunSpec{Storage: "auto", Backend: "auto", Diversity: "auto"}, want: base},
		{spec: RunSpec{Storage: "sparse", Backend: "tabu", Diversity: "radius=8,floor=0.2"},
			want: Options{Storage: StorageSparse, Backend: BackendTabu, Diversity: radius8}},
		{spec: RunSpec{Storage: "columnar"}, wantErr: "unknown storage"},
		{spec: RunSpec{Backend: "columnar"}, wantErr: "registered: "},
		{spec: RunSpec{Diversity: "radius=banana"}, wantErr: "radius"},
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
		if o.Storage != tc.want.Storage || o.Backend != tc.want.Backend || o.Diversity != tc.want.Diversity {
			t.Errorf("%+v: Apply gave %v/%v/%v, want %v/%v/%v", tc.spec,
				o.Storage, o.Backend, o.Diversity, tc.want.Storage, tc.want.Backend, tc.want.Diversity)
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
	if err := json.Unmarshal([]byte(`{"storage":"dense","backend":"tabu","diversity":"off"}`), &r); err != nil {
		t.Fatal(err)
	}
	if r != (RunSpec{Storage: "dense", Backend: "tabu", Diversity: "off"}) {
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
	r, err := parse("-storage", "sparse", "-backend", "race", "-diversity", "radius=8,floor=0.2")
	if err != nil {
		t.Fatal(err)
	}
	if r != (RunSpec{Storage: "sparse", Backend: "race", Diversity: "radius=8,floor=0.2"}) {
		t.Errorf("parsed %+v", r)
	}
	for _, args := range [][]string{
		{"-storage", "columnar"},
		{"-backend", "columnar"},
		{"-diversity", "turbo=1"},
	} {
		if _, err := parse(args...); err == nil {
			t.Errorf("%v accepted", args)
		}
	}
	// Only the named field is registered.
	var only RunSpec
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	only.Flag(fs, "backend", "note")
	if fs.Lookup("storage") != nil || fs.Lookup("diversity") != nil {
		t.Error("Flag registered more than the named field")
	}
	if u := fs.Lookup("backend").Usage; !strings.Contains(u, "(note)") || !strings.Contains(u, "tabu") {
		t.Errorf("backend usage %q lacks the note or the registry", u)
	}
}
