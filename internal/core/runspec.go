package core

import (
	"flag"
	"fmt"
	"strings"

	"abs/internal/backend"
)

// RunSpec is a run's choice of engine storage and solver backend, in
// the text form every surface carries: CLI flags, serve job specs and
// the job journal, and the cluster's registration grant, all under the
// JSON keys below. Strings keep JSON decoding
// infallible; Validate and Apply are the one place they are parsed, so
// a bad value fails the same way wherever it arrives.
//
// A field is unset when it is empty or "auto". Precedence is
// field-wise and written once, in Over: a set field wins and an unset
// one defers to the layer below (a worker's flags over the
// coordinator's grant, a job over the service defaults). What no layer
// sets keeps the engine default: storage by instance density and the
// straight backend.
type RunSpec struct {
	// Storage is "dense" or "sparse" (ParseStorage).
	Storage string `json:"storage,omitempty"`
	// Backend is a registered backend name (ParseBackend).
	Backend string `json:"backend,omitempty"`
}

func unset(v string) bool { return v == "" || v == "auto" }

// pick is the precedence rule for one field.
func pick(upper, lower string) string {
	switch {
	case !unset(upper):
		return upper
	case !unset(lower):
		return lower
	}
	return ""
}

// Over returns s with every unset field taken from lower. A field
// unset in both comes back empty, so s.Over(RunSpec{}) is s with
// "auto" spelled as empty: the form a grant carries.
func (s RunSpec) Over(lower RunSpec) RunSpec {
	return RunSpec{
		Storage: pick(s.Storage, lower.Storage),
		Backend: pick(s.Backend, lower.Backend),
	}
}

// Validate reports the first set field that does not parse.
func (s RunSpec) Validate() error { return s.Apply(&Options{}) }

// Apply parses the set fields into o's typed Storage and Backend,
// leaving the fields of o that s does not set alone.
func (s RunSpec) Apply(o *Options) error {
	if !unset(s.Storage) {
		st, err := ParseStorage(s.Storage)
		if err != nil {
			return err
		}
		o.Storage = st
	}
	if !unset(s.Backend) {
		b, err := ParseBackend(s.Backend)
		if err != nil {
			return err
		}
		o.Backend = b
	}
	return nil
}

// Flags registers -storage and -backend on fs, writing into s. note,
// when non-empty, replaces each flag's default explanation of what an
// unset value means in this binary.
func (s *RunSpec) Flags(fs *flag.FlagSet, note string) {
	for _, name := range []string{"storage", "backend"} {
		s.Flag(fs, name, note)
	}
}

// Flag registers one field ("storage" or "backend") as -name on fs.
// Each value is validated as it is parsed, so a bad one fails flag
// parsing before any work starts.
func (s *RunSpec) Flag(fs *flag.FlagSet, name, note string) {
	f := specFlag{spec: s}
	var usage, dflt string
	switch name {
	case "storage":
		f.field = func(r *RunSpec) *string { return &r.Storage }
		usage, dflt = "engine representation: auto|dense|sparse", "auto picks by instance density"
	case "backend":
		f.field = func(r *RunSpec) *string { return &r.Backend }
		usage, dflt = "solver backend: auto|"+strings.Join(backend.Names(), "|"), "auto means straight"
	default:
		panic(fmt.Sprintf("core: RunSpec has no field %q", name))
	}
	if note == "" {
		note = dflt
	}
	fs.Var(f, name, usage+" ("+note+")")
}

// specFlag is one RunSpec field as a flag.Value.
type specFlag struct {
	spec  *RunSpec
	field func(*RunSpec) *string
}

func (f specFlag) String() string {
	if f.spec == nil {
		return ""
	}
	return *f.field(f.spec)
}

func (f specFlag) Set(v string) error {
	var probe RunSpec
	*f.field(&probe) = v
	if err := probe.Validate(); err != nil {
		return err
	}
	*f.field(f.spec) = v
	return nil
}
