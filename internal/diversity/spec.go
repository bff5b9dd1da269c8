// Package diversity implements the pool-admission control loop of
// Diverse Adaptive Bulk Search (DABS, arXiv 2207.03069) on top of the
// ABS substrate: a Hamming-distance-aware admission policy (Policy)
// that keeps the host's solution pool spread across the landscape
// instead of merely elite — near-duplicates are rejected unless they
// strictly improve on the residents they crowd, and eviction from a
// full pool preserves a minimum occupancy per distance bucket.
//
// The package sits below core (which wires the policy into the
// engine's pool); it depends only on ga and bitvec.
package diversity

import (
	"fmt"
	"strconv"
	"strings"
)

// Spec bundles every diversity-control knob so one value can be
// threaded through core.Options, the serve JobSpec, the cluster grant
// and the shared -diversity flag. The zero value means "defaults"
// (see DefaultSpec); ParseSpec starts from the defaults and overrides
// only the keys named, so flag strings stay short.
type Spec struct {
	// Radius is the pool policy's Hamming near-duplicate radius: a
	// candidate within Radius of any resident is admitted only when it
	// is strictly better than every such resident (and then replaces
	// them all). Zero disables the admission policy entirely — the
	// pool runs the paper's plain elitism.
	Radius int

	// Buckets is how many distance buckets the pool is partitioned
	// into, keyed by Hamming distance to the incumbent best entry.
	// Zero means 8.
	Buckets int

	// MinPerBucket is the occupancy floor eviction must preserve: a
	// full-pool eviction never drops a bucket below this count unless
	// the candidate itself lands in that bucket. Zero means 1.
	MinPerBucket int
}

// DefaultSpec is the default: admission policy off (Radius 0 —
// diversity admission is opt-in per job), 8 buckets, one entry kept
// per bucket.
func DefaultSpec() Spec {
	return Spec{Radius: 0, Buckets: 8, MinPerBucket: 1}
}

// Normalize fills defaulted zero fields (Buckets, MinPerBucket) and
// validates the result. Radius is taken as-is: zero disables the
// policy.
func (s Spec) Normalize() (Spec, error) {
	d := DefaultSpec()
	if s.Buckets == 0 {
		s.Buckets = d.Buckets
	}
	if s.MinPerBucket == 0 {
		s.MinPerBucket = d.MinPerBucket
	}
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	return s, nil
}

// Validate reports configuration errors.
func (s Spec) Validate() error {
	if s.Radius < 0 {
		return fmt.Errorf("diversity: radius %d must be >= 0", s.Radius)
	}
	if s.Buckets < 1 {
		return fmt.Errorf("diversity: buckets %d must be >= 1", s.Buckets)
	}
	if s.MinPerBucket < 0 {
		return fmt.Errorf("diversity: min-per-bucket %d must be >= 0", s.MinPerBucket)
	}
	return nil
}

// String renders the spec in ParseSpec's key=value form; for every
// valid spec, ParseSpec(s.String()) round-trips.
func (s Spec) String() string {
	return fmt.Sprintf("radius=%d,buckets=%d,min=%d", s.Radius, s.Buckets, s.MinPerBucket)
}

// ParseSpec parses a comma-separated key=value spec string, starting
// from DefaultSpec and overriding only the named keys:
//
//	radius=8
//	radius=16,buckets=12,min=2
//
// The empty string and the literal "off" return DefaultSpec (no
// admission policy). Unknown keys and malformed values are errors — a
// spec travels through flags and cluster grants, where a typo silently
// ignored would be a silent behaviour change.
func ParseSpec(text string) (Spec, error) {
	s := DefaultSpec()
	text = strings.TrimSpace(text)
	if text == "" || text == "off" {
		return s, nil
	}
	for _, part := range strings.Split(text, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		key, val, ok := strings.Cut(part, "=")
		if !ok {
			return Spec{}, fmt.Errorf("diversity: bad spec element %q (want key=value)", part)
		}
		key, val = strings.TrimSpace(key), strings.TrimSpace(val)
		var err error
		switch key {
		case "radius":
			s.Radius, err = strconv.Atoi(val)
		case "buckets":
			s.Buckets, err = strconv.Atoi(val)
		case "min":
			s.MinPerBucket, err = strconv.Atoi(val)
		default:
			return Spec{}, fmt.Errorf("diversity: unknown spec key %q (known: radius, buckets, min)", key)
		}
		if err != nil {
			return Spec{}, fmt.Errorf("diversity: bad value for %q: %v", key, err)
		}
	}
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	return s, nil
}
