package qubo

import (
	"strings"
	"testing"

	"abs/internal/bitvec"
	"abs/internal/rng"
)

// paperExample builds the n=4 instance of Figure 1's style: a small
// hand-checkable matrix.
func paperExample() *Problem {
	p := New(4)
	p.SetWeight(0, 0, -5)
	p.SetWeight(0, 1, 2)
	p.SetWeight(0, 2, 4)
	p.SetWeight(1, 1, -3)
	p.SetWeight(1, 3, 1)
	p.SetWeight(2, 2, -4)
	p.SetWeight(2, 3, 3)
	p.SetWeight(3, 3, -2)
	return p
}

// randomProblem builds a dense random instance for property tests.
func randomProblem(n int, seed uint64) *Problem {
	p := New(n)
	r := rng.New(seed)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			p.SetWeight(i, j, int16(r.Intn(201)-100))
		}
	}
	return p
}

func TestNewPanicsOutOfRange(t *testing.T) {
	for _, n := range []int{0, -3, MaxBits + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d) did not panic", n)
				}
			}()
			New(n)
		}()
	}
}

func TestSetWeightSymmetric(t *testing.T) {
	p := New(5)
	p.SetWeight(1, 3, 42)
	if p.Weight(1, 3) != 42 || p.Weight(3, 1) != 42 {
		t.Errorf("SetWeight not symmetric: %d / %d", p.Weight(1, 3), p.Weight(3, 1))
	}
	if err := p.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestAddWeightAccumulatesAndOverflows(t *testing.T) {
	p := New(3)
	if err := p.AddWeight(0, 1, 1000); err != nil {
		t.Fatal(err)
	}
	if err := p.AddWeight(0, 1, 24); err != nil {
		t.Fatal(err)
	}
	if p.Weight(0, 1) != 1024 || p.Weight(1, 0) != 1024 {
		t.Errorf("AddWeight sum wrong: %d", p.Weight(0, 1))
	}
	if err := p.AddWeight(0, 1, 32000); err == nil {
		t.Error("overflowing AddWeight did not error")
	}
	// Diagonal accumulates once.
	if err := p.AddWeight(2, 2, 7); err != nil {
		t.Fatal(err)
	}
	if p.Weight(2, 2) != 7 {
		t.Errorf("diagonal AddWeight = %d, want 7", p.Weight(2, 2))
	}
}

func TestFromDenseValidation(t *testing.T) {
	if _, err := FromDense(nil); err == nil {
		t.Error("empty matrix accepted")
	}
	if _, err := FromDense([][]int32{{0, 1}, {2}}); err == nil {
		t.Error("ragged matrix accepted")
	}
	if _, err := FromDense([][]int32{{0, 1}, {2, 0}}); err == nil {
		t.Error("asymmetric matrix accepted")
	}
	if _, err := FromDense([][]int32{{0, 40000}, {40000, 0}}); err == nil {
		t.Error("out-of-range weight accepted")
	}
	p, err := FromDense([][]int32{{-1, 2}, {2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	if p.Weight(0, 0) != -1 || p.Weight(0, 1) != 2 || p.Weight(1, 1) != 3 {
		t.Error("FromDense stored wrong weights")
	}
}

func TestEnergyBySummation(t *testing.T) {
	p := paperExample()
	// Brute-force reference implementation: literal Eq. (1).
	ref := func(x *bitvec.Vector) int64 {
		var e int64
		for i := 0; i < p.N(); i++ {
			for j := 0; j < p.N(); j++ {
				e += int64(p.Weight(i, j)) * int64(x.Bit(i)) * int64(x.Bit(j))
			}
		}
		return e
	}
	for bitsVal := 0; bitsVal < 16; bitsVal++ {
		x := New4BitVector(bitsVal)
		if got, want := p.Energy(x), ref(x); got != want {
			t.Errorf("Energy(%s) = %d, want %d", x, got, want)
		}
	}
}

// New4BitVector builds a 4-bit vector from the low bits of v (bit 0 =
// least significant).
func New4BitVector(v int) *bitvec.Vector {
	x := bitvec.New(4)
	for k := 0; k < 4; k++ {
		x.Set(k, (v>>k)&1)
	}
	return x
}

func TestDeltaMatchesEnergyDifference(t *testing.T) {
	p := randomProblem(24, 7)
	r := rng.New(8)
	for trial := 0; trial < 50; trial++ {
		x := bitvec.Random(p.N(), r)
		e := p.Energy(x)
		for k := 0; k < p.N(); k++ {
			y := x.Clone()
			y.Flip(k)
			want := p.Energy(y) - e
			if got := p.Delta(x, k); got != want {
				t.Fatalf("Delta(x,%d) = %d, want %d", k, got, want)
			}
		}
	}
}

func TestDeltaAll(t *testing.T) {
	p := randomProblem(17, 9)
	x := bitvec.Random(p.N(), rng.New(10))
	ds := p.DeltaAll(x, nil)
	if len(ds) != p.N() {
		t.Fatalf("DeltaAll length %d", len(ds))
	}
	for k, d := range ds {
		if want := p.Delta(x, k); int64(d) != want {
			t.Errorf("DeltaAll[%d] = %d, want %d", k, d, want)
		}
	}
	// Reuse of a correctly sized destination must not allocate a new one.
	ds2 := p.DeltaAll(x, ds)
	if &ds2[0] != &ds[0] {
		t.Error("DeltaAll reallocated despite correct size")
	}
}

func TestEnergyBound(t *testing.T) {
	p := paperExample()
	lo, hi := p.EnergyBound()
	for v := 0; v < 16; v++ {
		e := p.Energy(New4BitVector(v))
		if e < lo || e > hi {
			t.Errorf("energy %d outside bound [%d, %d]", e, lo, hi)
		}
	}
}

func TestDensity(t *testing.T) {
	p := New(4)
	if p.Density() != 0 {
		t.Errorf("empty density = %v", p.Density())
	}
	p.SetWeight(0, 1, 1)
	// Upper triangle incl. diagonal has 10 slots; one non-zero.
	if got := p.Density(); got != 0.1 {
		t.Errorf("density = %v, want 0.1", got)
	}
}

func TestCloneIndependence(t *testing.T) {
	p := paperExample()
	q := p.Clone()
	q.SetWeight(0, 0, 99)
	if p.Weight(0, 0) == 99 {
		t.Error("clone shares storage")
	}
	if q.Name() != p.Name() {
		t.Error("clone lost name")
	}
}

func TestPhi(t *testing.T) {
	if Phi(0) != 1 || Phi(1) != -1 {
		t.Errorf("Phi(0)=%d Phi(1)=%d", Phi(0), Phi(1))
	}
}

func TestTextRoundTrip(t *testing.T) {
	p := randomProblem(13, 3)
	p.SetName("unit-13")
	var sb strings.Builder
	if err := WriteText(&sb, p); err != nil {
		t.Fatal(err)
	}
	q, err := ReadText(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if q.N() != p.N() || q.Name() != "unit-13" {
		t.Fatalf("round trip header: n=%d name=%q", q.N(), q.Name())
	}
	for i := 0; i < p.N(); i++ {
		for j := 0; j < p.N(); j++ {
			if p.Weight(i, j) != q.Weight(i, j) {
				t.Fatalf("weight (%d,%d) = %d, want %d", i, j, q.Weight(i, j), p.Weight(i, j))
			}
		}
	}
}

func TestReadTextErrors(t *testing.T) {
	cases := map[string]string{
		"empty":             "",
		"entry first":       "0 1 5\np qubo 3 1\n",
		"bad header":        "p foo 3 1\n",
		"bad size":          "p qubo 0 0\n",
		"short entry":       "p qubo 3 1\n0 1\n",
		"out of range":      "p qubo 3 1\n0 5 1\n",
		"non-numeric":       "p qubo 3 1\na b c\n",
		"weight too large":  "p qubo 3 1\n0 1 40000\n",
		"duplicate problem": "p qubo 3 0\np qubo 3 0\n",
	}
	for name, in := range cases {
		if _, err := ReadText(strings.NewReader(in)); err == nil {
			t.Errorf("%s: ReadText accepted %q", name, in)
		}
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	p := randomProblem(29, 4)
	p.SetName("bin-29")
	var sb strings.Builder
	if err := WriteBinary(&sb, p); err != nil {
		t.Fatal(err)
	}
	q, err := ReadBinary(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if q.N() != p.N() || q.Name() != p.Name() {
		t.Fatalf("round trip header: n=%d name=%q", q.N(), q.Name())
	}
	for i := 0; i < p.N(); i++ {
		for j := 0; j < p.N(); j++ {
			if p.Weight(i, j) != q.Weight(i, j) {
				t.Fatalf("weight (%d,%d) mismatch", i, j)
			}
		}
	}
}

func TestReadBinaryErrors(t *testing.T) {
	if _, err := ReadBinary(strings.NewReader("nope")); err == nil {
		t.Error("bad magic accepted")
	}
	if _, err := ReadBinary(strings.NewReader("QBW1\x00\x00")); err == nil {
		t.Error("truncated header accepted")
	}
}

func BenchmarkEnergy1k(b *testing.B) {
	p := randomProblem(1024, 1)
	x := bitvec.Random(1024, rng.New(2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = p.Energy(x)
	}
}

func BenchmarkDeltaAll1k(b *testing.B) {
	p := randomProblem(1024, 1)
	x := bitvec.Random(1024, rng.New(2))
	dst := make([]int32, 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.DeltaAll(x, dst)
	}
}

func TestReadTextQbsolvHeader(t *testing.T) {
	// qbsolv dialect: "p qubo <topology> <maxNodes> <nNodes> <nCouplers>";
	// entries are "i i w" diagonals and "i j w" couplers.
	in := `c a qbsolv-style file
p qubo 0 8 3 2
0 0 -3
3 3 -5
7 7 2
0 3 4
3 7 -1
`
	p, err := ReadText(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if p.N() != 8 {
		t.Fatalf("n = %d, want maxNodes 8", p.N())
	}
	if p.Weight(0, 0) != -3 || p.Weight(3, 3) != -5 || p.Weight(7, 7) != 2 {
		t.Error("diagonals wrong")
	}
	if p.Weight(0, 3) != 4 || p.Weight(3, 0) != 4 || p.Weight(3, 7) != -1 {
		t.Error("couplers wrong")
	}
}
