package graph

import (
	"math"
	"testing"
	"testing/quick"
)

// checkInvariants verifies the structural properties every generator must
// guarantee: simple, symmetric, sorted adjacency.
func checkInvariants(t *testing.T, g *Graph) {
	t.Helper()
	degSum := 0
	for u := 0; u < g.N(); u++ {
		ns := g.NeighborsInto(u, nil)
		degSum += len(ns)
		prev := -1
		for _, v := range ns {
			if v == u {
				t.Fatalf("%s: self-loop at %d", g.Name(), u)
			}
			if v <= prev {
				t.Fatalf("%s: unsorted/duplicate neighbours at %d", g.Name(), u)
			}
			prev = v
			if !g.HasEdge(v, u) {
				t.Fatalf("%s: asymmetric edge (%d,%d)", g.Name(), u, v)
			}
		}
	}
	if degSum != 2*g.NumEdges() {
		t.Fatalf("%s: handshake violated: degSum=%d edges=%d", g.Name(), degSum, g.NumEdges())
	}
}

func TestRing(t *testing.T) {
	g := Ring(10)
	checkInvariants(t, g)
	if d, ok := g.Regular(); !ok || d != 2 {
		t.Fatalf("ring not 2-regular: %d %v", d, ok)
	}
	if !g.Connected() {
		t.Fatal("ring disconnected")
	}
	if ecc := g.Eccentricity(0); ecc != 5 {
		t.Fatalf("ring(10) eccentricity = %d, want 5", ecc)
	}
}

func TestRingTriangle(t *testing.T) {
	g := Ring(3)
	checkInvariants(t, g)
	if g.NumEdges() != 3 {
		t.Fatalf("ring(3) edges = %d", g.NumEdges())
	}
}

func TestStar(t *testing.T) {
	g := Star(9)
	checkInvariants(t, g)
	if g.Degree(0) != 8 || g.Degree(1) != 1 {
		t.Fatalf("star degrees wrong: %d, %d", g.Degree(0), g.Degree(1))
	}
	if !g.Connected() {
		t.Fatal("star disconnected")
	}
	// Harmonic degree sum: 1/9 + 8 * 1/2.
	want := 1.0/9 + 4
	if got := g.HarmonicDegreeSum(); math.Abs(got-want) > 1e-12 {
		t.Fatalf("HarmonicDegreeSum = %v, want %v", got, want)
	}
}

func TestTorus(t *testing.T) {
	g := Torus(5, 8)
	checkInvariants(t, g)
	if d, ok := g.Regular(); !ok || d != 4 {
		t.Fatalf("torus not 4-regular: %d %v", d, ok)
	}
	if !g.Connected() {
		t.Fatal("torus disconnected")
	}
	if g.N() != 40 {
		t.Fatalf("torus N = %d", g.N())
	}
}

func TestHypercube(t *testing.T) {
	g := Hypercube(5)
	checkInvariants(t, g)
	if d, ok := g.Regular(); !ok || d != 5 {
		t.Fatal("hypercube(5) not 5-regular")
	}
	if g.Eccentricity(0) != 5 {
		t.Fatalf("hypercube(5) eccentricity = %d", g.Eccentricity(0))
	}
}

func TestRandomRegular(t *testing.T) {
	for _, tc := range []struct{ n, d int }{
		{50, 3}, {100, 4}, {64, 8}, {200, 16}, {33, 2},
	} {
		g, err := RandomRegular(tc.n, tc.d, 42)
		if err != nil {
			t.Fatalf("RandomRegular(%d,%d): %v", tc.n, tc.d, err)
		}
		checkInvariants(t, g)
		if d, ok := g.Regular(); !ok || d != tc.d {
			t.Fatalf("RandomRegular(%d,%d) degree %d regular=%v", tc.n, tc.d, d, ok)
		}
	}
}

func TestRandomRegularValidation(t *testing.T) {
	if _, err := RandomRegular(5, 3, 1); err == nil {
		t.Fatal("odd n*d accepted")
	}
	if _, err := RandomRegular(4, 4, 1); err == nil {
		t.Fatal("d >= n accepted")
	}
	if _, err := RandomRegular(4, 0, 1); err == nil {
		t.Fatal("d = 0 accepted")
	}
}

func TestRandomRegularDeterministic(t *testing.T) {
	a, err1 := RandomRegular(80, 6, 7)
	b, err2 := RandomRegular(80, 6, 7)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	for u := 0; u < 80; u++ {
		na, nb := a.NeighborsInto(u, nil), b.NeighborsInto(u, nil)
		if len(na) != len(nb) {
			t.Fatalf("degree differs at %d", u)
		}
		for i := range na {
			if na[i] != nb[i] {
				t.Fatalf("adjacency differs at %d", u)
			}
		}
	}
}

func TestMustRandomRegularConnected(t *testing.T) {
	g := MustRandomRegular(300, 3, 99)
	checkInvariants(t, g)
	if !g.Connected() {
		t.Fatal("MustRandomRegular returned disconnected graph")
	}
}

func TestErdosRenyi(t *testing.T) {
	n, p := 500, 0.02
	g := ErdosRenyi(n, p, 11)
	checkInvariants(t, g)
	want := p * float64(n) * float64(n-1) / 2
	got := float64(g.NumEdges())
	if math.Abs(got-want) > 6*math.Sqrt(want) {
		t.Fatalf("G(n,p) edges = %v, want ~%v", got, want)
	}
}

func TestErdosRenyiEdgeCases(t *testing.T) {
	g0 := ErdosRenyi(10, 0, 1)
	if g0.NumEdges() != 0 {
		t.Fatal("G(n,0) has edges")
	}
	g1 := ErdosRenyi(10, 1, 1)
	if g1.NumEdges() != 45 {
		t.Fatalf("G(10,1) edges = %d, want 45", g1.NumEdges())
	}
	checkInvariants(t, g1)
}

func TestErdosRenyiDeterministic(t *testing.T) {
	a := ErdosRenyi(200, 0.05, 5)
	b := ErdosRenyi(200, 0.05, 5)
	if a.NumEdges() != b.NumEdges() {
		t.Fatal("G(n,p) not deterministic for fixed seed")
	}
}

func TestFromAdjacency(t *testing.T) {
	g, err := FromAdjacency("custom", [][]int{{2, 1}, {0}, {0}})
	if err != nil {
		t.Fatal(err)
	}
	checkInvariants(t, g)
	if g.NumEdges() != 2 {
		t.Fatalf("edges = %d", g.NumEdges())
	}
}

func TestFromAdjacencyRejectsBadInput(t *testing.T) {
	cases := [][][]int{
		{{1}, {}},        // asymmetric
		{{0}},            // self-loop
		{{1, 1}, {0, 0}}, // duplicates
		{{5}, {}},        // out of range
	}
	for i, adj := range cases {
		if _, err := FromAdjacency("bad", adj); err == nil {
			t.Fatalf("case %d accepted", i)
		}
	}
}

func TestBFSDistances(t *testing.T) {
	g := Ring(6)
	d := g.BFS(0)
	want := []int{0, 1, 2, 3, 2, 1}
	for i := range want {
		if d[i] != want[i] {
			t.Fatalf("BFS dist[%d] = %d, want %d", i, d[i], want[i])
		}
	}
}

func TestBFSDisconnected(t *testing.T) {
	g, err := FromAdjacency("two-islands", [][]int{{1}, {0}, {3}, {2}})
	if err != nil {
		t.Fatal(err)
	}
	if g.Connected() {
		t.Fatal("disconnected graph reported connected")
	}
	d := g.BFS(0)
	if d[2] != -1 || d[3] != -1 {
		t.Fatalf("unreachable distances: %v", d)
	}
}

func TestHarmonicDegreeSumRegular(t *testing.T) {
	// On a d-regular graph the sum is n/(d+1).
	g := Torus(6, 6)
	want := 36.0 / 5
	if got := g.HarmonicDegreeSum(); math.Abs(got-want) > 1e-12 {
		t.Fatalf("HarmonicDegreeSum = %v, want %v", got, want)
	}
}

// Property: all generated regular graphs satisfy invariants across seeds.
func TestRandomRegularProperty(t *testing.T) {
	f := func(seed uint16) bool {
		g, err := RandomRegular(60, 4, uint64(seed))
		if err != nil {
			return true // acceptable rare failure; other seeds cover it
		}
		if d, ok := g.Regular(); !ok || d != 4 {
			return false
		}
		for u := 0; u < g.N(); u++ {
			for _, v := range g.NeighborsInto(u, nil) {
				if v == u || !g.HasEdge(v, u) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkRandomRegular(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := RandomRegular(1024, 8, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkErdosRenyi(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ErdosRenyi(4096, 0.002, uint64(i))
	}
}

func TestBarabasiAlbert(t *testing.T) {
	g := BarabasiAlbert(1000, 3, 9)
	checkInvariants(t, g)
	if !g.Connected() {
		t.Fatal("BA graph disconnected")
	}
	// Edge count: clique on m+1 = 4 vertices plus m per later vertex.
	wantEdges := (3*4)/2 + (1000-4)*3
	if g.NumEdges() != wantEdges {
		t.Fatalf("edges = %d, want %d", g.NumEdges(), wantEdges)
	}
	if g.MinDegree() < 3 {
		t.Fatalf("min degree %d < m", g.MinDegree())
	}
	// Heavy tail: the hubs collect far more than the minimum degree.
	if g.MaxDegree() < 20 {
		t.Fatalf("max degree %d suspiciously small for BA", g.MaxDegree())
	}
}

func TestBarabasiAlbertDeterministic(t *testing.T) {
	a := BarabasiAlbert(300, 2, 5)
	b := BarabasiAlbert(300, 2, 5)
	if a.NumEdges() != b.NumEdges() || a.MaxDegree() != b.MaxDegree() {
		t.Fatal("BA not deterministic")
	}
}

func TestBarabasiAlbertValidation(t *testing.T) {
	for _, fn := range []func(){
		func() { BarabasiAlbert(3, 3, 1) },
		func() { BarabasiAlbert(10, 0, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("invalid BA parameters accepted")
				}
			}()
			fn()
		}()
	}
}

func TestSmallWorld(t *testing.T) {
	g := SmallWorld(200, 2, 0.25, 7)
	if g.N() != 200 {
		t.Fatalf("N = %d", g.N())
	}
	if g.MinDegree() < 4 {
		t.Fatalf("lattice degree broken: min degree %d < 2k", g.MinDegree())
	}
	if !g.Connected() {
		t.Fatal("Newman–Watts graph must stay connected")
	}
	// Shortcuts exist (beta=0.25 over 200 vertices makes ~50 whp) and
	// shrink the diameter well below the lattice's n/(2k).
	lattice := SmallWorld(200, 2, 0, 7)
	if g.NumEdges() <= lattice.NumEdges() {
		t.Fatalf("no shortcuts added: %d <= %d edges", g.NumEdges(), lattice.NumEdges())
	}
	if e, el := g.Eccentricity(0), lattice.Eccentricity(0); e >= el {
		t.Fatalf("shortcuts did not shrink eccentricity: %d >= %d", e, el)
	}
}

func TestSmallWorldDeterministic(t *testing.T) {
	a := SmallWorld(128, 3, 0.3, 11)
	b := SmallWorld(128, 3, 0.3, 11)
	if a.NumEdges() != b.NumEdges() {
		t.Fatal("SmallWorld not deterministic")
	}
	for u := 0; u < 128; u++ {
		na, nb := a.NeighborsInto(u, nil), b.NeighborsInto(u, nil)
		if len(na) != len(nb) {
			t.Fatalf("vertex %d degree differs", u)
		}
		for i := range na {
			if na[i] != nb[i] {
				t.Fatalf("vertex %d neighbours differ", u)
			}
		}
	}
}

func TestSmallWorldValidation(t *testing.T) {
	for _, f := range []func(){
		func() { SmallWorld(5, 2, 0.1, 1) },  // n < 2k+2
		func() { SmallWorld(10, 0, 0.1, 1) }, // k < 1
		func() { SmallWorld(10, 2, 1.5, 1) }, // beta out of range
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("invalid SmallWorld accepted")
				}
			}()
			f()
		}()
	}
}
