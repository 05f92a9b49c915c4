package forest

import (
	"testing"
	"testing/quick"

	"drrgossip/internal/xrand"
)

// sample forest:
//
//	0 (root) -> children 1, 2; 1 -> child 3
//	4 (root) singleton
//	5 not a member
func sample(t *testing.T) *Forest {
	t.Helper()
	f, err := FromParents([]int{Root, 0, 0, 1, Root, NotMember})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestBasicStructure(t *testing.T) {
	f := sample(t)
	if f.N() != 6 || f.NumMembers() != 5 || f.NumTrees() != 2 {
		t.Fatalf("N=%d members=%d trees=%d", f.N(), f.NumMembers(), f.NumTrees())
	}
	if !f.IsRoot(0) || !f.IsRoot(4) || f.IsRoot(1) {
		t.Fatal("root flags wrong")
	}
	if f.Member(5) {
		t.Fatal("node 5 should not be a member")
	}
	if len(f.Children(3)) != 0 || len(f.Children(2)) != 0 || len(f.Children(1)) == 0 || len(f.Children(5)) != 0 {
		t.Fatal("leaf flags wrong")
	}
	if got := f.Children(0); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("Children(0) = %v", got)
	}
}

func TestRootOfAndDepth(t *testing.T) {
	f := sample(t)
	wantRoot := []int{0, 0, 0, 0, 4, NotMember}
	wantDepth := []int{0, 1, 1, 2, 0, 0}
	for i := 0; i < 6; i++ {
		if f.RootOf(i) != wantRoot[i] {
			t.Fatalf("RootOf(%d) = %d, want %d", i, f.RootOf(i), wantRoot[i])
		}
		if f.Depth(i) != wantDepth[i] {
			t.Fatalf("Depth(%d) = %d, want %d", i, f.Depth(i), wantDepth[i])
		}
	}
}

func TestSizesHeightsLargest(t *testing.T) {
	f := sample(t)
	if sizes := f.TreeSizes(); len(sizes) != 2 || sizes[0] != 4 || sizes[1] != 1 {
		t.Fatalf("TreeSizes = %v", sizes)
	}
	if f.TreeSize(0) != 4 || f.TreeSize(4) != 1 {
		t.Fatal("TreeSize wrong")
	}
	if f.MaxTreeSize() != 4 {
		t.Fatalf("MaxTreeSize = %d", f.MaxTreeSize())
	}
	if f.LargestRoot() != 0 {
		t.Fatalf("LargestRoot = %d", f.LargestRoot())
	}
	if f.MaxHeight() != 2 {
		t.Fatalf("MaxHeight = %d", f.MaxHeight())
	}
}

func TestValidate(t *testing.T) {
	if err := sample(t).Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRejectsCycles(t *testing.T) {
	cases := [][]int{
		{1, 0},          // 2-cycle
		{1, 2, 0},       // 3-cycle
		{Root, 2, 3, 1}, // cycle off a root component
		{0},             // self-parent
	}
	for i, parents := range cases {
		if _, err := FromParents(parents); err == nil {
			t.Fatalf("case %d: cycle accepted", i)
		}
	}
}

func TestRejectsBadParents(t *testing.T) {
	if _, err := FromParents([]int{Root, 7}); err == nil {
		t.Fatal("out-of-range parent accepted")
	}
	if _, err := FromParents([]int{NotMember, 0}); err == nil {
		t.Fatal("parent pointing at non-member accepted")
	}
}

func TestEmptyAndSingleton(t *testing.T) {
	f, err := FromParents([]int{})
	if err != nil {
		t.Fatal(err)
	}
	if f.NumTrees() != 0 || f.MaxHeight() != 0 || f.MaxTreeSize() != 0 {
		t.Fatal("empty forest stats wrong")
	}
	f2, err := FromParents([]int{Root})
	if err != nil {
		t.Fatal(err)
	}
	if f2.NumTrees() != 1 || f2.TreeSize(0) != 1 || f2.MaxHeight() != 0 {
		t.Fatal("singleton stats wrong")
	}
}

func TestLargestRootTieBreaksLow(t *testing.T) {
	// Two singleton trees: roots 0 and 1; tie must pick 0.
	f, err := FromParents([]int{Root, Root})
	if err != nil {
		t.Fatal(err)
	}
	if f.LargestRoot() != 0 {
		t.Fatalf("LargestRoot tie = %d, want 0", f.LargestRoot())
	}
}

func TestLargestRootTieBreaksLowAcrossSlots(t *testing.T) {
	// Roots 0, 1, 4 with sizes 1, 3, 3: the tie between slots 1 and 2
	// goes to the lower root id, 1.
	f, err := FromParents([]int{Root, Root, 1, 1, Root, 4, 4})
	if err != nil {
		t.Fatal(err)
	}
	if got := f.LargestRoot(); got != 1 {
		t.Fatalf("LargestRoot = %d, want 1", got)
	}
	if f.MaxTreeSize() != 3 {
		t.Fatalf("MaxTreeSize = %d, want 3", f.MaxTreeSize())
	}
}

// checkSlots verifies the dense root index: slot k is Roots()[k], every
// member maps to its root's slot, non-members to -1, and TreeSizes()[k]
// counts slot k's members.
func checkSlots(t *testing.T, f *Forest) {
	t.Helper()
	roots := f.Roots()
	if len(f.TreeSizes()) != len(roots) || f.NumTrees() != len(roots) {
		t.Fatalf("%d sizes, %d trees for %d roots", len(f.TreeSizes()), f.NumTrees(), len(roots))
	}
	for k, r := range roots {
		if f.Slot(r) != k {
			t.Fatalf("Slot(Roots()[%d] = %d) = %d", k, r, f.Slot(r))
		}
		if k > 0 && roots[k-1] >= r {
			t.Fatalf("roots not ascending: %v", roots)
		}
	}
	count := make([]int, len(roots))
	for i := 0; i < f.N(); i++ {
		k := f.Slot(i)
		if !f.Member(i) {
			if k != -1 {
				t.Fatalf("non-member %d has slot %d", i, k)
			}
			continue
		}
		if roots[k] != f.RootOf(i) {
			t.Fatalf("node %d: slot %d holds root %d, RootOf = %d", i, k, roots[k], f.RootOf(i))
		}
		count[k]++
	}
	for k, c := range count {
		if f.TreeSizes()[k] != c || f.TreeSize(roots[k]) != c {
			t.Fatalf("slot %d: TreeSizes %d, TreeSize %d, members %d", k, f.TreeSizes()[k], f.TreeSize(roots[k]), c)
		}
	}
}

func TestRootSlots(t *testing.T) {
	f := sample(t)
	checkSlots(t, f)
	wantSlot := []int{0, 0, 0, 0, 1, -1}
	for i, want := range wantSlot {
		if f.Slot(i) != want {
			t.Fatalf("Slot(%d) = %d, want %d", i, f.Slot(i), want)
		}
	}
	if f.TreeSize(1) != 0 || f.TreeSize(5) != 0 {
		t.Fatal("TreeSize of a non-root is not 0")
	}
}

func TestLargestRootEmptyPanics(t *testing.T) {
	f, _ := FromParents([]int{NotMember})
	defer func() {
		if recover() == nil {
			t.Fatal("LargestRoot on empty forest did not panic")
		}
	}()
	f.LargestRoot()
}

// randomParents builds a valid random forest parent vector by connecting
// each node to a lower-indexed node or making it a root; a suffix of nodes
// may be non-members.
func randomParents(n int, seed uint64) []int {
	rng := xrand.Derive(seed, 0xF0E, uint64(n))
	parents := make([]int, n)
	for i := range parents {
		switch {
		case rng.Float64() < 0.1:
			parents[i] = NotMember
		case i == 0 || rng.Float64() < 0.25:
			parents[i] = Root
		default:
			// Pick a lower member parent; fall back to Root.
			parents[i] = Root
			for try := 0; try < 5; try++ {
				p := rng.Intn(i)
				if parents[p] != NotMember {
					parents[i] = p
					break
				}
			}
		}
	}
	return parents
}

// Property: structural invariants hold for arbitrary valid forests.
func TestForestProperties(t *testing.T) {
	f := func(seed uint16, sz uint8) bool {
		n := int(sz%100) + 1
		parents := randomParents(n, uint64(seed))
		fo, err := FromParents(parents)
		if err != nil {
			t.Logf("unexpected build error: %v", err)
			return false
		}
		if fo.Validate() != nil {
			return false
		}
		checkSlots(t, fo)
		// Tree sizes sum to member count.
		total := 0
		for _, s := range fo.TreeSizes() {
			total += s
		}
		if total != fo.NumMembers() {
			return false
		}
		// Every member's root is a root and reachable via parents.
		for i := 0; i < n; i++ {
			if !fo.Member(i) {
				continue
			}
			cur, steps := i, 0
			for fo.Parent(cur) >= 0 {
				cur = fo.Parent(cur)
				steps++
				if steps > n {
					return false
				}
			}
			if cur != fo.RootOf(i) || steps != fo.Depth(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestCSRMatchesSliceReference checks the CSR children against the
// per-node child slices they replace, on random forests whose labels are
// shuffled so parents may sit on either side of their children.
func TestCSRMatchesSliceReference(t *testing.T) {
	for seed := uint64(0); seed < 50; seed++ {
		n := 1 + int(seed*37%300)
		parents := randomParents(n, seed)
		perm := xrand.Derive(seed, 0xC5, uint64(n)).Perm(n)
		shuffled := make([]int, n)
		for i, p := range parents {
			if p >= 0 {
				p = perm[p]
			}
			shuffled[perm[i]] = p
		}
		for _, par := range [][]int{parents, shuffled} {
			f, err := FromParents(par)
			if err != nil {
				t.Fatal(err)
			}
			children := make([][]int, n)
			for i, p := range par {
				if p >= 0 {
					children[p] = append(children[p], i)
				}
			}
			for i := 0; i < n; i++ {
				got := f.Children(i)
				if len(got) != len(children[i]) || cap(got) != len(got) {
					t.Fatalf("seed %d: Children(%d) = %v (cap %d), want %v", seed, i, got, cap(got), children[i])
				}
				for k := range got {
					if got[k] != children[i][k] {
						t.Fatalf("seed %d: Children(%d) = %v, want %v", seed, i, got, children[i])
					}
				}
			}
		}
	}
}

func BenchmarkFromParents(b *testing.B) {
	parents := randomParents(8192, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FromParents(parents); err != nil {
			b.Fatal(err)
		}
	}
}
