package forest

import "testing"

// Tests for the dynamic-membership repair path.

func TestRepairParents(t *testing.T) {
	// Tree: 0 <- 1 <- 2, 0 <- 3; separate root 4; non-member 5.
	parent := []int{Root, 0, 1, 0, Root, NotMember}
	alive := func(i int) bool { return i != 1 }
	promoted := RepairParents(parent, alive)
	if promoted != 1 {
		t.Fatalf("promoted = %d, want 1 (node 2)", promoted)
	}
	want := []int{Root, NotMember, Root, 0, Root, NotMember}
	for i := range want {
		if parent[i] != want[i] {
			t.Fatalf("parent[%d] = %d, want %d", i, parent[i], want[i])
		}
	}
	if _, err := FromParents(parent); err != nil {
		t.Fatalf("repaired vector invalid: %v", err)
	}
}

// repair heals a copy of a valid parent vector the way drr's connection
// step does and builds the repaired forest.
func repair(t *testing.T, parent []int, alive func(int) bool) (*Forest, int) {
	t.Helper()
	parent = append([]int(nil), parent...)
	promoted := RepairParents(parent, alive)
	nf, err := FromParents(parent)
	if err != nil {
		t.Fatalf("repaired vector invalid: %v", err)
	}
	return nf, promoted
}

func TestForestRepair(t *testing.T) {
	parent := []int{Root, 0, 1, 1, Root, 4, NotMember}
	// Nothing dead: zero promotions.
	if _, promoted := repair(t, parent, func(int) bool { return true }); promoted != 0 {
		t.Fatalf("no-op repair promoted %d", promoted)
	}
	// Kill node 1: its children 2 and 3 become roots of their own trees.
	nf, promoted := repair(t, parent, func(i int) bool { return i != 1 })
	if promoted != 2 {
		t.Fatalf("promoted = %d, want 2", promoted)
	}
	if nf.Member(1) {
		t.Fatal("dead node still a member")
	}
	if !nf.IsRoot(2) || !nf.IsRoot(3) {
		t.Fatal("orphaned children not promoted to roots")
	}
	if nf.NumTrees() != 4 { // 0, 2, 3, 4
		t.Fatalf("NumTrees = %d, want 4", nf.NumTrees())
	}
	if nf.RootOf(5) != 4 {
		t.Fatal("untouched tree disturbed")
	}
	if err := nf.Validate(); err != nil {
		t.Fatalf("repaired forest invalid: %v", err)
	}
}

func TestForestRepairChain(t *testing.T) {
	// Chain 0 <- 1 <- 2 <- 3 with both 1 and 2 dead: 3 must root itself.
	nf, promoted := repair(t, []int{Root, 0, 1, 2}, func(i int) bool { return i == 0 || i == 3 })
	if promoted != 1 {
		t.Fatalf("promoted = %d, want 1", promoted)
	}
	if !nf.IsRoot(3) || nf.Member(1) || nf.Member(2) || !nf.IsRoot(0) {
		t.Fatalf("chain repair wrong: parents %v %v %v %v",
			nf.Parent(0), nf.Parent(1), nf.Parent(2), nf.Parent(3))
	}
}
