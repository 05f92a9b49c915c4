// Package forest provides the disjoint-tree data structure produced by
// Phase I of DRR-gossip (the "ranking forest" F) and the structural
// invariants the paper's analysis relies on: acyclicity, tree sizes
// (Theorem 3), tree count (Theorem 2), and heights (Theorem 11).
//
// A forest is represented by a parent vector over nodes 0..n-1; crashed or
// otherwise absent nodes are marked NotMember and belong to no tree.
package forest

import (
	"errors"
	"fmt"
)

const (
	// Root marks a node with no parent (a tree root).
	Root = -1
	// NotMember marks a node outside the forest (e.g. crashed initially).
	NotMember = -2
)

// Forest is a rooted forest, read-only between builds: FromParents
// builds a new one, and Rebuild rebuilds one in place on its own
// storage, so a caller that builds a forest per run allocates only while
// the forest grows.
//
// The trees are numbered densely by root slot: slot k is the tree rooted
// at Roots()[k], so slots follow ascending root id. Phases II–III keep
// every per-root value in a slice indexed by slot.
type Forest struct {
	parent []int
	// Children in CSR form: node i's children, ascending, are
	// kids[kidStart[i]:kidStart[i+1]] (kidStart has n+1 entries).
	kidStart []int
	kids     []int
	slot     []int // per-node root slot (-1 for non-members)
	depth    []int // per-node depth from its root (0 at roots)
	roots    []int // sorted root list: roots[k] is slot k's root
	sizes    []int // per-slot tree size
	members  int
	height   int   // largest depth
	walk     []int // Rebuild's path scratch
}

// FromParents validates a parent vector (entries: a parent id, Root, or
// NotMember) and builds the forest. It fails on cycles, on parents
// pointing to non-members, and on out-of-range entries.
func FromParents(parent []int) (*Forest, error) {
	f := new(Forest)
	if err := f.Rebuild(parent); err != nil {
		return nil, err
	}
	return f, nil
}

// Rebuild validates parent like FromParents and rebuilds f from it in
// place, reusing f's storage: every slice the caller holds from f's
// accessors (Roots, Children, TreeSizes) is overwritten. On error f
// holds no valid forest until a later Rebuild succeeds.
func (f *Forest) Rebuild(parent []int) error {
	n := len(parent)
	f.parent = append(f.parent[:0], parent...)
	f.kidStart = zeroed(f.kidStart, n+1)
	f.slot = zeroed(f.slot, n)
	f.depth = zeroed(f.depth, n)
	f.roots = f.roots[:0]
	f.members = 0
	f.height = 0
	// Roots and non-members resolve at once; every other member is
	// resolved below by walking up to a resolved ancestor.
	const unresolved = -2
	for i, p := range parent {
		switch {
		case p == Root:
			f.slot[i] = len(f.roots)
			f.roots = append(f.roots, i)
			f.members++
		case p == NotMember:
			f.slot[i] = -1
		case p < 0 || p >= n:
			return fmt.Errorf("forest: node %d has out-of-range parent %d", i, p)
		case p == i:
			return fmt.Errorf("forest: node %d is its own parent", i)
		case parent[p] == NotMember:
			return fmt.Errorf("forest: node %d has non-member parent %d", i, p)
		default:
			f.slot[i] = unresolved
			f.kidStart[p]++
			f.members++
		}
	}
	// Counting pass: the inclusive prefix sum turns kidStart[p] into the
	// end of p's child range; filing children in descending id then walks
	// each end back to its start and leaves every range sorted ascending.
	for i := 1; i <= n; i++ {
		f.kidStart[i] += f.kidStart[i-1]
	}
	f.kids = zeroed(f.kids, f.kidStart[n])
	for i := n - 1; i >= 0; i-- {
		if p := parent[i]; p >= 0 {
			f.kidStart[p]--
			f.kids[f.kidStart[p]] = i
		}
	}
	// Every parent is a member, so each walk ends at a resolved node
	// unless it loops; mark the path's slots and depths on the way back.
	f.sizes = zeroed(f.sizes, len(f.roots))
	stack := f.walk[:0]
	for i := 0; i < n; i++ {
		for cur := i; f.slot[cur] == unresolved; cur = parent[cur] {
			stack = append(stack, cur)
			if len(stack) > n {
				f.walk = stack[:0]
				return errors.New("forest: cycle detected")
			}
		}
		for k := len(stack) - 1; k >= 0; k-- {
			v := stack[k]
			f.slot[v] = f.slot[parent[v]]
			f.depth[v] = f.depth[parent[v]] + 1
			f.height = max(f.height, f.depth[v])
		}
		stack = stack[:0]
		if k := f.slot[i]; k >= 0 {
			f.sizes[k]++
		}
	}
	f.walk = stack
	return nil
}

// zeroed returns s resized to n entries, all 0, on s's own storage when
// it is large enough.
func zeroed(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// N returns the number of node slots (members and non-members).
func (f *Forest) N() int { return len(f.parent) }

// NumMembers returns the number of forest members.
func (f *Forest) NumMembers() int { return f.members }

// Member reports whether node i belongs to the forest.
func (f *Forest) Member(i int) bool { return f.parent[i] != NotMember }

// Parent returns node i's parent, Root for roots, NotMember for
// non-members.
func (f *Forest) Parent(i int) int { return f.parent[i] }

// Children returns node i's children (sorted ascending by construction).
// The caller must not modify the returned slice.
func (f *Forest) Children(i int) []int {
	lo, hi := f.kidStart[i], f.kidStart[i+1]
	return f.kids[lo:hi:hi]
}

// IsRoot reports whether node i is a tree root.
func (f *Forest) IsRoot(i int) bool { return f.parent[i] == Root }

// Roots returns the sorted list of tree roots: Roots()[k] is the root of
// slot k. The caller must not modify it.
func (f *Forest) Roots() []int { return f.roots }

// NumTrees returns the number of trees, and so of root slots.
func (f *Forest) NumTrees() int { return len(f.roots) }

// Slot returns the root slot of node i's tree, the k with Roots()[k] ==
// RootOf(i), or -1 for non-members.
func (f *Forest) Slot(i int) int { return f.slot[i] }

// RootOf returns the root of node i's tree (NotMember for non-members).
func (f *Forest) RootOf(i int) int {
	if k := f.slot[i]; k >= 0 {
		return f.roots[k]
	}
	return NotMember
}

// Depth returns node i's distance from its root (0 for roots and
// non-members).
func (f *Forest) Depth(i int) int { return f.depth[i] }

// TreeSize returns the number of nodes in the tree rooted at root (0 when
// root is not a root).
func (f *Forest) TreeSize(root int) int {
	if !f.IsRoot(root) {
		return 0
	}
	return f.sizes[f.slot[root]]
}

// TreeSizes returns the tree sizes by root slot. The caller must not
// modify it.
func (f *Forest) TreeSizes() []int { return f.sizes }

// MaxTreeSize returns the largest tree size (0 for an empty forest).
func (f *Forest) MaxTreeSize() int {
	m := 0
	for _, s := range f.sizes {
		m = max(m, s)
	}
	return m
}

// LargestRoot returns the root of the largest tree, breaking ties by the
// smaller root id. It panics on an empty forest.
func (f *Forest) LargestRoot() int {
	if len(f.roots) == 0 {
		panic("forest: LargestRoot of empty forest")
	}
	best := 0
	for k, s := range f.sizes {
		if s > f.sizes[best] {
			best = k
		}
	}
	return f.roots[best]
}

// MaxHeight returns the maximum tree height in the forest.
func (f *Forest) MaxHeight() int { return f.height }

// RepairParents heals a parent vector after mid-run membership changes:
// dead nodes (per the alive predicate) become NotMember, and every live
// node whose parent is no longer a member — it died, or it was dead
// during the parent-decision step and has since rejoined with
// parent[p] == NotMember — is promoted to a root of its own (orphaned)
// subtree. It returns the number of promotions. The repaired vector is
// always a valid forest for FromParents: edges only ever point to
// member nodes. (The rejoin case is why aliveness alone is not enough:
// a node that crashed during Phase I and revived before the repair is
// alive but never joined the forest, and the chaos fuzzer found child
// edges into exactly such nodes; see internal/chaos
// testdata/regressions.txt.)
func RepairParents(parent []int, alive func(int) bool) int {
	promoted := 0
	for i, p := range parent {
		if p == NotMember {
			continue
		}
		if !alive(i) {
			parent[i] = NotMember
			continue
		}
		if p >= 0 && (!alive(p) || parent[p] == NotMember) {
			parent[i] = Root
			promoted++
		}
	}
	return promoted
}

// Validate re-checks all structural invariants; it is used by property
// tests on protocol-constructed forests.
func (f *Forest) Validate() error {
	seen := 0
	for k, r := range f.roots {
		if !f.IsRoot(r) || f.slot[r] != k {
			return fmt.Errorf("forest: listed root %d is not the root of slot %d", r, k)
		}
	}
	sizes := make([]int, len(f.roots))
	for i := 0; i < f.N(); i++ {
		if !f.Member(i) {
			continue
		}
		seen++
		k := f.slot[i]
		if k < 0 || k >= len(f.roots) {
			return fmt.Errorf("forest: node %d has invalid root slot %d", i, k)
		}
		sizes[k]++
		if p := f.parent[i]; p >= 0 {
			if f.depth[i] != f.depth[p]+1 {
				return fmt.Errorf("forest: depth mismatch at %d", i)
			}
			if f.slot[p] != k {
				return fmt.Errorf("forest: root mismatch along edge (%d,%d)", i, p)
			}
		}
	}
	for k, s := range sizes {
		if s != f.sizes[k] {
			return fmt.Errorf("forest: slot %d holds %d members, size says %d", k, s, f.sizes[k])
		}
	}
	if seen != f.members {
		return fmt.Errorf("forest: member count mismatch %d vs %d", seen, f.members)
	}
	return nil
}
