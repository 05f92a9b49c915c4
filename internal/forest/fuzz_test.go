package forest

import (
	"slices"
	"testing"
)

// FuzzFromParents checks that arbitrary parent vectors either fail
// validation or produce a forest whose invariants hold — FromParents must
// never accept a malformed structure or panic.
func FuzzFromParents(f *testing.F) {
	f.Add([]byte{0xFF, 0x00, 0x01})       // Root, then children of 0 and 1
	f.Add([]byte{0x01, 0x00})             // 2-cycle
	f.Add([]byte{0xFE, 0xFF, 0x00})       // NotMember, Root, child
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF}) // all roots
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 64 {
			data = data[:64]
		}
		parents := fuzzParents(data)
		fo, err := FromParents(parents)
		if err != nil {
			return // rejected malformed input: fine
		}
		if err := fo.Validate(); err != nil {
			t.Fatalf("accepted forest fails validation: %v (parents %v)", err, parents)
		}
		total := 0
		for _, s := range fo.TreeSizes() {
			total += s
		}
		if total != fo.NumMembers() {
			t.Fatalf("tree sizes inconsistent for %v", parents)
		}
		checkSlots(t, fo)
	})
}

// fuzzParents decodes one fuzzed parent vector: 0xFF is Root, 0xFE is
// NotMember, and any other byte is a parent id, possibly out of range.
func fuzzParents(data []byte) []int {
	parents := make([]int, len(data))
	for i, b := range data {
		switch b {
		case 0xFF:
			parents[i] = Root
		case 0xFE:
			parents[i] = NotMember
		default:
			parents[i] = int(b)
		}
	}
	return parents
}

// FuzzRebuild rebuilds one Forest in place over a sequence of fuzzed
// parent vectors whose node, member and tree counts grow and shrink
// (each vector is a length byte, then that many parent bytes). After
// every rebuild the forest must equal a fresh FromParents result field
// for field and pass Validate, so no stale CSR range, root, size, depth
// or height survives from an earlier, larger or differently shaped
// forest; a rejected vector must be rejected alike.
func FuzzRebuild(f *testing.F) {
	f.Add([]byte{3, 0xFF, 0x00, 0x01, 2, 0xFF, 0xFF, 4, 0xFE, 0xFF, 0x01, 0x01})
	f.Add([]byte{5, 0xFF, 0x00, 0x00, 0x01, 0x03, 2, 0x01, 0x00, 3, 0xFF, 0x00, 0x00})
	f.Add([]byte{1, 0xFE, 6, 0xFF, 0xFF, 0x00, 0x01, 0x02, 0x03, 0, 2, 0xFF, 0x07})
	f.Fuzz(func(t *testing.T, data []byte) {
		var fo Forest
		for len(data) > 0 {
			k := min(int(data[0])%48, len(data)-1)
			parents := fuzzParents(data[1 : 1+k])
			data = data[1+k:]
			want, wantErr := FromParents(parents)
			err := fo.Rebuild(parents)
			if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
				t.Fatalf("Rebuild(%v) error %v, FromParents %v", parents, err, wantErr)
			}
			if err != nil {
				continue
			}
			if err := fo.Validate(); err != nil {
				t.Fatalf("rebuilt forest fails validation: %v (parents %v)", err, parents)
			}
			if !sameForest(&fo, want) {
				t.Fatalf("Rebuild(%v) = %+v, FromParents %+v", parents, fo, *want)
			}
			checkSlots(t, &fo)
		}
	})
}

// sameForest reports whether a and b hold the same forest in every
// field the accessors read.
func sameForest(a, b *Forest) bool {
	return slices.Equal(a.parent, b.parent) && slices.Equal(a.kidStart, b.kidStart) &&
		slices.Equal(a.kids, b.kids) && slices.Equal(a.slot, b.slot) &&
		slices.Equal(a.depth, b.depth) && slices.Equal(a.roots, b.roots) &&
		slices.Equal(a.sizes, b.sizes) && a.members == b.members && a.height == b.height
}
