package forest

import "testing"

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
		parents := make([]int, len(data))
		for i, b := range data {
			switch b {
			case 0xFF:
				parents[i] = Root
			case 0xFE:
				parents[i] = NotMember
			default:
				parents[i] = int(b) // may be out of range: must be rejected
			}
		}
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
