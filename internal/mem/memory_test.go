package mem

import "testing"

// TestWordAccessAllocs pins the golden interpreter's and SetupMem's word
// path: once a page exists, a Read or Write of up to eight bytes allocates
// nothing.
func TestWordAccessAllocs(t *testing.T) {
	m := New()
	m.Write(0x1000, 8, 0) // the page
	for _, w := range []int{1, 2, 4, 8} {
		if a := testing.AllocsPerRun(100, func() {
			m.Write(0x1008, w, 0x8182838485868788)
			m.Read(0x1008, w, true)
		}); a != 0 {
			t.Errorf("%d-byte Write+Read: %.1f allocs, want 0", w, a)
		}
	}
}
