package obs

import "testing"

// TestAppendWindow: after 3×window appends the slice holds the newest
// window values in order, its backing array never exceeded window+1
// entries, and the slot past the window is cleared.
func TestAppendWindow(t *testing.T) {
	for _, window := range []int{1, 5, 8, 512} {
		var s []*int
		for i := 0; i < 3*window; i++ {
			v := i
			s = AppendWindow(s, &v, window)
			if cap(s) > window+1 {
				t.Fatalf("window %d, append %d: cap %d > %d", window, i, cap(s), window+1)
			}
		}
		if len(s) != window {
			t.Fatalf("window %d: len %d", window, len(s))
		}
		for i, p := range s {
			if want := 2*window + i; *p != want {
				t.Fatalf("window %d: s[%d] = %d, want %d", window, i, *p, want)
			}
		}
		for i, p := range s[len(s):cap(s)] {
			if p != nil {
				t.Fatalf("window %d: vacated slot %d still holds %d", window, len(s)+i, *p)
			}
		}
	}
}
