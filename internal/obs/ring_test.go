package obs

import "testing"

// TestRingWrapDrainPeek drives the one ring type behind events, sampled
// traces and flight entries: the drop count on wraparound, oldest-first
// order, a non-destructive peek, a destructive drain, and a refill after
// the drain that counts no drops.
func TestRingWrapDrainPeek(t *testing.T) {
	for _, tc := range []struct {
		name         string
		size, pushes int
	}{
		{"under capacity", 8, 5},
		{"exactly full", 8, 8},
		{"wrapped", 8, 20},
		{"wrapped twice", 4, 10},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := ring[int]{buf: make([]int, tc.size)}
			drops := 0
			for i := 0; i < tc.pushes; i++ {
				if r.push(i) {
					drops++
				}
			}
			kept := min(tc.size, tc.pushes)
			if want := tc.pushes - kept; drops != want {
				t.Fatalf("push reported %d drops, want %d", drops, want)
			}
			want := func(got []int) {
				t.Helper()
				if len(got) != kept {
					t.Fatalf("read %d records, want %d: %v", len(got), kept, got)
				}
				for i, v := range got {
					if v != tc.pushes-kept+i {
						t.Fatalf("record %d = %d, want the newest %d oldest first: %v", i, v, kept, got)
					}
				}
			}
			want(r.peek(nil))
			want(r.peek(nil)) // peek leaves the records in place
			want(r.drain(nil))
			if again := r.drain(nil); len(again) != 0 {
				t.Fatalf("second drain returned %v, want nothing", again)
			}
			for i := 0; i < tc.size; i++ {
				if r.push(i) {
					t.Fatalf("push %d into a drained ring reported a drop", i)
				}
			}
		})
	}
}
