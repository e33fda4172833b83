package main

import "testing"

// The per-caller split drives exactly n calls, also when n is not a
// multiple of conc or is smaller than it.
func TestCallsForDrivesExactlyN(t *testing.T) {
	for _, c := range []struct{ n, conc int }{{1, 8}, {10, 3}, {20000, 8}, {0, 4}} {
		total := 0
		for w := 0; w < c.conc; w++ {
			total += callsFor(w, c.n, c.conc)
		}
		if total != c.n {
			t.Errorf("n=%d conc=%d: callers drive %d calls", c.n, c.conc, total)
		}
	}
}
