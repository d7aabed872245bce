package faultplane

import "testing"

func TestScriptDecidesOnlyArmedFrames(t *testing.T) {
	var s Script
	if d := s.Decide(1, 64); d != (Decision{}) {
		t.Fatalf("zero Script injected %+v", d)
	}
	s.Drop(2)
	s.Corrupt(3)
	s.Corrupt(2) // composes with the drop already armed on frame 2
	s.Set(4, Decision{Duplicate: true, Reorder: true})
	want := map[int]Decision{
		1: {},
		2: {Drop: true, Corrupt: true},
		3: {Corrupt: true},
		4: {Duplicate: true, Reorder: true},
		5: {},
	}
	for seq, w := range want {
		if got := s.Decide(seq, 64); got != w {
			t.Errorf("frame %d: %+v, want %+v", seq, got, w)
		}
	}
	// A decision is a property of the frame number, not a one-shot.
	if got := s.Decide(3, 64); got != want[3] {
		t.Errorf("frame 3 re-decided as %+v", got)
	}
}
