package faultplane

import (
	"sync"
	"testing"
)

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

func TestScriptConcurrentArmAndDecide(t *testing.T) {
	// Senders on many goroutines decide while a test arms frames mid-run
	// (the link calls Decide under its own lock, but a Script shared by
	// several links is reached from several at once).
	var s Script
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(2)
		go func(g int) {
			defer wg.Done()
			for n := 0; n < 200; n++ {
				s.Drop(g*1000 + n)
			}
		}(g)
		go func(g int) {
			defer wg.Done()
			for n := 0; n < 200; n++ {
				s.Decide(g*1000+n, 64)
			}
		}(g)
	}
	wg.Wait()
	for g := 0; g < 4; g++ {
		if d := s.Decide(g*1000+199, 64); !d.Drop {
			t.Errorf("frame %d lost its armed drop: %+v", g*1000+199, d)
		}
	}
}
