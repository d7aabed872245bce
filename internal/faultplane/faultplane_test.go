package faultplane

import (
	"math"
	"testing"
)

func TestZeroPolicyInjectsNothing(t *testing.T) {
	pl := New(Policy{Seed: 7})
	for i := 1; i <= 5000; i++ {
		d := pl.Decide(i, 100)
		if d.Drop || d.Corrupt || d.Duplicate || d.Reorder || d.DelayMicros != 0 {
			t.Fatalf("zero policy injected a fault at frame %d: %+v", i, d)
		}
	}
	c := pl.Counts()
	if c.Frames != 5000 || c.Dropped+c.Corrupted+c.Duplicated+c.Reordered+c.Delayed != 0 {
		t.Errorf("counts = %+v", c)
	}
}

func TestDecisionStreamIsSeedDeterministic(t *testing.T) {
	a, b := New(Chaos(42)), New(Chaos(42))
	for i := 1; i <= 10000; i++ {
		if da, db := a.Decide(i, 128), b.Decide(i, 128); da != db {
			t.Fatalf("frame %d: %+v vs %+v", i, da, db)
		}
	}
	if a.Counts() != b.Counts() {
		t.Errorf("counts diverge: %+v vs %+v", a.Counts(), b.Counts())
	}
}

func TestRatesApproachPolicy(t *testing.T) {
	p := Policy{Seed: 1991, Loss: 0.1, Corrupt: 0.05, Duplicate: 0.08, Reorder: 0.06, DelayProb: 0.2, DelayMicrosMax: 40}
	pl := New(p)
	const n = 40000
	for i := 1; i <= n; i++ {
		pl.Decide(i, 256)
	}
	c := pl.Counts()
	check := func(name string, got int, want float64) {
		t.Helper()
		rate := float64(got) / n
		if math.Abs(rate-want) > 0.3*want {
			t.Errorf("%s rate %.4f, want ≈%.4f", name, rate, want)
		}
	}
	check("loss", c.Dropped, p.Loss)
	// Corrupt/duplicate/reorder only apply to delivered frames.
	deliveredShare := 1 - p.Loss
	check("corrupt", c.Corrupted, p.Corrupt*deliveredShare)
	check("duplicate", c.Duplicated, p.Duplicate*deliveredShare)
	check("reorder", c.Reordered, p.Reorder*deliveredShare)
	check("delay", c.Delayed, p.DelayProb)
	if c.DelayMicros <= 0 {
		t.Error("no delay time accumulated")
	}
	meanDelay := c.DelayMicros / float64(c.Delayed)
	if meanDelay < 0.3*p.DelayMicrosMax || meanDelay > 0.7*p.DelayMicrosMax {
		t.Errorf("mean delay %.1f µs, want ≈%.1f (uniform)", meanDelay, p.DelayMicrosMax/2)
	}
}

func TestBurstsElevateLoss(t *testing.T) {
	p := Policy{Seed: 3, BurstProb: 0.01, BurstLen: 5, BurstLoss: 1.0}
	pl := New(p)
	const n = 20000
	for i := 1; i <= n; i++ {
		pl.Decide(i, 64)
	}
	c := pl.Counts()
	if c.Bursts == 0 {
		t.Fatal("no bursts with BurstProb=0.01 over 20k frames")
	}
	// At BurstLoss=1 a burst is a partition: it swallows exactly
	// BurstLen consecutive frames, and the next burst can start only
	// after it ends. Only the last one may be cut short by the end of
	// the run.
	if c.Dropped > c.Bursts*p.BurstLen || c.Dropped <= (c.Bursts-1)*p.BurstLen {
		t.Errorf("dropped %d with %d bursts of %d", c.Dropped, c.Bursts, p.BurstLen)
	}
	if c.Dropped > n/4 {
		t.Errorf("dropped %d of %d — bursts should stay episodic", c.Dropped, n)
	}
}

func TestChaosPresetMeetsDisruptionFloor(t *testing.T) {
	if got := Chaos(1).CombinedDisruption(); got < 0.20 {
		t.Errorf("Chaos combined disruption %.2f, want ≥ 0.20", got)
	}
}

func TestNewRejectsBadPolicy(t *testing.T) {
	for _, p := range []Policy{
		{Loss: -0.1},
		{Corrupt: 1.5},
		{DelayMicrosMax: -1},
		{Seed: 1, DelayProb: 1, DelayMicrosMax: math.Inf(1)},
		{BurstLen: -2},
		{BurstLoss: 2},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%+v) accepted invalid policy", p)
				}
			}()
			New(p)
		}()
	}
}
