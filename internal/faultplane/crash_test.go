package faultplane

import (
	"math"
	"strings"
	"testing"
)

func TestCrashPlaneIsDeterministic(t *testing.T) {
	// Two same-seed planes drawing the same point sequence must agree on
	// every decision and report equal counts.
	points := []CrashPoint{CrashOnRecv, CrashPreApply, CrashPreReply}
	a := NewCrash(CrashPolicy{Seed: 11, OnRecv: 0.2, PreApply: 0.2, PreReply: 0.2}, nil)
	b := NewCrash(CrashPolicy{Seed: 11, OnRecv: 0.2, PreApply: 0.2, PreReply: 0.2}, nil)
	for i := 0; i < 3000; i++ {
		p := points[i%len(points)]
		if a.CrashNow(p) != b.CrashNow(p) {
			t.Fatalf("decision %d diverged between same-seed planes", i)
		}
	}
	if a.Counts() != b.Counts() {
		t.Errorf("counts diverged: %+v vs %+v", a.Counts(), b.Counts())
	}
	if a.Counts().Crashes == 0 {
		t.Error("no crashes at 20% per window over 3000 draws")
	}
}

func TestCrashPlaneHonoursMaxCrashes(t *testing.T) {
	c := NewCrash(CrashPolicy{Seed: 5, OnRecv: 1, PreApply: 1, PreReply: 1, MaxCrashes: 4}, nil)
	crashes := 0
	for i := 0; i < 100; i++ {
		if c.CrashNow(CrashOnRecv) {
			crashes++
		}
	}
	if crashes != 4 {
		t.Errorf("crashed %d times, want exactly MaxCrashes=4", crashes)
	}
	cc := c.Counts()
	if cc.Crashes != 4 || cc.Points != 100 {
		t.Errorf("counts = %+v, want 4 crashes over 100 points", cc)
	}
}

func TestCrashPlaneDrawDisciplineSurvivesMaxCrashes(t *testing.T) {
	// The PRNG consumes exactly one draw per point even after the bound
	// is hit, so a bounded and an unbounded same-seed plane agree on
	// every decision up to the bound.
	bounded := NewCrash(CrashPolicy{Seed: 3, OnRecv: 0.5, MaxCrashes: 2}, nil)
	free := NewCrash(CrashPolicy{Seed: 3, OnRecv: 0.5}, nil)
	crashes := 0
	for i := 0; i < 200; i++ {
		fb := free.CrashNow(CrashOnRecv)
		bb := bounded.CrashNow(CrashOnRecv)
		if crashes < 2 && fb != bb {
			t.Fatalf("draw %d: bounded plane diverged before reaching its bound", i)
		}
		if bb {
			crashes++
		}
	}
}

func TestCrashPolicyValidate(t *testing.T) {
	nan := math.NaN()
	for name, c := range map[string]struct {
		p    CrashPolicy
		want string
	}{
		"NaN OnRecv":              {CrashPolicy{OnRecv: nan}, "OnRecv"},
		"NaN PreApply":            {CrashPolicy{PreApply: nan}, "PreApply"},
		"NaN PreReply":            {CrashPolicy{PreReply: nan}, "PreReply"},
		"negative OnRecv":         {CrashPolicy{OnRecv: -0.1}, "OnRecv"},
		"OnRecv above one":        {CrashPolicy{OnRecv: 1.5}, "OnRecv"},
		"PreReply above one":      {CrashPolicy{PreReply: 1.5}, "PreReply"},
		"negative MaxCrashes":     {CrashPolicy{MaxCrashes: -1}, "MaxCrashes"},
		"negative FatalFrom":      {CrashPolicy{FatalFrom: -1}, "FatalFrom"},
		"fatal crash unreachable": {CrashPolicy{MaxCrashes: 2, FatalFrom: 3}, "FatalFrom"},
	} {
		err := c.p.Validate()
		if err == nil || !strings.Contains(err.Error(), "faultplane:") || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Validate() = %v, want a faultplane error naming %q", name, err, c.want)
		}
		// NewCrash panics on exactly the validation error.
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: NewCrash did not panic", name)
				}
			}()
			NewCrash(c.p, nil)
		}()
	}
	for _, ok := range []CrashPolicy{
		{OnRecv: 0, PreApply: 1, PreReply: 0.5, MaxCrashes: 3},
		ChaosCrash(1),
	} {
		if err := ok.Validate(); err != nil {
			t.Errorf("valid policy %+v rejected: %v", ok, err)
		}
	}
}

func TestPolicyValidateRejectsNaNAndRange(t *testing.T) {
	nan := math.NaN()
	for name, p := range map[string]Policy{
		"NaN Loss":           {Loss: nan},
		"NaN Corrupt":        {Corrupt: nan},
		"NaN Duplicate":      {Duplicate: nan},
		"NaN Reorder":        {Reorder: nan},
		"NaN DelayProb":      {DelayProb: nan},
		"NaN BurstProb":      {BurstProb: nan},
		"NaN BurstLoss":      {BurstLoss: nan},
		"NaN DelayMax":       {DelayMicrosMax: nan},
		"negative Loss":      {Loss: -0.01},
		"Loss above one":     {Loss: 1.01},
		"negative DelayMax":  {DelayMicrosMax: -5},
		"infinite DelayMax":  {Seed: 1, DelayProb: 1, DelayMicrosMax: math.Inf(1)},
		"negative BurstLen":  {BurstLen: -1},
		"burst never starts": {BurstProb: 0.1, BurstLen: 0},
		"Duplicate above 1":  {Duplicate: 2},
	} {
		err := p.Validate()
		if err == nil {
			t.Errorf("%s: Validate accepted %+v", name, p)
			continue
		}
		if !strings.Contains(err.Error(), "faultplane:") {
			t.Errorf("%s: error %q does not name the package", name, err)
		}
	}
	if err := Chaos(1).Validate(); err != nil {
		t.Errorf("Chaos policy rejected: %v", err)
	}
}

func TestNewPanicsOnInvalidPolicy(t *testing.T) {
	assertPanics := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	assertPanics("New(NaN Loss)", func() { New(Policy{Loss: math.NaN()}) })
	assertPanics("NewCrash(PreApply=-1)", func() { NewCrash(CrashPolicy{PreApply: -1}, nil) })
}

func TestCrashPointStrings(t *testing.T) {
	for p, want := range map[CrashPoint]string{
		CrashOnRecv: "recv", CrashPreApply: "pre-apply", CrashPreReply: "pre-reply", CrashForced: "forced",
	} {
		if p.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(p), p.String(), want)
		}
	}
}

func TestFatalFromValidation(t *testing.T) {
	bad := []CrashPolicy{
		{FatalFrom: -1},
		{MaxCrashes: 2, FatalFrom: 3}, // the fatal crash could never fire
	}
	for _, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("Validate accepted %+v", p)
		}
	}
	ok := CrashPolicy{MaxCrashes: 3, FatalFrom: 3}
	if err := ok.Validate(); err != nil {
		t.Errorf("Validate rejected %+v: %v", ok, err)
	}
	if err := ChaosKill(1).Validate(); err != nil {
		t.Errorf("ChaosKill preset invalid: %v", err)
	}
}

func TestFatalTurnsTrueAtFatalFrom(t *testing.T) {
	// The kill-forever contract: Fatal() is false until the FatalFrom-th
	// crash has been injected, then true forever — the signal a server
	// consults before declining to restart.
	c := NewCrash(CrashPolicy{Seed: 3, OnRecv: 1, MaxCrashes: 2, FatalFrom: 2}, nil)
	if c.Fatal() {
		t.Fatal("Fatal before any crash")
	}
	c.CrashNow(CrashOnRecv) // crash 1
	if c.Fatal() {
		t.Fatal("Fatal after crash 1 of FatalFrom=2")
	}
	c.CrashNow(CrashOnRecv) // crash 2 — permanent
	if !c.Fatal() {
		t.Fatal("not Fatal after the FatalFrom-th crash")
	}
	// Recoverable schedules never turn fatal.
	r := NewCrash(CrashPolicy{Seed: 3, OnRecv: 1, MaxCrashes: 2}, nil)
	r.CrashNow(CrashOnRecv)
	r.CrashNow(CrashOnRecv)
	if r.Fatal() {
		t.Error("schedule without FatalFrom reported Fatal")
	}
}

func TestKillPolicyValidate(t *testing.T) {
	// A kill policy is a crash policy with an outage: each crash takes
	// the node down for OutageMicros of virtual time.
	for _, ok := range []CrashPolicy{ChaosKill(1), ChaosRejoin(1)} {
		if err := ok.Validate(); err != nil {
			t.Fatalf("reference policy %+v rejected: %v", ok, err)
		}
	}
	nan := math.NaN()
	bad := []struct {
		name string
		p    CrashPolicy
		want string
	}{
		{"NaN prob", CrashPolicy{OnRecv: nan, OutageMicros: 300}, "OnRecv"},
		{"prob above one", CrashPolicy{OnRecv: 1.5, OutageMicros: 300}, "OnRecv"},
		{"negative outage", CrashPolicy{OnRecv: 0.1, OutageMicros: -1}, "OutageMicros"},
		{"NaN outage", CrashPolicy{OnRecv: 0.1, OutageMicros: nan}, "OutageMicros"},
		{"negative max kills", CrashPolicy{OutageMicros: 300, MaxCrashes: -1}, "MaxCrashes"},
		{"negative fatal from", CrashPolicy{OutageMicros: 300, FatalFrom: -1}, "FatalFrom"},
		{"fatal kill unreachable", CrashPolicy{OutageMicros: 300, MaxCrashes: 2, FatalFrom: 3}, "FatalFrom"},
	}
	for _, c := range bad {
		err := c.p.Validate()
		if err == nil || !strings.Contains(err.Error(), "faultplane:") || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Validate() = %v, want a faultplane error naming %q", c.name, err, c.want)
		}
		// NewCrash panics on exactly the validation error, even with a
		// clock to pace the outage.
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: NewCrash did not panic", c.name)
				}
			}()
			NewCrash(c.p, func() float64 { return 0 })
		}()
	}
	// An outage needs a clock to pace it: without one the node could
	// never revive. A schedule without an outage needs none.
	func() {
		defer func() {
			if recover() == nil {
				t.Error("NewCrash accepted an outage with a nil clock")
			}
		}()
		NewCrash(CrashPolicy{OutageMicros: 1}, nil)
	}()
	NewCrash(CrashPolicy{}, nil)
}

func TestKillPlaneTimeGatedRevival(t *testing.T) {
	// A kill plane is a crash plane with an outage. The trick that keeps
	// the wire layer untouched: Fatal() is true exactly while the
	// virtual clock sits inside the outage window, so a server that
	// re-checks its crasher on every pump is down for OutageMicros and
	// then revives — no new wire states.
	now := 0.0
	k := NewCrash(CrashPolicy{OnRecv: 1, OutageMicros: 300, MaxCrashes: 2, FatalFrom: 2},
		func() float64 { return now })
	if k.Fatal() {
		t.Fatal("plane fatal before any kill")
	}
	// Only the armed receive window draws: a window whose probability
	// is 0 consumes nothing.
	for _, p := range []CrashPoint{CrashPreApply, CrashPreReply} {
		if k.CrashNow(p) {
			t.Fatalf("kill fired at %v, want receive-only", p)
		}
	}
	if c := k.Counts(); c.Points != 0 {
		t.Fatalf("unarmed windows consumed %d draws", c.Points)
	}
	now = 100
	if !k.CrashNow(CrashOnRecv) {
		t.Fatal("certain kill did not fire")
	}
	if !k.Fatal() {
		t.Error("node not down immediately after the kill")
	}
	now = 399.9
	if !k.Fatal() {
		t.Error("node revived inside the outage window")
	}
	now = 400
	if k.Fatal() {
		t.Error("node still down after the outage window closed")
	}
	c := k.Counts()
	if c.Crashes != 1 || c.OnRecv != 1 || c.LastAt != 100 {
		t.Errorf("counts = %+v, want 1 kill at recv at t=100", c)
	}
	// The second kill is the FatalFrom-th: permanent, no revival at any
	// later clock reading.
	if !k.CrashNow(CrashOnRecv) {
		t.Fatal("second certain kill did not fire")
	}
	now = 1e12
	if !k.Fatal() {
		t.Error("FatalFrom kill was not permanent")
	}
	// MaxCrashes reached: further draws are consumed but never fire.
	if k.CrashNow(CrashOnRecv) {
		t.Error("kill fired past MaxCrashes")
	}
	if c := k.Counts(); c.Points != 3 || c.Crashes != 2 {
		t.Errorf("counts = %+v, want 3 draws and 2 kills", c)
	}
}

func TestKillPlaneDeterminism(t *testing.T) {
	// Same seed, same traffic, same schedule: the decision stream is a
	// function of the seed and the draw order alone.
	run := func() (CrashCounts, []bool) {
		now := 0.0
		k := NewCrash(ChaosRejoin(1991), func() float64 { now += 50; return now })
		fired := make([]bool, 0, 2000)
		for i := 0; i < 2000; i++ {
			fired = append(fired, k.CrashNow(CrashOnRecv))
		}
		return k.Counts(), fired
	}
	c1, f1 := run()
	c2, f2 := run()
	if c1 != c2 {
		t.Errorf("same seed produced different counts: %+v vs %+v", c1, c2)
	}
	for i := range f1 {
		if f1[i] != f2[i] {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
	if c1.Crashes != ChaosRejoin(1991).MaxCrashes {
		t.Errorf("reference schedule fired %d kills over 2000 frames, want the MaxCrashes cap %d",
			c1.Crashes, ChaosRejoin(1991).MaxCrashes)
	}
}
