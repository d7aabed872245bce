package faultplane

import (
	"strings"
	"testing"
)

func TestKillPolicyValidate(t *testing.T) {
	if err := ChaosRejoin(1).Validate(); err != nil {
		t.Fatalf("reference policy rejected: %v", err)
	}
	nan := 0.0
	nan /= nan
	bad := []struct {
		name string
		p    KillPolicy
		want string
	}{
		{"NaN prob", KillPolicy{OnRecv: nan}, "OnRecv"},
		{"prob above one", KillPolicy{OnRecv: 1.5}, "OnRecv"},
		{"negative outage", KillPolicy{OutageMicros: -1}, "OutageMicros"},
		{"NaN outage", KillPolicy{OutageMicros: nan}, "OutageMicros"},
		{"negative max kills", KillPolicy{MaxKills: -1}, "MaxKills"},
		{"negative fatal from", KillPolicy{FatalFrom: -1}, "FatalFrom"},
		{"fatal kill unreachable", KillPolicy{MaxKills: 2, FatalFrom: 3}, "FatalFrom"},
	}
	for _, c := range bad {
		err := c.p.Validate()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Validate() = %v, want error mentioning %q", c.name, err, c.want)
		}
		// NewKill panics on exactly the validation error.
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: NewKill did not panic", c.name)
				}
			}()
			NewKill(c.p, func() float64 { return 0 })
		}()
	}
	// A nil clock is a programming error too: there is nothing to pace
	// the outage window.
	func() {
		defer func() {
			if recover() == nil {
				t.Error("NewKill accepted a nil clock")
			}
		}()
		NewKill(KillPolicy{}, nil)
	}()
}

func TestKillPlaneTimeGatedRevival(t *testing.T) {
	// The trick that keeps the wire layer untouched: Fatal() is true
	// exactly while the virtual clock sits inside the outage window, so
	// a server that re-checks its crasher on every pump is down for
	// OutageMicros and then revives — no new wire states.
	now := 0.0
	k := NewKill(KillPolicy{OnRecv: 1, OutageMicros: 300, MaxKills: 2, FatalFrom: 2},
		func() float64 { return now })
	if k.Fatal() {
		t.Fatal("plane fatal before any kill")
	}
	// Only the receive window draws: the other crash points model the
	// request path, not node death.
	for _, p := range []CrashPoint{CrashPreApply, CrashPreReply} {
		if k.CrashNow(p) {
			t.Fatalf("kill fired at %v, want receive-only", p)
		}
	}
	if c := k.Counts(); c.Points != 0 {
		t.Fatalf("non-receive windows consumed %d draws", c.Points)
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
	if c.Kills != 1 || c.LastKillAt != 100 {
		t.Errorf("counts = %+v, want 1 kill at t=100", c)
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
	// MaxKills reached: further draws are consumed but never fire.
	if k.CrashNow(CrashOnRecv) {
		t.Error("kill fired past MaxKills")
	}
	if c := k.Counts(); c.Points != 3 || c.Kills != 2 {
		t.Errorf("counts = %+v, want 3 draws and 2 kills", c)
	}
}

func TestKillPlaneDeterminism(t *testing.T) {
	// Same seed, same traffic, same schedule: the decision stream is a
	// function of the seed and the draw order alone.
	run := func() (KillCounts, []bool) {
		now := 0.0
		k := NewKill(ChaosRejoin(1991), func() float64 { now += 50; return now })
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
	if c1.Kills != ChaosRejoin(1991).MaxKills {
		t.Errorf("reference schedule fired %d kills over 2000 frames, want the MaxKills cap %d",
			c1.Kills, ChaosRejoin(1991).MaxKills)
	}
}
