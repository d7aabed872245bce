package faultplane

import (
	"fmt"
	"math"
	"math/rand"
)

// CrashPoint names a window in the server's request path where a crash
// schedule may kill the process. The windows bracket the write-ahead
// log discipline of the file server: before the op is logged, after it
// is logged but before it is applied, and after it is applied but
// before the reply leaves — the classic at-most-once hazard windows.
type CrashPoint int

const (
	// CrashOnRecv kills the server as a call frame is received, before
	// anything about the op is durable.
	CrashOnRecv CrashPoint = iota
	// CrashPreApply kills the server after the op is appended to the
	// write-ahead log but before it is applied to the live state.
	CrashPreApply
	// CrashPreReply kills the server after the op is logged and applied
	// but before the reply frame is transmitted.
	CrashPreReply
	// CrashForced marks a manual kill (tests, tools); schedules never
	// draw for it.
	CrashForced
)

func (p CrashPoint) String() string {
	switch p {
	case CrashOnRecv:
		return "recv"
	case CrashPreApply:
		return "pre-apply"
	case CrashPreReply:
		return "pre-reply"
	case CrashForced:
		return "forced"
	}
	return fmt.Sprintf("point(%d)", int(p))
}

// Crasher is the interface the server consults at each crash window;
// CrashPlane implements it.
type Crasher interface {
	CrashNow(p CrashPoint) bool
}

// Fatalist is the optional second face of a crash schedule: is the
// process down right now? A server whose crasher reports Fatal()
// declines to restart, and re-asks on every pump — so a Fatal() that
// stays true models a node gone for good (the failure mode a replica
// set exists to survive), and one that turns false again models a node
// that is down for a while and then revives through its restart hook.
// Schedules that always restart at once simply don't implement it.
type Fatalist interface {
	Fatal() bool
}

// CrashPolicy parameterises a seeded crash schedule: an independent
// per-window probability that the server dies there, bounded by
// MaxCrashes so a soak terminates. Three kinds of death come from one
// policy: a process that restarts at once (the default), a node that
// stays down for OutageMicros of virtual time and then revives (a
// transient kill: the host is down, the segment unplugged), and a node
// that never returns (FatalFrom). The zero CrashPolicy never crashes.
type CrashPolicy struct {
	// Seed fixes the PRNG stream; equal seeds and equal traffic give
	// identical crash schedules.
	Seed int64

	// OnRecv, PreApply, and PreReply are the per-decision-point crash
	// probabilities for the corresponding windows. A window whose
	// probability is 0 draws nothing, so a schedule armed only at
	// receipt stays aligned with the inbound-frame sequence.
	OnRecv   float64
	PreApply float64
	PreReply float64

	// MaxCrashes bounds the total crashes injected; 0 means unlimited.
	MaxCrashes int

	// FatalFrom, when positive, declares the N-th injected crash (and
	// every later one) permanent: the plane's Fatal() turns true and the
	// process never restarts. 0 means every crash is recoverable.
	FatalFrom int

	// OutageMicros is how long each crash keeps the node down, in
	// virtual microseconds: Fatal() reads true until the plane's clock
	// has advanced this far past the crash, and the first pump after
	// that revives the node. 0 means the restart is immediate.
	OutageMicros float64
}

// Validate checks the window probabilities for NaN and [0,1]
// membership and the bounds and outage for sense, returning a
// descriptive error naming the offending field. NewCrash panics on
// exactly this error.
func (p CrashPolicy) Validate() error {
	for _, pr := range []struct {
		name string
		v    float64
	}{
		{"OnRecv", p.OnRecv}, {"PreApply", p.PreApply}, {"PreReply", p.PreReply},
	} {
		if err := checkProb(pr.name, pr.v); err != nil {
			return err
		}
	}
	if p.MaxCrashes < 0 {
		return fmt.Errorf("faultplane: MaxCrashes = %d negative", p.MaxCrashes)
	}
	if p.FatalFrom < 0 {
		return fmt.Errorf("faultplane: FatalFrom = %d negative", p.FatalFrom)
	}
	if p.FatalFrom > 0 && p.MaxCrashes > 0 && p.FatalFrom > p.MaxCrashes {
		return fmt.Errorf("faultplane: FatalFrom = %d exceeds MaxCrashes = %d; the fatal crash can never fire",
			p.FatalFrom, p.MaxCrashes)
	}
	if math.IsNaN(p.OutageMicros) || p.OutageMicros < 0 {
		return fmt.Errorf("faultplane: OutageMicros = %g, want a non-negative duration", p.OutageMicros)
	}
	return nil
}

// ChaosCrash is the reference crash schedule for the crash soaks:
// frequent enough that an andrew-mini replay sees several server
// deaths — including in the post-log/pre-reply window — bounded so the
// run converges.
func ChaosCrash(seed int64) CrashPolicy {
	return CrashPolicy{
		Seed:       seed,
		OnRecv:     0.003,
		PreApply:   0.002,
		PreReply:   0.003,
		MaxCrashes: 6,
	}
}

// ChaosKill is the reference kill-forever schedule for the failover
// soaks: the same windows as ChaosCrash, but the third crash is
// permanent — the primary recovers twice and then dies for good,
// mid-run, so a backup must take over.
func ChaosKill(seed int64) CrashPolicy {
	p := ChaosCrash(seed)
	p.MaxCrashes = 3
	p.FatalFrom = 3
	return p
}

// ChaosRejoin is the reference transient-kill schedule for the rejoin
// soaks' backups: frequent enough that a backup dies mid-ship a few
// times per andrew-mini replay, with an outage short enough (in virtual
// time) that the primary's ship retries bridge it. Only receipt is
// armed: a kill models the node dying, not its request path crashing,
// so one draw per inbound frame suffices.
func ChaosRejoin(seed int64) CrashPolicy {
	return CrashPolicy{
		Seed:         seed,
		OnRecv:       0.02,
		OutageMicros: 300_000, // 0.3 virtual seconds down per kill
		MaxCrashes:   3,
	}
}

// CrashCounts reports what a crash plane has done; two same-seed runs
// must produce equal CrashCounts.
type CrashCounts struct {
	Points   int // decision points drawn
	Crashes  int
	OnRecv   int
	PreApply int
	PreReply int
	LastAt   float64 // virtual time of the most recent crash (0 without a clock)
}

// CrashPlane is a seeded crash schedule, optionally bound to a virtual
// clock that paces its outages. It implements Crasher (the crash
// decision) and Fatalist (down for good, or still inside an outage).
// Like Plane, its decision stream is a function of the seed and the
// order CrashNow calls arrive, which the single-pump drive fixes.
type CrashPlane struct {
	policy    CrashPolicy
	clock     func() float64
	rng       *rand.Rand
	counts    CrashCounts
	downUntil float64
}

// NewCrash builds a crash plane from a policy and the virtual clock
// that paces its outages, panicking on NaN or out-of-range parameters,
// or on a nil clock when the policy has an outage to pace (a policy is
// programmer-supplied configuration, not runtime input).
func NewCrash(p CrashPolicy, clock func() float64) *CrashPlane {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	if clock == nil && p.OutageMicros > 0 {
		panic(fmt.Errorf("faultplane: OutageMicros = %g needs a clock to pace it", p.OutageMicros))
	}
	return &CrashPlane{policy: p, clock: clock, rng: rand.New(rand.NewSource(p.Seed))}
}

// Policy returns the plane's configuration.
func (c *CrashPlane) Policy() CrashPolicy { return c.policy }

// Counts returns a snapshot of the crash counters.
func (c *CrashPlane) Counts() CrashCounts {
	return c.counts
}

// Fatal reports whether the process is down: permanently (the
// FatalFrom-th crash has fired) or for now (the clock has not yet
// passed the end of the last crash's outage). A server that re-checks
// this on every pump revives the first time it is pumped after the
// outage closes. CrashPlane thereby implements Fatalist.
func (c *CrashPlane) Fatal() bool {
	if c.policy.FatalFrom > 0 && c.counts.Crashes >= c.policy.FatalFrom {
		return true
	}
	return c.clock != nil && c.clock() < c.downUntil
}

// CrashNow draws the fate of one decision point. A window whose
// probability is 0 draws nothing; every other call consumes exactly
// one PRNG value — even after MaxCrashes is reached — so the decision
// stream stays aligned with the sequence of armed points. A crash
// records its virtual time and opens the outage.
func (c *CrashPlane) CrashNow(p CrashPoint) bool {
	var prob float64
	switch p {
	case CrashOnRecv:
		prob = c.policy.OnRecv
	case CrashPreApply:
		prob = c.policy.PreApply
	case CrashPreReply:
		prob = c.policy.PreReply
	}
	if prob == 0 {
		return false
	}
	c.counts.Points++
	u := c.rng.Float64()
	if c.policy.MaxCrashes > 0 && c.counts.Crashes >= c.policy.MaxCrashes {
		return false
	}
	if u >= prob {
		return false
	}
	c.counts.Crashes++
	switch p {
	case CrashOnRecv:
		c.counts.OnRecv++
	case CrashPreApply:
		c.counts.PreApply++
	case CrashPreReply:
		c.counts.PreReply++
	}
	if c.clock != nil {
		c.counts.LastAt = c.clock()
		c.downUntil = c.counts.LastAt + c.policy.OutageMicros
	}
	return true
}
