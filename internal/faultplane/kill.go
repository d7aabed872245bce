package faultplane

import (
	"fmt"
	"math/rand"
	"sync"
)

// This file is the transient-kill schedule: the fault a replica set
// heals from, as opposed to the fault it merely survives. CrashPolicy
// models process death where the host restarts immediately (or, with
// FatalFrom, never); KillPolicy models a node that is *gone for a
// while* — the host is down, the network segment unplugged — and then
// comes back. The trick that keeps the wire layer untouched: the
// server consults its crasher's Fatal() on every pump, so a Fatal()
// that is true during the outage window and false after it implements
// down-then-revive with no new wire states. Virtual time does the
// scheduling.

// KillPolicy parameterises a seeded transient-kill schedule for a
// node: an independent probability that each received frame kills it,
// and a virtual-time outage duration after which it revives. The zero
// KillPolicy never kills.
type KillPolicy struct {
	// Seed fixes the PRNG stream; equal seeds and equal traffic give
	// identical kill schedules.
	Seed int64

	// OnRecv is the per-received-frame kill probability. Receipt is the
	// only window drawn: a kill models the node dying, not the request
	// path crashing, so one decision per inbound frame suffices and the
	// pre-apply/pre-reply windows are never consulted.
	OnRecv float64

	// OutageMicros is how long the node stays down in virtual
	// microseconds; after that the next pump revives it through its
	// restart hook.
	OutageMicros float64

	// MaxKills bounds the total kills injected; 0 means unlimited.
	MaxKills int

	// FatalFrom, when positive, declares the N-th kill (and every later
	// one) permanent — the node never revives. 0 means every kill is an
	// outage.
	FatalFrom int
}

// Validate checks the policy's parameters, returning a descriptive
// error naming the offending field. NewKill panics on exactly this
// error.
func (p KillPolicy) Validate() error {
	if err := checkProb("OnRecv", p.OnRecv); err != nil {
		return err
	}
	if p.OutageMicros < 0 || p.OutageMicros != p.OutageMicros {
		return fmt.Errorf("faultplane: OutageMicros = %v invalid", p.OutageMicros)
	}
	if p.MaxKills < 0 {
		return fmt.Errorf("faultplane: MaxKills = %d negative", p.MaxKills)
	}
	if p.FatalFrom < 0 {
		return fmt.Errorf("faultplane: FatalFrom = %d negative", p.FatalFrom)
	}
	if p.FatalFrom > 0 && p.MaxKills > 0 && p.FatalFrom > p.MaxKills {
		return fmt.Errorf("faultplane: FatalFrom = %d exceeds MaxKills = %d; the fatal kill can never fire",
			p.FatalFrom, p.MaxKills)
	}
	return nil
}

// ChaosRejoin is the reference transient-kill schedule for the rejoin
// soaks: frequent enough that a backup dies mid-ship a few times per
// andrew-mini replay, with an outage short enough (in virtual time)
// that the primary's ship retries bridge it.
func ChaosRejoin(seed int64) KillPolicy {
	return KillPolicy{
		Seed:         seed,
		OnRecv:       0.02,
		OutageMicros: 300_000, // 0.3 virtual seconds down per kill
		MaxKills:     3,
	}
}

// KillCounts reports what a kill plane has done; two same-seed runs
// must produce equal KillCounts.
type KillCounts struct {
	Points     int // decision points drawn
	Kills      int
	LastKillAt float64 // virtual time of the most recent kill
}

// KillPlane is a seeded transient-kill schedule bound to a virtual
// clock. It implements Crasher (the kill decision) and Fatalist (the
// outage window): Fatal() is true while the clock is inside the
// outage, so a server that consults its crasher on every pump stays
// down exactly OutageMicros of virtual time and then restarts. Safe
// for concurrent use; the decision stream is a function of the seed
// and the order CrashNow calls arrive.
type KillPlane struct {
	mu        sync.Mutex
	policy    KillPolicy
	clock     func() float64
	rng       *rand.Rand
	counts    KillCounts
	downUntil float64
	fatal     bool
}

// NewKill builds a kill plane from a policy and the virtual clock that
// paces its outages, panicking on invalid parameters or a nil clock (a
// policy is programmer-supplied configuration, not runtime input).
func NewKill(p KillPolicy, clock func() float64) *KillPlane {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	if clock == nil {
		panic(fmt.Errorf("faultplane: NewKill requires a clock"))
	}
	return &KillPlane{policy: p, clock: clock, rng: rand.New(rand.NewSource(p.Seed))}
}

// Policy returns the plane's configuration.
func (k *KillPlane) Policy() KillPolicy { return k.policy }

// Counts returns a snapshot of the kill counters.
func (k *KillPlane) Counts() KillCounts {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.counts
}

// Fatal reports whether the node is currently dead: permanently (the
// FatalFrom-th kill fired) or transiently (virtual time has not yet
// reached the end of the outage window). A server that re-checks this
// on every pump revives itself the first time it is pumped after the
// window closes. KillPlane thereby implements Fatalist.
func (k *KillPlane) Fatal() bool {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.fatal || k.clock() < k.downUntil
}

// CrashNow draws the fate of one received frame. Only the receive
// window consumes a PRNG value — kills model node death, which is
// indifferent to where in the request path the node was — so the
// decision stream stays aligned with the inbound-frame sequence.
func (k *KillPlane) CrashNow(p CrashPoint) bool {
	if p != CrashOnRecv {
		return false
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	k.counts.Points++
	u := k.rng.Float64()
	if k.policy.MaxKills > 0 && k.counts.Kills >= k.policy.MaxKills {
		return false
	}
	if u >= k.policy.OnRecv {
		return false
	}
	k.counts.Kills++
	now := k.clock()
	k.counts.LastKillAt = now
	k.downUntil = now + k.policy.OutageMicros
	if k.policy.FatalFrom > 0 && k.counts.Kills >= k.policy.FatalFrom {
		k.fatal = true
	}
	return true
}
