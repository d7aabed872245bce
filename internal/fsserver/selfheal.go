package fsserver

import (
	"encoding/binary"
	"fmt"

	"archos/internal/faultplane"
	"archos/internal/fs"
	"archos/internal/ipc/wire"
	"archos/internal/obs"
)

// This file is the cluster's self-healing plane: the machinery that
// restores replication factor after the faults PRs 5–9 merely
// survived. Three healing paths share one principle — the primary
// pushes, the healing node never pulls:
//
//   - A transiently killed backup revives through its restart hook
//     (local WAL recovery, quarantining at-rest damage) and re-enters
//     the ack set at its true position; the next ship discovers that
//     position by cursor correction and re-delivers the rest, falling
//     back to whole-snapshot state transfer when the primary's
//     retained log no longer reaches back far enough.
//
//   - A deposed primary learns of its fencing on its first rejected
//     ship, discards the speculative tail it appended after losing
//     primacy, and rejoins as a receiving backup at the new epoch.
//
//   - An anti-entropy scrubber paced by the virtual clock compares
//     per-range state fingerprints across replicas and repairs silent
//     divergence by snapshot push.
//
// Everything is driven synchronously from the client call path
// (Cluster.Tick) — no goroutines, no wall clock — so same-seed soaks
// stay byte-identical.

// SelfHealPolicy parameterises the healing plane. Like ReplicaConfig,
// a policy is programmer-supplied: Validate returns a descriptive
// error and EnableSelfHeal panics on exactly that error.
type SelfHealPolicy struct {
	// RejoinDelayMicros is how long (virtual) after a failover the
	// deposed primary stays fenced out before it is demoted and
	// readmitted as a backup — the stand-in for operator or watchdog
	// reaction time.
	RejoinDelayMicros float64

	// ScrubIntervalMicros paces the anti-entropy pass.
	ScrubIntervalMicros float64

	// ScrubRanges is the fingerprint resolution: how many per-range
	// digests each scrub compares per peer.
	ScrubRanges int
}

// DefaultSelfHealPolicy is the reference healing configuration: rejoin
// after one virtual second, scrub every half virtual second at
// 16-range resolution.
func DefaultSelfHealPolicy() SelfHealPolicy {
	return SelfHealPolicy{RejoinDelayMicros: 1e6, ScrubIntervalMicros: 5e5, ScrubRanges: 16}
}

// Validate checks the policy, returning a descriptive error naming the
// offending field.
func (p SelfHealPolicy) Validate() error {
	if p.RejoinDelayMicros < 0 || p.RejoinDelayMicros != p.RejoinDelayMicros {
		return fmt.Errorf("fsserver: RejoinDelayMicros = %v invalid", p.RejoinDelayMicros)
	}
	if p.ScrubIntervalMicros <= 0 || p.ScrubIntervalMicros != p.ScrubIntervalMicros {
		return fmt.Errorf("fsserver: ScrubIntervalMicros = %v, want a positive interval", p.ScrubIntervalMicros)
	}
	if p.ScrubRanges < 1 {
		return fmt.Errorf("fsserver: ScrubRanges = %d, want >= 1", p.ScrubRanges)
	}
	return nil
}

// EnableSelfHeal arms the healing plane: from now on every client call
// ticks the cluster (rejoin scheduling, scrub pacing). Panics on an
// invalid policy.
func (c *Cluster) EnableSelfHeal(p SelfHealPolicy) {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	c.heal = &p
	c.nextScrubAt = c.clock.Clock() + p.ScrubIntervalMicros
}

// SetBackupKillPlane arms backup i with a seeded crash schedule on its
// replication server, paced by the cluster clock: ship frames may kill
// the node, the policy's outage keeps it down, and the first pump after
// the outage revives it through the rejoin hook. Returns the plane for
// counter inspection.
func (c *Cluster) SetBackupKillPlane(i int, p faultplane.CrashPolicy) *faultplane.CrashPlane {
	k := faultplane.NewCrash(p, c.clock.Clock)
	c.Backup(i).Repl.SetCrasher(k)
	return k
}

// SetDiskPlane arms every node with one shared seeded at-rest damage
// schedule, consulted (one draw) each time a node revives. The shared
// stream keeps the fault sequence a function of the revival order,
// which a single-pump drive makes deterministic.
func (c *Cluster) SetDiskPlane(p faultplane.DiskFaultPolicy) *faultplane.DiskPlane {
	d := faultplane.NewDisk(p)
	for _, b := range c.nodes {
		b.disk = d
	}
	return d
}

// Demoted returns the deposed primary's node once it has rejoined as a
// receiver, nil before.
func (c *Cluster) Demoted() *Node {
	if c.nodes[0].Repl == nil {
		return nil
	}
	return c.nodes[0]
}

// Tick drives the healing plane from the call path: demote-and-rejoin
// the deposed primary once its fencing delay has elapsed, and run the
// anti-entropy scrub when its interval comes due. Called by every
// replicated client op; a no-op until EnableSelfHeal.
func (c *Cluster) Tick() {
	if c.heal == nil {
		return
	}
	now := c.clock.Clock()
	if c.active != 0 && c.Demoted() == nil && now >= c.failoverAt+c.heal.RejoinDelayMicros {
		c.rejoinDeposedPrimary(now)
	}
	if now >= c.nextScrubAt {
		c.scrub()
		c.nextScrubAt = c.clock.Clock() + c.heal.ScrubIntervalMicros
	}
}

// rejoinDeposedPrimary demotes the dead original primary and readmits
// it as a receiving backup: probe (the first rejected ship — how a
// deposed primary discovers its fencing), discard the speculative tail
// past the promotion point, recover locally through the quarantine
// path, then join the active primary's ack set on a fresh replication
// link and catch up.
func (c *Cluster) rejoinDeposedPrimary(now float64) {
	pick := c.active - 1
	np, old := c.nodes[c.active], c.nodes[0]
	p := old.srv
	rec := c.PrimaryLink().Recorder()

	// The fencing signal: one ship at the old epoch, rejected by the
	// promoted peer. The deposed primary now knows its reign is over.
	if rp := p.repl; rp != nil && pick < len(rp.clients) {
		probe, _ := fs.EncodeRecords(nil)
		args := rp.clients[pick].NewCallArgs()
		args.Uint32(p.Wire.Epoch())
		args.Bytes(probe)
		if _, err := rp.clients[pick].CallRaw(rp.peers[pick], ProcShip, args); err != nil {
			c.counts.FencedShips++
		}
	}

	// Demotion: everything past the promotion point is speculation the
	// new primary's history supersedes. If a snapshot folded
	// speculative records in, nothing below it can be kept either —
	// reset and let state transfer rebuild the node.
	promotedAt := np.promotedAtSeq
	newEpoch := np.srv.Wire.Epoch()
	var discarded int
	if p.wal.SnapSeq() > promotedAt {
		p.wal.QuarantineSnapshot()
	} else {
		discarded = p.wal.DiscardFrom(promotedAt + 1)
	}
	p.wal.StopShipping() // shipper role is over

	// Readmission: the old primary's node becomes a receiver on a fresh
	// replication link, recovers what its (possibly damaged) log
	// proves, and joins the active primary's replicator.
	old.primaryEpoch = newEpoch
	old.receiveOn(wire.NewLinkOnClock(replicaNet, c.clock))
	old.recoverLocal()
	applied := old.appliedSeq // the catch-up below moves it on
	c.counts.Rejoins++

	if rp := np.srv.repl; rp != nil {
		rp.addPeer(c.cfg, old.replLink, old.Repl, applied)
		rp.round++
		rp.shipTo(len(rp.clients)-1, np.srv.wal, newEpoch, np.srv.wal.LastSeq(), 0, 0)
	}

	if rec.Enabled() {
		rec.Emit(obs.Event{Layer: "cluster", Name: "demote",
			Attrs: fmt.Sprintf("discarded=%d applied=%d epoch=%d", discarded, applied, newEpoch)})
		rec.Observe("repl.rejoin", now-c.failoverAt)
		rec.Emit(obs.Event{Layer: "cluster", Name: "rejoin", Dur: now - c.failoverAt, Val: float64(applied)})
	}
}

// scrub runs one anti-entropy pass: the active primary compares its
// per-range state fingerprints against every receiving peer that is
// fully caught up (lag is the ship path's job, not divergence) and
// repairs disagreement by folding its state into a fresh snapshot and
// pushing it whole.
func (c *Cluster) scrub() {
	act := c.activeServer()
	rec := c.PrimaryLink().Recorder()
	t0 := c.clock.Clock()
	divergent := 0
	if rp := act.repl; rp != nil && len(rp.clients) > 0 {
		n := c.heal.ScrubRanges
		local := act.FS.RangeFingerprints(n)
		last := act.wal.LastSeq()
		epoch := act.Wire.Epoch()
		for i := range rp.clients {
			args := rp.clients[i].NewCallArgs()
			args.Uint32(epoch)
			args.Uint64(uint64(n))
			res, err := rp.clients[i].CallRaw(rp.peers[i], ProcScrub, args)
			applied, buf := res.Uint64(), res.Bytes()
			if err != nil || res.Err() != nil {
				continue // down or deposed; not scrubbed this pass
			}
			if applied != last {
				continue // lagging; record shipping heals that
			}
			mismatch := 0
			for ri := 0; ri < n && ri*8+8 <= len(buf); ri++ {
				if binary.BigEndian.Uint64(buf[ri*8:]) != local[ri] {
					mismatch++
				}
			}
			if mismatch == 0 {
				continue
			}
			divergent += mismatch
			// Repair: fold the live state into a snapshot and push it
			// whole — deterministic reconvergence regardless of what
			// rotted on the peer.
			if err := act.wal.Snapshot(act.FS); err != nil {
				continue
			}
			if rp.sendSnapshot(i, act.wal, epoch) {
				c.counts.ScrubRepairs++
				c.counts.RepairedRanges += mismatch
				rec.Observe("repl.repair", float64(mismatch))
			}
		}
	}
	c.counts.ScrubPasses++
	if rec.Enabled() {
		now := c.clock.Clock()
		rec.EmitAt(obs.Event{T: now, Layer: "cluster", Name: "scrub",
			Dur: now - t0, Val: float64(divergent)})
	}
}

// NodeFingerprints returns the state fingerprint of every node in the
// cluster — the active filesystem first, then each receiving peer
// (surviving backups plus the rejoined deposed primary). After Quiesce
// all entries must agree: that is the full-replication-factor check a
// soak asserts.
func (c *Cluster) NodeFingerprints() []string {
	fps := []string{c.ActiveFS().Fingerprint()}
	for _, b := range c.receivers() {
		fps = append(fps, b.srv.CurrentFS().Fingerprint())
	}
	return fps
}

// Quiesce drives the cluster to full replication factor at the end of
// a run: force the deposed primary's rejoin if it is still pending,
// ship until every receiving peer has applied the whole log (ship
// retries burn virtual time, so any outage window in the way expires),
// then run a final scrub so silent divergence is repaired before the
// caller asserts fingerprints.
func (c *Cluster) Quiesce() {
	if c.heal != nil && c.active != 0 && c.Demoted() == nil {
		c.rejoinDeposedPrimary(c.clock.Clock())
	}
	act := c.activeServer()
	for attempt := 0; attempt < 64 && act.repl != nil; attempt++ {
		act.repl.ship(act.wal, act.Wire.Epoch(), 0, 0)
		if act.repl.lag(act.wal) == 0 {
			break
		}
	}
	if c.heal != nil {
		c.scrub()
	}
}
