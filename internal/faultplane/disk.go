package faultplane

import (
	"fmt"
	"math/rand"
)

// This file is the storage fault plane: seeded at-rest damage to a
// node's durable state, decided at the moment the node comes back up —
// the instant recovery reads the log and would notice. Two shapes of
// rot: a torn record strictly mid-log (the final-record tear is the
// crash plane's signature; a mid-log tear means the medium itself
// lied) and a flipped bit in the snapshot. Both are exactly what the
// end-to-end record checksums and the snapshot decode exist to catch,
// and what the quarantine-and-refetch repair path exists to heal.

// DiskFaultPolicy parameterises a seeded at-rest damage schedule. Each
// Decide call — one per node revival — draws whether the log's tail
// holds a torn mid-log record and whether the snapshot took a bit
// flip. The zero DiskFaultPolicy never injects.
type DiskFaultPolicy struct {
	// Seed fixes the PRNG stream; equal seeds and equal revival orders
	// give identical damage schedules.
	Seed int64

	// TornRecord is the probability that a revival finds one tail
	// record torn strictly mid-log.
	TornRecord float64

	// SnapshotBitFlip is the probability that a revival finds one bit
	// flipped in the snapshot bytes.
	SnapshotBitFlip float64

	// MaxFaults bounds the total faults injected; 0 means unlimited.
	MaxFaults int
}

// Validate checks the policy's parameters, returning a descriptive
// error naming the offending field. NewDisk panics on exactly this
// error.
func (p DiskFaultPolicy) Validate() error {
	if err := checkProb("TornRecord", p.TornRecord); err != nil {
		return err
	}
	if err := checkProb("SnapshotBitFlip", p.SnapshotBitFlip); err != nil {
		return err
	}
	if p.MaxFaults < 0 {
		return fmt.Errorf("faultplane: MaxFaults = %d negative", p.MaxFaults)
	}
	return nil
}

// ChaosDisk is the reference disk-fault schedule for the rejoin soaks:
// roughly one revival in four finds a torn mid-log record, bounded so
// the run stays dominated by healthy rejoins.
func ChaosDisk(seed int64) DiskFaultPolicy {
	return DiskFaultPolicy{
		Seed:            seed,
		TornRecord:      0.25,
		SnapshotBitFlip: 0.10,
		MaxFaults:       2,
	}
}

// DiskFault is one revival's damage verdict.
type DiskFault struct {
	// TearTailIndex is the tail offset of the record to tear, always
	// strictly mid-log; -1 means no tear.
	TearTailIndex int

	// FlipSnapshot orders one bit flipped in the snapshot, at
	// FlipOffset (interpreted modulo the snapshot length).
	FlipSnapshot bool
	FlipOffset   int
}

// DiskCounts reports what a disk plane has done; two same-seed runs
// must produce equal DiskCounts.
type DiskCounts struct {
	Decisions int
	Tears     int
	Flips     int
}

// DiskPlane is a seeded at-rest damage schedule. Its decision stream
// is a function of the seed and the order Decide calls arrive (one per
// node revival on a single-pump drive).
type DiskPlane struct {
	policy DiskFaultPolicy
	rng    *rand.Rand
	counts DiskCounts
}

// NewDisk builds a disk plane from a policy, panicking on invalid
// parameters (a policy is programmer-supplied configuration, not
// runtime input).
func NewDisk(p DiskFaultPolicy) *DiskPlane {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	return &DiskPlane{policy: p, rng: rand.New(rand.NewSource(p.Seed))}
}

// Policy returns the plane's configuration.
func (d *DiskPlane) Policy() DiskFaultPolicy { return d.policy }

// Counts returns a snapshot of the damage counters.
func (d *DiskPlane) Counts() DiskCounts {
	return d.counts
}

// Decide draws one revival's damage given the length of the reviving
// node's log tail. Exactly three PRNG values are consumed per call —
// tear?, flip?, where? — regardless of the verdict, so the decision
// stream stays aligned with the revival sequence. A mid-log tear needs
// at least two tail records (the final position belongs to the crash
// plane); shorter tails escape the tear even when the draw fires.
func (d *DiskPlane) Decide(tailLen int) DiskFault {
	d.counts.Decisions++
	u1 := d.rng.Float64()
	u2 := d.rng.Float64()
	u3 := d.rng.Float64()
	f := DiskFault{TearTailIndex: -1}
	capped := d.policy.MaxFaults > 0 && d.counts.Tears+d.counts.Flips >= d.policy.MaxFaults
	if !capped && u1 < d.policy.TornRecord && tailLen >= 2 {
		f.TearTailIndex = int(u3 * float64(tailLen-1))
		if f.TearTailIndex >= tailLen-1 {
			f.TearTailIndex = tailLen - 2
		}
		d.counts.Tears++
		capped = d.policy.MaxFaults > 0 && d.counts.Tears+d.counts.Flips >= d.policy.MaxFaults
	}
	if !capped && u2 < d.policy.SnapshotBitFlip {
		f.FlipSnapshot = true
		f.FlipOffset = int(u3 * 1e6)
		d.counts.Flips++
	}
	return f
}
