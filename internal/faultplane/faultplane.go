// Package faultplane is the fault model of the ipc/wire transport:
// seeded, probabilistic Planes for soaks and a deterministic per-frame
// Script for surgical tests, both behind the one Injector interface a
// wire.Link consumes. The paper's RPC numbers (Table 3) come
// from a real transport — SRC RPC on the Firefly over Ethernet — whose
// acknowledgement, checksum, and retransmission machinery exists
// precisely because Ethernets lose, duplicate, reorder, and delay
// frames. A Plane draws per-frame fault decisions from a seeded PRNG so
// chaos runs are adversarial yet bit-for-bit reproducible: the same
// seed yields the same loss pattern, the same retransmission schedule,
// and the same virtual-time clock, every run.
//
// Every plane and script belongs to the goroutine that owns the stack
// it is armed on (see package wire) and takes no locks.
package faultplane

import (
	"fmt"
	"math"
	"math/rand"
)

// Policy parameterises a fault plane. All probabilities are per frame
// and independent; Loss excludes the other faults on the frame it
// claims (a dropped frame cannot also be duplicated). The zero Policy
// injects nothing.
type Policy struct {
	// Seed fixes the PRNG stream; runs with equal seeds and equal
	// traffic are identical.
	Seed int64

	// Loss is the probability a frame vanishes in flight.
	Loss float64
	// Corrupt is the probability a delivered frame has one bit flipped
	// (the checksum catches it; the receiver sees a bad frame).
	Corrupt float64
	// Duplicate is the probability a frame is delivered twice.
	Duplicate float64
	// Reorder is the probability a frame is held back and delivered
	// after the next frame sent in the same direction.
	Reorder float64

	// DelayProb is the probability a frame is delayed; the delay is
	// uniform in [0, DelayMicrosMax) and charged to the link's virtual
	// clock (queueing, not loss).
	DelayProb      float64
	DelayMicrosMax float64

	// BurstProb is the per-frame probability of entering a loss burst —
	// the Ethernet-collision / overrun regime where consecutive frames
	// die together. For the next BurstLen frames the loss probability
	// becomes BurstLoss instead of Loss. With BurstLoss 1 a burst is a
	// partition: it swallows BurstLen consecutive frames in either
	// direction, the primary–backup split a replication protocol must
	// ride out.
	BurstProb float64
	BurstLen  int
	BurstLoss float64
}

// CombinedDisruption is the per-frame probability that delivery is
// disturbed in an order- or count-visible way: loss, duplication, or
// reordering (corruption and delay leave the frame sequence intact).
func (p Policy) CombinedDisruption() float64 { return p.Loss + p.Duplicate + p.Reorder }

// checkProb rejects anything that is not a probability: NaN compares
// false against every bound, so it must be named explicitly or it
// slips through a plain range check and poisons every Decide.
func checkProb(name string, v float64) error {
	if math.IsNaN(v) {
		return fmt.Errorf("faultplane: %s = NaN, want a probability in [0,1]", name)
	}
	if v < 0 || v > 1 {
		return fmt.Errorf("faultplane: %s = %g outside [0,1]", name, v)
	}
	return nil
}

// Validate checks every probability for NaN and [0,1] membership and
// every magnitude for NaN, infinity and negativity, returning a
// descriptive error naming the offending field. New panics on exactly
// this error.
func (p Policy) Validate() error {
	for _, pr := range []struct {
		name string
		v    float64
	}{
		{"Loss", p.Loss}, {"Corrupt", p.Corrupt}, {"Duplicate", p.Duplicate},
		{"Reorder", p.Reorder}, {"DelayProb", p.DelayProb}, {"BurstProb", p.BurstProb},
		{"BurstLoss", p.BurstLoss},
	} {
		if err := checkProb(pr.name, pr.v); err != nil {
			return err
		}
	}
	if d := p.DelayMicrosMax; math.IsNaN(d) || math.IsInf(d, 0) || d < 0 {
		// An infinite delay would push the clock every link of the
		// stack shares to +Inf, and a zero draw would count 0 × Inf =
		// NaN µs of delay.
		return fmt.Errorf("faultplane: DelayMicrosMax = %g, want a finite, non-negative duration", p.DelayMicrosMax)
	}
	if p.BurstLen < 0 {
		return fmt.Errorf("faultplane: BurstLen = %d negative", p.BurstLen)
	}
	if p.BurstProb > 0 && p.BurstLen < 1 {
		return fmt.Errorf("faultplane: BurstLen = %d, want >= 1 when BurstProb > 0; the burst could never start", p.BurstLen)
	}
	return nil
}

// Chaos is the reference soak policy: ≥20% combined loss, duplication,
// and reordering, plus corruption, jitter, and occasional loss bursts.
// A transport that carries a workload unchanged through this policy has
// earned its delivery semantics.
func Chaos(seed int64) Policy {
	return Policy{
		Seed:           seed,
		Loss:           0.08,
		Corrupt:        0.04,
		Duplicate:      0.07,
		Reorder:        0.06,
		DelayProb:      0.10,
		DelayMicrosMax: 50,
		BurstProb:      0.002,
		BurstLen:       4,
		BurstLoss:      0.9,
	}
}

// Decision is the fate of one frame.
type Decision struct {
	Drop      bool
	Corrupt   bool
	Duplicate bool
	Reorder   bool
	// CorruptOffset seeds which payload bit flips when Corrupt is set.
	CorruptOffset int
	// DelayMicros is extra in-flight time charged to the virtual clock.
	DelayMicros float64
}

// Counts reports what a plane has done, for stats surfaces and for
// asserting reproducibility (two same-seed runs must produce equal
// Counts).
type Counts struct {
	Frames      int
	Dropped     int
	Corrupted   int
	Duplicated  int
	Reordered   int
	Delayed     int
	Bursts      int
	DelayMicros float64
}

// Metrics writes one row per counter into out, named prefix plus the
// field's name.
func (c Counts) Metrics(prefix string, out map[string]float64) {
	out[prefix+"Frames"] = float64(c.Frames)
	out[prefix+"Dropped"] = float64(c.Dropped)
	out[prefix+"Corrupted"] = float64(c.Corrupted)
	out[prefix+"Duplicated"] = float64(c.Duplicated)
	out[prefix+"Reordered"] = float64(c.Reordered)
	out[prefix+"Delayed"] = float64(c.Delayed)
	out[prefix+"Bursts"] = float64(c.Bursts)
	out[prefix+"DelayMicros"] = c.DelayMicros
}

// Injector is the interface wire.Link consumes; Plane and Script implement it.
type Injector interface {
	Decide(seq, frameBytes int) Decision
}

// Plane is a seeded fault injector. wire.Link calls Decide once per
// transmitted frame, in frame-sequence order, so the decision stream is
// a function of the seed and the traffic alone.
type Plane struct {
	policy    Policy
	rng       *rand.Rand
	burstLeft int
	counts    Counts
}

// New builds a plane from a policy, panicking on out-of-range
// parameters (a policy is programmer-supplied configuration, not
// runtime input).
func New(p Policy) *Plane {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	return &Plane{policy: p, rng: rand.New(rand.NewSource(p.Seed))}
}

// Policy returns the plane's configuration.
func (pl *Plane) Policy() Policy { return pl.policy }

// Counts returns a snapshot of the injected-fault counters.
func (pl *Plane) Counts() Counts {
	return pl.counts
}

// Decide draws the fate of frame seq (frameBytes long). The PRNG is
// consumed identically on every path, so the decision stream depends
// only on the seed and the number of frames seen — not on which faults
// happened to fire.
func (pl *Plane) Decide(seq, frameBytes int) Decision {
	p := pl.policy
	// Fixed draw order and count per frame keeps the stream aligned.
	uBurst := pl.rng.Float64()
	uLoss := pl.rng.Float64()
	uCorrupt := pl.rng.Float64()
	uDup := pl.rng.Float64()
	uReorder := pl.rng.Float64()
	uDelay := pl.rng.Float64()
	uDelayAmt := pl.rng.Float64()
	corruptOffset := pl.rng.Intn(1 << 16)

	pl.counts.Frames++
	loss := p.Loss
	if pl.burstLeft > 0 {
		loss = p.BurstLoss
		pl.burstLeft--
	} else if uBurst < p.BurstProb {
		pl.counts.Bursts++
		pl.burstLeft = p.BurstLen - 1
		loss = p.BurstLoss
	}

	var d Decision
	if uDelay < p.DelayProb {
		d.DelayMicros = uDelayAmt * p.DelayMicrosMax
		pl.counts.Delayed++
		pl.counts.DelayMicros += d.DelayMicros
	}
	if uLoss < loss {
		d.Drop = true
		pl.counts.Dropped++
		return d
	}
	if uCorrupt < p.Corrupt {
		d.Corrupt = true
		d.CorruptOffset = corruptOffset
		pl.counts.Corrupted++
	}
	if uDup < p.Duplicate {
		d.Duplicate = true
		pl.counts.Duplicated++
	}
	if uReorder < p.Reorder {
		d.Reorder = true
		pl.counts.Reordered++
	}
	return d
}
