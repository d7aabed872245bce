package fsserver

import (
	"math/rand"

	"archos/internal/obs"
)

// breaker is a per-Remote circuit breaker over the overload signal.
// When the service sheds this client's ops threshold times in a row,
// the breaker opens: further ops fail fast and locally as ErrDegraded
// — no marshalling, no wire traffic, no server admission work — for a
// seeded-jittered cooldown. The first op after the cooldown is the
// probe: it goes to the wire, and its outcome decides — success (or
// any answer proving the service alive) closes the breaker, another
// shed re-opens it for a fresh jittered cooldown. The jitter is drawn
// from a PRNG seeded with the client ID, so a fleet of open breakers
// probes staggered rather than in lockstep, and every run is
// deterministic per seed.
//
// Every state transition — open, probe, close — is recorded: a
// breaker flipping under load is precisely the anomaly a flight
// recorder exists to explain. The events never touch the PRNG or the
// clock, so an attached recorder cannot perturb the run.
//
// A Remote is driven by one goroutine, so the breaker needs no lock;
// the probe slot is free because calls are sequential.
type breaker struct {
	threshold float64 // consecutive sheds that open the breaker
	cooldown  float64 // base open duration, virtual µs

	consecutive int
	open        bool
	openUntil   float64 // virtual time the next probe may leave
	rng         *rand.Rand

	rec      *obs.Recorder // transition events; nil = silent
	clientID uint32

	opens     int
	fastFails int
}

func newBreaker(threshold int, cooldownMicros float64, clientID uint32) *breaker {
	if threshold < 1 {
		threshold = 1
	}
	return &breaker{
		threshold: float64(threshold),
		cooldown:  cooldownMicros,
		clientID:  clientID,
		rng:       rand.New(rand.NewSource(int64(clientID))),
	}
}

// setRecorder attaches the Remote's recorder for transition events.
func (b *breaker) setRecorder(rec *obs.Recorder) {
	if b != nil {
		b.rec = rec
	}
}

// allow reports whether an op may go to the wire now. While open and
// cooling it fails fast; once the cooldown passes, the next op is
// admitted as the probe.
func (b *breaker) allow(now float64) bool {
	if !b.open {
		return true
	}
	if now >= b.openUntil {
		b.rec.Emit(obs.Event{Layer: "breaker", Name: "probe", Client: b.clientID,
			Val: float64(b.opens)})
		return true
	}
	b.fastFails++
	return false
}

// onOverload records a shed answer. Crossing the threshold — or a
// probe coming back shed — (re)opens the breaker for cooldown scaled
// by a seeded draw in [0.5, 1.5).
func (b *breaker) onOverload(now float64) {
	b.consecutive++
	if float64(b.consecutive) >= b.threshold {
		b.open = true
		b.opens++
		b.openUntil = now + b.cooldown*(0.5+b.rng.Float64())
		b.rec.Emit(obs.Event{Layer: "breaker", Name: "open", Client: b.clientID,
			Dur: b.openUntil - now, Val: float64(b.opens)})
	}
}

// onAlive records proof the service is answering — a successful op or
// a server-side error (the service executed and said no). The breaker
// closes and the shed streak resets.
func (b *breaker) onAlive() {
	if b.open {
		b.rec.Emit(obs.Event{Layer: "breaker", Name: "close", Client: b.clientID,
			Val: float64(b.opens)})
	}
	b.consecutive = 0
	b.open = false
}

// onOther records a non-overload transport failure (loss, deadline).
// It neither feeds nor resets the shed streak: a lossy wire says
// nothing about whether the server is shedding.
func (b *breaker) onOther() {}
