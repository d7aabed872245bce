package wire

import "archos/internal/obs"

// The overload-control plane of the wire layer. Under offered load
// beyond capacity, a transport with unconditional retries and
// unconditional execution turns a transient burst into a metastable
// state: queues fill with requests nobody is waiting for anymore, every
// execution is wasted work, and each waster spawns retransmissions that
// keep the queues full after the burst has passed. Three mechanisms
// break the feedback loop:
//
//   - Deadline propagation: a call's frame header carries the caller's
//     absolute virtual-time deadline (Header.Expiry), so every layer
//     downstream can tell a live request from a dead one.
//   - Deadline shedding: the server (SetShedExpired) refuses calls
//     whose deadline has already passed with a cheap KindReject frame
//     — no handler execution, no log append, nothing cached.
//   - Retry budgets: a caller's retransmissions are paid for by its
//     successes (RetryBudget, a token bucket earning a fraction per
//     success), so N connections cannot multiply an overloaded
//     server's arrival rate. The load generator (workload.RunLoad)
//     holds the one budget, shared across its connection pool.

// RetryBudget is a token bucket that makes retransmissions a fraction
// of successes rather than a multiple of failures. Each delivered reply
// earns ratio tokens (capped at burst); each retransmitted copy spends
// one. When the bucket is empty the copy is not sent — under server
// overload, retries are the fuel of the metastable state, and the
// budget cuts the fuel line. A denial stops the copy, not the call: the
// call still waits out its own deadline. One budget shared by all of a
// process's connections is the classic per-process formulation.
type RetryBudget struct {
	ratio  float64
	burst  float64
	tokens float64
	rec    *obs.Recorder

	// denied counts refused retransmissions; each budget_denied event
	// carries the running count as its Val.
	denied int
}

// SetRecorder attaches a recorder: every denial — the moment the
// budget refuses to fund a retransmission — emits an overload event
// with the denial count, so a trace shows exactly when the fuel line
// was cut. A nil recorder detaches.
func (b *RetryBudget) SetRecorder(rec *obs.Recorder) {
	b.rec = rec
}

// NewRetryBudget builds a budget earning ratio tokens per success,
// holding at most burst. The bucket starts full, so a cold client can
// ride out early losses before its first success.
func NewRetryBudget(ratio, burst float64) *RetryBudget {
	if burst < 1 {
		burst = 1
	}
	return &RetryBudget{ratio: ratio, burst: burst, tokens: burst}
}

// Earn credits one success.
func (b *RetryBudget) Earn() {
	b.tokens += b.ratio
	if b.tokens > b.burst {
		b.tokens = b.burst
	}
}

// Spend takes one token for a retransmission, reporting whether the
// budget allowed it.
func (b *RetryBudget) Spend() bool {
	if b.tokens >= 1 {
		b.tokens--
		return true
	}
	b.denied++
	b.rec.Emit(obs.Event{Layer: "overload", Name: "budget_denied", Val: float64(b.denied)})
	return false
}

// jitterRand is a tiny splitmix64 PRNG used to jitter client backoff.
// It is seeded from the client ID alone, so every client's jitter
// sequence is deterministic (same-seed soaks stay byte-reproducible)
// yet distinct from every other client's — N clients that lose frames
// to one burst do not retransmit in lockstep and re-collide forever.
type jitterRand struct{ state uint64 }

func newJitterRand(clientID uint32) jitterRand {
	// splitmix64's recommended seeding: any nonzero scramble of the ID.
	return jitterRand{state: 0x9E3779B97F4A7C15 ^ (uint64(clientID)+1)*0xBF58476D1CE4E5B9}
}

// float64 returns the next draw in [0, 1).
func (j *jitterRand) float64() float64 {
	j.state += 0x9E3779B97F4A7C15
	z := j.state
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return float64(z>>11) / (1 << 53)
}
